#!/usr/bin/env python3
"""Repository benchmark: builds ggbench from source, runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-batch|serve-live|record-apps \
        --seed N --seconds S --trace 0|1 [--tiny]

Builds perfbench/ (which compiles ../src and ../tools/ggserved.cpp) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload, and prints a
facts line followed by one JSON result line as the last line of stdout.
Build output and diagnostics go to stderr. Exit status 0 only when the run
finished and every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze-batch", "serve-live", "record-apps")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(out):
    """Configures and builds ggbench and the daemon; returns the bin dir."""
    bdir = os.path.join(out, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    if os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return bdir


def source_digest():
    """Commit id when this is a git checkout, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha1:" + h.hexdigest()


def idlest_cpu():
    """The allowed CPU with the most idle time over a short sample."""
    def idle():
        out = {}
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith("cpu") and line[3].isdigit():
                    parts = line.split()
                    out[int(parts[0][3:])] = int(parts[4]) + int(parts[5])
        return out
    allowed = os.sched_getaffinity(0)
    try:
        before = idle()
        time.sleep(0.5)
        after = idle()
    except (OSError, ValueError, IndexError):
        return max(allowed)
    return max(sorted(allowed),
               key=lambda c: after.get(c, 0) - before.get(c, 0))


def cpu_ticks(cpu):
    """(steal, total) jiffies of one CPU from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            for line in f:
                parts = line.split()
                if parts[0] == "cpu%d" % cpu:
                    ticks = [int(x) for x in parts[1:9]]
                    return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        pass
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs: checks the plumbing, not the numbers")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "src", "trace", "trace.hpp"))
            and os.path.isfile(os.path.join(ROOT, "tools", "ggserved.cpp"))):
        fail("no repository sources beside perfbench/ (need src/ and tools/)",
             2)

    out = build_dir()
    bdir = build(out)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    # Relative to the repository root, ggbench's working directory: keeps the
    # daemon's unix socket paths short.
    workdir = os.path.relpath(os.path.join(out, "work", tag), ROOT)
    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "ggbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--ggserved", os.path.join(bdir, "ggserved"),
           "--spans", os.path.join(spans_dir, tag + ".json")]
    if args.tiny:
        cmd.append("--tiny")

    # The host gives about one core whatever nproc says, so ggbench and
    # everything it starts share one CPU: threads never migrate, and which
    # core another tenant is busy on matters less.
    cpu = idlest_cpu()
    ticks0 = cpu_ticks(cpu)
    # Own process group, so the daemon serve-live starts is stopped with it
    # whatever happens.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass

    lines = stdout.strip().splitlines()
    facts = next((l for l in lines if l.startswith("facts ")), None)
    if not lines or facts is None:
        fail("ggbench exited %d without a result" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        facts = json.loads(facts[len("facts "):])
    except json.JSONDecodeError:
        fail("ggbench printed a malformed result")
    facts["commit"] = source_digest()
    facts["host.pinned_cpu"] = cpu
    ticks1 = cpu_ticks(cpu)
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Time the hypervisor gave the pinned CPU to someone else.
        facts["host.steal_share"] = ((ticks1[0] - ticks0[0])
                                     / float(ticks1[1] - ticks0[1]))
    print("facts " + json.dumps(facts, sort_keys=True))
    print(lines[-1])
    sys.stdout.flush()
    ok = proc.returncode == 0 and result.get("correct") is True
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
