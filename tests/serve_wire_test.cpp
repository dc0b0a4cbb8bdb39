// GGWIRE1 network-ingestion tests: codec hardening, the socketless
// protocol state machine, resumable sessions over real sockets, the
// client/proxy fault matrix, and the endpoint satellites.
//
// The central claim mirrors the filesystem tailer's: a spool stream pushed
// over the wire — through resets, partial writes, duplicated sends, bit
// flips, stalls, garbage preambles, a killed client, or a killed-and-
// restarted daemon — finalizes with a report byte-identical to a batch
// `gganalyze --recover` over the same source bytes, losing at most the
// unacked tail. Wire damage may cost a connection; it never costs the
// session.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "fault/wire_fault.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/endpoint.hpp"
#include "serve/ingest.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "serve/wire_client.hpp"
#include "trace/salvage.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

namespace fs = std::filesystem;
using serve::wire::Token;

constexpr u64 kT0 = 1'000'000'000;  // fake clocks never start at 0

std::string temp_path(const char* tag) {
  static int counter = 0;
  return (fs::temp_directory_path() /
          ("gg-wire-" + std::string(tag) + "-" + std::to_string(::getpid()) +
           "-" + std::to_string(counter++)))
      .string();
}

std::string make_spool_bytes(u64 seed, u64 grains = 200,
                             u64 epoch_bytes = 512) {
  SynthOptions opts;
  opts.seed = seed;
  opts.workers = 4;
  opts.grains = grains;
  return spool::spool_trace_bytes(synth_trace(opts), epoch_bytes);
}

/// The `gganalyze --recover` pipeline over the source bytes — the batch
/// side of every wire/batch parity assertion below.
std::string batch_report(const std::string& bytes) {
  spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
  if (!rr.usable) return {};
  if (serve::recovery_degraded(rr.report)) salvage_trace(rr.trace);
  if (!validate_trace(rr.trace).empty()) return {};
  return serve::analysis_report_text(rr.trace);
}

/// A session's or stream's REPORT answer, computed uncached.
template <class S>
std::string report_of(const S& s) {
  return serve::snapshot_report_text(s.snapshot());
}

u32 spool_num_workers(const std::string& bytes) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<u32>(
             static_cast<u8>(bytes[spool::kSpoolMagic.size() + i]))
         << (8 * i);
  return v;
}

std::vector<serve::wire::AckMsg> parse_acks(std::string_view out) {
  std::vector<serve::wire::AckMsg> acks;
  serve::wire::Decoder dec;
  dec.feed(out);
  serve::wire::Frame f;
  while (dec.next(&f) == serve::wire::Decoder::Result::Frame) {
    serve::wire::AckMsg a;
    std::string err;
    if (f.type == serve::wire::Type::Ack &&
        serve::wire::decode_ack(f.payload, &a, &err))
      acks.push_back(a);
  }
  return acks;
}

Token test_token(u64 salt) { return Token{0x1234567890abcdefull, salt}; }

// --- codec -----------------------------------------------------------------

TEST(WireCodecTest, RoundTripAllTypes) {
  using namespace serve::wire;
  const Token tok{0xdeadbeefcafef00dull, 0x0123456789abcdefull};

  HelloMsg h;
  std::string err;
  {
    const std::string bytes = encode_hello(tok, 41, "push-1");
    Decoder dec;
    dec.feed(bytes);
    Frame f;
    ASSERT_EQ(dec.next(&f), Decoder::Result::Frame);
    ASSERT_EQ(f.type, Type::Hello);
    ASSERT_TRUE(decode_hello(f.payload, &h, &err)) << err;
    EXPECT_EQ(h.proto, kProtoVersion);
    EXPECT_EQ(h.token, tok);
    EXPECT_EQ(h.resume_seq, 41u);
    EXPECT_EQ(h.name, "push-1");
  }
  {
    OfferMsg o;
    Decoder dec;
    dec.feed(encode_offer(8, 1));
    Frame f;
    ASSERT_EQ(dec.next(&f), Decoder::Result::Frame);
    ASSERT_TRUE(decode_offer(f.payload, &o, &err)) << err;
    EXPECT_EQ(o.num_workers, 8u);
  }
  {
    AckMsg a;
    Decoder dec;
    dec.feed(encode_ack(Status::Shed, 7, "overloaded"));
    Frame f;
    ASSERT_EQ(dec.next(&f), Decoder::Result::Frame);
    ASSERT_TRUE(decode_ack(f.payload, &a, &err)) << err;
    EXPECT_EQ(a.status, Status::Shed);
    EXPECT_EQ(a.acked_seq, 7u);
    EXPECT_EQ(a.message, "overloaded");
  }
  {
    const std::string spool_frame =
        spool::encode_frame(spool::FrameType::Dump, 0, 0, "diag");
    EpochMsg e;
    Decoder dec;
    dec.feed(encode_epoch(3, 1234, spool_frame));
    Frame f;
    ASSERT_EQ(dec.next(&f), Decoder::Result::Frame);
    EXPECT_EQ(f.seq, 3u);
    ASSERT_TRUE(decode_epoch(f.payload, &e, &err)) << err;
    EXPECT_EQ(e.spool_offset, 1234u);
    EXPECT_EQ(e.spool_frame, spool_frame);
  }
  {
    SealMsg s;
    Decoder dec;
    dec.feed(encode_seal(9, EndKind::Garbled, 555, 17));
    Frame f;
    ASSERT_EQ(dec.next(&f), Decoder::Result::Frame);
    ASSERT_TRUE(decode_seal(f.payload, &s, &err)) << err;
    EXPECT_EQ(s.end, EndKind::Garbled);
    EXPECT_EQ(s.end_offset, 555u);
    EXPECT_EQ(s.end_len, 17u);
  }
}

TEST(WireCodecTest, DecoderReassemblesSplitFeeds) {
  using namespace serve::wire;
  const std::string bytes = encode_offer(4, 2) + encode_bye(3);
  Decoder dec;
  Frame f;
  // Dribble one byte at a time: Need until each frame completes.
  size_t frames = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    dec.feed(std::string_view(bytes.data() + i, 1));
    while (dec.next(&f) == Decoder::Result::Frame) ++frames;
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_FALSE(dec.poisoned());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(WireCodecTest, BitFlipPoisons) {
  using namespace serve::wire;
  std::string bytes = encode_offer(4, 1);
  bytes[bytes.size() - 1] ^= 0x10;  // damage the payload
  Decoder dec;
  dec.feed(bytes);
  Frame f;
  EXPECT_EQ(dec.next(&f), Decoder::Result::Poison);
  EXPECT_TRUE(dec.poisoned());
  EXPECT_NE(dec.error().find("checksum"), std::string::npos);
  // Poison is terminal: later clean frames never resurrect the stream.
  dec.feed(encode_bye(2));
  EXPECT_EQ(dec.next(&f), Decoder::Result::Poison);
}

TEST(WireCodecTest, BadMagicAndUnknownTypePoison) {
  using namespace serve::wire;
  {
    Decoder dec;
    dec.feed("XXXXjunkjunkjunkjunkjunkjunk");
    Frame f;
    EXPECT_EQ(dec.next(&f), Decoder::Result::Poison);
    EXPECT_NE(dec.error().find("magic"), std::string::npos);
  }
  {
    std::string bytes = encode_bye(1);
    bytes[4] = 'Z';  // unknown frame type
    Decoder dec;
    dec.feed(bytes);
    Frame f;
    EXPECT_EQ(dec.next(&f), Decoder::Result::Poison);
  }
}

TEST(WireCodecTest, HostileLengthRejectedBeforeAllocation) {
  using namespace serve::wire;
  std::string bytes = encode_bye(1);
  // Patch payload_len to 2^60: the decoder must poison at the header, not
  // allocate a buffer sized by a hostile field.
  const u64 huge = 1ull << 60;
  for (int i = 0; i < 8; ++i)
    bytes[9 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  Decoder dec;
  dec.feed(bytes);
  Frame f;
  EXPECT_EQ(dec.next(&f), Decoder::Result::Poison);
  EXPECT_NE(dec.error().find("payload"), std::string::npos);
}

TEST(WireCodecTest, TokenHexStable) {
  const Token tok{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(tok.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_TRUE(Token{}.zero());
  EXPECT_FALSE(tok.zero());
}

TEST(WireCodecTest, StrictDecodersRejectMalformedPayloads) {
  using namespace serve::wire;
  std::string err;
  HelloMsg h;
  EXPECT_FALSE(decode_hello("short", &h, &err));
  OfferMsg o;
  EXPECT_FALSE(decode_offer("", &o, &err));
  EXPECT_FALSE(decode_offer(std::string(8, '\0'), &o, &err));  // trailing
  AckMsg a;
  std::string bad_status(9, '\0');
  bad_status[0] = '\xff';  // status byte out of range
  EXPECT_FALSE(decode_ack(bad_status, &a, &err));
  SealMsg s;
  EXPECT_FALSE(decode_seal("", &s, &err));
}

// --- socketless protocol state machine -------------------------------------

struct WireFixture {
  obs::Registry reg;
  serve::IngestOptions opts;
  std::unique_ptr<serve::IngestRegistry> registry;

  explicit WireFixture(serve::IngestOptions o = {}) : opts(o) {
    registry = std::make_unique<serve::IngestRegistry>(opts, &reg);
  }

  /// Pushes a whole spool byte stream through one socketless connection.
  void push_all(const std::string& bytes, const Token& tok,
                std::string* out) {
    serve::IngestConnection conn(registry.get(), nullptr);
    u64 now = kT0;
    ASSERT_TRUE(
        conn.on_bytes(serve::wire::encode_hello(tok, 0, "t"), out, now));
    ASSERT_TRUE(conn.on_bytes(
        serve::wire::encode_offer(spool_num_workers(bytes), 0), out, now));
    u32 seq = 1;
    for (const spool::FrameSpan& span : spool::scan_frames(bytes)) {
      ASSERT_TRUE(conn.on_bytes(
          serve::wire::encode_epoch(
              seq++, span.offset,
              std::string_view(bytes.data() + span.offset, span.size)),
          out, now));
      now += 1000;
    }
    ASSERT_TRUE(conn.on_bytes(
        serve::wire::encode_seal(seq, serve::wire::EndKind::Clean,
                                 bytes.size(), 0),
        out, now));
  }
};

TEST(IngestConnectionTest, CleanPushMatchesBatchRecovery) {
  WireFixture fx;
  const std::string bytes = make_spool_bytes(1);
  std::string out;
  fx.push_all(bytes, test_token(1), &out);

  const auto acks = parse_acks(out);
  ASSERT_FALSE(acks.empty());
  for (const auto& a : acks) EXPECT_EQ(a.status, serve::wire::Status::Ok);
  EXPECT_EQ(acks.back().message, "sealed");

  auto stream = fx.registry->find(test_token(1));
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->state(), serve::IngestState::Sealed);
  EXPECT_TRUE(stream->usable());
  const std::string batch = batch_report(bytes);
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(report_of(*stream), batch);
}

TEST(IngestConnectionTest, DuplicateEpochsDedupedOnSeq) {
  WireFixture fx;
  const std::string bytes = make_spool_bytes(2);
  const auto frames = spool::scan_frames(bytes);
  ASSERT_GE(frames.size(), 3u);

  serve::IngestConnection conn(fx.registry.get(), nullptr);
  std::string out;
  ASSERT_TRUE(conn.on_bytes(serve::wire::encode_hello(test_token(2), 0, "d"),
                            &out, kT0));
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_offer(spool_num_workers(bytes), 0), &out, kT0));

  const auto epoch = [&](u32 seq, size_t i) {
    return serve::wire::encode_epoch(
        seq, frames[i].offset,
        std::string_view(bytes.data() + frames[i].offset, frames[i].size));
  };
  out.clear();
  ASSERT_TRUE(conn.on_bytes(epoch(1, 0), &out, kT0));
  ASSERT_TRUE(conn.on_bytes(epoch(1, 0), &out, kT0));  // retransmit
  ASSERT_TRUE(conn.on_bytes(epoch(2, 1), &out, kT0));
  const auto acks = parse_acks(out);
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0].acked_seq, 1u);
  EXPECT_EQ(acks[1].message, "duplicate");
  EXPECT_EQ(acks[1].acked_seq, 1u);
  EXPECT_EQ(acks[2].acked_seq, 2u);

  // A seq gap is a client bug, not damage: session error, connection
  // closes, the stream survives with its acked state intact.
  out.clear();
  EXPECT_FALSE(conn.on_bytes(epoch(9, 2), &out, kT0));
  const auto gap_acks = parse_acks(out);
  ASSERT_EQ(gap_acks.size(), 1u);
  EXPECT_EQ(gap_acks[0].status, serve::wire::Status::SessionErr);
  auto stream = fx.registry->find(test_token(2));
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->acked_seq(), 2u);
  EXPECT_FALSE(stream->finalized());
}

TEST(IngestConnectionTest, EpochBeforeOfferIsBadProto) {
  WireFixture fx;
  serve::IngestConnection conn(fx.registry.get(), nullptr);
  std::string out;
  ASSERT_TRUE(conn.on_bytes(serve::wire::encode_hello(test_token(3), 0, "x"),
                            &out, kT0));
  const std::string frame =
      spool::encode_frame(spool::FrameType::Dump, 0, 0, "d");
  out.clear();
  EXPECT_FALSE(conn.on_bytes(serve::wire::encode_epoch(1, 13, frame), &out,
                             kT0));
  const auto acks = parse_acks(out);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].status, serve::wire::Status::BadProto);
}

TEST(IngestConnectionTest, PoisonedWireKillsConnectionNotSession) {
  WireFixture fx;
  const std::string bytes = make_spool_bytes(4);
  const auto frames = spool::scan_frames(bytes);

  serve::IngestConnection conn(fx.registry.get(), nullptr);
  std::string out;
  ASSERT_TRUE(conn.on_bytes(serve::wire::encode_hello(test_token(4), 0, "p"),
                            &out, kT0));
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_offer(spool_num_workers(bytes), 0), &out, kT0));
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_epoch(
          1, frames[0].offset,
          std::string_view(bytes.data() + frames[0].offset,
                           frames[0].size)),
      &out, kT0));

  // Bit-flip the next wire frame: BadProto ACK, connection closes.
  std::string damaged = serve::wire::encode_epoch(
      2, frames[1].offset,
      std::string_view(bytes.data() + frames[1].offset, frames[1].size));
  damaged[damaged.size() / 2] ^= 0x4;
  out.clear();
  EXPECT_FALSE(conn.on_bytes(damaged, &out, kT0));
  const auto acks = parse_acks(out);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].status, serve::wire::Status::BadProto);

  // The session survived: a new connection resumes at acked=1 and finishes.
  auto stream = fx.registry->find(test_token(4));
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->acked_seq(), 1u);

  serve::IngestConnection conn2(fx.registry.get(), nullptr);
  std::string out2;
  ASSERT_TRUE(conn2.on_bytes(
      serve::wire::encode_hello(test_token(4), 1, "p"), &out2, kT0));
  const auto hello_acks = parse_acks(out2);
  ASSERT_EQ(hello_acks.size(), 1u);
  EXPECT_EQ(hello_acks[0].message, "resumed");
  EXPECT_EQ(hello_acks[0].acked_seq, 1u);
  u32 seq = 2;
  for (size_t i = 1; i < frames.size(); ++i) {
    ASSERT_TRUE(conn2.on_bytes(
        serve::wire::encode_epoch(
            seq++, frames[i].offset,
            std::string_view(bytes.data() + frames[i].offset,
                             frames[i].size)),
        &out2, kT0));
  }
  ASSERT_TRUE(conn2.on_bytes(
      serve::wire::encode_seal(seq, serve::wire::EndKind::Clean,
                               bytes.size(), 0),
      &out2, kT0));
  EXPECT_EQ(stream->state(), serve::IngestState::Sealed);
  EXPECT_EQ(report_of(*stream), batch_report(bytes));
}

TEST(IngestConnectionTest, NewerConnectionSupersedesZombie) {
  WireFixture fx;
  const std::string bytes = make_spool_bytes(5);
  const auto frames = spool::scan_frames(bytes);

  serve::IngestConnection zombie(fx.registry.get(), nullptr);
  std::string out;
  ASSERT_TRUE(zombie.on_bytes(
      serve::wire::encode_hello(test_token(5), 0, "z"), &out, kT0));
  ASSERT_TRUE(zombie.on_bytes(
      serve::wire::encode_offer(spool_num_workers(bytes), 0), &out, kT0));

  // A second connection HELLOs the same token: it adopts the stream.
  serve::IngestConnection fresh(fx.registry.get(), nullptr);
  std::string out2;
  ASSERT_TRUE(fresh.on_bytes(
      serve::wire::encode_hello(test_token(5), 0, "z"), &out2, kT0));

  // The zombie's next epoch must stand down without touching the stream.
  out.clear();
  EXPECT_FALSE(zombie.on_bytes(
      serve::wire::encode_epoch(
          1, frames[0].offset,
          std::string_view(bytes.data() + frames[0].offset,
                           frames[0].size)),
      &out, kT0));
  EXPECT_NE(zombie.close_reason().find("superseded"), std::string::npos);
  auto stream = fx.registry->find(test_token(5));
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->acked_seq(), 0u);
}

TEST(IngestConnectionTest, SessionCapShedsNewTokensOnly) {
  serve::IngestOptions opts;
  opts.max_sessions = 1;
  WireFixture fx(opts);

  serve::IngestConnection first(fx.registry.get(), nullptr);
  std::string out;
  ASSERT_TRUE(first.on_bytes(
      serve::wire::encode_hello(test_token(6), 0, "a"), &out, kT0));

  // A second brand-new token is shed at the cap...
  serve::IngestConnection second(fx.registry.get(), nullptr);
  std::string out2;
  EXPECT_FALSE(second.on_bytes(
      serve::wire::encode_hello(test_token(7), 0, "b"), &out2, kT0));
  const auto acks = parse_acks(out2);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].status, serve::wire::Status::Shed);

  // ...but a resume of the accepted token is always admitted.
  serve::IngestConnection resume(fx.registry.get(), nullptr);
  std::string out3;
  EXPECT_TRUE(resume.on_bytes(
      serve::wire::encode_hello(test_token(6), 0, "a"), &out3, kT0));
  EXPECT_EQ(parse_acks(out3)[0].status, serve::wire::Status::Ok);
}

TEST(IngestConnectionTest, DegradeLadderShedsOffersOfEmptyStreamsOnly) {
  WireFixture fx;
  bool admit = true;
  const auto gate = [&admit] { return admit; };
  const std::string bytes = make_spool_bytes(8);
  const auto frames = spool::scan_frames(bytes);

  // Accepted while Normal: HELLO + OFFER + one epoch.
  serve::IngestConnection conn(fx.registry.get(), gate);
  std::string out;
  ASSERT_TRUE(conn.on_bytes(serve::wire::encode_hello(test_token(8), 0, "g"),
                            &out, kT0));
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_offer(spool_num_workers(bytes), 0), &out, kT0));
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_epoch(
          1, frames[0].offset,
          std::string_view(bytes.data() + frames[0].offset,
                           frames[0].size)),
      &out, kT0));

  // Degraded: a brand-new stream's OFFER is shed before any tailer pauses.
  admit = false;
  serve::IngestConnection fresh(fx.registry.get(), gate);
  std::string out2;
  ASSERT_TRUE(fresh.on_bytes(
      serve::wire::encode_hello(test_token(9), 0, "n"), &out2, kT0));
  out2.clear();
  EXPECT_FALSE(fresh.on_bytes(serve::wire::encode_offer(4, 0), &out2, kT0));
  EXPECT_EQ(parse_acks(out2)[0].status, serve::wire::Status::Shed);

  // But the stream that already holds data resumes through the same gate:
  // an accepted session is never abandoned by admission.
  serve::IngestConnection resume(fx.registry.get(), gate);
  std::string out3;
  ASSERT_TRUE(resume.on_bytes(
      serve::wire::encode_hello(test_token(8), 1, "g"), &out3, kT0));
  out3.clear();
  EXPECT_TRUE(resume.on_bytes(
      serve::wire::encode_offer(spool_num_workers(bytes), 0), &out3, kT0));
  EXPECT_EQ(parse_acks(out3)[0].status, serve::wire::Status::Ok);
}

TEST(IngestConnectionTest, WireBufferCapDisconnectsResumably) {
  serve::IngestOptions opts;
  opts.max_wire_buffer_bytes = 4096;
  WireFixture fx(opts);

  serve::IngestConnection conn(fx.registry.get(), nullptr);
  std::string out;
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_hello(test_token(10), 0, "cap"), &out, kT0));

  // One giant epoch frame fed without its tail: the decoder buffers, the
  // cap trips, the connection dies with a structured, resumable error.
  const std::string big = serve::wire::encode_epoch(
      1, 13, std::string(64 * 1024, 'x'));
  bool closed = false;
  out.clear();
  for (size_t off = 0; off + 512 < big.size(); off += 512) {
    if (!conn.on_bytes(std::string_view(big.data() + off, 512), &out,
                       kT0)) {
      closed = true;
      break;
    }
  }
  ASSERT_TRUE(closed);
  EXPECT_NE(conn.close_reason().find("wire buffer cap"), std::string::npos);
  const auto acks = parse_acks(out);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].status, serve::wire::Status::SessionErr);
  EXPECT_NE(fx.registry->find(test_token(10)), nullptr);
}

TEST(IngestConnectionTest, ReadTimeoutAnswersStructuredAck) {
  WireFixture fx;
  serve::IngestConnection conn(fx.registry.get(), nullptr);
  std::string out;
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_hello(test_token(11), 0, "slow"), &out, kT0));
  out.clear();
  conn.on_timeout(&out);
  EXPECT_FALSE(conn.open());
  const auto acks = parse_acks(out);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].status, serve::wire::Status::SessionErr);
  EXPECT_EQ(acks[0].message, "read timeout");
  // Resumable: the stream is still in the table.
  EXPECT_NE(fx.registry->find(test_token(11)), nullptr);
}

TEST(IngestRegistryTest, SweepFinalizesStaleAndEvictsIdle) {
  serve::IngestOptions opts;
  opts.stale_after_ns = 1000;
  opts.evict_after_ns = 5000;
  WireFixture fx(opts);

  const std::string bytes = make_spool_bytes(12);
  const auto frames = spool::scan_frames(bytes);
  serve::IngestConnection conn(fx.registry.get(), nullptr);
  std::string out;
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_hello(test_token(12), 0, "st"), &out, kT0));
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_offer(spool_num_workers(bytes), 0), &out, kT0));
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_epoch(
          1, frames[0].offset,
          std::string_view(bytes.data() + frames[0].offset,
                           frames[0].size)),
      &out, kT0));

  auto stream = fx.registry->find(test_token(12));
  ASSERT_NE(stream, nullptr);
  EXPECT_FALSE(stream->finalized());

  // No traffic past stale_after_ns: the sweep finalizes with what arrived.
  fx.registry->sweep(kT0 + 2000);
  EXPECT_TRUE(stream->finalized());
  EXPECT_EQ(fx.registry->stream_count(), 1u);

  // Unqueried past evict_after_ns: evicted.
  fx.registry->sweep(kT0 + 2000 + 6000);
  EXPECT_EQ(fx.registry->stream_count(), 0u);
}

TEST(IngestRegistryTest, FindByKeyResolvesIdNameAndTokenPrefix) {
  WireFixture fx;
  const u64 now = kT0;
  auto h = fx.registry->hello(test_token(13), "alpha", now);
  ASSERT_NE(h.stream, nullptr);
  EXPECT_TRUE(h.created);

  EXPECT_EQ(fx.registry->find_by_key(std::to_string(h.stream->id())),
            h.stream);
  EXPECT_EQ(fx.registry->find_by_key("alpha"), h.stream);
  EXPECT_EQ(fx.registry->find_by_key(h.stream->token().hex().substr(0, 12)),
            h.stream);
  EXPECT_EQ(fx.registry->find_by_key("nope"), nullptr);
  EXPECT_EQ(fx.registry->find_by_key("abc"), nullptr);  // prefix too short
}

// --- live sockets: client, faults, resume ----------------------------------

struct LiveServer {
  obs::Registry reg;
  serve::IngestOptions opts;
  std::unique_ptr<serve::IngestRegistry> registry;
  std::unique_ptr<serve::IngestListener> listener;
  std::string socket_path = temp_path("sock");

  explicit LiveServer(serve::IngestOptions o = {}) : opts(o) {
    registry = std::make_unique<serve::IngestRegistry>(opts, &reg);
    listener = std::make_unique<serve::IngestListener>(
        socket_path, registry.get(), nullptr,
        [] { return obs::mono_ns(); });
    std::string err;
    if (!listener->start(&err)) ADD_FAILURE() << err;
  }
  ~LiveServer() {
    if (listener) listener->stop();
    ::unlink(socket_path.c_str());
  }
};

serve::WireClientOptions client_opts(const std::string& socket, u64 seed) {
  serve::WireClientOptions o;
  o.socket_path = socket;
  o.name = "test-client";
  o.seed = seed;
  o.backoff_initial_ns = 1'000'000;  // tests retry fast
  o.backoff_max_ns = 50'000'000;
  return o;
}

TEST(WireClientTest, CleanPushOverSocketMatchesBatch) {
  LiveServer srv;
  const std::string bytes = make_spool_bytes(20);

  serve::WireClient client(client_opts(srv.socket_path, 20));
  std::string err;
  ASSERT_TRUE(client.push_bytes(bytes, &err)) << err;
  EXPECT_TRUE(client.sealed());
  client.bye();

  auto stream = srv.registry->find(client.token());
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->state(), serve::IngestState::Sealed);
  EXPECT_EQ(report_of(*stream), batch_report(bytes));
  EXPECT_EQ(stream->acked_seq(), client.acked_seq());
}

TEST(WireClientTest, DamagedSourceSpoolSealsWithBatchIdenticalTail) {
  LiveServer srv;
  // Torn tail: a spool whose writer died mid-frame. The wire push must
  // carry the same diagnostics batch recovery derives from the file.
  std::string bytes = make_spool_bytes(21);
  const auto frames = spool::scan_frames(bytes);
  bytes.resize(frames.back().offset + 7);  // mid-header tear

  serve::WireClient client(client_opts(srv.socket_path, 21));
  std::string err;
  ASSERT_TRUE(client.push_bytes(bytes, &err)) << err;

  auto stream = srv.registry->find(client.token());
  ASSERT_NE(stream, nullptr);
  const std::string batch = batch_report(bytes);
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(report_of(*stream), batch);
}

struct FaultCase {
  const char* name;
  fault::WireFaultPlan plan;
};

std::vector<FaultCase> fault_matrix() {
  using Kind = fault::WireFaultPlan::Kind;
  std::vector<FaultCase> cases;
  const auto add = [&cases](const char* name, Kind kind, u32 seq,
                            u32 repeat) {
    FaultCase c;
    c.name = name;
    c.plan.kind = kind;
    c.plan.target_seq = seq;
    c.plan.repeat = repeat;
    c.plan.seed = 7;
    c.plan.stall_ns = 30'000'000;  // keep slowloris cases fast
    cases.push_back(c);
  };
  add("reset", Kind::ResetAtFrame, 2, 1);
  add("reset-repeat", Kind::ResetAtFrame, 3, 3);
  add("mid-frame-reset", Kind::ResetMidFrame, 2, 2);
  add("partial-write", Kind::PartialWrite, 1, 4);
  add("duplicate", Kind::DuplicateFrame, 2, 2);
  add("bit-flip", Kind::BitFlip, 2, 2);
  add("slowloris", Kind::Slowloris, 2, 1);
  add("garbage", Kind::GarbagePreamble, 1, 2);
  return cases;
}

TEST(WireClientTest, ClientSideFaultMatrixRecoversWithParity) {
  const std::string bytes = make_spool_bytes(22);
  const std::string batch = batch_report(bytes);
  ASSERT_FALSE(batch.empty());

  u64 seed = 100;
  for (const FaultCase& fc : fault_matrix()) {
    LiveServer srv;
    serve::WireClientOptions opts = client_opts(srv.socket_path, ++seed);
    opts.fault = &fc.plan;
    serve::WireClient client(opts);
    std::string err;
    ASSERT_TRUE(client.push_bytes(bytes, &err)) << fc.name << ": " << err;
    EXPECT_GE(client.faults_injected(), 1u) << fc.name;

    auto stream = srv.registry->find(client.token());
    ASSERT_NE(stream, nullptr) << fc.name;
    EXPECT_EQ(stream->state(), serve::IngestState::Sealed) << fc.name;
    EXPECT_EQ(report_of(*stream), batch) << fc.name;
  }
}

TEST(WireClientTest, ProxyInjectedFaultMatrixRecoversWithParity) {
  const std::string bytes = make_spool_bytes(23);
  const std::string batch = batch_report(bytes);
  ASSERT_FALSE(batch.empty());

  u64 seed = 200;
  for (const FaultCase& fc : fault_matrix()) {
    LiveServer srv;
    fault::WireFaultProxy proxy(temp_path("proxy"), srv.socket_path,
                                fc.plan);
    std::string err;
    ASSERT_TRUE(proxy.start(&err)) << fc.name << ": " << err;

    serve::WireClient client(client_opts(proxy.listen_path(), ++seed));
    ASSERT_TRUE(client.push_bytes(bytes, &err)) << fc.name << ": " << err;
    EXPECT_GE(proxy.injections(), 1u) << fc.name;

    auto stream = srv.registry->find(client.token());
    ASSERT_NE(stream, nullptr) << fc.name;
    EXPECT_EQ(stream->state(), serve::IngestState::Sealed) << fc.name;
    EXPECT_EQ(report_of(*stream), batch) << fc.name;
    proxy.stop();
  }
}

TEST(WireChaosTest, KilledClientResumesFromAnotherProcess) {
  LiveServer srv;
  const std::string bytes = make_spool_bytes(24, /*grains=*/400);
  const auto frames = spool::scan_frames(bytes);
  ASSERT_GE(frames.size(), 8u);
  constexpr u64 kSeed = 77;  // both processes derive the same token

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: push roughly half the stream, then die without SEAL or BYE —
    // the wire equivalent of SIGKILLing a spooling writer.
    serve::WireClient child(client_opts(srv.socket_path, kSeed));
    std::string err;
    if (!child.begin(spool_num_workers(bytes), &err)) ::_exit(10);
    for (size_t i = 0; i < frames.size() / 2; ++i) {
      if (!child.send_frame(
              std::string_view(bytes.data() + frames[i].offset,
                               frames[i].size),
              frames[i].offset, &err))
        ::_exit(11);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // Same seed, new process: the server's acked state is ahead of this
  // client's, so the push dedupes the already-applied prefix and finishes.
  serve::WireClient resumed(client_opts(srv.socket_path, kSeed));
  std::string err;
  ASSERT_TRUE(resumed.push_bytes(bytes, &err)) << err;

  auto stream = srv.registry->find(resumed.token());
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->state(), serve::IngestState::Sealed);
  EXPECT_EQ(report_of(*stream), batch_report(bytes));
}

TEST(WireChaosTest, DaemonKillAndRestartMidIngest) {
  // Satellite: kill ggserved mid-ingest, restart it on the same socket;
  // the client reconnects on its token, detects the lost session, re-pushes
  // from source, and the final report is byte-identical to batch recovery.
  const std::string bytes = make_spool_bytes(25, /*grains=*/1500);
  const std::string socket_path = temp_path("restart");
  constexpr u64 kSeed = 88;

  obs::Registry reg1;
  auto registry1 =
      std::make_unique<serve::IngestRegistry>(serve::IngestOptions{}, &reg1);
  auto listener1 = std::make_unique<serve::IngestListener>(
      socket_path, registry1.get(), nullptr, [] { return obs::mono_ns(); });
  std::string err;
  ASSERT_TRUE(listener1->start(&err)) << err;

  serve::WireClientOptions copts = client_opts(socket_path, kSeed);
  copts.max_attempts = 200;  // the daemon is down for a stretch mid-push
  // Throttle the push (slowloris on every epoch) so the kill below lands
  // while the stream is demonstrably mid-flight, not after it sealed.
  fault::WireFaultPlan throttle;
  throttle.kind = fault::WireFaultPlan::Kind::Slowloris;
  throttle.target_seq = 0;  // every epoch
  throttle.repeat = 1000;
  throttle.stall_ns = 2'000'000;  // 2ms per epoch
  throttle.seed = kSeed;
  copts.fault = &throttle;
  std::string push_err;
  bool push_ok = false;
  std::thread pusher([&] {
    serve::WireClient client(copts);
    push_ok = client.push_bytes(bytes, &push_err);
    client.bye();
  });

  // Wait until the first daemon has durably acked a few epochs (the push
  // is provably mid-stream), then kill it, hold it down briefly, and
  // restart with a fresh (empty) registry on the same socket path.
  const auto token = serve::WireClient(copts).token();
  for (int i = 0; i < 2000; ++i) {
    auto live = registry1->find(token);
    if (live != nullptr && live->acked_seq() >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    auto live = registry1->find(token);
    ASSERT_NE(live, nullptr);
    ASSERT_GE(live->acked_seq(), 2u);
    ASSERT_EQ(live->state(), serve::IngestState::Open);
  }
  listener1->stop();
  listener1.reset();
  registry1.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  obs::Registry reg2;
  serve::IngestRegistry registry2(serve::IngestOptions{}, &reg2);
  serve::IngestListener listener2(socket_path, &registry2, nullptr,
                                  [] { return obs::mono_ns(); });
  ASSERT_TRUE(listener2.start(&err)) << err;

  pusher.join();
  ASSERT_TRUE(push_ok) << push_err;

  // The stream must have landed complete in the restarted daemon.
  serve::WireClient probe(client_opts(socket_path, kSeed));
  auto stream = registry2.find(probe.token());
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->state(), serve::IngestState::Sealed);
  const std::string batch = batch_report(bytes);
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(report_of(*stream), batch);
  listener2.stop();
  ::unlink(socket_path.c_str());
}

// --- Server integration: ingest socket + query surface ---------------------

TEST(ServerWireTest, IngestStreamsAnswerTheQuerySurface) {
  serve::ServerOptions opts;
  opts.ingest_socket_path = temp_path("srvingest");
  opts.socket_path = temp_path("srvquery");
  serve::Server server(opts);
  std::thread runner([&server] { server.run(); });

  const std::string bytes = make_spool_bytes(30);
  serve::WireClient client(client_opts(opts.ingest_socket_path, 30));
  std::string err;
  ASSERT_TRUE(client.push_bytes(bytes, &err)) << err;
  client.bye();

  // The wire stream shows up beside tailed sessions on every query verb.
  const std::string sessions = server.query("SESSIONS");
  EXPECT_NE(sessions.find("ingest"), std::string::npos) << sessions;
  EXPECT_NE(sessions.find("test-client"), std::string::npos);

  const std::string status = server.query("STATUS");
  EXPECT_NE(status.find("ingest_streams=1"), std::string::npos) << status;

  const std::string summary = server.query("SUMMARY test-client");
  EXPECT_EQ(summary.find("ERR"), std::string::npos) << summary;

  const std::string report = server.query("REPORT test-client");
  EXPECT_EQ(report, batch_report(bytes));

  // ggstat --connect against the live query socket sees the same report.
  std::string response;
  ASSERT_TRUE(serve::endpoint_request_retry(
      opts.socket_path, "REPORT test-client", 20, 1'000'000, 50'000'000,
      &response, &err))
      << err;
  EXPECT_EQ(response, report);

  server.stop();
  runner.join();
}

TEST(ServerWireTest, ReportMidPushAnswersLiveSnapshotsThenCachesFinal) {
  // REPORTs of a stream still being pushed analyze a live snapshot; on a
  // trace cut mid-region that used to abort in GrainGraph::build.
  obs::Registry reg;
  serve::ServerOptions opts;
  opts.telemetry = &reg;
  serve::Server server(opts);
  SynthOptions synth;
  synth.seed = 7;
  synth.workers = 4;
  synth.grains = 3000;
  const std::string bytes =
      spool::spool_trace_bytes(synth_trace(synth), 512);
  auto counter = [&reg](const char* name) {
    return reg.snapshot().counters[name];
  };

  serve::IngestConnection conn(&server.ingest(), nullptr);
  std::string out;
  u64 now = kT0;
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_hello(test_token(61), 0, "mid"), &out, now));
  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_offer(spool_num_workers(bytes), 0), &out, now));
  u32 seq = 1;
  size_t reports = 0;
  for (const spool::FrameSpan& span : spool::scan_frames(bytes)) {
    ASSERT_TRUE(conn.on_bytes(
        serve::wire::encode_epoch(
            seq, span.offset,
            std::string_view(bytes.data() + span.offset, span.size)),
        &out, now));
    if (seq++ % 7 != 0) continue;
    const std::string live = server.query("REPORT mid");
    if (live.rfind("===", 0) == 0) {
      ++reports;
    } else {
      EXPECT_EQ(live, "ERR session not usable\n") << "epoch " << seq;
    }
  }
  EXPECT_GE(reports, 100u);
  // Every live answer had a new key: each was rendered, none reused.
  EXPECT_EQ(counter("serve.report_cache.hits"), 0u);
  const u64 live_misses = counter("serve.report_cache.misses");

  ASSERT_TRUE(conn.on_bytes(
      serve::wire::encode_seal(seq, serve::wire::EndKind::Clean,
                               bytes.size(), 0),
      &out, now));
  // The sealed stream: concurrent identical REPORTs render once, and every
  // answer is batch recovery's.
  const std::string batch = batch_report(bytes);
  std::vector<std::string> answers(4);
  std::vector<std::thread> clients;
  for (std::string& a : answers)
    clients.emplace_back([&server, &a] { a = server.query("REPORT mid"); });
  for (std::thread& t : clients) t.join();
  for (const std::string& a : answers) EXPECT_EQ(a, batch);
  EXPECT_EQ(server.query("REPORT mid"), batch);
  EXPECT_EQ(counter("serve.report_cache.misses"), live_misses + 1);
  EXPECT_EQ(counter("serve.report_cache.hits"), 4u);
}

// --- endpoint satellites ----------------------------------------------------

TEST(EndpointHardeningTest, ClientDisconnectMidReportDoesNotKillServer) {
  // Regression: the response writer must use MSG_NOSIGNAL — a client that
  // disconnects mid-REPORT used to SIGPIPE the whole daemon.
  const std::string path = temp_path("sigpipe");
  serve::Endpoint ep(path, [](const std::string&) {
    return std::string(8 << 20, 'r');  // a response far beyond any buffer
  });
  std::string err;
  ASSERT_TRUE(ep.start(&err)) << err;

  for (int i = 0; i < 3; ++i) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr),
              0);
    ASSERT_GT(::send(fd, "REPORT x\n", 9, MSG_NOSIGNAL), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ::close(fd);  // disconnect while the server is mid-write
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Still alive and serving (the process would be dead on SIGPIPE).
  std::string response;
  ASSERT_TRUE(serve::endpoint_request(path, "PING", &response, &err)) << err;
  ep.stop();
}

TEST(EndpointHardeningTest, SlowlorisGetsStructuredTimeout) {
  const std::string path = temp_path("slow");
  serve::Endpoint ep(path, [](const std::string&) { return "OK\n"; },
                     /*read_deadline_ns=*/100'000'000);
  std::string err;
  ASSERT_TRUE(ep.start(&err)) << err;

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  // Trickle a request that never completes its line.
  ASSERT_GT(::send(fd, "STAT", 4, MSG_NOSIGNAL), 0);
  std::string response;
  char buf[256];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(response, "ERR timeout\n");
  ep.stop();
}

TEST(EndpointHardeningTest, RequestRetryRidesOutSlowDaemonStartup) {
  const std::string path = temp_path("retry");
  std::thread late_server([&path] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    serve::Endpoint ep(path, [](const std::string&) { return "PONG\n"; });
    std::string err;
    if (!ep.start(&err)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ep.stop();
  });

  // Immediate single-shot fails (nothing is listening yet)...
  std::string response, err;
  EXPECT_FALSE(serve::endpoint_request(path, "PING", &response, &err));
  // ...but the retry client rides out the startup race.
  EXPECT_TRUE(serve::endpoint_request_retry(path, "PING", 50, 5'000'000,
                                            50'000'000, &response, &err))
      << err;
  EXPECT_EQ(response, "PONG\n");
  late_server.join();
}

// --- recorder network sink: the spool frame tap ----------------------------

TEST(FrameTapTest, TapMirrorsExactlyTheWrittenStream) {
  // The recorder-side half of "spool straight to a daemon": every frame
  // the sink emits reaches the tap with its stream offset, so a WireClient
  // wired to the tap pushes a byte-exact mirror of the file.
  const std::string path = temp_path("tap.ggspool");
  std::vector<std::pair<u64, std::string>> tapped;

  spool::SpoolOptions opts;
  opts.path = path;
  opts.crash_handlers = false;
  opts.frame_tap = [&tapped](std::string_view frame, u64 offset) {
    tapped.emplace_back(offset, std::string(frame));
  };

  TraceMeta meta;
  meta.num_workers = 2;
  std::string err;
  auto sink = spool::SpoolSink::open(opts, meta, 2, &err);
  ASSERT_NE(sink, nullptr) << err;
  sink->append_dump("supervisor note");
  sink->finish(meta);

  std::string file_bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    file_bytes = ss.str();
  }
  ::unlink(path.c_str());

  const auto frames = spool::scan_frames(file_bytes);
  ASSERT_EQ(tapped.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(tapped[i].first, frames[i].offset);
    EXPECT_EQ(tapped[i].second,
              file_bytes.substr(frames[i].offset, frames[i].size));
  }
}

}  // namespace
}  // namespace gg
