#pragma once

// Deterministic parallel stable sort for the trace/load hot path.
//
// Strategy: stable-sort a static block partition of the input (one block per
// worker), then merge adjacent runs pairwise with std::inplace_merge until a
// single run remains. Every constituent step is stable and always merges an
// earlier-block run on the left, so the result is *the* stable sort of the
// input — identical for every thread count, including 1, and identical to a
// plain std::stable_sort. That property is what lets Trace::finalize() run
// parallel by default while corrupted traces with duplicate record keys keep
// byte-identical salvage output across thread counts and io engines.

#include <algorithm>
#include <thread>
#include <vector>

#include "common/par_for.hpp"

namespace gg {

/// Stable-sorts [first, last) with `cmp` using up to `threads` workers.
/// Output is the stable sort of the range regardless of `threads`. Input
/// that is already sorted (a GGTB3 file stores canonical order) returns
/// after one comparison pass: a stable sort of sorted input is the identity.
template <class It, class Cmp>
void par_stable_sort(It first, It last, int threads, Cmp cmp) {
  if (std::is_sorted(first, last, cmp)) return;
  const size_t n = static_cast<size_t>(last - first);
  size_t t = static_cast<size_t>(std::max(threads, 1));
  if (t > n) t = n;
  if (t <= 1 || n < kParForMinItems) {
    std::stable_sort(first, last, cmp);
    return;
  }
  // Block b covers [n*b/t, n*(b+1)/t) — the par_for_blocks partition.
  std::vector<size_t> bounds(t + 1);
  for (size_t b = 0; b <= t; ++b) bounds[b] = n * b / t;
  par_for_blocks(n, static_cast<int>(t), [&](size_t, size_t lo, size_t hi) {
    std::stable_sort(first + static_cast<ptrdiff_t>(lo),
                     first + static_cast<ptrdiff_t>(hi), cmp);
  });
  // Pairwise merge rounds; each round's merges are independent.
  while (bounds.size() > 2) {
    std::vector<size_t> next;
    next.reserve(bounds.size() / 2 + 2);
    next.push_back(bounds.front());
    std::vector<std::thread> workers;
    for (size_t i = 0; i + 2 < bounds.size(); i += 2) {
      const size_t lo = bounds[i], mid = bounds[i + 1], hi = bounds[i + 2];
      if (i + 4 < bounds.size()) {
        workers.emplace_back([first, lo, mid, hi, &cmp] {
          std::inplace_merge(first + static_cast<ptrdiff_t>(lo),
                             first + static_cast<ptrdiff_t>(mid),
                             first + static_cast<ptrdiff_t>(hi), cmp);
        });
      } else {
        std::inplace_merge(first + static_cast<ptrdiff_t>(lo),
                           first + static_cast<ptrdiff_t>(mid),
                           first + static_cast<ptrdiff_t>(hi), cmp);
      }
      next.push_back(hi);
    }
    if ((bounds.size() - 1) % 2 == 1) next.push_back(bounds.back());
    for (auto& w : workers) w.join();
    bounds = std::move(next);
  }
}

/// Vector convenience overload.
template <class T, class Cmp>
void par_stable_sort(std::vector<T>& v, int threads, Cmp cmp) {
  par_stable_sort(v.begin(), v.end(), threads, cmp);
}

}  // namespace gg
