// Row-parallel loop for one-shot set-up passes (map builds, LUT packing).
//
// Unlike parallel_for there is no pool: a call starts short-lived
// std::thread workers, the calling thread works too, and every worker is
// joined before the call returns. Set-up runs once per plan, so thread
// start-up (tens of microseconds) is noise next to a 1080p map build, and
// nothing lingers between plans.
//
// Workers claim bands of whole rows from an atomic cursor. A pass whose
// body writes each row from that row's inputs alone therefore produces the
// same bytes for any worker count; passes that reduce (compact_map's error
// scan) keep per-row partials and fold them in row order afterwards.
//
// The first exception thrown by the body is rethrown on the calling thread
// (the ErrorSlot contract of parallel_for), after every worker has joined.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace fisheye::par {

/// Fewest pixels (rows × cols) one worker is given. Passes below this size
/// run inline on the caller, so small builds — the serve plan cache's
/// window maps — never start a thread on the dispatch path.
inline constexpr std::size_t kMinRowWorkerPixels = std::size_t{1} << 16;

/// Pixels per claimed band: small enough to balance a 1080p pass across
/// any core count, large enough that the cursor is touched rarely.
inline constexpr std::size_t kRowBandPixels = 4096;

namespace detail {

/// The CPUs the calling thread may run on, listed cyclically from the one
/// after the CPU it is running on now (empty where affinity is unknown).
inline std::vector<int> cpus_after_current() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  const int here = sched_getcpu();
  for (int i = 1; i <= CPU_SETSIZE; ++i) {
    const int cpu = (here + i) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
#endif
  return cpus;
}

/// Pin the calling thread to `cpu` (best effort; a no-op off Linux).
inline void pin_self(int cpu) noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
#else
  (void)cpu;
#endif
}

}  // namespace detail

/// Workers parallel_rows uses for a rows × cols pass when the caller does
/// not pick a count: the host's hardware threads, capped so each worker
/// gets at least kMinRowWorkerPixels. 1 means the pass runs inline.
[[nodiscard]] inline unsigned row_workers(std::size_t rows,
                                          std::size_t cols) noexcept {
  const std::size_t by_size = rows * cols / kMinRowWorkerPixels;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::clamp<std::size_t>(by_size, 1, hw));
}

/// Run `body(row_begin, row_end)` over rows [0, rows) of a pass that is
/// `cols` pixels wide. `workers` == 0 picks row_workers(rows, cols);
/// a positive count is used as given (capped at the number of bands), which
/// lets tests exercise several workers on a small input. `body` must be
/// data-race free across disjoint row ranges.
template <class Body>
void parallel_rows(std::size_t rows, std::size_t cols, const Body& body,
                   unsigned workers = 0) {
  if (rows == 0) return;
  const std::size_t band =
      std::max<std::size_t>(1, kRowBandPixels / std::max<std::size_t>(cols, 1));
  const std::size_t bands = (rows + band - 1) / band;
  const std::size_t n = std::min<std::size_t>(
      workers == 0 ? row_workers(rows, cols) : workers, bands);
  if (n <= 1) {
    body(std::size_t{0}, rows);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  detail::ErrorSlot errors;
  const auto work = [&]() noexcept {
    try {
      for (;;) {
        const std::size_t b = cursor.fetch_add(band, std::memory_order_relaxed);
        if (b >= rows) return;
        body(b, std::min(b + band, rows));
      }
    } catch (...) {
      errors.capture();
      cursor.store(rows, std::memory_order_relaxed);  // stop the others early
    }
  };

  // Each helper pins itself to a different CPU than the caller's. A new
  // thread starts on its creator's CPU, and a scheduler that sees the other
  // CPUs as unavailable (a KVM guest whose idle vCPUs the host has
  // preempted) can leave it there for the whole pass, time-slicing every
  // worker on one CPU. The pin lasts only as long as the helper; should a
  // pinned CPU be busy, the band cursor lets the other workers take up
  // its share.
  const std::vector<int> cpus = detail::cpus_after_current();
  std::vector<std::thread> helpers;
  helpers.reserve(n - 1);
  try {
    for (std::size_t i = 1; i < n; ++i)
      helpers.emplace_back([&work, &cpus, i] {
        if (!cpus.empty()) detail::pin_self(cpus[(i - 1) % cpus.size()]);
        work();
      });
  } catch (...) {
    // Starting a thread failed (std::system_error or std::bad_alloc): the
    // helpers already started plus the caller still drain every band, and
    // every started helper is joined below.
  }
  work();
  for (std::thread& t : helpers) t.join();
  errors.rethrow_if_set();
}

}  // namespace fisheye::par
