// Row-parallel loop for one-shot set-up passes (map builds, LUT packing).
//
// Unlike parallel_for there is no pool: a call starts short-lived
// std::thread workers, each pinned to its own CPU by the placement rule
// (parallel/placement.hpp), and joins every one before it returns. Set-up
// runs once per plan, so thread start-up (tens of microseconds) is noise
// next to a 1080p map build, and nothing lingers between plans.
//
// The calling thread waits rather than claiming bands itself. A working
// caller writes its per-pixel temporaries to its own stack just below the
// frames holding what every worker reads per pixel (the body's captures,
// the map being built); when the two land on one cache line, the line
// bounces between cores on every pixel. On a 4-CPU host that made whole
// passes of a 720p map build 2.5-3.5x slower, decided only by where the
// caller's stack happened to start.
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
#include "parallel/placement.hpp"

namespace fisheye::par {

/// Fewest pixels (rows × cols) one worker is given. Passes below this size
/// run inline on the caller, so small builds — the serve plan cache's
/// window maps — never start a thread on the dispatch path.
inline constexpr std::size_t kMinRowWorkerPixels = std::size_t{1} << 16;

/// Pixels per claimed band: small enough to balance a 1080p pass across
/// any core count, large enough that the cursor is touched rarely.
inline constexpr std::size_t kRowBandPixels = 4096;

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

  const std::vector<int> cpus = claim_cpus(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i)
      threads.emplace_back([&work, &cpus, i] {
        if (!cpus.empty()) pin_self(cpus[i]);
        work();
      });
  } catch (...) {
    // Starting a thread failed (std::system_error or std::bad_alloc): the
    // workers already started still drain every band, and are joined below.
  }
  if (threads.empty()) work();  // none started: run the pass here
  for (std::thread& t : threads) t.join();
  errors.rethrow_if_set();
}

}  // namespace fisheye::par
