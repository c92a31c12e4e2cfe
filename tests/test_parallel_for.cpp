// parallel_for scheduling-policy semantics: exactly-once coverage for every
// schedule, contiguity of chunks, exception propagation; the same contract
// for the pool-free parallel_rows set-up loop, plus its inline threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/parallel_rows.hpp"
#include "util/error.hpp"

namespace fisheye::par {
namespace {

// gtest names each case by dumping the bytes of Case, so every byte must be
// set: `gap` fills the alignment hole after the 4-byte enum, which would
// otherwise carry stack garbage into the test name and change it run to run.
struct Case {
  constexpr Case(Schedule s, std::size_t n_, std::size_t chunk_)
      : schedule(s), n(n_), chunk(chunk_) {}

  Schedule schedule;
  std::uint32_t gap = 0;
  std::size_t n;
  std::size_t chunk;
};
static_assert(sizeof(Schedule) == 4 &&
              std::has_unique_object_representations_v<Case>);

class ParallelForSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelForSweep, CoversEveryIndexExactlyOnce) {
  const Case c = GetParam();
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(c.n);
  parallel_for(
      pool, c.n,
      [&hits](std::size_t b, std::size_t e) {
        ASSERT_LE(b, e);
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      {c.schedule, c.chunk});
  for (std::size_t i = 0; i < c.n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ParallelForSweep,
    ::testing::Values(Case{Schedule::Static, 1, 1},
                      Case{Schedule::Static, 100, 1},
                      Case{Schedule::Static, 1001, 1},
                      Case{Schedule::Dynamic, 1, 1},
                      Case{Schedule::Dynamic, 100, 7},
                      Case{Schedule::Dynamic, 1001, 64},
                      Case{Schedule::Guided, 1, 1},
                      Case{Schedule::Guided, 100, 4},
                      Case{Schedule::Guided, 1001, 8},
                      Case{Schedule::Guided, 4096, 1},
                      Case{Schedule::Steal, 1, 1},
                      Case{Schedule::Steal, 100, 7},
                      Case{Schedule::Steal, 1001, 64},
                      Case{Schedule::Steal, 4096, 1}));

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t, std::size_t) {
    FAIL() << "body must not run for n == 0";
  });
}

TEST(ParallelFor, StaticChunksAreContiguousAndOrderedPerLane) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  parallel_for(pool, 103, [&](std::size_t b, std::size_t e) {
    const std::scoped_lock lock(mu);
    ranges.emplace_back(b, e);
  });
  // Static: at most one range per lane, ranges tile [0, 103).
  EXPECT_LE(ranges.size(), 4u);
  std::sort(ranges.begin(), ranges.end());
  std::size_t expect = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ(b, expect);
    expect = e;
  }
  EXPECT_EQ(expect, 103u);
}

TEST(ParallelFor, DynamicRespectsChunkSize) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<std::size_t> sizes;
  parallel_for(
      pool, 100,
      [&](std::size_t b, std::size_t e) {
        const std::scoped_lock lock(mu);
        sizes.push_back(e - b);
      },
      {Schedule::Dynamic, 16});
  for (std::size_t s : sizes) EXPECT_LE(s, 16u);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 100u);
}

TEST(ParallelFor, GuidedChunksShrink) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  parallel_for(
      pool, 10000,
      [&](std::size_t b, std::size_t e) {
        const std::scoped_lock lock(mu);
        ranges.emplace_back(b, e);
      },
      {Schedule::Guided, 8});
  std::sort(ranges.begin(), ranges.end());
  // First claimed chunk is remaining/(2*lanes) = 2500-ish; the final chunks
  // bottom out at the minimum.
  EXPECT_GE(ranges.front().second - ranges.front().first, 1000u);
  EXPECT_LE(ranges.back().second - ranges.back().first, 8u);
}

TEST(ParallelFor, ExceptionIsRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 100,
                   [](std::size_t b, std::size_t) {
                     if (b >= 25) throw fisheye::IoError("lane failure");
                   }),
      fisheye::IoError);
  // Pool must still be usable afterwards.
  std::atomic<int> ok{0};
  parallel_for_each(pool, 10, [&ok](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ParallelFor, FirstExceptionWins) {
  ThreadPool pool(4);
  try {
    parallel_for_each(
        pool, 100,
        [](std::size_t i) {
          if (i % 2 == 0) throw fisheye::IoError("even");
          throw fisheye::ResourceError("odd");
        },
        {Schedule::Dynamic, 1});
    FAIL() << "must throw";
  } catch (const fisheye::Error& e) {
    // Exactly one of the two exception types, intact message.
    const std::string msg = e.what();
    EXPECT_TRUE(msg == "even" || msg == "odd") << msg;
  }
}

TEST(ParallelFor, ZeroChunkViolatesContract) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(
                   pool, 10, [](std::size_t, std::size_t) {},
                   {Schedule::Dynamic, 0}),
               fisheye::InvalidArgument);
}

TEST(ParallelForEach, SumsCorrectly) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  parallel_for_each(
      pool, 1000, [&sum](std::size_t i) { sum.fetch_add(static_cast<long long>(i)); },
      {Schedule::Guided, 4});
  EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
}

TEST(ParallelForLanes, LanesAreInRangeAndNeverShared) {
  // The lane index is what lets a caller hand each body its own scratch:
  // it must stay below pool.size() and never be held by two running
  // bodies at once, under every schedule.
  ThreadPool pool(4);
  for (const Schedule s : {Schedule::Static, Schedule::Dynamic,
                           Schedule::Guided, Schedule::Steal}) {
    std::vector<std::atomic<int>> busy(pool.size());
    std::vector<std::atomic<int>> hits(1000);
    std::atomic<bool> shared{false};
    parallel_for_lanes(
        pool, hits.size(),
        [&](std::size_t lane, std::size_t b, std::size_t e) {
          ASSERT_LT(lane, pool.size());
          if (busy[lane].fetch_add(1) != 0) shared = true;
          for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
          std::this_thread::yield();
          busy[lane].fetch_sub(1);
        },
        {s, 7});
    EXPECT_FALSE(shared.load()) << schedule_name(s);
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << schedule_name(s) << " index " << i;
  }
}

// --- parallel_rows ----------------------------------------------------------

TEST(ParallelRows, CoversEveryRowExactlyOnce) {
  // 131 rows is not a multiple of the band at either width.
  for (const std::size_t cols : {1u, 257u, 5000u}) {
    for (const unsigned workers : {0u, 1u, 2u, 5u, 16u}) {
      std::vector<std::atomic<int>> hits(131);
      parallel_rows(
          hits.size(), cols,
          [&hits](std::size_t b, std::size_t e) {
            ASSERT_LT(b, e);
            for (std::size_t y = b; y < e; ++y) hits[y].fetch_add(1);
          },
          workers);
      for (std::size_t y = 0; y < hits.size(); ++y)
        EXPECT_EQ(hits[y].load(), 1) << cols << " " << workers << " " << y;
    }
  }
}

TEST(ParallelRows, ZeroRowsNeverCallsBody) {
  int calls = 0;
  parallel_rows(0, 100, [&calls](std::size_t, std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
}

TEST(ParallelRows, ExplicitWorkersRunOnSeveralThreads) {
  // One row per band at this width; a blocking body forces all four
  // workers to take part, whatever the host's core count.
  std::mutex mu;
  std::vector<std::thread::id> ids;
  std::atomic<int> arrived{0};
  parallel_rows(
      4, 4096,
      [&](std::size_t, std::size_t) {
        {
          const std::scoped_lock lock(mu);
          ids.push_back(std::this_thread::get_id());
        }
        arrived.fetch_add(1);
        while (arrived.load() < 4) std::this_thread::yield();
      },
      4);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()) - ids.begin(), 4);
}

TEST(ParallelRows, RethrowsExceptionFromABand) {
  for (const unsigned workers : {1u, 3u}) {
    std::atomic<int> bands{0};
    EXPECT_THROW(parallel_rows(
                     64, 4096,
                     [&bands](std::size_t b, std::size_t e) {
                       bands.fetch_add(1);
                       if (b <= 17 && 17 < e)
                         throw std::runtime_error("row 17");
                     },
                     workers),
                 std::runtime_error)
        << workers;
    EXPECT_GE(bands.load(), 1);
  }
}

TEST(ParallelRows, SmallPassesRunInlineOnTheCaller) {
  // The serve plan cache's window maps are 128x96: below the threshold at
  // any core count, so they never start a thread.
  EXPECT_EQ(row_workers(96, 128), 1u);
  EXPECT_EQ(row_workers(131, 257), 1u);
  EXPECT_EQ(row_workers(1, kMinRowWorkerPixels - 1), 1u);
  EXPECT_GE(row_workers(1080, 1920), 1u);
  EXPECT_LE(row_workers(1080, 1920),
            std::max(1u, std::thread::hardware_concurrency()));

  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_rows(96, 128, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(b, 0u);  // inline: one call over every row
    EXPECT_EQ(e, 96u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace fisheye::par
