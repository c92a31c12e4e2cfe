// ThreadPool behaviour: completion, idle waiting, indexed dispatch,
// shutdown, a stress run, and thread placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "parallel/parallel_rows.hpp"
#include "parallel/placement.hpp"
#include "parallel/sync.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"
#include "util/error.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace fisheye::par {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, InvalidSizeViolatesContract) {
  EXPECT_THROW(ThreadPool(2000), fisheye::InvalidArgument);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  pool.submit([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.store(true);
  });
  pool.wait_idle();
  EXPECT_TRUE(done.load());
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
  }  // destructor joins
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, RunIndexedCoversEachIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.run_indexed(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, RunIndexedZeroIsNoop) {
  ThreadPool pool(2);
  pool.run_indexed(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, RunIndexedUsesMultipleWorkers) {
  // With 4 workers and tasks that block until all lanes arrive, completion
  // proves parallel execution (would deadlock on fewer lanes than the
  // barrier requires if work were serialized... so use a generous timeout
  // pattern instead: count distinct thread ids).
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.run_indexed(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::scoped_lock lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
}

TEST(ThreadPool, RunIndexedDoesNotWaitForOtherServices) {
  // A 1-lane stream service holds one of four lanes until it is stopped;
  // run_indexed(3) on the other three must return without waiting for it.
  // The call runs through std::async with a bounded wait, so a regression
  // fails here instead of hanging the suite.
  ThreadPool pool(4);
  WorkStealingPool service(pool);
  StreamScheduler streams(1, 1);
  service.start_service(streams);
  std::atomic<std::size_t> ran{0};
  auto call = std::async(std::launch::async, [&] {
    pool.run_indexed(3, [&ran](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  });
  const std::future_status status = call.wait_for(std::chrono::seconds(10));
  service.stop_service();  // lets a regressed call finish before `call` joins
  EXPECT_EQ(status, std::future_status::ready)
      << "run_indexed waited for an unrelated service lane";
  call.get();
  EXPECT_EQ(ran.load(), 3u);
}

TEST(ThreadPool, DefaultPoolIsSingleton) {
  ThreadPool& a = default_pool();
  ThreadPool& b = default_pool();
  EXPECT_EQ(&a, &b);
}

TEST(SpinBarrier, SynchronizesParticipants) {
  constexpr int kThreads = 4;
  SpinBarrier barrier(kThreads);
  std::atomic<int> before{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      before.fetch_add(1);
      barrier.arrive_and_wait();
      // After the barrier every participant must have incremented.
      if (before.load() != kThreads) failures.fetch_add(1);
      barrier.arrive_and_wait();  // reusable (sense-reversing)
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(CacheAligned, OccupiesFullCacheLine) {
  static_assert(alignof(CacheAligned<int>) == 64);
  static_assert(sizeof(CacheAligned<int>) == 64);
  CacheAligned<int> arr[2];
  const auto delta = reinterpret_cast<char*>(&arr[1]) -
                     reinterpret_cast<char*>(&arr[0]);
  EXPECT_EQ(delta, 64);
}

TEST(ThreadPoolStress, ManySmallBatches) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.run_indexed(257, [&sum](std::size_t i) {
      sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
    });
  }
  // 20 * sum(0..256) = 20 * 257*256/2
  EXPECT_EQ(sum.load(), 20LL * 257 * 256 / 2);
}

#if defined(__linux__)

// Placement tests read each thread's affinity mask rather than timing
// sched_getcpu(): the mask is what the pool set, whatever the scheduler
// did with it since.

/// The CPUs in the calling thread's affinity mask, ascending.
std::vector<int> own_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  pthread_getaffinity_np(pthread_self(), sizeof set, &set);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

/// The masks of `n` distinct workers of `pool`: n tasks meet at a latch,
/// so no worker can run two of them.
std::vector<std::vector<int>> worker_masks(ThreadPool& pool, unsigned n) {
  std::latch met(n);
  std::vector<std::vector<int>> masks(n);
  for (unsigned i = 0; i < n; ++i)
    pool.submit([&met, &masks, i] {
      masks[i] = own_mask();
      met.arrive_and_wait();
    });
  pool.wait_idle();
  return masks;
}

/// Restricts the calling thread's mask to `cpus` until destroyed. Run on
/// the test's main thread, whose mask is the process's allowed set.
class ScopedMask {
 public:
  explicit ScopedMask(const std::vector<int>& cpus) {
    pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }
  ~ScopedMask() {
    pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }
  ScopedMask(const ScopedMask&) = delete;
  ScopedMask& operator=(const ScopedMask&) = delete;

 private:
  cpu_set_t saved_;
};

bool contains(const std::vector<int>& cpus, int cpu) {
  return std::find(cpus.begin(), cpus.end(), cpu) != cpus.end();
}

TEST(Placement, EachWorkerHasItsOwnCpu) {
  const std::vector<int> allowed = allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  const unsigned n =
      static_cast<unsigned>(std::min<std::size_t>(4, allowed.size()));
  ThreadPool pool(n);
  std::set<int> used;
  for (const std::vector<int>& mask : worker_masks(pool, n)) {
    ASSERT_EQ(mask.size(), 1u);
    EXPECT_TRUE(contains(allowed, mask[0])) << mask[0];
    used.insert(mask[0]);
  }
  EXPECT_EQ(used.size(), n);
}

TEST(Placement, WorkersStayInsideARestrictedMask) {
  const std::vector<int> allowed = allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  // The first and last allowed CPUs (one CPU under a one-CPU mask); a
  // 4-thread pool wraps round them.
  const std::vector<int> narrow = {allowed.front(), allowed.back()};
  std::vector<std::vector<int>> masks;
  {
    const ScopedMask restrict_to(narrow);
    ThreadPool pool(4);
    masks = worker_masks(pool, 4);
  }
  for (const std::vector<int>& mask : masks) {
    ASSERT_EQ(mask.size(), 1u);
    EXPECT_TRUE(contains(narrow, mask[0])) << mask[0];
  }
  EXPECT_EQ(allowed_cpus(), allowed);  // restored
}

TEST(Placement, ConcurrentSmallPoolsDoNotShareCpus) {
  if (allowed_cpus().size() < 4) GTEST_SKIP() << "needs 4 allowed CPUs";
  ThreadPool a(2);
  ThreadPool b(2);
  std::set<int> used;
  for (ThreadPool* pool : {&a, &b})
    for (const std::vector<int>& mask : worker_masks(*pool, 2)) {
      ASSERT_EQ(mask.size(), 1u);
      used.insert(mask[0]);
    }
  EXPECT_EQ(used.size(), 4u);
}

TEST(Placement, ParallelRowsInsideAPinnedLaneSpreadsItsWorkers) {
  const std::vector<int> allowed = allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  // A pass of k workers from a lane pinned to one CPU: the workers must
  // take their CPUs from the process's allowed set, not inherit the lane's
  // one-CPU mask. The lane itself only waits.
  const std::size_t k = std::clamp<std::size_t>(allowed.size(), 2, 3);
  ThreadPool pool(1);
  std::vector<int> lane;
  std::map<std::thread::id, std::vector<int>> workers;
  bool lane_ran_a_band = false;
  pool.submit([&] {
    lane = own_mask();
    const std::thread::id lane_id = std::this_thread::get_id();
    // 16 one-row bands; each worker's first band waits for the others, so
    // every worker runs at least one.
    std::mutex mu;
    std::latch met(static_cast<std::ptrdiff_t>(k));
    parallel_rows(
        16, kRowBandPixels,
        [&](std::size_t, std::size_t) {
          const std::thread::id id = std::this_thread::get_id();
          {
            const std::scoped_lock lock(mu);
            if (id == lane_id) lane_ran_a_band = true;
            if (!workers.emplace(id, own_mask()).second) return;
          }
          met.arrive_and_wait();
        },
        static_cast<unsigned>(k));
  });
  pool.wait_idle();
  ASSERT_EQ(lane.size(), 1u);
  EXPECT_FALSE(lane_ran_a_band);
  ASSERT_EQ(workers.size(), k);
  std::set<int> used;
  for (const auto& [id, mask] : workers) {
    ASSERT_EQ(mask.size(), 1u);
    EXPECT_TRUE(contains(allowed, mask[0])) << mask[0];
    used.insert(mask[0]);
  }
  // Not stacked on the lane's CPU: one CPU each while they fit.
  if (k <= allowed.size()) {
    EXPECT_EQ(used.size(), k);
  }
}

#endif  // __linux__

}  // namespace
}  // namespace fisheye::par
