#include "parallel/thread_pool.hpp"

#include <atomic>

#include "parallel/placement.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"

namespace fisheye::par {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = util::cpu_info().hardware_threads;
  FE_EXPECTS(threads >= 1 && threads <= 1024);
  // Each worker pins itself to its own CPU for the pool's lifetime (the
  // rule in parallel/placement.hpp): lanes sleep between bursts, and an
  // unpinned lane is placed afresh on every wake-up.
  const std::vector<int> cpus = claim_cpus(threads);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    const int cpu = cpus.empty() ? -1 : cpus[i];
    workers_.emplace_back([this, cpu] {
      pin_self(cpu);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mu_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::scoped_lock lock(mu_);
    FE_EXPECTS(!stopping_);
    if (ring_count_ == ring_.size()) {
      // Grow and restore contiguity. Rare: capacity is bounded by the peak
      // outstanding-task count (the lane count for run_indexed frames), so
      // steady-state frames never reach here.
      std::vector<std::function<void()>> bigger(
          std::max<std::size_t>(ring_.size() * 2, 16));
      for (std::size_t i = 0; i < ring_count_; ++i)
        bigger[i] = std::move(ring_[(ring_head_ + i) % ring_.size()]);
      ring_ = std::move(bigger);
      ring_head_ = 0;
    }
    ring_[(ring_head_ + ring_count_) % ring_.size()] = std::move(task);
    ++ring_count_;
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::lanes_done(std::size_t& pending, std::size_t k) {
  const std::scoped_lock lock(mu_);
  pending -= k;
  if (pending == 0) cv_lanes_.notify_all();
}

void ThreadPool::wait_lanes(const std::size_t& pending) {
  std::unique_lock lock(mu_);
  cv_lanes_.wait(lock, [&pending] { return pending == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stopping_ || ring_count_ != 0; });
      if (ring_count_ == 0) return;  // stopping_ and drained
      task = std::move(ring_[ring_head_]);
      ring_head_ = (ring_head_ + 1) % ring_.size();
      --ring_count_;
    }
    task();
    {
      const std::scoped_lock lock(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fisheye::par
