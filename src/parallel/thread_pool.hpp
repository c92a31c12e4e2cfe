// Fixed-size worker pool.
//
// This is the multicore substrate of the study: the CPU backends decompose
// a frame into ranges/tiles and run them on this pool. The pool is built
// once per Corrector (thread creation is far more expensive than a frame)
// and torn down deterministically in the destructor (CP.23: joined, never
// detached).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/aligned.hpp"

namespace fisheye::par {

class ThreadPool {
 public:
  /// Create `threads` workers, each pinned to its own CPU for the pool's
  /// lifetime (parallel/placement.hpp). 0 means
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue one task. Tasks must not throw; kernels report errors through
  /// their own channels (the parallel_for wrapper converts exceptions into
  /// a stored first-error that is rethrown on the caller thread).
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished executing.
  void wait_idle();

  /// Run `n` invocations of `fn(index)` across the pool and wait for them
  /// — only for this call's lanes, never for other tasks in flight (such as
  /// the long-running lanes of WorkStealingPool::start_service). Work runs
  /// exclusively on the workers so that "pool of N" means exactly N lanes —
  /// the property the thread-scaling benches (F1) depend on.
  ///
  /// Templated on the callable: the per-lane tasks capture one pointer to a
  /// stack-resident control block (cursor + n + callable + lane count), so
  /// dispatching a frame performs no per-lane heap allocation — this is the
  /// hot path of every pooled backend. `fn` must not throw (see submit()).
  template <class Fn>
  void run_indexed(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    // One shared atomic cursor instead of n queue entries: cheaper for the
    // fine-grained dynamic schedules, and every worker stays busy until the
    // index space is drained. The block lives on this stack frame; the call
    // returns only once every lane has counted itself out of `pending`.
    //
    // The cursor sits alone on its cache line: it is written by every lane
    // on every grab, while n/batch/fn are read-only — sharing a line would
    // have each fetch_add invalidate the constants in every other lane's
    // cache. For fine-grained index spaces (n >> lanes) lanes also grab
    // small batches instead of single indices, cutting cursor traffic by
    // the batch factor while keeping the tail balanced (the last batches
    // are at most ~1/8 of a lane's fair share each).
    struct Control {
      alignas(util::kCacheLine) std::atomic<std::size_t> cursor{0};
      alignas(util::kCacheLine) std::size_t pending;  ///< guarded by mu_
      std::size_t n;
      std::size_t batch;
      std::remove_reference_t<Fn>* fn;
    } control;
    const std::size_t lanes = std::min<std::size_t>(n, workers_.size());
    control.pending = lanes;  // published to the lanes by submit()'s lock
    control.n = n;
    control.batch = std::clamp<std::size_t>(n / (lanes * 8), 1, 16);
    control.fn = std::addressof(fn);
    std::size_t submitted = 0;
    try {
      for (; submitted < lanes; ++submitted) {
        submit([this, ctl = &control] {
          for (;;) {
            const std::size_t b =
                ctl->cursor.fetch_add(ctl->batch, std::memory_order_relaxed);
            if (b >= ctl->n) break;
            const std::size_t e = std::min(b + ctl->batch, ctl->n);
            for (std::size_t i = b; i < e; ++i) (*ctl->fn)(i);
          }
          lanes_done(ctl->pending, 1);
        });
      }
    } catch (...) {
      // Lanes never submitted never count out; the submitted ones still
      // reference `control`, so wait for them before unwinding.
      lanes_done(control.pending, lanes - submitted);
      wait_lanes(control.pending);
      throw;
    }
    wait_lanes(control.pending);
  }

 private:
  void worker_loop();

  /// Count `k` lanes of a run_indexed call out of its `pending` (the
  /// caller's stack block), waking the caller at zero. Decrement and
  /// wake-up happen under mu_, and nothing in the block is touched after:
  /// the caller can only see zero, and return, once mu_ is released.
  void lanes_done(std::size_t& pending, std::size_t k);

  /// Block until a run_indexed call's `pending` lane count reaches zero.
  void wait_lanes(const std::size_t& pending);

  std::vector<std::thread> workers_;
  /// Task queue as a ring over a capacity-stable vector (a deque's block
  /// churn allocates as the queue cycles; this one stops allocating once
  /// grown to the peak outstanding-task count). Slots hold small pointer
  /// captures, so assigning into a slot stays within std::function's SBO.
  std::vector<std::function<void()>> ring_;
  std::size_t ring_head_ = 0;   ///< index of the oldest queued task
  std::size_t ring_count_ = 0;  ///< queued (not yet popped) tasks
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::condition_variable cv_lanes_;  ///< a run_indexed call's lanes are done
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Process-wide default pool, sized to the hardware; created on first use.
ThreadPool& default_pool();

}  // namespace fisheye::par
