// Span recorder for the traced benchmark run.
//
// The harness wraps each call it makes into a library layer (Corrector
// construction, prepare, correct, StreamExecutor::submit, Server::request,
// ...) in a span. Spans live in memory while the workload runs and are
// written as Chrome trace-event JSON when it ends; the per-layer metrics
// are derived from them. A disabled tracer records nothing, so the
// untraced run pays one branch per call site.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  const char* name = "";      ///< "<layer>.<call>", a string literal
  double start = 0.0;         ///< now_s() at entry
  double end = 0.0;           ///< now_s() at exit
  std::uint32_t id = 0;       ///< 1-based, unique within the tracer
  std::uint32_t parent = 0;   ///< enclosing span id, 0 = root
  std::uint64_t req = 0;      ///< frame or request sequence number
  std::uint32_t tid = 0;      ///< small per-thread index

  [[nodiscard]] double duration() const noexcept { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Switch recording on or off between measured phases (not while a
  /// span is open on any thread).
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// RAII span. The parent defaults to the innermost span open on the
  /// calling thread; pass one explicitly for work fanned out to other
  /// threads (pool lanes, retire callbacks).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t req = 0,
          std::uint32_t parent = kInheritParent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// This span's id (0 when tracing is off).
    [[nodiscard]] std::uint32_t id() const noexcept { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  static constexpr std::uint32_t kInheritParent = 0xffffffffu;

  /// Snapshot of every recorded span, in completion order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Write the spans as Chrome trace-event JSON ("X" complete events).
  void write_chrome(const std::string& path) const;

 private:
  std::uint32_t next_id_();
  void record_(const Span& span);

  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint32_t last_id_ = 0;  // guarded by mu_
};

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once, and
/// children are clipped to the parent's interval).
[[nodiscard]] double self_time(const Span& parent,
                               const std::vector<Span>& children);

/// Self time of every span, indexed like `spans`.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Durations of every span named `name`, in record order; with
/// `roots_only`, only those no other span encloses.
[[nodiscard]] std::vector<double> durations(const std::vector<Span>& spans,
                                            const std::string& name,
                                            bool roots_only = false);

/// For each span named `parent_name`, the summed duration of its direct
/// children named `child_name` (one value per parent span).
[[nodiscard]] std::vector<double> child_sums(const std::vector<Span>& spans,
                                             const std::string& parent_name,
                                             const std::string& child_name);

}  // namespace perfbench
