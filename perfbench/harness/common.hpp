// Shared pieces of the benchmark harness: the metric catalogue (the one
// list BENCHMARK.json must agree with), latency statistics, the open-loop
// generator clock, seeded inputs, output comparison and the per-run
// result every workload fills in.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "image/image.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace img = fisheye::img;
namespace util = fisheye::util;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

/// The workload names, in the order the docs present them.
const std::vector<std::string>& workload_names();
/// Metrics printed with --trace 0 (what a user of the system sees).
const std::vector<MetricDef>& end_to_end_metrics();
/// End-to-end metrics printed and recorded with --trace 0 but left out of
/// the result line: too unsteady on a shared host to gate on.
const std::vector<MetricDef>& end_to_end_ungated_metrics();
/// Metrics printed with --trace 1 (single layers, derived from spans and
/// the library's own counters).
const std::vector<MetricDef>& per_layer_metrics();

/// True when `name` is a valid metric or workload name: [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

// ---------------------------------------------------------------- stats

/// Median of `samples` (mean of the middle pair for even counts); 0 for
/// an empty vector.
double median(std::vector<double> samples);

/// Nearest-rank `pct` percentile, reported only when at least
/// `min_beyond` samples lie strictly beyond its rank — a p99 from fewer
/// than 1000 samples is an extreme value, not a percentile.
std::optional<double> tail_percentile(std::vector<double> samples, double pct,
                                      std::size_t min_beyond = 10);

/// The `pct` percentile in ms of the least disturbed window of a run.
/// `seconds` holds the samples in arrival order; they are cut into K
/// consecutive windows, K = min(max_windows, n / w), where w is the
/// smallest window with ten samples beyond the percentile (1000 for p99),
/// and the lowest window percentile is reported. A neighbour on a shared
/// host only ever slows a window, so the best window estimates what the
/// program itself delivers. Throws when n < w (the run cannot resolve the
/// percentile).
double best_window_ms(const std::vector<double>& seconds, double pct,
                      std::size_t max_windows);

// ----------------------------------------------------------- open loop

/// Drive an open-loop generator: for each i, sleep until due[i] (seconds
/// on now_s()), record how late the generator got there, then call
/// issue(i). `due` must be non-decreasing. A call that blocks delays the
/// inputs behind it, but the schedule is never re-based, so the wait
/// counts against every input queued behind the stall.
template <class Issue>
std::vector<double> run_open_loop(const std::vector<double>& due,
                                  Issue&& issue);

void sleep_until(double t);

/// Per-input latency measured from when the input was due: done - due,
/// for every input whose done time is set (>= 0).
std::vector<double> due_latencies(const std::vector<double>& due,
                                  const std::vector<double>& done);

// -------------------------------------------------------------- inputs

/// A seeded synthetic frame: smooth gradients plus random blocks and
/// grain, so bilinear taps see both ramps and edges.
img::Image8 make_frame(int width, int height, int channels, util::Rng& rng);

/// Samples of `a` and `b` (same geometry) that differ by more than `tol`.
std::size_t count_diff(img::ConstImageView<std::uint8_t> a,
                       img::ConstImageView<std::uint8_t> b, int tol);

/// Peak resident set size of this process so far, MB.
double peak_rss_mb();

// -------------------------------------------------------------- result

struct HostStamp {
  std::string isa;
  unsigned nproc = 0;
  double memcpy_gbps = 0.0;
  double parallel_cores = 0.0;
};

/// Measure the host: single-thread memcpy bandwidth (read + write bytes)
/// and effective parallel cores from a fixed-work spin on 4 threads
/// against 1 thread. Median of three probes each.
HostStamp probe_host();

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// What one workload run reports. Metric values are in the catalogue's
/// units; metrics a workload does not exercise stay absent and print 0.
struct Result {
  std::map<std::string, double> metrics;
  std::size_t attempted = 0;  ///< outputs the generator asked for
  std::size_t failed = 0;     ///< threw, or never retired
  std::size_t checked = 0;    ///< outputs compared with the reference
  std::size_t wrong = 0;      ///< checked outputs outside tolerance
  /// Canonical specs and model names, for the host/spec stamp.
  std::vector<std::pair<std::string, std::string>> stamp;
  /// Computed bytes per corrected frame and the frame rate they move at;
  /// with the host's memcpy bandwidth they give core.bw_frac.
  double bytes_per_frame = 0.0;
  double frames_per_s = 0.0;

  [[nodiscard]] double error_frac() const noexcept;
};

/// The environment a workload runs in.
struct Env {
  RunArgs args;
  Tracer* tracer = nullptr;
};

/// Number of set-up repetitions whose median is setup_s.
inline constexpr int kSetupReps = 5;

/// Unreported warm-up before the measured phase.
inline constexpr double kWarmupSeconds = 1.5;

/// Samples a closed-loop run collects at least, so p99 has ten beyond it.
inline constexpr std::size_t kMinTailSamples = 1100;

Result run_camera(const Env& env);
Result run_fleet(const Env& env);
/// The serve layer's probe, run at the end of the traced fleet_mixed run;
/// adds its outputs, checks and serve.* metrics to `res`.
void serve_leg(const Env& env, Result& res);

// ------------------------------------------------------------- inline

template <class Issue>
std::vector<double> run_open_loop(const std::vector<double>& due,
                                  Issue&& issue) {
  std::vector<double> late(due.size(), 0.0);
  for (std::size_t i = 0; i < due.size(); ++i) {
    sleep_until(due[i]);
    late[i] = now_s() - due[i];
    issue(i);
  }
  return late;
}

}  // namespace perfbench
