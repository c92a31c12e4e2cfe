#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/cpu.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "camera_1080p", "fleet_mixed"};
  return names;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"out_mpix_per_s", "Mpix/s", "higher"},
      {"latency_p50_ms", "ms", "lower"},
      {"ok_frac", "ratio", "higher"},
      {"rss_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& end_to_end_ungated_metrics() {
  static const std::vector<MetricDef> defs = {
      {"latency_p99_ms", "ms", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"core.map_build_s", "s", "lower"},
      {"core.plan_s", "s", "lower"},
      {"core.correct_ms", "ms", "lower"},
      {"core.bytes_per_frame_mb", "MB", "lower"},
      {"core.bw_frac", "ratio", "lower"},
      {"core.tile_imbalance", "ratio", "lower"},
      {"simd.kernel_1t_ms", "ms", "lower"},
      {"parallel.efficiency", "ratio", "higher"},
      {"parallel.overhead_frac", "ratio", "lower"},
      {"stream.wait_mean_ms", "ms", "lower"},
      {"stream.wait_max_ms", "ms", "lower"},
      {"stream.starvation_events", "count", "lower"},
      {"stream.stolen_frac", "ratio", "lower"},
      {"stream.steals", "count", "lower"},
      {"serve.plan_hit_frac", "ratio", "higher"},
      {"serve.misses_per_frame", "1/frame", "lower"},
      {"serve.evictions_per_frame", "1/frame", "lower"},
      {"serve.cache_mb", "MB", "lower"},
      {"serve.clusters_per_frame", "1/frame", "lower"},
      {"serve.tile_share", "ratio", "lower"},
      {"serve.request_us", "us", "lower"},
      {"serve.submit_frame_ms", "ms", "lower"},
      {"shard.execute_ms", "ms", "lower"},
      {"shard.transport_mb_per_frame", "MB/frame", "lower"},
      {"shard.wait_frac", "ratio", "lower"},
      {"shard.fallback_strips", "count", "lower"},
      {"shard.respawns", "count", "lower"},
      {"shard.stalls", "count", "lower"},
      {"gen.late_p99_ms", "ms", "lower"},
      {"gen.late_max_ms", "ms", "lower"},
      {"host.memcpy_gbps", "GB/s", "higher"},
      {"host.parallel_cores", "count", "higher"},
      {"trace.overhead_frac", "ratio", "lower"},
  };
  return defs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> samples, double pct,
                                      std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least pct% of the samples at
  // or below it. Computed in integer hundredths-of-a-percent so p99 of
  // 1000 samples is exactly rank 990.
  const auto hundredths = static_cast<std::size_t>(std::llround(pct * 100.0));
  const std::size_t rank = std::max<std::size_t>(
      1, (n * hundredths + 9999) / 10000);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double best_window_ms(const std::vector<double>& seconds, double pct,
                      std::size_t max_windows) {
  const std::size_t n = seconds.size();
  const auto min_window =
      static_cast<std::size_t>(std::ceil(10.0 / (1.0 - pct / 100.0) - 1e-9));
  if (n < min_window)
    throw std::runtime_error("p" + std::to_string(pct) + " unresolved: only " +
                             std::to_string(n) + " latency samples");
  const std::size_t k =
      std::clamp<std::size_t>(n / min_window, 1, std::max<std::size_t>(
                                                     max_windows, 1));
  double best = 0.0;
  for (std::size_t w = 0; w < k; ++w) {
    const auto first = seconds.begin() + static_cast<std::ptrdiff_t>(w * n / k);
    const auto last =
        seconds.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / k);
    const std::optional<double> v =
        tail_percentile(std::vector<double>(first, last), pct);
    if (v && (w == 0 || *v < best)) best = *v;
  }
  return best * 1e3;
}

void sleep_until(double t) {
  const double wait = t - now_s();
  if (wait > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

std::vector<double> due_latencies(const std::vector<double>& due,
                                  const std::vector<double>& done) {
  std::vector<double> out;
  out.reserve(due.size());
  for (std::size_t i = 0; i < due.size() && i < done.size(); ++i)
    if (done[i] >= 0.0) out.push_back(done[i] - due[i]);
  return out;
}

img::Image8 make_frame(int width, int height, int channels, util::Rng& rng) {
  img::Image8 out(width, height, channels);
  const double fx = rng.uniform(0.5, 3.0) / width;
  const double fy = rng.uniform(0.5, 3.0) / height;
  const int phase = static_cast<int>(rng.next_below(256));
  for (int y = 0; y < height; ++y) {
    std::uint8_t* row = out.row(y);
    for (int x = 0; x < width; ++x)
      for (int c = 0; c < channels; ++c) {
        const double ramp = 96.0 * std::sin((x * fx + y * fy) * 6.2832 + c);
        row[static_cast<std::size_t>(x) * channels + c] =
            static_cast<std::uint8_t>((128 + phase + static_cast<int>(ramp) +
                                       static_cast<int>(rng.next_below(9))) &
                                      0xff);
      }
  }
  const int blocks = 24 + static_cast<int>(rng.next_below(24));
  for (int b = 0; b < blocks; ++b) {
    const int bw = 8 + static_cast<int>(rng.next_below(
                           static_cast<std::uint64_t>(width / 8)));
    const int bh = 8 + static_cast<int>(rng.next_below(
                           static_cast<std::uint64_t>(height / 8)));
    const int x0 = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(width - bw)));
    const int y0 = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(height - bh)));
    const auto v = static_cast<std::uint8_t>(rng.next_below(256));
    for (int y = y0; y < y0 + bh; ++y)
      std::memset(out.row(y) + static_cast<std::size_t>(x0) * channels, v,
                  static_cast<std::size_t>(bw) * channels);
  }
  return out;
}

std::size_t count_diff(img::ConstImageView<std::uint8_t> a,
                       img::ConstImageView<std::uint8_t> b, int tol) {
  if (a.width != b.width || a.height != b.height || a.channels != b.channels)
    return static_cast<std::size_t>(a.width) * a.height * a.channels + 1;
  std::size_t bad = 0;
  const std::size_t n = static_cast<std::size_t>(a.width) * a.channels;
  for (int y = 0; y < a.height; ++y) {
    const std::uint8_t* pa = a.row(y);
    const std::uint8_t* pb = b.row(y);
    for (std::size_t i = 0; i < n; ++i)
      bad += std::abs(static_cast<int>(pa[i]) - static_cast<int>(pb[i])) > tol;
  }
  return bad;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Result::error_frac() const noexcept {
  if (attempted == 0) return 1.0;
  // Checked outputs stand for every delivered output: the wrong share of
  // the checked sample is charged to the delivered share of the attempts.
  const double failed_frac = static_cast<double>(failed) / attempted;
  const double wrong_frac =
      checked ? static_cast<double>(wrong) / checked : 0.0;
  return failed_frac + (1.0 - failed_frac) * wrong_frac;
}

namespace {

/// Fixed integer work the compiler cannot fold away.
std::uint64_t spin(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iters; ++i)
    x = x * 6364136223846793005ull + 1442695040888963407ull + (x >> 29);
  return x;
}

/// Pin the calling thread to one CPU. The probe threads live ~40 ms; left
/// to the scheduler they can share one core for longer than that, and the
/// probe would measure thread placement instead of the cores available.
void pin_to_cpu(unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % std::max(1u, std::thread::hardware_concurrency()), &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double parallel_cores_once() {
  constexpr std::uint64_t kIters = 20'000'000;
  constexpr unsigned kThreads = 4;
  std::uint64_t sink = 0;
  double t0 = now_s();
  sink += spin(kIters, 1);
  const double single = now_s() - t0;
  std::vector<std::uint64_t> out(kThreads, 0);
  t0 = now_s();
  {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
      threads.emplace_back([&out, t] {
        pin_to_cpu(t);
        out[t] = spin(kIters, t + 2);
      });
    for (std::thread& th : threads) th.join();
  }
  const double multi = now_s() - t0;
  for (const std::uint64_t v : out) sink += v;
  // Keeps the results observable; never true in practice.
  if (sink == 42) return 0.0;
  return kThreads * single / multi;
}

double memcpy_gbps_once(std::vector<std::uint8_t>& a,
                        std::vector<std::uint8_t>& b) {
  const double t0 = now_s();
  std::memcpy(b.data(), a.data(), a.size());
  const double dt = now_s() - t0;
  a[a.size() / 2] ^= b[b.size() / 3];
  return 2.0 * static_cast<double>(a.size()) / dt / 1e9;
}

}  // namespace

HostStamp probe_host() {
  HostStamp h;
  h.isa = fisheye::util::cpu_info().isa();
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::uint8_t> a(std::size_t{64} << 20, 1), b(a.size(), 2);
  std::vector<double> bw, cores;
  for (int i = 0; i < 3; ++i) {
    bw.push_back(memcpy_gbps_once(a, b));
    cores.push_back(parallel_cores_once());
  }
  h.memcpy_gbps = median(bw);
  h.parallel_cores = median(cores);
  return h;
}

}  // namespace perfbench
