// camera_1080p: one 1080p gray Kannala-Brandt camera corrected
// closed-loop through the in-process SIMD backend, every 16th output
// checked against the serial backend on the same Corrector, between timed
// calls. The traced run adds the layer probes: the same spec at one
// thread, frames decomposed onto a ThreadPool, and a shard leg that runs
// the same input through shard:workers=4.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "parallel/thread_pool.hpp"
#include "shard/shard_backend.hpp"
#include "simd/remap_simd.hpp"

namespace perfbench {

namespace {

using namespace fisheye;

constexpr int kWidth = 1920;
constexpr int kHeight = 1080;
constexpr int kInputs = 4;
constexpr const char* kLens = "kannala_brandt:k1=-0.02,fov=170";
constexpr const char* kCameraSpec = "simd:threads=4,datapath=gather";
constexpr const char* kCameraSpec1t = "simd:threads=1,datapath=gather";
constexpr const char* kShardSpec = "shard:workers=4";
/// Length of the traced run's shard leg.
constexpr double kShardLegSeconds = 3.0;
/// Every traced camera frame with this period is run decomposed (see
/// decomposed_frame) to expose the parallel layer's own time.
constexpr std::uint64_t kDecomposePeriod = 8;
constexpr int kKernel1tFrames = 24;
/// Every frame with this period is checked against the reference. Not
/// every frame: a 2 MB compare between calls lets the backend's lanes go
/// to sleep, and waking them then dominates the next call's time.
constexpr std::uint64_t kCheckPeriod = 16;

core::CorrectorConfig camera_config() {
  return core::Corrector::builder(kWidth, kHeight)
      .lens(core::LensSpec::parse(kLens))
      .output_size(kWidth, kHeight)
      .interp(core::Interp::Bilinear)
      .map_mode(core::MapMode::FloatLut)
      .config();
}

/// One configured correction path: corrector, backend, plan, output.
struct System {
  std::unique_ptr<core::Corrector> corr;
  std::unique_ptr<core::Backend> backend;
  core::Corrector::Prepared prepared;
  img::Image8 out{kWidth, kHeight, 1};
};

/// Gather reads the float LUT in single precision: +-1 gray level against
/// the serial backend. The shard workers run the scalar kernel: bit-exact.
constexpr int kGatherTolerance = 1;

/// Build the system and deliver its first corrected frame; spans make the
/// parts visible in the traced run.
std::unique_ptr<System> set_up(Tracer& tracer, const img::Image8& first) {
  auto sys = std::make_unique<System>();
  {
    const Tracer::Scope span(tracer, "core.map_build");
    sys->corr = std::make_unique<core::Corrector>(camera_config());
  }
  {
    const Tracer::Scope span(tracer, "core.plan");
    sys->backend = core::BackendRegistry::create(kCameraSpec);
    sys->prepared = sys->corr->prepare(*sys->backend, 1);
  }
  const Tracer::Scope span(tracer, "core.correct");
  sys->corr->correct(sys->prepared, first.view(), sys->out.view());
  return sys;
}

struct Phase {
  std::vector<double> latency;  ///< seconds per call
  double busy = 0.0;            ///< summed call time
  std::vector<double> imbalance;
  /// Frames per second of call time, one value per whole second of the
  /// phase; the best second is reported, as for the latency windows.
  std::vector<double> window_fps;
};

/// The parallel layer driven directly: the plan's tiles handed to a
/// ThreadPool lane by lane, each tile through the plan's resolved SIMD
/// kernel — what SimdBackend::execute does, with a span per tile so the
/// pool's dispatch and tail wait show as the run_indexed span's self time.
void decomposed_frame(const System& sys, par::ThreadPool& pool,
                      Tracer& tracer, std::uint64_t seq,
                      const img::Image8& src, img::Image8& dst) {
  const core::ExecutionPlan& plan = sys.prepared.plan;
  core::ExecContext ctx = sys.corr->make_context(src.view(), dst.view());
  if (const core::ConvertedMap* c = plan.converted()) ctx = c->apply(ctx);
  core::Workspace& ws = plan.workspace();
  const std::vector<par::Rect>& tiles = plan.tiles();
  std::atomic<std::size_t> cursor{0};
  const Tracer::Scope run(tracer, "parallel.run_indexed", seq);
  const std::uint32_t parent = run.id();
  pool.run_indexed(ws.soa.size(), [&](std::size_t lane) {
    for (std::size_t i = cursor.fetch_add(1); i < tiles.size();
         i = cursor.fetch_add(1)) {
      const Tracer::Scope tile(tracer, "simd.tile", seq, parent);
      plan.kernel()(ctx.src, ctx.dst, tiles[i], ws.soa.data() + lane);
    }
  });
}

/// The traced run's shard leg: the camera's corrector and inputs through
/// the process-shard backend for kShardLegSeconds, every frame checked
/// bit-exactly against the serial references.
void shard_leg(const System& sys, Tracer& tracer,
               const std::vector<img::Image8>& inputs,
               const std::vector<img::Image8>& refs, Result& res) {
  const auto backend = core::BackendRegistry::create(kShardSpec);
  auto& shard = dynamic_cast<shard::ShardBackend&>(*backend);
  core::Corrector::Prepared prepared;
  {
    const Tracer::Scope span(tracer, "shard.plan");
    prepared = sys.corr->prepare(*backend, 1);
  }
  img::Image8 out(kWidth, kHeight, 1);
  const rt::ShardStats s0 = shard.last_stats();
  double busy = 0.0;
  const double t_end = now_s() + kShardLegSeconds;
  for (std::uint64_t seq = 1; now_s() < t_end; ++seq) {
    ++res.attempted;
    const img::Image8& in = inputs[seq % kInputs];
    const double t0 = now_s();
    try {
      const Tracer::Scope span(tracer, "shard.execute", seq);
      sys.corr->correct(prepared, in.view(), out.view());
    } catch (const std::exception&) {
      ++res.failed;
      continue;
    }
    busy += now_s() - t0;
    ++res.checked;
    if (count_diff(out.view(), refs[seq % kInputs].view(), 0) != 0)
      ++res.wrong;
  }
  const rt::ShardStats s1 = shard.last_stats();
  auto& m = res.metrics;
  m["shard.execute_ms"] =
      median(durations(tracer.spans(), "shard.execute", true)) * 1e3;
  m["shard.transport_mb_per_frame"] =
      static_cast<double>(s1.transport_in_bytes + s1.transport_out_bytes -
                          s0.transport_in_bytes - s0.transport_out_bytes) /
      static_cast<double>(s1.frames - s0.frames) / 1e6;
  m["shard.wait_frac"] = (s1.wait_seconds - s0.wait_seconds) / busy;
  m["shard.fallback_strips"] =
      static_cast<double>(s1.fallback_strips - s0.fallback_strips);
  m["shard.respawns"] = static_cast<double>(s1.respawns);
  m["shard.stalls"] = static_cast<double>(s1.stalls - s0.stalls);
  res.stamp.emplace_back("shard", backend->name());
}

}  // namespace

Result run_camera(const Env& env) {
  Tracer& tracer = *env.tracer;
  Result res;
  util::Rng rng(env.args.seed);
  std::vector<img::Image8> inputs;
  for (int i = 0; i < kInputs; ++i)
    inputs.push_back(make_frame(kWidth, kHeight, 1, rng));

  // Set-up, repeated: each repetition builds the map, plans (the shard
  // backend forks its fleet here) and delivers one frame.
  std::vector<double> setup;
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.reset();
    const double t0 = now_s();
    const Tracer::Scope span(tracer, "bench.setup", rep);
    sys = set_up(tracer, inputs[0]);
    setup.push_back(now_s() - t0);
  }

  // Reference outputs from the serial backend on the same corrector.
  std::vector<img::Image8> refs;
  {
    const auto serial = core::BackendRegistry::create("serial");
    const auto prepared = sys->corr->prepare(*serial, 1);
    for (const img::Image8& in : inputs) {
      refs.emplace_back(kWidth, kHeight, 1);
      sys->corr->correct(prepared, in.view(), refs.back().view());
    }
  }

  std::unique_ptr<par::ThreadPool> pool;
  std::uint64_t seq = 0;

  const auto phase = [&](double seconds, bool traced, std::size_t min_n) {
    tracer.set_enabled(traced);
    if (traced && !pool) pool = std::make_unique<par::ThreadPool>(4);
    Phase p;
    const double t_start = now_s();
    const double t_end = t_start + seconds;
    const double t_cap = t_start + 3.0 * seconds;
    double window_end = t_start + 1.0, window_busy = 0.0;
    std::size_t window_frames = 0;
    while (now_s() < t_end || (p.latency.size() < min_n && now_s() < t_cap)) {
      if (now_s() >= window_end) {
        p.window_fps.push_back(window_frames / window_busy);
        window_end += 1.0;
        window_busy = 0.0;
        window_frames = 0;
      }
      ++seq;
      ++res.attempted;
      const img::Image8& in = inputs[seq % kInputs];
      const double t0 = now_s();
      const bool decomposed = pool && seq % kDecomposePeriod == 0;
      try {
        if (decomposed) {
          decomposed_frame(*sys, *pool, tracer, seq, in, sys->out);
        } else {
          const Tracer::Scope span(tracer, "core.correct", seq);
          sys->corr->correct(sys->prepared, in.view(), sys->out.view());
        }
      } catch (const std::exception&) {
        ++res.failed;
        continue;
      }
      const double dt = now_s() - t0;
      p.latency.push_back(dt);
      p.busy += dt;
      window_busy += dt;
      ++window_frames;
      if (!decomposed)
        p.imbalance.push_back(sys->prepared.plan.tile_stats().imbalance);
      if (seq % kCheckPeriod == 0) {
        ++res.checked;
        if (count_diff(sys->out.view(), refs[seq % kInputs].view(),
                       kGatherTolerance) != 0)
          ++res.wrong;
      }
    }
    if (p.window_fps.empty() && window_frames > 0)
      p.window_fps.push_back(window_frames / window_busy);
    return p;
  };

  const double mpix = kWidth * kHeight / 1e6;
  auto& m = res.metrics;
  if (!env.args.trace) {
    // Warm-up, not reported: caches, clocks, and time for the scheduler to
    // spread the backend's freshly started threads over the cores.
    phase(kWarmupSeconds, false, 0);
    const Phase p = phase(env.args.seconds, false, kMinTailSamples);
    m["setup_s"] = median(setup);
    m["out_mpix_per_s"] =
        *std::max_element(p.window_fps.begin(), p.window_fps.end()) * mpix;
    // Windows of at least a second each (see best_window_ms).
    const auto windows = static_cast<std::size_t>(env.args.seconds);
    m["latency_p50_ms"] = best_window_ms(p.latency, 50.0, windows);
    m["latency_p99_ms"] = best_window_ms(p.latency, 99.0, windows);
    m["rss_mb"] = peak_rss_mb();
  } else {
    const Phase plain = phase(env.args.seconds / 2, false, 0);
    const Phase traced = phase(env.args.seconds / 2, true, 0);
    const std::vector<Span> spans = tracer.spans();
    m["core.map_build_s"] =
        median(child_sums(spans, "bench.setup", "core.map_build"));
    m["core.plan_s"] = median(child_sums(spans, "bench.setup", "core.plan"));
    const double plain_rate = plain.latency.size() / plain.busy;
    const double traced_rate = traced.latency.size() / traced.busy;
    m["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate;
    const rt::TileStats tiles = sys->prepared.plan.tile_stats();
    res.bytes_per_frame = static_cast<double>(tiles.bytes_in + tiles.bytes_out);
    res.frames_per_s = plain_rate;
    const double correct_ms =
        median(durations(spans, "core.correct", true)) * 1e3;
    m["core.correct_ms"] = correct_ms;
    m["core.bytes_per_frame_mb"] = res.bytes_per_frame / 1e6;
    m["core.tile_imbalance"] = median(traced.imbalance);

    // The single-thread baseline: the same spec at threads=1.
    tracer.set_enabled(true);
    const auto one = core::BackendRegistry::create(kCameraSpec1t);
    const auto prepared = sys->corr->prepare(*one, 1);
    for (int f = 0; f < kKernel1tFrames; ++f) {
      const Tracer::Scope span(tracer, "simd.kernel_1t",
                               static_cast<std::uint64_t>(f));
      sys->corr->correct(prepared, inputs[f % kInputs].view(),
                         sys->out.view());
    }
    const std::vector<Span> all = tracer.spans();
    const double kernel_1t_ms = median(durations(all, "simd.kernel_1t")) * 1e3;
    m["simd.kernel_1t_ms"] = kernel_1t_ms;
    m["parallel.efficiency"] = kernel_1t_ms / (4.0 * correct_ms);
    const std::vector<double> self = self_times(all);
    std::vector<double> overhead;
    for (std::size_t i = 0; i < all.size(); ++i)
      if (std::string(all[i].name) == "parallel.run_indexed")
        overhead.push_back(self[i] / all[i].duration());
    m["parallel.overhead_frac"] = median(overhead);

    shard_leg(*sys, tracer, inputs, refs, res);
  }
  res.stamp.insert(res.stamp.begin(),
                   {{"backend", sys->backend->name()},
                    {"lens", sys->corr->config().lens.name()},
                    {"view", sys->corr->config().view.name()},
                    {"geometry", "1920x1080x1"}});
  tracer.set_enabled(env.args.trace);
  return res;
}

}  // namespace perfbench
