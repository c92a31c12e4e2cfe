// fleet_mixed: 16 RGB cameras on one StreamExecutor over a 4-lane pool,
// driven open-loop at 30 fps per genlocked camera. Two heavy 720p 180-degree
// cameras share the pool with fourteen small PTZ-style views, all on
// CompactLut stride 8, so the FIFO frame claim and cross-stream steals
// carry the load.
#include <algorithm>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/stream_executor.hpp"

namespace perfbench {

namespace {

using namespace fisheye;

constexpr int kStreams = 16;
constexpr int kLanes = 4;
constexpr int kChannels = 3;
constexpr int kInputs = 3;
constexpr double kFps = 30.0;
/// Output buffers per stream: enough that a frame's buffer is not reused
/// while it can still be queued or in flight (queue_depth + in flight + 1).
constexpr std::size_t kRing = 6;

struct CamSpec {
  int w, h;
  double fov_deg;
};

/// Streams 0-1 are the heavy cameras; the rest cycle through light views.
CamSpec cam_spec(int i) {
  if (i < 2) return {1280, 720, 180.0};
  static constexpr CamSpec light[] = {{192, 108, 100.0}, {256, 144, 120.0},
                                      {320, 180, 140.0}, {224, 126, 110.0},
                                      {288, 162, 130.0}};
  return light[(i - 2) % 5];
}

core::CorrectorConfig cam_config(const CamSpec& c) {
  return core::Corrector::builder(c.w, c.h)
      .fov_degrees(c.fov_deg)
      .output_size(c.w, c.h)
      .map_mode(core::MapMode::CompactLut)
      .compact_stride(8)
      .config();
}

struct Camera {
  CamSpec spec{};
  std::unique_ptr<core::Corrector> corr;
  stream::StreamId id = 0;
  std::vector<img::Image8> out;  ///< kRing buffers, slot = seq % kRing
  std::uint64_t submitted = 0;   ///< frames submitted since add_stream
  /// Indexed by frame seq: when it was due and when it retired (-1 =
  /// not yet). Sized for the whole run before any frame is submitted.
  std::vector<double> due, done;
};

struct System {
  std::vector<Camera> cams;
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<stream::StreamExecutor> exec;  // after pool: dies first
};

std::uint64_t submit(System& sys, Camera& cam, Tracer& tracer,
                     const std::vector<img::Image8>& inputs, double due) {
  const std::uint64_t seq = cam.submitted + 1;
  cam.due[seq] = due;
  const Tracer::Scope span(tracer, "stream.submit", seq);
  sys.exec->submit(cam.id, inputs[seq % kInputs].view(),
                   cam.out[seq % kRing].view());
  cam.submitted = seq;
  return seq;
}

}  // namespace

Result run_fleet(const Env& env) {
  Tracer& tracer = *env.tracer;
  Result res;
  util::Rng rng(env.args.seed);
  std::vector<std::vector<img::Image8>> inputs(kStreams);
  for (int i = 0; i < kStreams; ++i)
    for (int k = 0; k < kInputs; ++k)
      inputs[static_cast<std::size_t>(i)].push_back(
          make_frame(cam_spec(i).w, cam_spec(i).h, kChannels, rng));

  // Frames per stream over the whole run, with headroom for set-up,
  // warm-up and generator slip.
  const auto max_frames =
      static_cast<std::size_t>(kFps * (env.args.seconds + 2.0) * 1.2) + 64;

  std::vector<double> setup;
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.reset();
    const double t0 = now_s();
    const Tracer::Scope span(tracer, "bench.setup", rep);
    sys = std::make_unique<System>();
    sys->cams.resize(kStreams);
    for (int i = 0; i < kStreams; ++i) {
      Camera& cam = sys->cams[static_cast<std::size_t>(i)];
      cam.spec = cam_spec(i);
      const Tracer::Scope build(tracer, "core.map_build",
                                static_cast<std::uint64_t>(i));
      cam.corr = std::make_unique<core::Corrector>(cam_config(cam.spec));
    }
    {
      const Tracer::Scope start(tracer, "stream.start");
      sys->pool = std::make_unique<par::ThreadPool>(kLanes);
      stream::StreamExecutorOptions opts;
      opts.max_streams = kStreams;
      sys->exec = std::make_unique<stream::StreamExecutor>(*sys->pool, opts);
    }
    for (Camera& cam : sys->cams) {
      cam.due.assign(max_frames + 1, 0.0);
      cam.done.assign(max_frames + 1, -1.0);
      for (std::size_t r = 0; r < kRing; ++r)
        cam.out.emplace_back(cam.spec.w, cam.spec.h, kChannels);
      Camera* c = &cam;
      const Tracer::Scope plan(tracer, "core.plan");
      cam.id = sys->exec->add_stream(
          *cam.corr, kChannels,
          [c](stream::StreamId, std::uint64_t seq, double) {
            if (seq < c->done.size()) c->done[seq] = now_s();
          });
    }
    // First output: one frame on every stream, all retired.
    for (std::size_t i = 0; i < sys->cams.size(); ++i)
      submit(*sys, sys->cams[i], tracer, inputs[i], now_s());
    sys->exec->drain();
    setup.push_back(now_s() - t0);
  }

  // References: the serial backend on each stream's own corrector.
  std::vector<std::vector<img::Image8>> refs(kStreams);
  {
    const auto serial = core::BackendRegistry::create("serial");
    for (std::size_t i = 0; i < sys->cams.size(); ++i) {
      const Camera& cam = sys->cams[i];
      const auto prepared = cam.corr->prepare(*serial, kChannels);
      for (const img::Image8& in : inputs[i]) {
        refs[i].emplace_back(cam.spec.w, cam.spec.h, kChannels);
        cam.corr->correct(prepared, in.view(), refs[i].back().view());
      }
    }
  }

  struct Phase {
    std::vector<double> latency;  ///< due -> retired, seconds
    std::vector<double> late;     ///< generator lateness, seconds
    double mpix = 0.0;            ///< delivered output megapixels
    double wall = 0.0;            ///< first due -> last retire
    std::vector<rt::StreamStats> before, after;
  };

  // One open-loop phase. The cameras are genlocked: all 16 frames of a
  // tick are due together, so every tick is a burst that the FIFO frame
  // claim orders and cross-stream steals spread over the lanes, and the
  // latency percentiles measure that scheduling rather than idle-lane
  // wake-ups between isolated frames. The phase is fixed, not seeded: the
  // seed changes content, not load shape.
  const auto phase = [&](double seconds, bool traced) {
    tracer.set_enabled(traced);
    Phase p;
    for (const Camera& cam : sys->cams)
      p.before.push_back(sys->exec->stats(cam.id));
    // Input i is camera i % kStreams of tick i / kStreams.
    const double t0 = now_s() + 0.01;
    const auto ticks = static_cast<std::size_t>(seconds * kFps);
    std::vector<double> due(ticks * kStreams);
    for (std::size_t i = 0; i < due.size(); ++i)
      due[i] = t0 + static_cast<double>(i / kStreams) / kFps;
    std::vector<std::pair<std::size_t, std::uint64_t>> issued(due.size(),
                                                              {0, 0});
    p.late = run_open_loop(due, [&](std::size_t i) {
      const std::size_t c = i % kStreams;
      ++res.attempted;
      try {
        issued[i] = {c, submit(*sys, sys->cams[c], tracer, inputs[c], due[i])};
      } catch (const std::exception&) {
        ++res.failed;
      }
    });
    try {
      sys->exec->drain();
    } catch (const std::exception&) {
      ++res.failed;
    }
    double last = t0;
    for (std::size_t i = 0; i < issued.size(); ++i) {
      const auto [c, seq] = issued[i];
      if (seq == 0) continue;
      const Camera& cam = sys->cams[c];
      if (cam.done[seq] < 0.0) {
        ++res.failed;
        continue;
      }
      p.latency.push_back(cam.done[seq] - cam.due[seq]);
      last = std::max(last, cam.done[seq]);
      p.mpix += cam.spec.w * cam.spec.h / 1e6;
    }
    p.wall = last - due.front();
    for (const Camera& cam : sys->cams)
      p.after.push_back(sys->exec->stats(cam.id));
    return p;
  };

  auto& m = res.metrics;
  if (!env.args.trace) {
    phase(kWarmupSeconds, false);  // warm caches and clocks, not reported
    const Phase p = phase(env.args.seconds, false);
    m["setup_s"] = median(setup);
    m["out_mpix_per_s"] = p.mpix / p.wall;
    // Windows of at least a second each (see best_window_ms).
    const auto windows = static_cast<std::size_t>(env.args.seconds);
    m["latency_p50_ms"] = best_window_ms(p.latency, 50.0, windows);
    m["latency_p99_ms"] = best_window_ms(p.latency, 99.0, windows);
    m["rss_mb"] = peak_rss_mb();
  } else {
    const Phase plain = phase(env.args.seconds / 2, false);
    const Phase traced = phase(env.args.seconds / 2, true);
    const std::vector<Span> spans = tracer.spans();
    m["core.map_build_s"] =
        median(child_sums(spans, "bench.setup", "core.map_build"));
    m["core.plan_s"] = median(child_sums(spans, "bench.setup", "core.plan"));
    m["trace.overhead_frac"] =
        1.0 - (traced.mpix / traced.wall) / (plain.mpix / plain.wall);
    std::size_t frames = 0, local = 0, stolen = 0, steals = 0, starved = 0;
    double wait = 0.0, wait_max = 0.0;
    for (std::size_t i = 0; i < traced.after.size(); ++i) {
      const rt::StreamStats& a = traced.after[i];
      const rt::StreamStats& b = traced.before[i];
      frames += a.frames - b.frames;
      local += a.tiles_local - b.tiles_local;
      stolen += a.tiles_stolen - b.tiles_stolen;
      steals += a.steals - b.steals;
      starved += a.starvation_events - b.starvation_events;
      wait += a.total_wait_seconds - b.total_wait_seconds;
      wait_max = std::max(wait_max, a.max_wait_seconds);
    }
    m["stream.wait_mean_ms"] = frames ? wait / frames * 1e3 : 0.0;
    m["stream.wait_max_ms"] = wait_max * 1e3;
    m["stream.starvation_events"] = static_cast<double>(starved);
    m["stream.stolen_frac"] =
        local + stolen ? static_cast<double>(stolen) / (local + stolen) : 0.0;
    m["stream.steals"] = static_cast<double>(steals);
    m["gen.late_p99_ms"] =
        tail_percentile(traced.late, 99.0).value_or(0.0) * 1e3;
    m["gen.late_max_ms"] =
        *std::max_element(traced.late.begin(), traced.late.end()) * 1e3;
  }

  // Output check, after the timed phases: every buffer in each stream's
  // ring still holds one of the last kRing retired frames.
  for (std::size_t i = 0; i < sys->cams.size(); ++i) {
    const Camera& cam = sys->cams[i];
    const std::uint64_t n = cam.submitted;
    for (std::uint64_t seq = n > kRing ? n - kRing + 1 : 1; seq <= n; ++seq) {
      ++res.checked;
      if (count_diff(cam.out[seq % kRing].view(),
                     refs[i][seq % kInputs].view(), 0) != 0)
        ++res.wrong;
    }
  }

  res.stamp = {{"backend", "stream:lanes=4,queue_depth=4,tile=64x64"},
               {"map", "compact:8"},
               {"lens.heavy", sys->cams[0].corr->config().lens.name()},
               {"view", sys->cams[0].corr->config().view.name()},
               {"streams", "2x1280x720x3 + 14 light"}};
  if (env.args.trace) serve_leg(env, res);
  tracer.set_enabled(env.args.trace);
  return res;
}

}  // namespace perfbench
