// The serve leg of the traced fleet_mixed run: the virtual-PTZ server
// under a zipf-skewed viewer population, driven open-loop at 60 source
// frames per second. 512 readers sit on 48 hotspots of zoom levels 0-1
// (cache hits, heavy coalescing); 8 writers random-walk zoom level 2 and
// get a fresh window every frame (map builds, plan misses and LRU
// evictions beside the hits). A leg rather than a workload because its
// p99 is unsteady on a shared host; see README.md.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/camera.hpp"
#include "core/corrector.hpp"
#include "core/mapping.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using namespace fisheye;

constexpr int kSrcW = 1280;
constexpr int kSrcH = 720;
constexpr int kLevelW = 640;
constexpr int kLevelH = 360;
constexpr int kInputs = 3;
/// About 45% of the server's capacity on a quiet 4-core host (it
/// saturates near 140 fps).
constexpr double kFps = 60.0;
constexpr double kLegSeconds = 5.0;
constexpr std::size_t kReaders = 512;
constexpr std::size_t kWriters = 8;
constexpr std::size_t kViewers = kReaders + kWriters;
constexpr std::size_t kHotspots = 48;
constexpr std::uint64_t kLayoutSeed = 2301;
constexpr double kZipf = 1.1;
constexpr int kWriterW = 128;
constexpr int kWriterH = 96;
/// The plan-cache budget is sized so the writers' misses fill it during
/// warm-up: evictions then run at their steady rate through the whole
/// measured window instead of starting partway through it.
constexpr const char* kSpec =
    "serve:lanes=4,queue_depth=4,pending=4096,quantum=16,tile=32x32,"
    "cache_budget=24M";
/// Crop buffer sets: a frame's set is reused only after the frames behind
/// it (open + queue_depth queued + active) have moved on.
constexpr std::size_t kRing = 7;

serve::ServerConfig server_config() {
  serve::ServerConfig cfg;
  cfg.src_width = kSrcW;
  cfg.src_height = kSrcH;
  cfg.lens = core::LensSpec::parse("equidistant");
  cfg.channels = 1;
  // Level 0 at the lens's own centre resolution, then two zoom steps.
  cfg.levels = {{kLevelW, kLevelH, 0.0},
                {kLevelW, kLevelH, 360.0},
                {kLevelW, kLevelH, 560.0}};
  return cfg;
}

/// A full zoom level corrected independently of the server: build_map on
/// the level's own PerspectiveView, then the scalar kernel over a service
/// plan's tiles. Crops must match its regions bit-exactly.
img::Image8 reference_level(const serve::ServerConfig& cfg,
                            const serve::ServeOptions& opt, int level,
                            img::ConstImageView<std::uint8_t> src) {
  const auto cam = core::FisheyeCamera::centered(cfg.lens, cfg.src_width,
                                                 cfg.src_height);
  const serve::LevelSpec& spec = cfg.levels[static_cast<std::size_t>(level)];
  const double focal =
      spec.focal == 0.0 ? cam.lens().dradius_dtheta(0.0) : spec.focal;
  const core::PerspectiveView view(spec.width, spec.height, focal);
  const core::WarpMap map = core::build_map(cam, view);
  img::Image8 out(spec.width, spec.height, cfg.channels);
  core::ExecContext ctx;
  ctx.src = src;
  ctx.dst = out.view();
  ctx.map = &map;
  ctx.opts = cfg.remap;
  ctx.mode = core::MapMode::FloatLut;
  const core::ExecutionPlan plan =
      core::build_service_plan(ctx, opt.tile_w, opt.tile_h, "reference");
  for (const par::Rect& tile : plan.tiles())
    plan.kernel()(ctx.src, ctx.dst, tile);
  return out;
}

struct View {
  int level = 0;
  par::Rect rect;
};

/// Writer walk: a step of one quantum per frame along a direction that
/// turns at random and bounces off the level's edges, so consecutive
/// windows never coincide.
struct Walker {
  int x = 0, y = 0, dx = 16, dy = 0;

  void step(util::Rng& rng) {
    if (rng.next_below(8) == 0) {
      static constexpr int dirs[8][2] = {{16, 0},  {-16, 0}, {0, 16},
                                         {0, -16}, {16, 16}, {-16, 16},
                                         {16, -16}, {-16, -16}};
      const auto d = rng.next_below(8);
      dx = dirs[d][0];
      dy = dirs[d][1];
    }
    if (x + dx < 0 || x + dx + kWriterW > kLevelW) dx = -dx;
    if (y + dy < 0 || y + dy + kWriterH > kLevelH) dy = -dy;
    x += dx;
    y += dy;
  }
  [[nodiscard]] View view() const {
    return {2, {x, y, x + kWriterW, y + kWriterH}};
  }
};

struct System {
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<serve::Server> server;  // after pool: dies first
};

}  // namespace

void serve_leg(const Env& env, Result& res) {
  Tracer& tracer = *env.tracer;
  util::Rng rng(env.args.seed);
  const serve::ServerConfig cfg = server_config();
  const serve::ServeOptions opts = serve::ServeOptions::parse(kSpec);

  std::vector<img::Image8> inputs;
  for (int k = 0; k < kInputs; ++k)
    inputs.push_back(make_frame(kSrcW, kSrcH, 1, rng));

  // Hotspots on levels 0-1 and the readers' zipf(1.1) picks among them.
  // The layout and the picks are fixed, not seeded: how much the views
  // overlap sets how much work coalescing leaves, and the seed should
  // change content and the writers' walks, not the load's size. Reader i
  // takes the zipf quantile (i + 0.5) / kReaders.
  std::vector<View> hotspots;
  util::Rng layout(kLayoutSeed);
  for (std::size_t k = 0; k < kHotspots; ++k) {
    const int w = 96 + 16 * static_cast<int>(layout.next_below(7));
    const int h = 64 + 16 * static_cast<int>(layout.next_below(5));
    const int x = static_cast<int>(
        layout.next_below(static_cast<std::uint64_t>(kLevelW - w + 1)));
    const int y = static_cast<int>(
        layout.next_below(static_cast<std::uint64_t>(kLevelH - h + 1)));
    hotspots.push_back({static_cast<int>(k % 2), {x, y, x + w, y + h}});
  }
  std::vector<double> cdf(kHotspots);
  double total = 0.0;
  for (std::size_t k = 0; k < kHotspots; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipf);
    cdf[k] = total;
  }
  std::vector<View> readers(kReaders);
  for (std::size_t i = 0; i < kReaders; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / kReaders * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    readers[i] = hotspots[std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf.begin()), kHotspots - 1)];
  }
  std::vector<Walker> writers(kWriters);
  for (Walker& w : writers) {
    w.x = 16 * static_cast<int>(rng.next_below((kLevelW - kWriterW) / 16));
    w.y = 16 * static_cast<int>(rng.next_below((kLevelH - kWriterH) / 16));
  }

  // Crop buffers: kRing sets of one crop per viewer. Writer crops all have
  // one size; reader crops follow their hotspot.
  std::vector<std::vector<img::Image8>> crops(kRing);
  for (auto& set : crops) {
    for (const View& v : readers)
      set.emplace_back(v.rect.width(), v.rect.height(), 1);
    for (std::size_t w = 0; w < kWriters; ++w)
      set.emplace_back(kWriterW, kWriterH, 1);
  }

  // Per-leg records, sized before the server starts so none is allocated
  // while measuring. Requests are tagged frame * kViewers + viewer.
  const auto max_frames =
      static_cast<std::size_t>(kFps * (kLegSeconds + kWarmupSeconds + 1.0) *
                               1.2) + 64;
  /// 1 once the request's crop was delivered.
  std::vector<std::uint8_t> retired(max_frames * kViewers, 0);
  /// The writers' views of every frame (readers' views never change).
  std::vector<std::array<View, kWriters>> writer_views(max_frames);
  std::size_t frame = 0;  // frames issued so far
  const auto view_of = [&](std::size_t f, std::size_t v) -> const View& {
    return v < kReaders ? readers[v] : writer_views[f][v - kReaders];
  };

  // Issue one frame: every viewer's request, then the source frame.
  const auto issue_frame = [&](System& sys) {
    if (frame >= max_frames) throw std::runtime_error("frame budget exceeded");
    for (std::size_t w = 0; w < kWriters; ++w) {
      writers[w].step(rng);
      writer_views[frame][w] = writers[w].view();
    }
    std::vector<img::Image8>& set = crops[frame % kRing];
    for (std::size_t v = 0; v < kViewers; ++v) {
      const std::size_t tag = frame * kViewers + v;
      const View& view = view_of(frame, v);
      const Tracer::Scope span(tracer, "serve.request", tag);
      sys.server->request(view.level, view.rect, set[v].view(), tag);
    }
    const Tracer::Scope span(tracer, "serve.submit_frame", frame);
    sys.server->submit_frame(inputs[frame % kInputs].view());
    ++frame;
  };

  auto sys = std::make_unique<System>();
  {
    const Tracer::Scope start(tracer, "serve.start");
    sys->pool = std::make_unique<par::ThreadPool>(4);
    sys->server = std::make_unique<serve::Server>(cfg, opts, *sys->pool);
  }
  sys->server->set_retire([&](std::uint64_t, std::uint64_t tag, double) {
    if (tag < retired.size()) retired[tag] = 1;
  });
  // First output: one full frame of requests against a cold cache.
  issue_frame(*sys);
  sys->server->drain();

  struct Phase {
    rt::ServeStats before, after;
  };

  // One open-loop phase at kFps; returns the server's counters around it.
  const auto phase = [&](double seconds, bool traced) {
    tracer.set_enabled(traced);
    Phase p;
    p.before = sys->server->stats();
    const std::size_t first = frame;
    const auto frames = static_cast<std::size_t>(seconds * kFps);
    std::vector<double> due(frames);
    const double t0 = now_s() + 0.01;
    for (std::size_t f = 0; f < frames; ++f)
      due[f] = t0 + static_cast<double>(f) / kFps;
    run_open_loop(due, [&](std::size_t) {
      res.attempted += kViewers;
      try {
        issue_frame(*sys);
      } catch (const std::exception&) {
        res.failed += kViewers;
      }
    });
    try {
      sys->server->drain();
    } catch (const std::exception&) {
      ++res.failed;
    }
    for (std::size_t tag = first * kViewers; tag < frame * kViewers; ++tag)
      if (!retired[tag]) ++res.failed;
    p.after = sys->server->stats();
    return p;
  };

  // Warm-up, not reported: fills the plan cache, warms clocks.
  phase(kWarmupSeconds, false);
  const Phase traced = phase(kLegSeconds, true);
  const std::vector<Span> spans = tracer.spans();
  auto& m = res.metrics;
  {
    const rt::ServeStats& a = traced.after;
    const rt::ServeStats& b = traced.before;
    const auto per_frame = [&](std::size_t n) {
      return static_cast<double>(n) / static_cast<double>(a.frames - b.frames);
    };
    const std::size_t hits = a.plan_hits - b.plan_hits;
    const std::size_t misses = a.plan_misses - b.plan_misses;
    m["serve.plan_hit_frac"] = static_cast<double>(hits) / (hits + misses);
    m["serve.misses_per_frame"] = per_frame(misses);
    m["serve.evictions_per_frame"] = per_frame(a.plan_evictions -
                                               b.plan_evictions);
    m["serve.cache_mb"] = static_cast<double>(a.cache_bytes) / 1e6;
    m["serve.clusters_per_frame"] = per_frame(a.clusters - b.clusters);
    m["serve.tile_share"] =
        static_cast<double>(a.tiles_executed - b.tiles_executed) /
        static_cast<double>(a.tiles_requested - b.tiles_requested);
    const auto mean = [](const std::vector<double>& v) {
      double s = 0.0;
      for (const double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    m["serve.request_us"] = mean(durations(spans, "serve.request", true)) * 1e6;
    m["serve.submit_frame_ms"] =
        mean(durations(spans, "serve.submit_frame", true)) * 1e3;
  }

  // Output check, after the timed phases: the crops of the last kRing
  // frames against independently corrected full levels, bit-exact.
  std::vector<std::vector<img::Image8>> refs(kInputs);
  for (int k = 0; k < kInputs; ++k)
    for (int l = 0; l < static_cast<int>(cfg.levels.size()); ++l)
      refs[static_cast<std::size_t>(k)].push_back(
          reference_level(cfg, opts, l, inputs[static_cast<std::size_t>(k)]
                                            .view()));
  for (std::size_t f = frame > kRing ? frame - kRing : 0; f < frame; ++f) {
    const std::vector<img::Image8>& set = crops[f % kRing];
    for (std::size_t v = 0; v < kViewers; ++v) {
      const View& view = view_of(f, v);
      const img::Image8& full =
          refs[f % kInputs][static_cast<std::size_t>(view.level)];
      const img::ConstImageView<std::uint8_t> region{
          full.row(view.rect.y0) + view.rect.x0, view.rect.width(),
          view.rect.height(), 1, full.pitch()};
      ++res.checked;
      if (count_diff(set[v].view(), region, 0) != 0) ++res.wrong;
    }
  }

  res.stamp.emplace_back("serve", opts.spec());
  res.stamp.emplace_back("serve.levels",
                         "equidistant 1280x720 -> 3x640x360 perspective, "
                         "focal auto,360,560");
  res.stamp.emplace_back("serve.viewers",
                         "512 zipf(1.1) on 48 hotspots + 8 walkers at 60 fps");
}

}  // namespace perfbench
