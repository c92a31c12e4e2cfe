// GPU-like SIMT platform: functional equivalence with the serial reference
// and roofline-model sanity (ALU vs bandwidth bound, texture locality).
#include <gtest/gtest.h>

#include "accel/accel_backend.hpp"
#include "core/corrector.hpp"
#include "core/remap.hpp"
#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "util/mathx.hpp"

namespace fisheye::accel {
namespace {

using util::deg_to_rad;

struct Env {
  core::FisheyeCamera cam;
  core::PerspectiveView view;
  core::WarpMap map;
  img::Image8 src;

  explicit Env(int w, int h)
      : cam(core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                          deg_to_rad(180.0), w, h)),
        view(w, h, cam.lens().focal()),
        map(core::build_map(cam, view)),
        src(img::make_rings(w, h, 9)) {}
};

TEST(GpuPlatform, OutputMatchesSerialReferenceBitExact) {
  const Env s(160, 120);
  GpuPlatform platform(s.map, GpuConfig{});
  img::Image8 out(160, 120, 1), ref(160, 120, 1);
  const AccelFrameStats stats = platform.run_frame(s.src.view(), out.view(), 0);
  core::remap_rect(s.src.view(), ref.view(), s.map, {0, 0, 160, 120},
                   {core::Interp::Bilinear, img::BorderMode::Constant, 0});
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
  EXPECT_GT(stats.fps, 0.0);
}

TEST(GpuPlatform, FpsScalesWithSmCountUntilBandwidthBound) {
  const Env s(640, 480);
  auto stats_for = [&](int sms) {
    GpuConfig config;
    config.cost.num_sms = sms;
    GpuPlatform platform(s.map, config);
    img::Image8 out(640, 480, 1);
    return platform.run_frame(s.src.view(), out.view(), 0);
  };
  const double f1 = stats_for(1).fps;
  const double f8 = stats_for(8).fps;
  const double f30 = stats_for(30).fps;
  const double f120 = stats_for(120).fps;
  EXPECT_GT(f8, f1 * 6.0);       // ALU-bound region: near-linear
  EXPECT_GT(f30, f8);
  // Far past the roofline knee extra SMs buy (almost) nothing.
  EXPECT_LT(f120 / f30, 2.0);
}

TEST(GpuPlatform, BandwidthBoundWhenDramIsSlow) {
  const Env s(320, 240);
  GpuConfig fast, slow;
  slow.cost.dram_bytes_per_cycle = 1.0;
  img::Image8 out(320, 240, 1);
  const AccelFrameStats sf =
      GpuPlatform(s.map, fast).run_frame(s.src.view(), out.view(), 0);
  const AccelFrameStats ss =
      GpuPlatform(s.map, slow).run_frame(s.src.view(), out.view(), 0);
  EXPECT_GT(sf.fps, ss.fps * 5.0);
  EXPECT_LT(ss.utilization, 0.5);  // ALU mostly idle when bandwidth-bound
}

TEST(GpuPlatform, TextureCacheKeepsMissTrafficLow) {
  const Env s(640, 480);
  GpuPlatform platform(s.map, GpuConfig{});
  img::Image8 out(640, 480, 1);
  const AccelFrameStats stats = platform.run_frame(s.src.view(), out.view(), 0);
  EXPECT_GT(stats.cache_hit_rate(), 0.9);
  // DRAM traffic stays within a few x of the compulsory LUT+out stream.
  const double px = 640.0 * 480.0;
  EXPECT_LT(static_cast<double>(stats.bytes_in + stats.bytes_out),
            3.0 * px * 9.0);
}

TEST(GpuPlatform, LaunchOverheadDominatesTinyFrames) {
  const Env s(32, 32);
  GpuConfig config;
  GpuPlatform platform(s.map, config);
  img::Image8 out(32, 32, 1);
  const AccelFrameStats stats = platform.run_frame(s.src.view(), out.view(), 0);
  EXPECT_GT(stats.cycles, config.cost.launch_overhead_cycles);
  EXPECT_LT(stats.cycles, config.cost.launch_overhead_cycles * 2.0);
}

TEST(GpuPlatform, BackendAdapterWorksAndCaches) {
  const int w = 200, h = 150;
  const core::Corrector corr = core::Corrector::builder(w, h).build();
  const Env s(w, h);
  GpuBackend backend(GpuConfig{});
  img::Image8 out(w, h, 1), ref(w, h, 1);
  core::CpuBackend serial;
  corr.correct(s.src.view(), ref.view(), serial);
  corr.correct(s.src.view(), out.view(), backend);
  // Note: Env's map and corr's map are built identically.
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
  EXPECT_GT(backend.last_stats().fps, 0.0);
  EXPECT_EQ(backend.name(), "gpu");
}

TEST(GpuPlatform, InvalidConfigViolatesContract) {
  const Env s(64, 64);
  GpuConfig config;
  config.cost.num_sms = 0;
  EXPECT_THROW(GpuPlatform(s.map, config), fisheye::InvalidArgument);
  config = GpuConfig{};
  config.block_dim = 2;
  EXPECT_THROW(GpuPlatform(s.map, config), fisheye::InvalidArgument);
}

}  // namespace
}  // namespace fisheye::accel
