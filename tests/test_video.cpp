// Video source determinism and pipeline throughput accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/corrector.hpp"
#include "image/metrics.hpp"
#include "util/mathx.hpp"
#include "video/pipeline.hpp"

namespace fisheye::video {
namespace {

using util::deg_to_rad;

core::FisheyeCamera camera(int w, int h) {
  return core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                       deg_to_rad(180.0), w, h);
}

TEST(Source, FramesAreDeterministic) {
  const auto cam = camera(160, 120);
  const SyntheticVideoSource a(cam, 160, 120, 1);
  const SyntheticVideoSource b(cam, 160, 120, 1);
  EXPECT_TRUE(
      img::equal_pixels<std::uint8_t>(a.frame(5).view(), b.frame(5).view()));
}

TEST(Source, FramesEvolveOverTime) {
  const auto cam = camera(160, 120);
  const SyntheticVideoSource source(cam, 160, 120, 1);
  EXPECT_FALSE(img::equal_pixels<std::uint8_t>(source.frame(0).view(),
                                               source.frame(30).view()));
}

TEST(Source, RgbAndGraySupported) {
  const auto cam = camera(64, 64);
  const SyntheticVideoSource gray(cam, 64, 64, 1);
  const SyntheticVideoSource rgb(cam, 64, 64, 3);
  EXPECT_EQ(gray.frame(0).channels(), 1);
  EXPECT_EQ(rgb.frame(0).channels(), 3);
}

TEST(Source, FisheyeFrameHasBlackCorners) {
  // 180-degree circular fisheye: corners lie outside the image circle.
  const auto cam = camera(160, 120);
  const SyntheticVideoSource source(cam, 160, 120, 1);
  const img::Image8 f = source.frame(0);
  EXPECT_EQ(f.at(0, 0), 0);
  EXPECT_EQ(f.at(159, 119), 0);
  // Centre sees the scene (not fill).
  EXPECT_NE(f.at(80, 60), 0);
}

TEST(Source, SceneFrameIsLargerGroundTruth) {
  const auto cam = camera(64, 48);
  const SyntheticVideoSource source(cam, 64, 48, 3);
  const img::Image8 scene = source.scene_frame(0);
  EXPECT_EQ(scene.width(), 128);
  EXPECT_EQ(scene.height(), 96);
}

TEST(Pipeline, RunsAndReportsThroughput) {
  const auto cam = camera(160, 120);
  const SyntheticVideoSource source(cam, 160, 120, 1);
  const core::Corrector corr =
      core::Corrector::builder(160, 120).fov_degrees(180.0).build();
  core::CpuBackend backend;
  int sink_calls = 0;
  const PipelineStats stats = run_pipeline(
      source, corr, backend, 5,
      [&sink_calls](int, const img::Image8&) { ++sink_calls; });
  EXPECT_EQ(stats.frames, 5);
  EXPECT_EQ(sink_calls, 5);
  EXPECT_GT(stats.fps, 0.0);
  EXPECT_EQ(stats.per_frame.samples, 5);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(Pipeline, CorrectedFrameRecoversSceneCentre) {
  // End-to-end quality: forward-distort the scene, correct it back, and
  // compare the central region against the original scene (resampled
  // identity up to interpolation loss).
  const int w = 240, h = 180;
  const auto cam = camera(w, h);
  const SyntheticVideoSource source(cam, w, h, 1);
  const core::Corrector corr =
      core::Corrector::builder(w, h).fov_degrees(180.0).build();
  core::CpuBackend backend;
  const img::Image8 fish = source.frame(0);
  img::Image8 corrected(w, h, 1);
  corr.correct(fish.view(), corrected.view(), backend);

  const img::Image8 scene = source.scene_frame(0);
  // The corrected image at matched focal shows the scene scaled by
  // f_out/f_scene about the centre. Compare a central patch via sampling.
  const double f_out = corr.config().out_focal;
  const double f_scene = 0.25 * scene.width();
  double err = 0.0;
  int n = 0;
  for (int dy = -40; dy <= 40; dy += 4)
    for (int dx = -40; dx <= 40; dx += 4) {
      const int ox = w / 2 + dx, oy = h / 2 + dy;
      const double sx =
          (scene.width() - 1) * 0.5 + dx * (f_scene / f_out);
      const double sy =
          (scene.height() - 1) * 0.5 + dy * (f_scene / f_out);
      const int sxi = static_cast<int>(std::lround(sx));
      const int syi = static_cast<int>(std::lround(sy));
      err += std::abs(static_cast<int>(corrected.at(ox, oy)) -
                      static_cast<int>(scene.at(sxi, syi)));
      ++n;
    }
  EXPECT_LT(err / n, 25.0);  // mean abs error over the centre patch
}

TEST(Pipeline, InvalidFrameCountViolatesContract) {
  const auto cam = camera(64, 64);
  const SyntheticVideoSource source(cam, 64, 64, 1);
  const core::Corrector corr = core::Corrector::builder(64, 64).build();
  core::CpuBackend backend;
  EXPECT_THROW(run_pipeline(source, corr, backend, 0),
               fisheye::InvalidArgument);
}


TEST(Pipeline, FrameParallelMatchesSerialOutputs) {
  const auto cam = camera(160, 120);
  const SyntheticVideoSource source(cam, 160, 120, 1);
  const core::Corrector corr =
      core::Corrector::builder(160, 120).fov_degrees(180.0).build();
  // Collect outputs from both paths via sinks.
  std::vector<img::Image8> serial_outs, parallel_outs;
  core::CpuBackend backend;
  run_pipeline(source, corr, backend, 6,
               [&](int, const img::Image8& f) {
                 serial_outs.push_back(f.clone());
               });
  par::ThreadPool pool(4);
  run_pipeline_frame_parallel(source, corr, pool, 6,
                              [&](int, const img::Image8& f) {
                                parallel_outs.push_back(f.clone());
                              });
  ASSERT_EQ(serial_outs.size(), 6u);
  ASSERT_EQ(parallel_outs.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(serial_outs[i].view(),
                                                parallel_outs[i].view()))
        << "frame " << i;
}

TEST(Pipeline, FrameParallelSinkSeesFramesInOrder) {
  const auto cam = camera(64, 64);
  const SyntheticVideoSource source(cam, 64, 64, 1);
  const core::Corrector corr = core::Corrector::builder(64, 64).build();
  par::ThreadPool pool(4);
  std::vector<int> order;
  run_pipeline_frame_parallel(source, corr, pool, 8,
                              [&](int i, const img::Image8&) {
                                order.push_back(i);
                              });
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace fisheye::video
