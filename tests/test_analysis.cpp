// Quality-analysis instruments.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/quality.hpp"
#include "core/brown_conrady.hpp"
#include "core/corrector.hpp"
#include "image/synth.hpp"
#include "util/mathx.hpp"

namespace fisheye::analysis {
namespace {

using util::deg_to_rad;

img::Image8 stripe_image(int w, int h, double x_of_y_amp) {
  // Vertical stripe whose centre follows x = w/2 + amp*sin(y/20).
  img::Image8 im(w, h, 1);
  for (int y = 0; y < h; ++y) {
    const int cx = static_cast<int>(
        w / 2.0 + x_of_y_amp * std::sin(y / 20.0));
    for (int x = std::max(0, cx - 2); x <= std::min(w - 1, cx + 2); ++x)
      im.at(x, y) = 250;
  }
  return im;
}

TEST(Straightness, PerfectStripeIsStraight) {
  const img::Image8 im = stripe_image(100, 80, 0.0);
  const StraightnessReport r = stripe_straightness(im.view(), 0, 80);
  EXPECT_EQ(r.rows_used, 80);
  EXPECT_LT(r.max_deviation_px, 1e-9);
  EXPECT_NEAR(r.slope, 0.0, 1e-12);
}

TEST(Straightness, SlantedStraightLineHasZeroResidual) {
  // A slanted but straight stripe: slope is reported, residual stays ~0.
  img::Image8 im(100, 80, 1);
  for (int y = 0; y < 80; ++y) {
    const int cx = 20 + y / 2;
    for (int x = cx - 1; x <= cx + 1; ++x) im.at(x, y) = 250;
  }
  const StraightnessReport r = stripe_straightness(im.view(), 0, 80);
  EXPECT_NEAR(r.slope, 0.5, 0.02);
  EXPECT_LT(r.max_deviation_px, 0.5);
}

TEST(Straightness, BowedStripeMeasured) {
  const img::Image8 im = stripe_image(100, 80, 6.0);
  const StraightnessReport r = stripe_straightness(im.view(), 0, 80);
  EXPECT_GT(r.max_deviation_px, 3.0);
  EXPECT_GT(r.rms_deviation_px, 1.0);
}

TEST(Straightness, EmptyRowsSkipped) {
  img::Image8 im(50, 40, 1);  // all dark
  const StraightnessReport r = stripe_straightness(im.view(), 0, 40);
  EXPECT_EQ(r.rows_used, 0);
  EXPECT_EQ(r.max_deviation_px, 0.0);
}

TEST(RadialContrast, SiemensStarIsHighContrastEverywhere) {
  const img::Image8 star = img::make_siemens_star(201, 201, 16);
  const auto profile = radial_contrast(star.view(), 8, 95.0);
  ASSERT_EQ(profile.size(), 8u);
  // Skip the innermost band (spokes merge below pixel pitch).
  for (std::size_t b = 1; b < profile.size(); ++b)
    EXPECT_GT(profile[b], 0.85) << "band " << b;
}

TEST(RadialContrast, FlatImageHasZeroContrast) {
  img::Image8 im(100, 100, 1);
  im.fill(77);
  for (double c : radial_contrast(im.view(), 5, 45.0)) EXPECT_EQ(c, 0.0);
}

TEST(MapErrorStats, IdenticalMapsAreZero) {
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(170.0), 80, 60);
  const core::PerspectiveView view(80, 60, cam.lens().focal());
  const core::WarpMap map = core::build_map(cam, view);
  const MapErrorStats s = map_error_stats(map, map, 80, 60);
  EXPECT_GT(s.samples, 0u);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(MapErrorStats, PercentilesAreOrderedAndMatchKnownShift) {
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(170.0), 80, 60);
  const core::PerspectiveView view(80, 60, cam.lens().focal());
  const core::WarpMap a = core::build_map(cam, view);
  core::WarpMap b = a;
  for (auto& v : b.src_x) v += 1.5f;  // uniform shift
  const MapErrorStats s = map_error_stats(a, b, 80, 60);
  EXPECT_NEAR(s.mean, 1.5, 0.05);
  EXPECT_NEAR(s.p50, 1.5, 0.05);
  EXPECT_NEAR(s.max, 1.5, 0.05);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(Integration, CorrectionRestoresStripeStraightness) {
  // The analysis instrument applied to the real pipeline: a bowed stripe
  // in the fisheye image straightens after correction.
  const int w = 240, h = 180;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  // Scene with a vertical stripe right of centre.
  img::Image8 scene(2 * w, 2 * h, 1);
  for (int y = 0; y < scene.height(); ++y)
    for (int x = 300; x <= 304; ++x) scene.at(x, y) = 250;
  const core::WarpMap synth =
      core::build_synthesis_map(cam, 2 * w, 2 * h, 0.25 * 2 * w, w, h);
  img::Image8 fish(w, h, 1);
  core::remap_rect(scene.view(), fish.view(), synth, {0, 0, w, h},
                   {core::Interp::Bilinear, img::BorderMode::Constant, 0});

  const core::Corrector corr = core::Corrector::builder(w, h).build();
  core::CpuBackend backend;
  img::Image8 corrected(w, h, 1);
  corr.correct(fish.view(), corrected.view(), backend);

  const StraightnessReport before =
      stripe_straightness(fish.view(), h / 4, 3 * h / 4, 100);
  const StraightnessReport after =
      stripe_straightness(corrected.view(), h / 4, 3 * h / 4, 100);
  EXPECT_GT(before.max_deviation_px, 1.5);
  EXPECT_LT(after.max_deviation_px, before.max_deviation_px / 3.0);
}

TEST(Straightness, ContractsOnInputs) {
  img::Image8 rgb(10, 10, 3);
  EXPECT_THROW(stripe_straightness(rgb.view(), 0, 10),
               fisheye::InvalidArgument);
  img::Image8 gray(10, 10, 1);
  EXPECT_THROW(stripe_straightness(gray.view(), 5, 3),
               fisheye::InvalidArgument);
  EXPECT_THROW(radial_contrast(gray.view(), 0, 5.0),
               fisheye::InvalidArgument);
}

}  // namespace
}  // namespace fisheye::analysis
