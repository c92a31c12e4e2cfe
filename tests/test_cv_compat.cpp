// OpenCV-compat shim: semantics of initUndistortRectifyMap + remap.
#include <gtest/gtest.h>

#include <cmath>

#include "core/corrector.hpp"
#include "core/cv_compat.hpp"
#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "util/mathx.hpp"

namespace fisheye::cv_compat {
namespace {

using util::deg_to_rad;

TEST(KannalaBrandt, ZeroCoefficientsIsIdentity) {
  for (double t = 0.0; t < 1.5; t += 0.1)
    EXPECT_DOUBLE_EQ(kannala_brandt_theta(t, {0, 0, 0, 0}), t);
}

TEST(KannalaBrandt, PolynomialTerms) {
  EXPECT_NEAR(kannala_brandt_theta(0.5, {0.1, 0, 0, 0}),
              0.5 * (1.0 + 0.1 * 0.25), 1e-15);
  EXPECT_NEAR(kannala_brandt_theta(0.5, {0, 0.2, 0, 0}),
              0.5 * (1.0 + 0.2 * 0.0625), 1e-15);
}

TEST(InitUndistortRectifyMap, ZeroDistortionMatchesEquidistantBuildMap) {
  // With D = 0 OpenCV's model is the pure equidistant lens; the shim's map
  // must match build_map for the same geometry.
  const int w = 320, h = 240;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  const double f = cam.lens().focal();
  const core::PerspectiveView view(w, h, f);
  const core::WarpMap reference = core::build_map(cam, view);

  const CameraMatrix k{f, f, cam.cx(), cam.cy()};
  const CameraMatrix p{f, f, (w - 1) * 0.5, (h - 1) * 0.5};
  const core::WarpMap shim = init_undistort_rectify_map(k, {0, 0, 0, 0}, p,
                                                        w, h);
  double worst = 0.0;
  for (std::size_t i = 0; i < reference.pixel_count(); ++i) {
    // Compare only where the reference is a normal in-image coordinate.
    if (reference.src_x[i] < -1.0f || reference.src_x[i] > w + 1.0f) continue;
    worst = std::max<double>(
        worst, std::abs(reference.src_x[i] - shim.src_x[i]));
    worst = std::max<double>(
        worst, std::abs(reference.src_y[i] - shim.src_y[i]));
  }
  EXPECT_LT(worst, 1e-3);
}

TEST(InitUndistortRectifyMap, DistortionCoefficientsBendTheMap) {
  const CameraMatrix k{200, 200, 160, 120};
  const CameraMatrix p{200, 200, 160, 120};
  const core::WarpMap plain = init_undistort_rectify_map(k, {0, 0, 0, 0}, p,
                                                         320, 240);
  const core::WarpMap bent = init_undistort_rectify_map(
      k, {-0.05, 0.01, 0, 0}, p, 320, 240);
  // Negative k1 shrinks theta_d: the bent map samples closer to centre.
  const std::size_t edge = plain.index(300, 120);
  EXPECT_LT(std::abs(bent.src_x[edge] - 160.0f),
            std::abs(plain.src_x[edge] - 160.0f));
  // Centre pixel unaffected.
  const std::size_t centre = plain.index(160, 120);
  EXPECT_NEAR(bent.src_x[centre], plain.src_x[centre], 1e-4);
}

TEST(InitUndistortRectifyMap, AnisotropicFocalsRespected) {
  const CameraMatrix k{200, 100, 160, 120};
  const CameraMatrix p{200, 100, 160, 120};
  const core::WarpMap map = init_undistort_rectify_map(k, {0, 0, 0, 0}, p,
                                                       320, 240);
  // A point on the x axis and one on the y axis at the same normalized
  // radius must land at the same normalized source radius.
  const std::size_t px = map.index(260, 120);  // ax = 0.5
  const std::size_t py = map.index(160, 170);  // ay = 0.5
  const double nx = (map.src_x[px] - 160.0) / 200.0;
  const double ny = (map.src_y[py] - 120.0) / 100.0;
  EXPECT_NEAR(nx, ny, 1e-6);
}

TEST(Remap, MatchesCoreRemap) {
  const img::Image8 src = img::make_gradient(64, 64);
  const CameraMatrix k{40, 40, 31.5, 31.5};
  const core::WarpMap map = init_undistort_rectify_map(
      k, {-0.02, 0, 0, 0}, k, 64, 64);
  img::Image8 a(64, 64, 1), b(64, 64, 1);
  remap(src.view(), a.view(), map);
  core::remap_rect(src.view(), b.view(), map, {0, 0, 64, 64},
                   {core::Interp::Bilinear, img::BorderMode::Constant, 0});
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(a.view(), b.view()));
}

TEST(Remap, EndToEndUndistortsLikeCorrector) {
  // Full OpenCV-style usage produces the same image as the native API.
  const int w = 240, h = 180;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  const double f = cam.lens().focal();
  const img::Image8 fish = img::make_rings(w, h, 11);

  const core::WarpMap map = init_undistort_rectify_map(
      {f, f, cam.cx(), cam.cy()}, {0, 0, 0, 0},
      {f, f, (w - 1) * 0.5, (h - 1) * 0.5}, w, h);
  img::Image8 shim_out(w, h, 1);
  remap(fish.view(), shim_out.view(), map);

  const core::Corrector corr = core::Corrector::builder(w, h).build();
  core::CpuBackend backend;
  img::Image8 native_out(w, h, 1);
  corr.correct(fish.view(), native_out.view(), backend);

  EXPECT_LE(img::max_abs_diff(shim_out.view(), native_out.view()), 1);
}

TEST(InitUndistortRectifyMap, Contracts) {
  EXPECT_THROW(
      init_undistort_rectify_map({0, 1, 0, 0}, {0, 0, 0, 0}, {1, 1, 0, 0},
                                 10, 10),
      fisheye::InvalidArgument);
  EXPECT_THROW(
      init_undistort_rectify_map({1, 1, 0, 0}, {0, 0, 0, 0}, {1, 1, 0, 0},
                                 0, 10),
      fisheye::InvalidArgument);
}

}  // namespace
}  // namespace fisheye::cv_compat
