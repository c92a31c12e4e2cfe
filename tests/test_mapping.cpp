// Warp-map generation, fixed-point packing, bbox analysis; the row-parallel
// set-up passes against per-pixel serial references.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "core/brown_conrady.hpp"
#include "core/mapping.hpp"
#include "core/model_spec.hpp"
#include "util/mathx.hpp"

namespace fisheye::core {
namespace {

using util::deg_to_rad;

FisheyeCamera test_camera(int w = 320, int h = 240,
                          double fov_deg = 180.0) {
  return FisheyeCamera::centered(LensKind::Equidistant, deg_to_rad(fov_deg),
                                 w, h);
}

TEST(BuildMap, CentreMapsToCentre) {
  const FisheyeCamera cam = test_camera(321, 241);
  const PerspectiveView view(321, 241, cam.lens().focal());
  const WarpMap map = build_map(cam, view);
  ASSERT_EQ(map.width, 321);
  ASSERT_EQ(map.height, 241);
  const std::size_t c = map.index(160, 120);
  EXPECT_NEAR(map.src_x[c], 160.0, 1e-4);
  EXPECT_NEAR(map.src_y[c], 120.0, 1e-4);
}

TEST(BuildMap, NearCentreIsNearIdentity) {
  // With matched focal the undistortion is locally the identity at the
  // centre: 10 px out maps within a fraction of a pixel of itself.
  const FisheyeCamera cam = test_camera(321, 241);
  const PerspectiveView view(321, 241, cam.lens().focal());
  const WarpMap map = build_map(cam, view);
  const std::size_t i = map.index(170, 120);
  EXPECT_NEAR(map.src_x[i], 170.0, 0.12);
  EXPECT_NEAR(map.src_y[i], 120.0, 0.01);
}

TEST(BuildMap, PullsFromInsideImageCircleTowardEdges) {
  // Barrel correction: the output edge samples source pixels closer to the
  // centre than itself (the source is compressed).
  const FisheyeCamera cam = test_camera(320, 240);
  const PerspectiveView view(320, 240, cam.lens().focal());
  const WarpMap map = build_map(cam, view);
  const std::size_t i = map.index(310, 120);
  const double out_r = std::abs(310 - 159.5);
  const double src_r = std::abs(map.src_x[i] - 159.5);
  EXPECT_LT(src_r, out_r);
  EXPECT_GT(src_r, 0.0);
}

TEST(BuildMap, RadiallySymmetric) {
  const FisheyeCamera cam = test_camera(201, 201);
  const PerspectiveView view(201, 201, cam.lens().focal());
  const WarpMap map = build_map(cam, view);
  // Mirror pixels map to mirror sources.
  const std::size_t right = map.index(150, 100);
  const std::size_t left = map.index(50, 100);
  EXPECT_NEAR(map.src_x[right] - 100.0, 100.0 - map.src_x[left], 1e-3);
  EXPECT_NEAR(map.src_y[right], map.src_y[left], 1e-3);
}

TEST(SynthesisMap, InvertsCorrection) {
  // Correcting then re-distorting a point must return it: the synthesis map
  // at a fisheye pixel p looks up the scene pixel whose corrected position
  // is p again (both built from the same camera).
  const FisheyeCamera cam = test_camera(320, 240);
  const WarpMap synth = build_synthesis_map(cam, 640, 480, 160.0, 320, 240);
  ASSERT_EQ(synth.width, 320);
  // Fisheye centre sees scene centre.
  const std::size_t c = synth.index(160, 120);
  EXPECT_NEAR(synth.src_x[c], 319.5, 1.2);
  EXPECT_NEAR(synth.src_y[c], 239.5, 1.2);
}

TEST(SynthesisMap, BehindPlaneIsBlanked) {
  // 180-degree fisheye corners see theta > 85 degrees: far outside any
  // finite scene plane, marked far out of bounds.
  const FisheyeCamera cam = test_camera(320, 240);
  const WarpMap synth = build_synthesis_map(cam, 640, 480, 160.0, 320, 240);
  const std::size_t corner = synth.index(0, 0);
  EXPECT_LT(synth.src_x[corner], -1000.0f);
}

TEST(BrownConradyMap, MatchesExactMapNearCentre) {
  const FisheyeCamera cam = test_camera(320, 240);
  const PerspectiveView view(320, 240, cam.lens().focal());
  const WarpMap exact = build_map(cam, view);
  const BrownConrady bc =
      fit_brown_conrady(cam.lens(), deg_to_rad(60.0));
  const WarpMap poly = build_brown_conrady_map(bc, cam.cx(), cam.cy(), view);
  // Near the centre the polynomial agrees to sub-pixel...
  const std::size_t c = poly.index(180, 130);
  EXPECT_NEAR(poly.src_x[c], exact.src_x[c], 0.1);
  EXPECT_NEAR(poly.src_y[c], exact.src_y[c], 0.1);
  // ...but the far edge diverges visibly (the T3 story).
  const std::size_t e = poly.index(318, 120);
  EXPECT_GT(std::abs(poly.src_x[e] - exact.src_x[e]), 1.0);
}

TEST(PackMap, QuantizationWithinHalfLsb) {
  const FisheyeCamera cam = test_camera(160, 120);
  const PerspectiveView view(160, 120, cam.lens().focal());
  const WarpMap map = build_map(cam, view);
  const PackedMap packed = pack_map(map, 160, 120, 14);
  const double lsb = 1.0 / 16384.0;
  for (std::size_t i = 0; i < map.pixel_count(); ++i) {
    if (packed.fx[i] == PackedMap::kInvalid) continue;
    const double qx = static_cast<double>(packed.fx[i]) * lsb;
    const double qy = static_cast<double>(packed.fy[i]) * lsb;
    // Packed values are clamped into [0, dim-1]; compare to the clamped
    // original.
    const double cx = util::clamp<double>(map.src_x[i], 0.0, 159.0);
    const double cy = util::clamp<double>(map.src_y[i], 0.0, 119.0);
    EXPECT_NEAR(qx, cx, 0.5 * lsb + 1e-9);
    EXPECT_NEAR(qy, cy, 0.5 * lsb + 1e-9);
  }
}

TEST(PackMap, OutsidePixelsBecomeSentinel) {
  // A 180-degree map on a wide output has corners outside the circle whose
  // source coords fall outside the image; those pack to kInvalid.
  const FisheyeCamera cam = test_camera(320, 240);
  const WarpMap synth = build_synthesis_map(cam, 640, 480, 160.0, 320, 240);
  const PackedMap packed = pack_map(synth, 640, 480, 14);
  EXPECT_EQ(packed.fx[packed.index(0, 0)], PackedMap::kInvalid);
  EXPECT_NE(packed.fx[packed.index(160, 120)], PackedMap::kInvalid);
}

TEST(PackMap, FracBitsValidated) {
  WarpMap map;
  map.width = map.height = 2;
  map.src_x.assign(4, 0.5f);
  map.src_y.assign(4, 0.5f);
  EXPECT_THROW(pack_map(map, 4, 4, 0), fisheye::InvalidArgument);
  EXPECT_THROW(pack_map(map, 4, 4, 23), fisheye::InvalidArgument);
  const PackedMap p = pack_map(map, 4, 4, 8);
  EXPECT_EQ(p.frac_bits, 8);
  EXPECT_EQ(p.fx[0], 128);  // 0.5 in Q.8
}

TEST(SourceBbox, MatchesBruteForce) {
  const FisheyeCamera cam = test_camera(160, 120);
  const PerspectiveView view(160, 120, cam.lens().focal());
  const WarpMap map = build_map(cam, view);
  const par::Rect rect{40, 30, 90, 70};
  const par::Rect box = source_bbox(map, rect, 160, 120);
  ASSERT_FALSE(box.empty());
  // Every valid map entry's bilinear footprint must lie inside the box.
  for (int y = rect.y0; y < rect.y1; ++y)
    for (int x = rect.x0; x < rect.x1; ++x) {
      const std::size_t i = map.index(x, y);
      const float sx = map.src_x[i], sy = map.src_y[i];
      if (sx <= -1.0f || sy <= -1.0f || sx >= 160.0f || sy >= 120.0f)
        continue;
      const int x0 = static_cast<int>(std::floor(sx));
      const int y0 = static_cast<int>(std::floor(sy));
      EXPECT_GE(x0, box.x0 - 1);  // floor may sit one below when clamped at 0
      EXPECT_LE(x0 + 1, box.x1);
      EXPECT_GE(y0, box.y0 - 1);
      EXPECT_LE(y0 + 1, box.y1);
    }
}

TEST(SourceBbox, EmptyForFullyOutsideRect) {
  WarpMap map;
  map.width = map.height = 8;
  map.src_x.assign(64, -1e9f);
  map.src_y.assign(64, -1e9f);
  const par::Rect box = source_bbox(map, {0, 0, 8, 8}, 100, 100);
  EXPECT_TRUE(box.empty());
}

TEST(ValidFraction, CountsCorrectly) {
  WarpMap map;
  map.width = 4;
  map.height = 1;
  map.src_x = {1.0f, -5.0f, 2.0f, 200.0f};
  map.src_y = {1.0f, 1.0f, 1.0f, 1.0f};
  EXPECT_DOUBLE_EQ(valid_fraction(map, 100, 100), 0.5);
}

TEST(ValidFraction, FisheyeMapMostlyValid) {
  const FisheyeCamera cam = test_camera(320, 240);
  const PerspectiveView view(320, 240, cam.lens().focal());
  const WarpMap map = build_map(cam, view);
  const double frac = valid_fraction(map, 320, 240);
  EXPECT_GT(frac, 0.9);
  EXPECT_LE(frac, 1.0);
}

// --- row-parallel set-up ---------------------------------------------------

// Bitwise float equality: NaN-safe and stricter than == about signed zeros.
bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

// The serial per-pixel definition of a map: for each output pixel,
// ray_for_pixel -> camera.project, cast to float.
::testing::AssertionResult matches_serial_reference(
    const FisheyeCamera& cam, const ViewProjection& view, const WarpMap& map,
    par::Rect window) {
  if (map.width != window.width() || map.height != window.height())
    return ::testing::AssertionFailure() << "dims " << map.width << "x"
                                         << map.height;
  for (int y = 0; y < map.height; ++y)
    for (int x = 0; x < map.width; ++x) {
      const util::Vec2 src = cam.project(view.ray_for_pixel(
          {static_cast<double>(window.x0 + x),
           static_cast<double>(window.y0 + y)}));
      const std::size_t i = map.index(x, y);
      if (!same_bits(map.src_x[i], static_cast<float>(src.x)) ||
          !same_bits(map.src_y[i], static_cast<float>(src.y)))
        return ::testing::AssertionFailure() << "pixel " << x << "," << y;
    }
  return ::testing::AssertionSuccess();
}

TEST(BuildMapParallel, MatchesSerialReferenceForEveryLensViewAndSize) {
  const char* lenses[] = {"equidistant",
                          "equisolid",
                          "orthographic",
                          "stereographic",
                          "rectilinear:fov=120",
                          "kannala_brandt:k1=-0.02,fov=170",
                          "division"};
  const char* views[] = {"perspective", "cylindrical", "equirect",
                         "quadview"};
  struct Size {
    int w, h;
  };
  // 131 rows is not a multiple of the row band.
  const Size sizes[] = {{1, 1}, {7, 3}, {257, 131}};
  for (const char* lens : lenses) {
    const FisheyeCamera cam =
        FisheyeCamera::centered(LensSpec::parse(lens), 320, 240);
    for (const char* view_spec : views) {
      const ViewSpec vs = ViewSpec::parse(view_spec);
      for (const Size sz : sizes) {
        // QuadView needs even dims: build it one pixel larger where needed
        // and check the odd-sized window as well as the full map.
        const bool quad = vs.kind == ViewKind::QuadView;
        const int vw = quad ? sz.w + sz.w % 2 : sz.w;
        const int vh = quad ? sz.h + sz.h % 2 : sz.h;
        const std::unique_ptr<ViewProjection> view =
            vs.make(vw, vh, cam.lens().focal());
        const par::Rect window{0, 0, sz.w, sz.h};
        for (const unsigned workers : {1u, 2u, 5u}) {
          const std::string where = std::string(lens) + " " + view_spec + " " +
                                    std::to_string(sz.w) + "x" +
                                    std::to_string(sz.h) + " workers=" +
                                    std::to_string(workers);
          EXPECT_TRUE(matches_serial_reference(
              cam, *view, build_map(cam, *view, workers), {0, 0, vw, vh}))
              << where;
          EXPECT_TRUE(matches_serial_reference(
              cam, *view, build_map_window(cam, *view, window, workers),
              window))
              << where;
        }
      }
    }
  }
}

TEST(BuildMapParallel, OffsetWindowIsACropAtAnyWorkerCount) {
  const FisheyeCamera cam = test_camera(320, 240);
  const PerspectiveView view(320, 240, cam.lens().focal());
  const WarpMap whole = build_map(cam, view, 1);
  const par::Rect window{13, 7, 300, 229};
  for (const unsigned workers : {1u, 2u, 5u}) {
    const WarpMap crop = build_map_window(cam, view, window, workers);
    for (int y = 0; y < crop.height; ++y)
      for (int x = 0; x < crop.width; ++x) {
        const std::size_t w = whole.index(window.x0 + x, window.y0 + y);
        const std::size_t c = crop.index(x, y);
        ASSERT_TRUE(same_bits(crop.src_x[c], whole.src_x[w])) << x << "," << y;
        ASSERT_TRUE(same_bits(crop.src_y[c], whole.src_y[w])) << x << "," << y;
      }
  }
}

TEST(PackMapParallel, IdenticalForAnyWorkerCount) {
  const FisheyeCamera cam = test_camera(257, 131);
  const PerspectiveView view(257, 131, cam.lens().focal());
  const WarpMap map = build_map(cam, view);
  const PackedMap one = pack_map(map, 257, 131, 14, 1);
  for (const unsigned workers : {2u, 5u}) {
    const PackedMap many = pack_map(map, 257, 131, 14, workers);
    EXPECT_EQ(many.fx, one.fx) << workers;
    EXPECT_EQ(many.fy, one.fy) << workers;
  }
}

}  // namespace
}  // namespace fisheye::core
