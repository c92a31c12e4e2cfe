// The AVX2 gather datapath vs the scalar reference, and the plan-time
// machinery around it: datapath=/tuned= spec options, effective-variant
// degrade (FISHEYE_FORCE_SCALAR, non-AVX2 hosts), the autotuner's
// resolve-once contract, and plan describability.
//
// Numerical contracts (simd/remap_gather.hpp): the packed and compact
// gather kernels run the SAME integer arithmetic as their scalar
// counterparts — bit-exact required; the float gather kernel quantizes
// bilinear weights to 8.8 fixed point — within one 8-bit level of scalar,
// and bit-exact against a per-pixel model of that 8.8 arithmetic. All hold
// with or without AVX2 (the integer expressions, not the ISA, define the
// arithmetic), so this suite runs unconditionally.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/autotune.hpp"
#include "core/backend.hpp"
#include "core/backend_registry.hpp"
#include "core/mapping.hpp"
#include "core/projection.hpp"
#include "core/remap.hpp"
#include "image/image.hpp"
#include "simd/remap_gather.hpp"
#include "simd/remap_simd.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace fisheye::core {
namespace {

using util::deg_to_rad;

img::Image8 random_image(int w, int h, int ch, std::uint64_t seed) {
  util::Rng rng(seed);
  img::Image8 im(w, h, ch);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w * ch; ++x)
      im.row(y)[x] = static_cast<std::uint8_t>(rng.next_below(256));
  return im;
}

WarpMap random_interior_map(int w, int h, int src_w, int src_h,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  WarpMap map;
  map.width = w;
  map.height = h;
  map.src_x.resize(map.pixel_count());
  map.src_y.resize(map.pixel_count());
  for (std::size_t i = 0; i < map.pixel_count(); ++i) {
    map.src_x[i] = static_cast<float>(rng.uniform(1.0, src_w - 2.0));
    map.src_y[i] = static_cast<float>(rng.uniform(1.0, src_h - 2.0));
  }
  return map;
}

par::Rect random_rect(int w, int h, util::Rng& rng) {
  const int x0 = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(w - 8)));
  const int y0 = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(h - 4)));
  const int x1 = x0 + 8 +
                 static_cast<int>(rng.next_below(
                     static_cast<std::uint64_t>(w - x0 - 7)));
  const int y1 = y0 + 4 +
                 static_cast<int>(rng.next_below(
                     static_cast<std::uint64_t>(h - y0 - 3)));
  return {x0, y0, std::min(x1, w), std::min(y1, h)};
}

int max_abs_diff(const img::Image8& a, const img::Image8& b) {
  int worst = 0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width() * a.channels(); ++x) {
      const int d = std::abs(int(a.row(y)[x]) - int(b.row(y)[x]));
      worst = std::max(worst, d);
    }
  return worst;
}

TEST(GatherKernel, FloatWithinOneLevelOfScalarOnRandomRects) {
  for (const int ch : {1, 3}) {
    const int w = 181, h = 67;
    const img::Image8 src = random_image(w, h, ch, 21);
    const WarpMap map = random_interior_map(w, h, w, h, 22);
    util::Rng rng(23);
    simd::SoaScratch scratch;
    for (int trial = 0; trial < 8; ++trial) {
      const par::Rect rect = random_rect(w, h, rng);
      img::Image8 a(w, h, ch), b(w, h, ch);
      a.fill(9);
      b.fill(9);
      core::remap_rect(src.view(), a.view(), map, rect,
                       {Interp::Bilinear, img::BorderMode::Constant, 0});
      simd::remap_bilinear_gather(src.view(), b.view(), map, rect, 0,
                                  scratch);
      EXPECT_LE(max_abs_diff(a, b), 1)
          << "ch=" << ch << " rect=(" << rect.x0 << ',' << rect.y0 << ','
          << rect.x1 << ',' << rect.y1 << ')';
    }
  }
}

TEST(GatherKernel, PackedBitExactAgainstScalarOnRandomRects) {
  for (const int ch : {1, 3}) {
    const int w = 143, h = 59;
    const img::Image8 src = random_image(w, h, ch, 31);
    const WarpMap map = random_interior_map(w, h, w, h, 32);
    const PackedMap packed = pack_map(map, w, h);
    util::Rng rng(33);
    simd::SoaScratch scratch;
    for (int trial = 0; trial < 8; ++trial) {
      const par::Rect rect = random_rect(w, h, rng);
      img::Image8 a(w, h, ch), b(w, h, ch);
      a.fill(5);
      b.fill(5);
      remap_packed_rect(src.view(), a.view(), packed, rect, 0);
      simd::remap_packed_gather(src.view(), b.view(), packed, rect, 0,
                                scratch);
      EXPECT_TRUE(img::equal_pixels<std::uint8_t>(a.view(), b.view()))
          << "ch=" << ch << " rect=(" << rect.x0 << ',' << rect.y0 << ','
          << rect.x1 << ',' << rect.y1 << ')';
    }
  }
}

TEST(GatherKernel, CompactBitExactAgainstScalarOnRandomRects) {
  for (const int ch : {1, 3}) {
    const int w = 128, h = 96;
    const img::Image8 src = random_image(w, h, ch, 41);
    const WarpMap map = random_interior_map(w, h, w, h, 42);
    const CompactMap cm = compact_map(map, w, h, 8);
    util::Rng rng(43);
    simd::SoaScratch scratch;
    for (int trial = 0; trial < 8; ++trial) {
      const par::Rect rect = random_rect(w, h, rng);
      img::Image8 a(w, h, ch), b(w, h, ch);
      a.fill(3);
      b.fill(3);
      remap_compact_rect(src.view(), a.view(), cm, rect, 0);
      simd::remap_compact_gather(src.view(), b.view(), cm, rect, 0, scratch);
      EXPECT_TRUE(img::equal_pixels<std::uint8_t>(a.view(), b.view()))
          << "ch=" << ch << " rect=(" << rect.x0 << ',' << rect.y0 << ','
          << rect.x1 << ',' << rect.y1 << ')';
    }
  }
}

/// A copy of `im` with pitch == width * channels, placed so its last byte
/// ends a page and the following page is inaccessible: a read past the
/// image faults instead of passing silently (AVX2 gathers are not
/// instrumented by the sanitizers).
class GuardedImage {
 public:
  explicit GuardedImage(const img::Image8& im)
      : w_(im.width()), h_(im.height()), ch_(im.channels()) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = pitch() * static_cast<std::size_t>(h_);
    const std::size_t body = (bytes + page - 1) / page * page;
    len_ = body + page;
    void* p = mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<std::uint8_t*>(p);
    if (mprotect(base_ + body, page, PROT_NONE) != 0) {
      munmap(base_, len_);
      throw std::bad_alloc();
    }
    data_ = base_ + body - bytes;
    for (int y = 0; y < h_; ++y)
      std::memcpy(data_ + pitch() * static_cast<std::size_t>(y), im.row(y),
                  pitch());
  }
  ~GuardedImage() { munmap(base_, len_); }
  GuardedImage(const GuardedImage&) = delete;
  GuardedImage& operator=(const GuardedImage&) = delete;

  [[nodiscard]] img::ConstImageView<std::uint8_t> view() const {
    return {data_, w_, h_, ch_, pitch()};
  }

 private:
  [[nodiscard]] std::size_t pitch() const {
    return static_cast<std::size_t>(w_) * ch_;
  }
  int w_, h_, ch_;
  std::size_t len_ = 0;
  std::uint8_t* base_ = nullptr;
  std::uint8_t* data_ = nullptr;
};

TEST(GatherKernel, TightPitchLastRowIsSafeAndExact) {
  // pitch == width * ch and the source ends at a guard page: the vector
  // loop's dword gathers near the bottom-right corner must not read past
  // the buffer (the bot < total-3 gray and bot < total-6 RGB lane checks
  // route those through the scalar fixup), and every lane must still
  // match the scalar kernel.
  const int w = 128, h = 32;
  const img::Image8 src = random_image(w, h, 1, 51);
  const GuardedImage gsrc(src);
  WarpMap map;
  map.width = w;
  map.height = h;
  map.src_x.resize(map.pixel_count());
  map.src_y.resize(map.pixel_count());
  // Everything points at the last interior pixel rows/columns.
  util::Rng rng(52);
  for (std::size_t i = 0; i < map.pixel_count(); ++i) {
    map.src_x[i] = static_cast<float>(rng.uniform(w - 6.0, w - 1.01));
    map.src_y[i] = static_cast<float>(rng.uniform(h - 4.0, h - 1.01));
  }
  img::Image8 a(w, h, 1), b(w, h, 1);
  core::remap_rect(src.view(), a.view(), map, {0, 0, w, h},
                   {Interp::Bilinear, img::BorderMode::Constant, 0});
  simd::SoaScratch scratch;
  simd::remap_bilinear_gather(gsrc.view(), b.view(), map, {0, 0, w, h}, 0,
                              scratch);
  EXPECT_LE(max_abs_diff(a, b), 1);

  // Integer maps at ch 1 and 3, bit-exact. Pin some taps to the last
  // column and row (clamped footprint) and some to the last contiguous
  // 2x2 footprint: with pitch == 3 * width its 7-byte RGB reads end one
  // byte past the buffer, so the bot < total - 6 guard must route them
  // through the scalar fixup.
  for (std::size_t i = 0; i < map.pixel_count(); i += 5) {
    map.src_x[i] = static_cast<float>(w - 1);
    map.src_y[i] = static_cast<float>(h - 1);
  }
  for (std::size_t i = 2; i < map.pixel_count(); i += 5) {
    map.src_x[i] = static_cast<float>(w - 2) + 0.5f;
    map.src_y[i] = static_cast<float>(h - 2) + 0.5f;
  }
  const PackedMap packed = pack_map(map, w, h);
  const CompactMap cm = compact_map(map, w, h, 8);
  for (const int ch : {1, 3}) {
    const img::Image8 csrc = random_image(w, h, ch, 53);
    const GuardedImage gcsrc(csrc);
    img::Image8 ref(w, h, ch), out(w, h, ch);
    remap_packed_rect(csrc.view(), ref.view(), packed, {0, 0, w, h}, 0);
    simd::remap_packed_gather(gcsrc.view(), out.view(), packed, {0, 0, w, h},
                              0, scratch);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
        << "packed ch=" << ch;
    remap_compact_rect(csrc.view(), ref.view(), cm, {0, 0, w, h}, 0);
    simd::remap_compact_gather(gcsrc.view(), out.view(), cm, {0, 0, w, h}, 0,
                               scratch);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
        << "compact ch=" << ch;
  }
}

/// The float gather kernel's arithmetic written out per pixel: floor, 8.8
/// weights (s - floor(s)) * 256 + 0.5 truncated, interior-only validity
/// against w - 1 and h - 1, and the factored integer blend rounded
/// half-up.
void model_float_gather(const img::Image8& src, img::Image8& dst,
                        const WarpMap& map, par::Rect rect,
                        std::uint8_t fill) {
  const int ch = src.channels();
  const float lim_x = static_cast<float>(src.width()) - 1.0f;
  const float lim_y = static_cast<float>(src.height()) - 1.0f;
  for (int y = rect.y0; y < rect.y1; ++y) {
    for (int x = rect.x0; x < rect.x1; ++x) {
      const std::size_t at = static_cast<std::size_t>(y) * map.width + x;
      const float sx = map.src_x[at];
      const float sy = map.src_y[at];
      const float fx = std::floor(sx);
      const float fy = std::floor(sy);
      std::uint8_t* o = dst.row(y) + static_cast<std::size_t>(x) * ch;
      if (!(fx >= 0.0f && fy >= 0.0f && fx < lim_x && fy < lim_y)) {
        for (int c = 0; c < ch; ++c) o[c] = fill;
        continue;
      }
      const int ix = static_cast<int>(fx);
      const int iy = static_cast<int>(fy);
      const int ax = static_cast<int>((sx - fx) * 256.0f + 0.5f);
      const int ay = static_cast<int>((sy - fy) * 256.0f + 0.5f);
      const std::uint8_t* r0 = src.row(iy);
      const std::uint8_t* r1 = src.row(iy + 1);
      for (int c = 0; c < ch; ++c) {
        const int l = ix * ch + c;
        const int t0 = (256 - ax) * r0[l] + ax * r0[l + ch];
        const int t1 = (256 - ax) * r1[l] + ax * r1[l + ch];
        o[c] = static_cast<std::uint8_t>(
            ((256 - ay) * t0 + ay * t1 + (1 << 15)) >> 16);
      }
    }
  }
}

/// A w x h float map over an sw x sh source whose entries hit every
/// validity edge: anywhere (outside included), the bottom-right footprints
/// whose dword reads end the buffer, NaN, ±inf, ±3e9, negatives, the
/// w - 1 / h - 1 limits and the floats just below them, and the interior.
WarpMap edge_case_map(int w, int h, int sw, int sh, util::Rng& rng) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float below_w = std::nextafter(static_cast<float>(sw - 1), 0.0f);
  const float below_h = std::nextafter(static_cast<float>(sh - 1), 0.0f);
  const float specials_x[] = {nan,    inf,        -inf,      3e9f,
                              -3e9f,  -0.25f,     -1.0f,     -1e-7f,
                              0.0f,   sw - 1.0f,  below_w,   sw - 2.0f,
                              sw - 2.5f, sw - 1.5f};
  const float specials_y[] = {nan,    inf,        -inf,      3e9f,
                              -3e9f,  -0.25f,     -1.0f,     -1e-7f,
                              0.0f,   sh - 1.0f,  below_h,   sh - 2.0f,
                              sh - 2.5f, sh - 1.5f};
  constexpr int kSpecials = sizeof(specials_x) / sizeof(specials_x[0]);

  WarpMap map;
  map.width = w;
  map.height = h;
  map.src_x.resize(map.pixel_count());
  map.src_y.resize(map.pixel_count());
  for (std::size_t i = 0; i < map.pixel_count(); ++i) {
    switch (rng.next_below(4)) {
      case 0:  // anywhere, edges and outside included
        map.src_x[i] = static_cast<float>(rng.uniform(-3.0, sw + 2.0));
        map.src_y[i] = static_cast<float>(rng.uniform(-3.0, sh + 2.0));
        break;
      case 1:  // the bottom-right footprints whose reads end the buffer
        map.src_x[i] = static_cast<float>(rng.uniform(sw - 3.0, sw - 1.0));
        map.src_y[i] = static_cast<float>(rng.uniform(sh - 2.0, sh - 1.0));
        break;
      case 2:  // special values, mixed per axis
        map.src_x[i] = specials_x[rng.next_below(kSpecials)];
        map.src_y[i] = specials_y[rng.next_below(kSpecials)];
        break;
      default:  // interior
        map.src_x[i] = static_cast<float>(rng.uniform(0.0, sw - 1.0));
        map.src_y[i] = static_cast<float>(rng.uniform(0.0, sh - 1.0));
    }
  }
  return map;
}

TEST(GatherKernel, FloatMatchesIntegerBlendBitExact) {
  // Source and output sizes that are not multiples of 8, rects whose ends
  // are not either, and map entries that hit every validity edge: the
  // vector loop, its buffer-end fixup and the scalar tail must all agree
  // with the model. The source sits in a GuardedImage, so a dword read
  // past its last byte faults.
  const int sw = 101, sh = 37;
  const int w = 133, h = 29;
  util::Rng rng(71);
  const WarpMap map = edge_case_map(w, h, sw, sh, rng);

  simd::SoaScratch scratch;
  for (const int ch : {1, 3}) {
    const img::Image8 src = random_image(sw, sh, ch, 72 + ch);
    const GuardedImage gsrc(src);
    std::vector<par::Rect> rects{{0, 0, w, h}};
    for (int trial = 0; trial < 12; ++trial) {
      // x0 and x1 off the 8-pixel grid; some rects narrower than 8.
      const int x0 = 8 * static_cast<int>(rng.next_below(w / 8)) + 1 +
                     static_cast<int>(rng.next_below(7));
      const int x1 =
          std::min(w, x0 + 1 + static_cast<int>(rng.next_below(w - x0)));
      const int y0 = static_cast<int>(rng.next_below(h));
      const int y1 = y0 + 1 + static_cast<int>(rng.next_below(h - y0));
      rects.push_back({x0, y0, x1, y1});
    }
    for (const par::Rect& rect : rects) {
      const auto fill = static_cast<std::uint8_t>(rng.next_below(256));
      img::Image8 want(w, h, ch), got(w, h, ch);
      want.fill(17);
      got.fill(17);
      model_float_gather(src, want, map, rect, fill);
      simd::remap_bilinear_gather(gsrc.view(), got.view(), map, rect, fill,
                                  scratch);
      EXPECT_TRUE(img::equal_pixels<std::uint8_t>(want.view(), got.view()))
          << "ch=" << ch << " rect=(" << rect.x0 << ',' << rect.y0 << ','
          << rect.x1 << ',' << rect.y1 << ')';
    }
  }
}

TEST(GatherKernel, StripLengthDoesNotChangeResults) {
  const int w = 200, h = 48;
  const img::Image8 src = random_image(w, h, 1, 61);
  const WarpMap map = random_interior_map(w, h, w, h, 62);
  simd::SoaScratch scratch;
  img::Image8 ref(w, h, 1);
  simd::remap_bilinear_gather(src.view(), ref.view(), map, {0, 0, w, h}, 0,
                              scratch);
  for (const int strip : {8, 32, 100, 256, 100000}) {
    img::Image8 out(w, h, 1);
    simd::remap_bilinear_gather(src.view(), out.view(), map, {0, 0, w, h}, 0,
                                scratch, strip);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
        << "strip=" << strip;
  }
}

TEST(GatherKernel, Avx512MatchesAvx2BitExact) {
  // The 16-lane gray body against the 8-lane one, both called directly so
  // the AVX2 body stays covered on AVX-512 hosts: float, packed and compact
  // maps with every validity edge, sources ending at a guard page, and
  // rects 1-40 pixels wide at off-grid x0, so every masked tail length
  // (and the strip tails at strip 24) runs.
  if (simd::gather_body(1) != simd::GatherBody::Avx512)
    GTEST_SKIP() << "no AVX-512BW gather body on this build or CPU";
  using simd::GatherBody;
  const int sw = 101, sh = 37;
  const int w = 133, h = 29;
  util::Rng rng(81);
  const WarpMap map = edge_case_map(w, h, sw, sh, rng);
  const PackedMap packed = pack_map(map, sw, sh);
  const CompactMap cm = compact_map(map, sw, sh, 8);
  const img::Image8 src = random_image(sw, sh, 1, 82);
  const GuardedImage gsrc(src);

  std::vector<par::Rect> rects{{0, 0, w, h}};
  for (int width = 1; width <= 40; ++width) {
    const int x0 = 16 * static_cast<int>(rng.next_below((w - width) / 16)) +
                   1 + static_cast<int>(rng.next_below(15));
    const int y0 = static_cast<int>(rng.next_below(h - 3));
    rects.push_back({x0, y0, std::min(w, x0 + width), y0 + 3});
  }
  simd::SoaScratch scratch;
  const auto run = [&](GatherBody body, par::Rect rect, int kind, int strip,
                       img::Image8& out) {
    out.fill(17);
    const std::uint8_t fill = 201;
    if (kind == 0)
      simd::detail::remap_bilinear_gather(body, gsrc.view(), out.view(), map,
                                          rect, fill, scratch, strip);
    else if (kind == 1)
      simd::detail::remap_packed_gather(body, gsrc.view(), out.view(), packed,
                                        rect, fill, scratch, strip);
    else
      simd::detail::remap_compact_gather(body, gsrc.view(), out.view(), cm,
                                         rect, fill, scratch, strip);
  };
  const char* kinds[] = {"float", "packed", "compact"};
  for (int kind = 0; kind < 3; ++kind) {
    for (const int strip : {simd::kSoaStrip, 24}) {
      for (const par::Rect& rect : rects) {
        img::Image8 want(w, h, 1), got(w, h, 1);
        run(GatherBody::Avx2, rect, kind, strip, want);
        run(GatherBody::Avx512, rect, kind, strip, got);
        EXPECT_TRUE(img::equal_pixels<std::uint8_t>(want.view(), got.view()))
            << kinds[kind] << " strip=" << strip << " rect=(" << rect.x0
            << ',' << rect.y0 << ',' << rect.x1 << ',' << rect.y1 << ')';
      }
    }
  }
}

// ---------------------------------------------------------------------------

constexpr int kW = 96;
constexpr int kH = 64;

struct Frame {
  img::Image8 src{kW, kH, 1};
  img::Image8 dst{kW, kH, 1};
  WarpMap map;

  Frame() {
    const FisheyeCamera cam = FisheyeCamera::centered(
        LensKind::Equidistant, deg_to_rad(170.0), kW, kH);
    const PerspectiveView view(kW, kH, cam.lens().focal());
    map = build_map(cam, view);
    src.fill(100);
  }

  [[nodiscard]] ExecContext ctx() {
    ExecContext c;
    c.src = src.view();
    c.dst = dst.view();
    c.map = &map;
    c.mode = MapMode::FloatLut;
    return c;
  }
};

TEST(Datapath, PlanRecordsTheVariantThatActuallyRuns) {
  Frame f;
  const auto backend =
      BackendRegistry::create("simd:threads=1,datapath=gather");
  const ExecutionPlan plan = backend->plan(f.ctx());
  const KernelVariant expect = simd::gather_available()
                                   ? KernelVariant::SimdGather
                                   : KernelVariant::SimdSoa;
  EXPECT_EQ(plan.kernel().key().variant, expect);
  backend->execute(plan, f.ctx());  // and it runs
}

TEST(Datapath, ForceScalarEnvGroundsEveryVariant) {
  ASSERT_EQ(setenv("FISHEYE_FORCE_SCALAR", "1", 1), 0);
  Frame f;
  for (const char* spec :
       {"simd:threads=1,datapath=gather", "simd:threads=1"}) {
    const auto backend = BackendRegistry::create(spec);
    const ExecutionPlan plan = backend->plan(f.ctx());
    EXPECT_EQ(plan.kernel().key().variant, KernelVariant::Scalar) << spec;
  }
  ASSERT_EQ(unsetenv("FISHEYE_FORCE_SCALAR"), 0);
  // And fresh plans pick the SIMD paths back up (read per call, not
  // latched at startup).
  const auto backend = BackendRegistry::create("simd:threads=1");
  EXPECT_EQ(backend->plan(f.ctx()).kernel().key().variant,
            KernelVariant::SimdSoa);
}

TEST(Datapath, UnknownValuesAreRejectedNamingTheToken) {
  try {
    (void)BackendRegistry::create("simd:threads=1,datapath=avx9");
    FAIL() << "accepted datapath=avx9";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("datapath="), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("avx9"), std::string::npos)
        << e.what();
  }
  for (const char* spec :
       {"simd:tuned=bogus", "simd:tuned=auto/9", "pool:tuned=gather/x/-/-",
        "simd:tuned=gather/128/64/-", "simd:tuned=-/-/-/martian"}) {
    try {
      (void)BackendRegistry::create(spec);
      FAIL() << spec << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("tuned="), std::string::npos)
          << spec << ": " << e.what();
    }
  }
}

TEST(Datapath, ExplicitTunedTokenRoundTrips) {
  const auto backend =
      BackendRegistry::create("simd:threads=1,tuned=gather/128/-/-");
  EXPECT_NE(backend->name().find("tuned=gather/128/-/-"), std::string::npos)
      << backend->name();
  const auto again = BackendRegistry::create(backend->name());
  EXPECT_EQ(again->name(), backend->name());
}

TEST(Datapath, FloatLutCandidatesHaveNoDuplicateGatherPoints) {
  // The float-LUT gather kernel has no strip: tuned=auto measures it once.
  // Converted maps keep the strip axis, and no two candidates coincide.
  Frame f;
  for (const char* spec :
       {"cpu:tiles,datapath=gather", "simd:threads=1,map=packed"}) {
    const auto backend = BackendRegistry::create(spec);
    const auto& cpu = dynamic_cast<const CpuBackend&>(*backend);
    const std::vector<AutotuneCandidate> cands =
        cpu.autotune_candidates(f.ctx());
    std::set<std::string> tokens;
    int gather_strips = 0;
    for (const AutotuneCandidate& c : cands) {
      EXPECT_TRUE(tokens.insert(c.spec.token()).second)
          << spec << ": duplicate " << c.spec.token();
      if (c.spec.datapath == KernelVariant::SimdGather && !c.spec.map)
        ++gather_strips;
    }
    const bool float_lut = std::string(spec).find("map=") == std::string::npos;
    const int want = !simd::gather_available() ? 0 : float_lut ? 1 : 2;
    EXPECT_EQ(gather_strips, want) << spec;
  }
}

TEST(Datapath, TunedAutoResolvesOncePlansAndRoundTrips) {
  AutotuneCache::instance().clear();
  Frame f;
  const auto backend = BackendRegistry::create("simd:threads=1,tuned=auto");
  EXPECT_NE(backend->name().find("tuned=auto"), std::string::npos);
  const ExecutionPlan plan = backend->plan(f.ctx());
  // Resolved: the name now carries the measured winner, not "auto".
  const std::string resolved = backend->name();
  EXPECT_EQ(resolved.find("tuned=auto"), std::string::npos) << resolved;
  EXPECT_NE(resolved.find("tuned="), std::string::npos) << resolved;
  EXPECT_EQ(AutotuneCache::instance().stats().stores, 1u);
  backend->execute(plan, f.ctx());

  // The resolved token reconstructs the same backend without measuring.
  const auto again = BackendRegistry::create(resolved);
  EXPECT_EQ(again->name(), resolved);
  (void)again->plan(f.ctx());
  EXPECT_EQ(AutotuneCache::instance().stats().stores, 1u);

  // A second tuned=auto instance of the same shape hits the cache.
  const auto third = BackendRegistry::create("simd:threads=1,tuned=auto");
  (void)third->plan(f.ctx());
  const auto stats = AutotuneCache::instance().stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(third->name(), resolved);
}

TEST(Datapath, PoolTunedAutoResolves) {
  AutotuneCache::instance().clear();
  Frame f;
  const auto backend =
      BackendRegistry::create("pool:tiles,threads=2,tuned=auto");
  (void)backend->plan(f.ctx());
  const std::string resolved = backend->name();
  EXPECT_EQ(resolved.find("tuned=auto"), std::string::npos) << resolved;
  const auto again = BackendRegistry::create(resolved);
  EXPECT_EQ(again->name(), resolved);
}

TEST(Datapath, DescribeNamesKernelAndIsa) {
  Frame f;
  const auto backend = BackendRegistry::create("simd:threads=1");
  const ExecutionPlan plan = backend->plan(f.ctx());
  const std::string d = plan.describe();
  EXPECT_NE(d.find(backend->name()), std::string::npos) << d;
  EXPECT_NE(d.find("float-lut"), std::string::npos) << d;
  EXPECT_NE(d.find(variant_name(plan.kernel().key().variant)),
            std::string::npos)
      << d;
  EXPECT_NE(d.find("isa="), std::string::npos) << d;

  // A gather plan also names the vector body it runs.
  const auto gather =
      BackendRegistry::create("simd:threads=1,datapath=gather");
  const ExecutionPlan gplan = gather->plan(f.ctx());
  const std::string g = gplan.describe();
  if (gplan.kernel().key().variant == KernelVariant::SimdGather) {
    const std::string body =
        std::string("simd-gather[") +
        simd::gather_body_name(simd::gather_body(1)) + ']';
    EXPECT_NE(g.find(body), std::string::npos) << g;
  } else {
    EXPECT_EQ(g.find("simd-gather["), std::string::npos) << g;
  }
  EXPECT_EQ(d.find("simd-gather["), std::string::npos) << d;
}

TEST(Datapath, GatherAvailabilityIsConsistent) {
  // gather_available() implies gather_compiled(); FISHEYE_FORCE_SCALAR
  // kills availability without touching compiledness.
  if (simd::gather_available()) {
    EXPECT_TRUE(simd::gather_compiled());
  }
  ASSERT_EQ(setenv("FISHEYE_FORCE_SCALAR", "1", 1), 0);
  EXPECT_FALSE(simd::gather_available());
  ASSERT_EQ(unsetenv("FISHEYE_FORCE_SCALAR"), 0);
}

}  // namespace
}  // namespace fisheye::core
