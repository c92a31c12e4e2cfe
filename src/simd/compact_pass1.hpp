// Pass 1 of the CompactMap strip kernels, shared by remap_compact_soa and
// remap_compact_gather: reconstruct each strip pixel's fixed-point source
// coordinate from the block-subsampled grid, then derive the clamped tap
// coordinates, validity and 0..256 integer weights into SoaScratch.
//
// The reconstruction is factored per grid cell. The cell's two grid
// columns are interpolated vertically once (lx, rx), and each pixel then
// costs one multiply-add and a shift:
//   fx = (lx * stride + half + tx * (rx - lx)) >> (2 * log2 stride)
// which is the same integer the scalar kernel's incremental accumulator
// reaches (core::remap_compact_rect_offset), so every datapath stays
// bit-exact against it. Both per-pixel loops are free of branches and
// cross-iteration state, so the compiler vectorizes them.
//
// Internal linkage on purpose: remap_gather.cpp is compiled with -mavx2
// and remap_simd.cpp at the baseline ISA. Each gets its own copy, so the
// linker can never hand the baseline SoA kernel an AVX2 body.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/mapping.hpp"
#include "simd/remap_simd.hpp"

namespace fisheye::simd::detail {
namespace {

/// Frame-invariant constants of the compact reconstruction.
class CompactPass1 {
 public:
  explicit CompactPass1(const core::CompactMap& map) noexcept
      : grid_x_(map.gx.data()),
        grid_y_(map.gy.data()),
        grid_w_(map.grid_w),
        src_w_(map.src_width),
        src_h_(map.src_height),
        frac_(map.frac_bits),
        wshift_(frac_ >= 8 ? frac_ - 8 : 0),
        wscale_up_(frac_ >= 8 ? 0 : 8 - frac_),
        frac_mask_((std::int32_t{1} << frac_) - 1),
        shift_(map.shift()),
        smask_(map.stride - 1),
        rshift_(2 * shift_),
        half_(rshift_ > 0 ? (std::int64_t{1} << (rshift_ - 1)) : 0),
        one_(std::int32_t{1} << frac_),
        lim_x_(static_cast<std::int32_t>(map.src_width) << frac_),
        lim_y_(static_cast<std::int32_t>(map.src_height) << frac_) {}

  /// Fill scratch slots [0, n) for output pixels [xb, xb + n) of row y.
  void fill(int y, int xb, int n, SoaScratch& s) const noexcept {
    const std::int64_t gs = std::int64_t{1} << shift_;
    const std::int64_t ty = y & smask_;
    const std::size_t g0 = static_cast<std::size_t>(y >> shift_) * grid_w_;
    const std::size_t g1 = g0 + grid_w_;

    // Step 1: fixed-point coordinates, staged in ax/ay (step 2 overwrites
    // them in place with the weights).
    std::int32_t* __restrict sfx = s.ax;
    std::int32_t* __restrict sfy = s.ay;
    for (int i = 0; i < n;) {
      const int cx = (xb + i) >> shift_;
      const int cell_x = cx << shift_;
      const int end = std::min(n, cell_x + static_cast<int>(gs) - xb);
      const std::int64_t lx =
          grid_x_[g0 + cx] * (gs - ty) + grid_x_[g1 + cx] * ty;
      const std::int64_t rx =
          grid_x_[g0 + cx + 1] * (gs - ty) + grid_x_[g1 + cx + 1] * ty;
      const std::int64_t ly =
          grid_y_[g0 + cx] * (gs - ty) + grid_y_[g1 + cx] * ty;
      const std::int64_t ry =
          grid_y_[g0 + cx + 1] * (gs - ty) + grid_y_[g1 + cx + 1] * ty;
      const std::int64_t base_x = lx * gs + half_;
      const std::int64_t base_y = ly * gs + half_;
      const std::int64_t step_x = rx - lx;
      const std::int64_t step_y = ry - ly;
      const int t0 = xb - cell_x;  // tx of slot 0 relative to this cell
      for (; i < end; ++i) {
        const std::int64_t tx = t0 + i;
        sfx[i] = static_cast<std::int32_t>((base_x + tx * step_x) >> rshift_);
        sfy[i] = static_cast<std::int32_t>((base_y + tx * step_y) >> rshift_);
      }
    }

    // Step 2: validity, footprint clamp, taps and weights (int32 only).
    const std::int32_t max_fx = lim_x_ - one_;  // (src_width - 1) << frac
    const std::int32_t max_fy = lim_y_ - one_;
    for (int i = 0; i < n; ++i) {
      std::int32_t fx = sfx[i];
      std::int32_t fy = sfy[i];
      s.valid[i] =
          (fx > -one_) & (fy > -one_) & (fx < lim_x_) & (fy < lim_y_);
      fx = fx < 0 ? 0 : (fx > max_fx ? max_fx : fx);
      fy = fy < 0 ? 0 : (fy > max_fy ? max_fy : fy);
      const std::int32_t ix = fx >> frac_;
      const std::int32_t iy = fy >> frac_;
      s.x0[i] = ix;
      s.y0[i] = iy;
      s.x1[i] = ix + 1 < src_w_ ? ix + 1 : ix;
      s.y1[i] = iy + 1 < src_h_ ? iy + 1 : iy;
      sfx[i] = ((fx & frac_mask_) >> wshift_) << wscale_up_;  // 0..256
      sfy[i] = ((fy & frac_mask_) >> wshift_) << wscale_up_;
    }
  }

 private:
  const std::int32_t* grid_x_;
  const std::int32_t* grid_y_;
  int grid_w_;
  int src_w_, src_h_;
  int frac_, wshift_, wscale_up_;
  std::int32_t frac_mask_;
  int shift_, smask_, rshift_;
  std::int64_t half_;
  std::int32_t one_, lim_x_, lim_y_;
};

}  // namespace
}  // namespace fisheye::simd::detail
