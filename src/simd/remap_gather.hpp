// Explicit-intrinsics gather datapath (KernelVariant::SimdGather).
//
// The SoA kernels (remap_simd.hpp) leave the four taps per pixel to scalar
// loads; the study's hand-SIMDized ports replaced exactly that with
// hardware gathers. These kernels fetch the taps with dword gathers: one
// gather per tap row fetches the (p0, p1) byte pair, and an 8.8
// fixed-point weight blend produces the output pixels. Two vector bodies
// run it: AVX2 (`_mm256_i32gather_epi32`, eight pixels per step) and, for
// gray frames on CPUs with AVX-512F and AVX-512BW,
// `_mm512_mask_i32gather_epi32` at sixteen pixels per step. The 16-lane
// body evaluates the same integer expressions, so the two are
// bit-identical; gather_body() names the one that runs.
//
// The float-LUT kernel runs in one pass: per step it loads the map entries
// and derives taps, weights and validity in registers, with no
// intermediate buffer. The packed and compact kernels keep the two-pass
// strip structure: pass 1 stages taps and weights in SoaScratch, pass 2
// gathers and blends from it.
//
// Contract vs the scalar kernels:
//  * packed / compact: bit-exact (identical integer expressions, the same
//    property the SoA compact kernel has);
//  * float LUT: within ±1 level of the scalar bilinear kernel on interior
//    samples — the 8.8 weight quantization error is < 1 output level and
//    both sides round half-up (tested property).
//
// Gray lanes run the blend's horizontal stage in 16 bits (pshufb + madd).
// Three-channel frames get their own AVX2 blend: two dword gathers per
// tap row (at x0*3 and x0*3+3) fetch both taps' (r, g, b), each channel
// runs the factored blend in 32 bits, and a pshufb packs eight pixels into
// 24 bytes. Lanes whose 2x2 footprint is not contiguous (edge-clamped
// taps) or whose dword reads would overrun the buffer's last bytes take a
// scalar fixup path; other channel counts run the integer blend scalar.
//
// The compact kernel's pass 1 is shared with the SoA compact kernel
// (compact_pass1.hpp): per grid cell, one vertical interpolation; per
// pixel, one multiply-add and shift.
//
// The compact kernel additionally issues software prefetches for the NEXT
// strip's source rows, derived from the block-subsampled grid's coarse
// source bbox, so pass 2's gathers hit warm lines (docs/modeling.md).
//
// This translation unit is compiled with -mavx2 when the toolchain allows
// (src/simd/CMakeLists.txt); the AVX-512 functions add their own target
// attribute, and a baseline built with -mno-avx512f leaves them out. On
// other targets — or under -DFISHEYE_DISABLE_AVX2=ON — the same entry
// points fall back to the scalar blend loops and gather_compiled() reports
// false. Callers do not need to care: kernel resolution (core/kernel.cpp)
// consults gather_available() and degrades SimdGather to SimdSoa/Scalar
// before these run, and each entry point call picks its body from
// gather_body().
#pragma once

#include <cstdint>

#include "core/mapping.hpp"
#include "image/image.hpp"
#include "parallel/partition.hpp"
#include "simd/remap_simd.hpp"

namespace fisheye::simd {

/// True when this library was compiled with the AVX2 gather path present
/// (the dedicated TU got -mavx2 and FISHEYE_DISABLE_AVX2 was off).
[[nodiscard]] bool gather_compiled() noexcept;

/// True when the gather datapath can run here and now: compiled in, the
/// executing CPU reports AVX2, and util::force_scalar() is not set.
/// Kernel resolution consults this to degrade SimdGather gracefully.
[[nodiscard]] bool gather_available() noexcept;

/// The vector body a gather kernel runs.
enum class GatherBody : std::uint8_t {
  Scalar,  ///< gather compiled out: the scalar blend loops
  Avx2,    ///< eight lanes per step, gray and RGB
  Avx512,  ///< sixteen gray lanes per step (RGB frames keep AVX2)
};

[[nodiscard]] constexpr const char* gather_body_name(GatherBody b) noexcept {
  switch (b) {
    case GatherBody::Scalar: return "scalar";
    case GatherBody::Avx2: return "avx2";
    case GatherBody::Avx512: return "avx512bw";
  }
  return "?";
}

/// The body the gather kernels run on `channels`-channel frames here:
/// Avx512 when the 16-lane body is compiled in, the CPU reports avx512f and
/// avx512bw, and the frame is gray; otherwise Avx2 when gather_compiled(),
/// else Scalar. Plan descriptions report it.
[[nodiscard]] GatherBody gather_body(int channels) noexcept;

/// Bilinear remap of `rect` from a float WarpMap, constant-fill border,
/// single-pass gather. Agreement with the scalar kernel is ±1 level on
/// interior samples (see header comment). Nothing is staged: `scratch` and
/// `strip` are unused, kept so every gather kernel shares one signature.
void remap_bilinear_gather(img::ConstImageView<std::uint8_t> src,
                           img::ImageView<std::uint8_t> dst,
                           const core::WarpMap& map, par::Rect rect,
                           std::uint8_t fill, SoaScratch& scratch,
                           int strip = kSoaStrip);

/// Fixed-point PackedMap remap, gather pass 2. Bit-exact against
/// core::remap_packed_rect (same integer arithmetic).
void remap_packed_gather(img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst,
                         const core::PackedMap& map, par::Rect rect,
                         std::uint8_t fill, SoaScratch& scratch,
                         int strip = kSoaStrip);

/// CompactMap remap, gather pass 2 plus grid-driven software prefetch
/// of the next strip's source rows. Bit-exact against
/// core::remap_compact_rect (same integer arithmetic).
void remap_compact_gather(img::ConstImageView<std::uint8_t> src,
                          img::ImageView<std::uint8_t> dst,
                          const core::CompactMap& map, par::Rect rect,
                          std::uint8_t fill, SoaScratch& scratch,
                          int strip = kSoaStrip);

namespace detail {

/// The entry points above with the body forced instead of taken from
/// gather_body(), so one host can compare the bodies byte for byte.
/// Precondition: `body` <= gather_body(1) (never a body this build or CPU
/// lacks). Avx512 applies to gray frames; RGB runs the AVX2 body.
void remap_bilinear_gather(GatherBody body,
                           img::ConstImageView<std::uint8_t> src,
                           img::ImageView<std::uint8_t> dst,
                           const core::WarpMap& map, par::Rect rect,
                           std::uint8_t fill, SoaScratch& scratch,
                           int strip = kSoaStrip);
void remap_packed_gather(GatherBody body,
                         img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst,
                         const core::PackedMap& map, par::Rect rect,
                         std::uint8_t fill, SoaScratch& scratch,
                         int strip = kSoaStrip);
void remap_compact_gather(GatherBody body,
                          img::ConstImageView<std::uint8_t> src,
                          img::ImageView<std::uint8_t> dst,
                          const core::CompactMap& map, par::Rect rect,
                          std::uint8_t fill, SoaScratch& scratch,
                          int strip = kSoaStrip);

}  // namespace detail

}  // namespace fisheye::simd
