// Gather datapath — see remap_gather.hpp for the contract.
//
// Float LUT: one pass, no staging. Per step the kernel loads the step's
// src_x/src_y floats and derives floor, tap offset, 8.8 weights and
// interior validity in registers, then gathers and blends.
//
// Packed and compact maps: pass 1 fills the shared SoaScratch with tap
// coordinates and 0..256 integer weights (the two integer representations
// reduce to the same scratch layout); pass 2 reads it back one step at a
// time.
//
// Every vector blend issues two masked dword gathers per step and tap row,
// fetching the (x0, x0+1) byte pair, and evaluates the factored 8.8 blend
//   v = (256-ay) * ((256-ax) p00 + ax p10) + ay * ((256-ax) p01 + ax p11)
// in int32 (max 2 * 256 * 255 * 256 < 2^25), rounds half-up and packs to
// bytes. Gray lanes run the horizontal stage in 16 bits (a pshufb spreads
// (p0, p1) into int16 pairs, one madd weighs them); three-channel frames
// gather each tap row twice and blend per channel in 32 bits. Lanes
// excluded from the vector path — invalid samples, edge-clamped
// footprints, dword reads that would overrun the buffer's last bytes — are
// finished by a scalar fixup with the same integer arithmetic.
//
// Two vector bodies run that arithmetic. The AVX2 body (the TU's -mavx2)
// takes eight lanes per step and every frame with one or three channels.
// The AVX-512BW body takes sixteen gray lanes per step with the identical
// expressions, so its output is bit-identical; row tails under sixteen
// pixels run as one masked step. Its functions carry their own
// target("avx512f,avx512bw") attribute and internal linkage, so the TU's
// shared inlines stay AVX2 code and nothing AVX-512 runs unless
// gather_body() selected it.
#include "simd/remap_gather.hpp"

#include <algorithm>
#include <cmath>

#include "simd/compact_pass1.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"

#if defined(__AVX2__) && !defined(FISHEYE_DISABLE_AVX2)
#define FISHEYE_HAVE_GATHER 1
#include <immintrin.h>
#else
#define FISHEYE_HAVE_GATHER 0
#endif

// The 16-lane body rides on the AVX2 build; a baseline compiled with
// -mno-avx512f opts out of it (src/simd/CMakeLists.txt).
#if FISHEYE_HAVE_GATHER && !defined(FISHEYE_NO_AVX512)
#define FISHEYE_HAVE_GATHER512 1
#define FISHEYE_AVX512 __attribute__((target("avx512f,avx512bw")))
#else
#define FISHEYE_HAVE_GATHER512 0
#endif

namespace fisheye::simd {

bool gather_compiled() noexcept { return FISHEYE_HAVE_GATHER != 0; }

bool gather_available() noexcept {
  return gather_compiled() && util::cpu_info().avx2 && !util::force_scalar();
}

GatherBody gather_body(int channels) noexcept {
  if (!gather_compiled()) return GatherBody::Scalar;
  static const bool wide = FISHEYE_HAVE_GATHER512 != 0 &&
                           util::cpu_info().avx512f &&
                           util::cpu_info().avx512bw;
  return wide && channels == 1 ? GatherBody::Avx512 : GatherBody::Avx2;
}

namespace {

/// Clamp a requested strip length into what the scratch arrays can hold.
inline int clamp_strip(int strip) noexcept {
  if (strip <= 0) return kSoaStrip;
  return std::clamp(strip, 8, kSoaStrip);
}

/// True when every byte offset into a `total`-byte source, plus a dword
/// read, fits the vector loops' int32 lane arithmetic.
inline bool offsets_fit_int32(std::size_t total) noexcept {
  return total + 8 <= static_cast<std::size_t>(INT32_MAX);
}

/// The 8.8 integer blend of one pixel's 2x2 taps — columns lx0/lx1 (byte
/// offsets) of rows r0/r1 — into o[0, ch).
inline void blend_taps(const std::uint8_t* __restrict r0,
                       const std::uint8_t* __restrict r1, int lx0, int lx1,
                       int ax, int ay, int ch,
                       std::uint8_t* __restrict o) noexcept {
  for (int c = 0; c < ch; ++c) {
    const int t0 = (256 - ax) * r0[lx0 + c] + ax * r0[lx1 + c];
    const int t1 = (256 - ax) * r1[lx0 + c] + ax * r1[lx1 + c];
    const int v = (256 - ay) * t0 + ay * t1;
    o[c] = static_cast<std::uint8_t>((v + (1 << 15)) >> 16);
  }
}

/// One pixel of the integer blend from scratch slot `i` into o[0, ch).
inline void blend_one(const SoaScratch& s, int i,
                      const std::uint8_t* __restrict base, std::size_t pitch,
                      int ch, std::uint8_t* __restrict o) noexcept {
  blend_taps(base + static_cast<std::size_t>(s.y0[i]) * pitch,
             base + static_cast<std::size_t>(s.y1[i]) * pitch, s.x0[i] * ch,
             s.x1[i] * ch, s.ax[i], s.ay[i], ch, o);
}

/// One float-LUT pixel from its map entry (sx, sy) into o[0, ch): the
/// vector loop's expressions, evaluated scalar. Weights round to nearest
/// so the quantization error stays under half a weight step (±1 contract);
/// validity is interior-only, as in the SoA kernel.
inline void blend_float_one(float sx, float sy, float lim_x, float lim_y,
                            const std::uint8_t* __restrict base,
                            std::size_t pitch, int ch, std::uint8_t fill,
                            std::uint8_t* __restrict o) noexcept {
  const float fx = std::floor(sx);
  const float fy = std::floor(sy);
  if (!((fx >= 0.0f) & (fy >= 0.0f) & (fx < lim_x) & (fy < lim_y))) {
    for (int c = 0; c < ch; ++c) o[c] = fill;
    return;
  }
  const auto ix = static_cast<std::int32_t>(fx);
  const auto iy = static_cast<std::int32_t>(fy);
  const auto ax = static_cast<std::int32_t>((sx - fx) * 256.0f + 0.5f);
  const auto ay = static_cast<std::int32_t>((sy - fy) * 256.0f + 0.5f);
  const std::uint8_t* __restrict r0 =
      base + static_cast<std::size_t>(iy) * pitch;
  blend_taps(r0, r0 + pitch, ix * ch, (ix + 1) * ch, ax, ay, ch, o);
}

/// Scalar float-LUT row: pixels [0, n) of map entries mx/my into out.
void float_row_scalar(const float* __restrict mx, const float* __restrict my,
                      int n, float lim_x, float lim_y,
                      const std::uint8_t* __restrict base, std::size_t pitch,
                      int ch, std::uint8_t fill,
                      std::uint8_t* __restrict out) noexcept {
  for (int i = 0; i < n; ++i)
    blend_float_one(mx[i], my[i], lim_x, lim_y, base, pitch, ch, fill,
                    out + static_cast<std::size_t>(i) * ch);
}

/// Scalar pass 2 over scratch slots [i0, i1): the fallback for non-AVX2
/// builds, vector-loop tails, and channel counts other than 1 and 3.
void blend_span_scalar(const SoaScratch& s, int i0, int i1,
                       const std::uint8_t* __restrict base, std::size_t pitch,
                       int ch, std::uint8_t* __restrict out,
                       std::uint8_t fill) noexcept {
  if (ch == 1) {  // constant channel count: the per-pixel loop folds away
    for (int i = i0; i < i1; ++i) {
      if (s.valid[i]) {
        blend_one(s, i, base, pitch, 1, out + i);
      } else {
        out[i] = fill;
      }
    }
    return;
  }
  for (int i = i0; i < i1; ++i) {
    std::uint8_t* __restrict o = out + static_cast<std::size_t>(i) * ch;
    if (s.valid[i]) {
      blend_one(s, i, base, pitch, ch, o);
    } else {
      for (int c = 0; c < ch; ++c) o[c] = fill;
    }
  }
}

#if FISHEYE_HAVE_GATHER

/// Eight gray lanes whose top tap row starts at byte offset `top` and
/// bottom row at `bot`: two masked dword gathers (lanes outside `vec` read
/// nothing), the horizontal stage in 16 bits — a pshufb spreads each
/// dword's (p0, p1) bytes into an int16 pair and one madd weighs it by the
/// packed (256 - ax, ax) — the vertical stage in 32 bits, round half-up,
/// `fill` outside `valid`, and eight bytes stored at `out`.
inline void blend8_gray(const int* ibase, __m256i top, __m256i bot,
                        __m256i vec, __m256i valid, __m256i ax, __m256i ay,
                        __m256i vfill, std::uint8_t* out) noexcept {
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i v256 = _mm256_set1_epi32(256);
  const __m256i spread = _mm256_setr_epi8(
      0, -1, 1, -1, 4, -1, 5, -1, 8, -1, 9, -1, 12, -1, 13, -1,  //
      0, -1, 1, -1, 4, -1, 5, -1, 8, -1, 9, -1, 12, -1, 13, -1);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);

  const __m256i topw = _mm256_mask_i32gather_epi32(vzero, ibase, top, vec, 1);
  const __m256i botw = _mm256_mask_i32gather_epi32(vzero, ibase, bot, vec, 1);
  const __m256i wx =
      _mm256_or_si256(_mm256_sub_epi32(v256, ax), _mm256_slli_epi32(ax, 16));
  const __m256i t0 = _mm256_madd_epi16(_mm256_shuffle_epi8(topw, spread), wx);
  const __m256i t1 = _mm256_madd_epi16(_mm256_shuffle_epi8(botw, spread), wx);
  __m256i acc =
      _mm256_add_epi32(_mm256_mullo_epi32(t0, _mm256_sub_epi32(v256, ay)),
                       _mm256_mullo_epi32(t1, ay));
  acc = _mm256_srli_epi32(_mm256_add_epi32(acc, _mm256_set1_epi32(1 << 15)),
                          16);
  acc = _mm256_blendv_epi8(vfill, acc, valid);

  // 8 x int32 in 0..255 -> low 8 bytes.
  const __m256i p16 = _mm256_packs_epi32(acc, acc);
  const __m256i p8 = _mm256_packus_epi16(p16, p16);
  const __m256i lanes = _mm256_permutevar8x32_epi32(p8, perm);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                   _mm256_castsi256_si128(lanes));
}

/// One channel of the factored 8.8 blend for eight RGB lanes: byte `C` of
/// each tap dword (top/bottom row at x0*3 and at x0*3+3), rounded half-up
/// and shifted into byte `C` of the lane's output dword.
template <int C>
inline __m256i blend_channel(__m256i top0, __m256i top1, __m256i bot0,
                             __m256i bot1, __m256i ax, __m256i bx,
                             __m256i ay, __m256i by) noexcept {
  const __m256i vff = _mm256_set1_epi32(0xFF);
  const __m256i p00 = _mm256_and_si256(_mm256_srli_epi32(top0, 8 * C), vff);
  const __m256i p10 = _mm256_and_si256(_mm256_srli_epi32(top1, 8 * C), vff);
  const __m256i p01 = _mm256_and_si256(_mm256_srli_epi32(bot0, 8 * C), vff);
  const __m256i p11 = _mm256_and_si256(_mm256_srli_epi32(bot1, 8 * C), vff);
  const __m256i t0 = _mm256_add_epi32(_mm256_mullo_epi32(p00, bx),
                                      _mm256_mullo_epi32(p10, ax));
  const __m256i t1 = _mm256_add_epi32(_mm256_mullo_epi32(p01, bx),
                                      _mm256_mullo_epi32(p11, ax));
  __m256i acc = _mm256_add_epi32(_mm256_mullo_epi32(t0, by),
                                 _mm256_mullo_epi32(t1, ay));
  acc = _mm256_srli_epi32(_mm256_add_epi32(acc, _mm256_set1_epi32(1 << 15)),
                          16);
  return _mm256_slli_epi32(acc, 8 * C);
}

/// Eight RGB lanes whose top tap row starts at byte offset `top` (x0*3)
/// and bottom row at `bot`. Per tap row, one dword gather at the offset
/// fetches (r, g, b) of the left tap and one at offset+3 those of the
/// right tap, so a lane reads the 7 bytes [x0*3, x0*3+7) of each row. Each
/// channel then runs the factored blend, `fill` replaces lanes outside
/// `valid`, and one pshufb packs the eight (r, g, b, 0) dwords into the 24
/// bytes stored at `out`.
inline void blend8_rgb(const int* ibase, __m256i top, __m256i bot,
                       __m256i vec, __m256i valid, __m256i ax, __m256i ay,
                       __m256i vfill, std::uint8_t* out) noexcept {
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vthree = _mm256_set1_epi32(3);
  const __m256i v256 = _mm256_set1_epi32(256);
  // Per 128-bit lane: the (r, g, b) bytes of four dwords, then 4 spare.
  const __m256i pack3 = _mm256_setr_epi8(
      0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1,  //
      0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1);
  // Close the gap between the lanes: dwords 0-2 then 4-6 are 24 bytes.
  const __m256i join = _mm256_setr_epi32(0, 1, 2, 4, 5, 6, 3, 7);

  const __m256i top0 = _mm256_mask_i32gather_epi32(vzero, ibase, top, vec, 1);
  const __m256i top1 = _mm256_mask_i32gather_epi32(
      vzero, ibase, _mm256_add_epi32(top, vthree), vec, 1);
  const __m256i bot0 = _mm256_mask_i32gather_epi32(vzero, ibase, bot, vec, 1);
  const __m256i bot1 = _mm256_mask_i32gather_epi32(
      vzero, ibase, _mm256_add_epi32(bot, vthree), vec, 1);

  const __m256i bx = _mm256_sub_epi32(v256, ax);
  const __m256i by = _mm256_sub_epi32(v256, ay);
  __m256i rgb = _mm256_or_si256(
      blend_channel<0>(top0, top1, bot0, bot1, ax, bx, ay, by),
      blend_channel<1>(top0, top1, bot0, bot1, ax, bx, ay, by));
  rgb = _mm256_or_si256(
      rgb, blend_channel<2>(top0, top1, bot0, bot1, ax, bx, ay, by));
  rgb = _mm256_blendv_epi8(vfill, rgb, valid);

  const __m256i bytes =
      _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(rgb, pack3), join);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm256_castsi256_si128(bytes));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out + 16),
                   _mm256_extracti128_si256(bytes, 1));
}

/// Lanes a dword read at byte offset `bot` can serve without running past
/// a `total`-byte buffer: bot + 4 <= total for gray, bot + 7 <= total for
/// RGB (whose second gather starts 3 bytes further). Near the bottom-right
/// corner of a tight-pitch source the rest take the scalar fixup.
template <int Ch>
inline __m256i in_bounds_limit(int total) noexcept {
  return _mm256_set1_epi32(total - (Ch == 1 ? 3 : 6));
}

/// Eight lanes of `Ch` channels (1 or 3) through the matching blend.
template <int Ch>
inline void blend8(const int* ibase, __m256i top, __m256i bot, __m256i vec,
                   __m256i valid, __m256i ax, __m256i ay, __m256i vfill,
                   std::uint8_t* out) noexcept {
  if constexpr (Ch == 1) {
    blend8_gray(ibase, top, bot, vec, valid, ax, ay, vfill, out);
  } else {
    blend8_rgb(ibase, top, bot, vec, valid, ax, ay, vfill, out);
  }
}

/// The byte offset of tap column `x` in a row of `Ch`-channel pixels.
template <int Ch>
inline __m256i column_offset(__m256i x) noexcept {
  if constexpr (Ch == 1) {
    return x;
  } else {
    return _mm256_add_epi32(_mm256_add_epi32(x, x), x);
  }
}

/// The fill byte replicated into each pixel's dword lane.
template <int Ch>
inline __m256i fill_lanes(std::uint8_t fill) noexcept {
  return _mm256_set1_epi32(Ch == 1 ? fill : fill * 0x010101);
}

/// AVX2 float-LUT row for Ch == 1 or 3: pixels [0, n) of map entries
/// mx/my into out, in one pass. `total` is the source buffer size in bytes
/// (pitch * height), bounding the dword reads.
template <int Ch>
void float_row_avx2(const float* __restrict mx, const float* __restrict my,
                    int n, float lim_x, float lim_y,
                    const std::uint8_t* __restrict base, int pitch, int total,
                    std::uint8_t fill, std::uint8_t* __restrict out) noexcept {
  const __m256 vlim_x = _mm256_set1_ps(lim_x);
  const __m256 vlim_y = _mm256_set1_ps(lim_y);
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 v256 = _mm256_set1_ps(256.0f);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const __m256i vpitch = _mm256_set1_epi32(pitch);
  const __m256i vlim = in_bounds_limit<Ch>(total);
  const __m256i vfill = fill_lanes<Ch>(fill);
  const int* ibase = reinterpret_cast<const int*>(base);

  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sx = _mm256_loadu_ps(mx + i);
    const __m256 sy = _mm256_loadu_ps(my + i);
    const __m256 fx = _mm256_floor_ps(sx);
    const __m256 fy = _mm256_floor_ps(sy);
    // Ordered compares: NaN entries are invalid, as in the scalar form.
    const __m256i valid = _mm256_castps_si256(_mm256_and_ps(
        _mm256_and_ps(_mm256_cmp_ps(fx, vzero, _CMP_GE_OQ),
                      _mm256_cmp_ps(fy, vzero, _CMP_GE_OQ)),
        _mm256_and_ps(_mm256_cmp_ps(fx, vlim_x, _CMP_LT_OQ),
                      _mm256_cmp_ps(fy, vlim_y, _CMP_LT_OQ))));
    const __m256i ax = _mm256_cvttps_epi32(
        _mm256_add_ps(_mm256_mul_ps(_mm256_sub_ps(sx, fx), v256), vhalf));
    const __m256i ay = _mm256_cvttps_epi32(
        _mm256_add_ps(_mm256_mul_ps(_mm256_sub_ps(sy, fy), v256), vhalf));
    // Valid lanes have 0 <= x0 < w - 1 and 0 <= y0 < h - 1: the 2x2
    // footprint is always contiguous, and only the buffer end can exclude
    // a lane. Invalid lanes' offsets are garbage and never dereferenced.
    const __m256i top = _mm256_add_epi32(
        _mm256_mullo_epi32(_mm256_cvttps_epi32(fy), vpitch),
        column_offset<Ch>(_mm256_cvttps_epi32(fx)));
    const __m256i bot = _mm256_add_epi32(top, vpitch);
    const __m256i vec = _mm256_and_si256(valid, _mm256_cmpgt_epi32(vlim, bot));

    std::uint8_t* o = out + static_cast<std::size_t>(i) * Ch;
    blend8<Ch>(ibase, top, bot, vec, valid, ax, ay, vfill, o);

    // Valid lanes the vector path skipped: recompute from the map entry
    // with the identical integer arithmetic, so no seam.
    int fix = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_andnot_si256(vec, valid)));
    while (fix != 0) {
      const int j = __builtin_ctz(static_cast<unsigned>(fix));
      fix &= fix - 1;
      blend_float_one(mx[i + j], my[i + j], lim_x, lim_y, base,
                      static_cast<std::size_t>(pitch), Ch, fill,
                      o + static_cast<std::size_t>(j) * Ch);
    }
  }
  float_row_scalar(mx + i, my + i, n - i, lim_x, lim_y, base,
                   static_cast<std::size_t>(pitch), Ch, fill,
                   out + static_cast<std::size_t>(i) * Ch);
}

/// AVX2 pass 2 for Ch == 1 or 3 over scratch slots [0, n). `total` is the
/// source buffer size in bytes (pitch * height), bounding the dword reads.
template <int Ch>
void blend_span_avx2(const SoaScratch& s, int n,
                     const std::uint8_t* __restrict base, int pitch,
                     int total, std::uint8_t* __restrict out,
                     std::uint8_t fill) noexcept {
  const __m256i vpitch = _mm256_set1_epi32(pitch);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone = _mm256_set1_epi32(1);
  const __m256i vlim = in_bounds_limit<Ch>(total);
  const __m256i vfill = fill_lanes<Ch>(fill);
  const int* ibase = reinterpret_cast<const int*>(base);

  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x0 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.x0 + i));
    const __m256i y0 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.y0 + i));
    const __m256i x1 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.x1 + i));
    const __m256i y1 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.y1 + i));
    const __m256i valid = _mm256_cmpgt_epi32(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.valid + i)),
        vzero);
    const __m256i top = _mm256_add_epi32(_mm256_mullo_epi32(y0, vpitch),
                                         column_offset<Ch>(x0));
    const __m256i bot = _mm256_add_epi32(top, vpitch);
    // Vector-eligible: valid, contiguous 2x2 footprint, in-bounds dwords.
    __m256i vec = _mm256_and_si256(
        _mm256_cmpeq_epi32(x1, _mm256_add_epi32(x0, vone)),
        _mm256_cmpeq_epi32(y1, _mm256_add_epi32(y0, vone)));
    vec = _mm256_and_si256(vec, _mm256_cmpgt_epi32(vlim, bot));
    vec = _mm256_and_si256(vec, valid);

    const __m256i ax =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.ax + i));
    const __m256i ay =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.ay + i));
    std::uint8_t* o = out + static_cast<std::size_t>(i) * Ch;
    blend8<Ch>(ibase, top, bot, vec, valid, ax, ay, vfill, o);

    // Valid lanes the vector path skipped (clamped footprint or buffer
    // tail): redo scalar — identical integer math, so no seam.
    int fix = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_andnot_si256(vec, valid)));
    while (fix != 0) {
      const int j = __builtin_ctz(static_cast<unsigned>(fix));
      fix &= fix - 1;
      blend_one(s, i + j, base, static_cast<std::size_t>(pitch), Ch,
                o + static_cast<std::size_t>(j) * Ch);
    }
  }
  blend_span_scalar(s, i, n, base, static_cast<std::size_t>(pitch), Ch, out,
                    fill);
}

#endif  // FISHEYE_HAVE_GATHER

#if FISHEYE_HAVE_GATHER512

/// Lanes [0, rem) of a sixteen-lane step: all of them in full steps, the
/// row's last pixels in its masked tail step.
inline __mmask16 step_lanes(int rem) noexcept {
  return static_cast<__mmask16>(rem >= 16 ? 0xFFFF : (1u << rem) - 1u);
}

/// Sixteen gray lanes: blend8_gray's arithmetic at twice the width. Two
/// masked dword gathers (lanes outside `vec` read nothing), pshufb + madd
/// for the horizontal stage, the 32-bit vertical stage rounded half-up,
/// `fill` outside `valid`, and vpmovdb storing the bytes of `lanes` at
/// `out`.
FISHEYE_AVX512 inline void blend16_gray(const int* ibase, __m512i top,
                                        __m512i bot, __mmask16 vec,
                                        __mmask16 valid, __mmask16 lanes,
                                        __m512i ax, __m512i ay, __m512i vfill,
                                        std::uint8_t* out) noexcept {
  const __m512i vzero = _mm512_setzero_si512();
  const __m512i v256 = _mm512_set1_epi32(256);
  // blend8_gray's pshufb pattern in every 128-bit lane, as dwords: bytes
  // (0, -1, 1, -1), (4, -1, 5, -1), (8, -1, 9, -1), (12, -1, 13, -1).
  const __m512i spread =
      _mm512_setr4_epi32(static_cast<int>(0xFF01FF00u),
                         static_cast<int>(0xFF05FF04u),
                         static_cast<int>(0xFF09FF08u),
                         static_cast<int>(0xFF0DFF0Cu));

  const __m512i topw = _mm512_mask_i32gather_epi32(vzero, vec, top, ibase, 1);
  const __m512i botw = _mm512_mask_i32gather_epi32(vzero, vec, bot, ibase, 1);
  const __m512i wx =
      _mm512_or_si512(_mm512_sub_epi32(v256, ax),
                      _mm512_maskz_slli_epi32(lanes, ax, 16));
  const __m512i t0 = _mm512_madd_epi16(_mm512_shuffle_epi8(topw, spread), wx);
  const __m512i t1 = _mm512_madd_epi16(_mm512_shuffle_epi8(botw, spread), wx);
  __m512i acc =
      _mm512_add_epi32(_mm512_mullo_epi32(t0, _mm512_sub_epi32(v256, ay)),
                       _mm512_mullo_epi32(t1, ay));
  acc = _mm512_maskz_srli_epi32(
      lanes, _mm512_add_epi32(acc, _mm512_set1_epi32(1 << 15)), 16);
  acc = _mm512_mask_blend_epi32(valid, vfill, acc);
  _mm512_mask_cvtepi32_storeu_epi8(out, lanes, acc);
}

/// One sixteen-lane float-LUT step over the `lanes` of map entries mx/my:
/// float_row_avx2<1>'s expressions at twice the width, output at `o`.
/// `vlim` bounds the dword reads (bot + 4 <= total).
FISHEYE_AVX512 inline void float_step16(const float* __restrict mx,
                                        const float* __restrict my,
                                        __mmask16 lanes, float lim_x,
                                        float lim_y,
                                        const std::uint8_t* __restrict base,
                                        int pitch, __m512i vlim,
                                        std::uint8_t fill,
                                        std::uint8_t* __restrict o) noexcept {
  const __m512 vzero = _mm512_setzero_ps();
  const __m512 v256 = _mm512_set1_ps(256.0f);
  const __m512 vhalf = _mm512_set1_ps(0.5f);
  const __m512i vpitch = _mm512_set1_epi32(pitch);

  const __m512 sx = _mm512_maskz_loadu_ps(lanes, mx);
  const __m512 sy = _mm512_maskz_loadu_ps(lanes, my);
  const __m512 fx = _mm512_floor_ps(sx);
  const __m512 fy = _mm512_floor_ps(sy);
  // Ordered compares, chained through the masks: NaN entries are invalid,
  // as are the lanes past the row's end.
  __mmask16 valid = _mm512_mask_cmp_ps_mask(lanes, fx, vzero, _CMP_GE_OQ);
  valid = _mm512_mask_cmp_ps_mask(valid, fy, vzero, _CMP_GE_OQ);
  valid =
      _mm512_mask_cmp_ps_mask(valid, fx, _mm512_set1_ps(lim_x), _CMP_LT_OQ);
  valid =
      _mm512_mask_cmp_ps_mask(valid, fy, _mm512_set1_ps(lim_y), _CMP_LT_OQ);
  // The zero-masked conversions (and shifts in blend16_gray) sidestep
  // GCC 12's -Wmaybe-uninitialized on the unmasked forms' undefined
  // pass-through operand; lanes past the row's end are never stored.
  const __m512i ax = _mm512_maskz_cvttps_epi32(
      lanes, _mm512_add_ps(_mm512_mul_ps(_mm512_sub_ps(sx, fx), v256), vhalf));
  const __m512i ay = _mm512_maskz_cvttps_epi32(
      lanes, _mm512_add_ps(_mm512_mul_ps(_mm512_sub_ps(sy, fy), v256), vhalf));
  const __m512i top = _mm512_add_epi32(
      _mm512_mullo_epi32(_mm512_maskz_cvttps_epi32(lanes, fy), vpitch),
      _mm512_maskz_cvttps_epi32(lanes, fx));
  const __m512i bot = _mm512_add_epi32(top, vpitch);
  const __mmask16 vec = _mm512_mask_cmpgt_epi32_mask(valid, vlim, bot);

  blend16_gray(reinterpret_cast<const int*>(base), top, bot, vec, valid,
               lanes, ax, ay, _mm512_set1_epi32(fill), o);

  // Valid lanes the vector path skipped: recompute from the map entry
  // with the identical integer arithmetic, so no seam.
  unsigned fix = static_cast<unsigned>(valid & ~vec);
  while (fix != 0) {
    const int j = __builtin_ctz(fix);
    fix &= fix - 1;
    blend_float_one(mx[j], my[j], lim_x, lim_y, base,
                    static_cast<std::size_t>(pitch), 1, fill, o + j);
  }
}

/// AVX-512 gray float-LUT row: pixels [0, n) of map entries mx/my into
/// out, sixteen per step; a tail under sixteen runs as one masked step.
FISHEYE_AVX512 void float_row_avx512(const float* __restrict mx,
                                     const float* __restrict my, int n,
                                     float lim_x, float lim_y,
                                     const std::uint8_t* __restrict base,
                                     int pitch, int total, std::uint8_t fill,
                                     std::uint8_t* __restrict out) noexcept {
  const __m512i vlim = _mm512_set1_epi32(total - 3);  // bot + 4 <= total
  int i = 0;
  for (; i + 16 <= n; i += 16)
    float_step16(mx + i, my + i, 0xFFFF, lim_x, lim_y, base, pitch, vlim,
                 fill, out + i);
  if (i < n)
    float_step16(mx + i, my + i, step_lanes(n - i), lim_x, lim_y, base,
                 pitch, vlim, fill, out + i);
}

/// One sixteen-lane pass-2 step over the `lanes` of scratch slots [i,
/// i + 16): blend_span_avx2<1>'s expressions at twice the width, output
/// at `out + i`. `vlim` bounds the dword reads (bot + 4 <= total).
FISHEYE_AVX512 inline void span_step16(const SoaScratch& s, int i,
                                       __mmask16 lanes,
                                       const std::uint8_t* __restrict base,
                                       int pitch, __m512i vlim,
                                       std::uint8_t fill,
                                       std::uint8_t* __restrict out) noexcept {
  const __m512i vpitch = _mm512_set1_epi32(pitch);
  const __m512i vone = _mm512_set1_epi32(1);

  const __m512i x0 = _mm512_maskz_load_epi32(lanes, s.x0 + i);
  const __m512i y0 = _mm512_maskz_load_epi32(lanes, s.y0 + i);
  const __m512i x1 = _mm512_maskz_load_epi32(lanes, s.x1 + i);
  const __m512i y1 = _mm512_maskz_load_epi32(lanes, s.y1 + i);
  const __mmask16 valid = _mm512_mask_cmpgt_epi32_mask(
      lanes, _mm512_maskz_load_epi32(lanes, s.valid + i),
      _mm512_setzero_si512());
  const __m512i top = _mm512_add_epi32(_mm512_mullo_epi32(y0, vpitch), x0);
  const __m512i bot = _mm512_add_epi32(top, vpitch);
  // Vector-eligible: valid, contiguous 2x2 footprint, in-bounds dwords.
  __mmask16 vec =
      _mm512_mask_cmpeq_epi32_mask(valid, x1, _mm512_add_epi32(x0, vone));
  vec = _mm512_mask_cmpeq_epi32_mask(vec, y1, _mm512_add_epi32(y0, vone));
  vec = _mm512_mask_cmpgt_epi32_mask(vec, vlim, bot);

  std::uint8_t* o = out + i;
  blend16_gray(reinterpret_cast<const int*>(base), top, bot, vec, valid,
               lanes, _mm512_maskz_load_epi32(lanes, s.ax + i),
               _mm512_maskz_load_epi32(lanes, s.ay + i),
               _mm512_set1_epi32(fill), o);

  // Valid lanes the vector path skipped (clamped footprint or buffer
  // tail): redo scalar — identical integer math, so no seam.
  unsigned fix = static_cast<unsigned>(valid & ~vec);
  while (fix != 0) {
    const int j = __builtin_ctz(fix);
    fix &= fix - 1;
    blend_one(s, i + j, base, static_cast<std::size_t>(pitch), 1, o + j);
  }
}

/// AVX-512 gray pass 2 over scratch slots [0, n), sixteen per step; a
/// tail under sixteen runs as one masked step.
FISHEYE_AVX512 void blend_span_avx512(const SoaScratch& s, int n,
                                      const std::uint8_t* __restrict base,
                                      int pitch, int total,
                                      std::uint8_t* __restrict out,
                                      std::uint8_t fill) noexcept {
  const __m512i vlim = _mm512_set1_epi32(total - 3);  // bot + 4 <= total
  int i = 0;
  for (; i + 16 <= n; i += 16)
    span_step16(s, i, 0xFFFF, base, pitch, vlim, fill, out);
  if (i < n)
    span_step16(s, i, step_lanes(n - i), base, pitch, vlim, fill, out);
}

#endif  // FISHEYE_HAVE_GATHER512

/// Float-LUT row dispatch: the vector `body` when the frame has one or
/// three channels and the byte offsets fit int32 (AVX-512 takes gray rows
/// only), scalar otherwise.
inline void float_row(GatherBody body, const float* __restrict mx,
                      const float* __restrict my, int n, float lim_x,
                      float lim_y, const std::uint8_t* __restrict base,
                      std::size_t pitch, std::size_t total, int ch,
                      std::uint8_t fill,
                      std::uint8_t* __restrict out) noexcept {
#if FISHEYE_HAVE_GATHER
  if (body != GatherBody::Scalar && offsets_fit_int32(total)) {
    const int ipitch = static_cast<int>(pitch);
    const int itotal = static_cast<int>(total);
#if FISHEYE_HAVE_GATHER512
    if (ch == 1 && body == GatherBody::Avx512) {
      float_row_avx512(mx, my, n, lim_x, lim_y, base, ipitch, itotal, fill,
                       out);
      return;
    }
#endif
    if (ch == 1) {
      float_row_avx2<1>(mx, my, n, lim_x, lim_y, base, ipitch, itotal, fill,
                        out);
      return;
    }
    if (ch == 3) {
      float_row_avx2<3>(mx, my, n, lim_x, lim_y, base, ipitch, itotal, fill,
                        out);
      return;
    }
  }
#else
  (void)body;
  (void)total;
#endif
  float_row_scalar(mx, my, n, lim_x, lim_y, base, pitch, ch, fill, out);
}

/// Pass 2 dispatch for one strip: the vector `body` when the frame has one
/// or three channels and the byte offsets fit int32 (AVX-512 takes gray
/// strips only), scalar otherwise.
inline void blend_strip(GatherBody body, const SoaScratch& s, int n,
                        const std::uint8_t* __restrict base, std::size_t pitch,
                        std::size_t total, int ch,
                        std::uint8_t* __restrict out,
                        std::uint8_t fill) noexcept {
#if FISHEYE_HAVE_GATHER
  if (body != GatherBody::Scalar && offsets_fit_int32(total)) {
    const int ipitch = static_cast<int>(pitch);
    const int itotal = static_cast<int>(total);
#if FISHEYE_HAVE_GATHER512
    if (ch == 1 && body == GatherBody::Avx512) {
      blend_span_avx512(s, n, base, ipitch, itotal, out, fill);
      return;
    }
#endif
    if (ch == 1) {
      blend_span_avx2<1>(s, n, base, ipitch, itotal, out, fill);
      return;
    }
    if (ch == 3) {
      blend_span_avx2<3>(s, n, base, ipitch, itotal, out, fill);
      return;
    }
  }
#else
  (void)body;
  (void)total;
#endif
  blend_span_scalar(s, 0, n, base, pitch, ch, out, fill);
}

/// Cache lines prefetched per strip, bounding the pass-1 overhead: a
/// 256-pixel strip of a smooth map typically spans a handful of source
/// rows, each a few lines wide (docs/modeling.md works the arithmetic).
constexpr int kMaxPrefetchLines = 64;

/// Software-prefetch the source rows the strip [xb, xe) of output row pair
/// (g0, g1) will gather from, using the subsampled grid's coarse bbox —
/// the CompactMap is the only representation whose footprint is knowable
/// this cheaply (two grid rows instead of a per-pixel scan).
inline void prefetch_strip_sources(const core::CompactMap& map,
                                   const std::uint8_t* base, std::size_t pitch,
                                   int ch, std::size_t g0, std::size_t g1,
                                   int xb, int xe) noexcept {
  if (xb >= xe) return;
  const int shift = map.shift();
  const int c0 = xb >> shift;
  const int c1 = std::min(((xe - 1) >> shift) + 1, map.grid_w - 1);
  std::int32_t min_x = INT32_MAX, max_x = INT32_MIN;
  std::int32_t min_y = INT32_MAX, max_y = INT32_MIN;
  for (int c = c0; c <= c1; ++c) {
    for (const std::size_t g : {g0 + c, g1 + c}) {
      min_x = std::min(min_x, map.gx[g]);
      max_x = std::max(max_x, map.gx[g]);
      min_y = std::min(min_y, map.gy[g]);
      max_y = std::max(max_y, map.gy[g]);
    }
  }
  const int frac = map.frac_bits;
  const int y_lo = std::clamp(min_y >> frac, 0, map.src_height - 1);
  const int y_hi = std::clamp((max_y >> frac) + 1, 0, map.src_height - 1);
  const int x_lo = std::clamp(min_x >> frac, 0, map.src_width - 1);
  const int x_hi = std::clamp((max_x >> frac) + 1, 0, map.src_width - 1);
  int lines = 0;
  for (int y = y_lo; y <= y_hi && lines < kMaxPrefetchLines; ++y) {
    const std::uint8_t* row = base + static_cast<std::size_t>(y) * pitch;
    const std::uint8_t* q = row + static_cast<std::size_t>(x_lo) * ch;
    const std::uint8_t* end = row + static_cast<std::size_t>(x_hi) * ch;
    for (; q <= end && lines < kMaxPrefetchLines; q += 64, ++lines)
      __builtin_prefetch(q, 0, 1);
  }
}

/// The forced-body entry points never run a body this build or CPU lacks.
void expect_body(GatherBody body) {
  FE_EXPECTS(body <= gather_body(1));
}

}  // namespace

namespace detail {

void remap_bilinear_gather(GatherBody body,
                           img::ConstImageView<std::uint8_t> src,
                           img::ImageView<std::uint8_t> dst,
                           const core::WarpMap& map, par::Rect rect,
                           std::uint8_t fill, SoaScratch& /*scratch*/,
                           int /*strip*/) {
  expect_body(body);
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  FE_EXPECTS(rect.x0 >= 0 && rect.y0 >= 0 && rect.x1 <= dst.width &&
             rect.y1 <= dst.height);

  const int ch = src.channels;
  const float lim_x = static_cast<float>(src.width) - 1.0f;
  const float lim_y = static_cast<float>(src.height) - 1.0f;
  const std::size_t pitch = src.pitch;
  const std::size_t total = pitch * static_cast<std::size_t>(src.height);
  const int n = rect.x1 - rect.x0;

  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::size_t at = static_cast<std::size_t>(y) * map.width + rect.x0;
    float_row(body, map.src_x.data() + at, map.src_y.data() + at, n, lim_x,
              lim_y, src.data, pitch, total, ch, fill,
              dst.row(y) + static_cast<std::size_t>(rect.x0) * ch);
  }
}

void remap_packed_gather(GatherBody body,
                         img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst,
                         const core::PackedMap& map, par::Rect rect,
                         std::uint8_t fill, SoaScratch& scratch, int strip) {
  expect_body(body);
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  FE_EXPECTS(rect.x0 >= 0 && rect.y0 >= 0 && rect.x1 <= dst.width &&
             rect.y1 <= dst.height);

  SoaScratch& s = scratch;
  const int len = clamp_strip(strip);
  const int ch = src.channels;
  const std::size_t pitch = src.pitch;
  const std::size_t total = pitch * static_cast<std::size_t>(src.height);
  const int frac = map.frac_bits;
  const int wshift = frac >= 8 ? frac - 8 : 0;
  const int wscale_up = frac >= 8 ? 0 : 8 - frac;
  const std::int32_t frac_mask = (std::int32_t{1} << frac) - 1;
  const int src_w = src.width;
  const int src_h = src.height;

  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.width;
    std::uint8_t* __restrict out_row = dst.row(y);

    for (int xb = rect.x0; xb < rect.x1; xb += len) {
      const int n = std::min(len, rect.x1 - xb);
      const std::int32_t* __restrict pfx = map.fx.data() + row + xb;
      const std::int32_t* __restrict pfy = map.fy.data() + row + xb;

      // Pass 1: identical integer expressions to the scalar packed kernel
      // (core/remap.cpp), so pass 2 reproduces it bit-for-bit. Invalid
      // lanes keep garbage coordinates; no path dereferences them.
      for (int i = 0; i < n; ++i) {
        const std::int32_t fx = pfx[i];
        const std::int32_t fy = pfy[i];
        const std::int32_t x0 = fx >> frac;
        const std::int32_t y0 = fy >> frac;
        s.x0[i] = x0;
        s.y0[i] = y0;
        s.x1[i] = x0 + 1 < src_w ? x0 + 1 : x0;
        s.y1[i] = y0 + 1 < src_h ? y0 + 1 : y0;
        s.ax[i] = ((fx & frac_mask) >> wshift) << wscale_up;  // 0..256
        s.ay[i] = ((fy & frac_mask) >> wshift) << wscale_up;
        s.valid[i] = fx != core::PackedMap::kInvalid;
      }

      std::uint8_t* __restrict out =
          out_row + static_cast<std::size_t>(xb) * ch;
      blend_strip(body, s, n, src.data, pitch, total, ch, out, fill);
    }
  }
}

void remap_compact_gather(GatherBody body,
                          img::ConstImageView<std::uint8_t> src,
                          img::ImageView<std::uint8_t> dst,
                          const core::CompactMap& map, par::Rect rect,
                          std::uint8_t fill, SoaScratch& scratch, int strip) {
  expect_body(body);
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  FE_EXPECTS(src.width == map.src_width && src.height == map.src_height);
  FE_EXPECTS(rect.x0 >= 0 && rect.y0 >= 0 && rect.x1 <= dst.width &&
             rect.y1 <= dst.height);

  SoaScratch& s = scratch;
  const int len = clamp_strip(strip);
  const int ch = src.channels;
  const std::size_t pitch = src.pitch;
  const std::size_t total = pitch * static_cast<std::size_t>(src.height);

  const int shift = map.shift();
  const CompactPass1 pass1(map);

  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::size_t g0 = static_cast<std::size_t>(y >> shift) * map.grid_w;
    const std::size_t g1 = g0 + map.grid_w;
    std::uint8_t* __restrict out_row = dst.row(y);

    for (int xb = rect.x0; xb < rect.x1; xb += len) {
      const int n = std::min(len, rect.x1 - xb);

      // Ahead of pass 1: warm the NEXT strip's source lines while this
      // strip's arithmetic hides the latency — by the time its gathers
      // issue, the lines are (at worst) in flight.
      if (xb + len < rect.x1)
        prefetch_strip_sources(map, src.data, pitch, ch, g0, g1, xb + len,
                               std::min(rect.x1, xb + 2 * len));

      // Pass 1: per-cell grid reconstruction, bit-exact against the scalar
      // compact kernel (compact_pass1.hpp).
      pass1.fill(y, xb, n, s);

      std::uint8_t* __restrict out =
          out_row + static_cast<std::size_t>(xb) * ch;
      blend_strip(body, s, n, src.data, pitch, total, ch, out, fill);
    }
  }
}

}  // namespace detail

void remap_bilinear_gather(img::ConstImageView<std::uint8_t> src,
                           img::ImageView<std::uint8_t> dst,
                           const core::WarpMap& map, par::Rect rect,
                           std::uint8_t fill, SoaScratch& scratch, int strip) {
  detail::remap_bilinear_gather(gather_body(src.channels), src, dst, map, rect,
                                fill, scratch, strip);
}

void remap_packed_gather(img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst,
                         const core::PackedMap& map, par::Rect rect,
                         std::uint8_t fill, SoaScratch& scratch, int strip) {
  detail::remap_packed_gather(gather_body(src.channels), src, dst, map, rect,
                              fill, scratch, strip);
}

void remap_compact_gather(img::ConstImageView<std::uint8_t> src,
                          img::ImageView<std::uint8_t> dst,
                          const core::CompactMap& map, par::Rect rect,
                          std::uint8_t fill, SoaScratch& scratch, int strip) {
  detail::remap_compact_gather(gather_body(src.channels), src, dst, map, rect,
                               fill, scratch, strip);
}

}  // namespace fisheye::simd
