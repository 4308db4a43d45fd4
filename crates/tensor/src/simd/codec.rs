//! Wire codecs for the quantized boundary exchange (DESIGN.md §13).
//!
//! Boundary-feature rows dominate BNS-GCN's communication volume, so the
//! exchange layer can optionally quantize rows on the wire. This module
//! owns the pack/unpack kernels for the three formats:
//!
//! * **f16** — IEEE 754 binary16, 2 bytes/element. Pack is
//!   round-to-nearest-even; values below half the smallest subnormal
//!   (|x| < 2⁻²⁵) flush to signed zero, overflow saturates to ±∞, and
//!   NaN collapses to the canonical quiet NaN (`0x7E00`).
//! * **bf16** — bfloat16 (f32 with the mantissa truncated to 7 bits),
//!   2 bytes/element, round-to-nearest-even; NaN keeps its truncated
//!   payload with the quiet bit forced so it can never become ∞.
//! * **int8** — per-row affine: an 8-byte header `[scale: f32 LE,
//!   zero_point: f32 LE]` followed by one byte per element, `d + 8`
//!   bytes for a row of `d`. `x ≈ zero_point + q·scale` with
//!   `scale = (max−min)/255` folded over the row ignoring NaN. NaN
//!   elements quantize to `q = 0` and therefore dequantize to the row
//!   zero-point — int8 does *not* preserve NaN (f16/bf16 do). A row
//!   whose min/max range is not finite (±∞ present, or the span
//!   overflows f32) collapses to `scale = 0` with a zero zero-point;
//!   training data never produces such rows.
//!
//! The gradient return path uses **stochastic rounding** (`*_sr`
//! kernels): instead of rounding to nearest, each element rounds up with
//! probability equal to its fractional distance, which keeps the
//! *expected* dequantized value equal to the input and stops quantization
//! bias from accumulating across epochs. Randomness is counter-based —
//! `rand_at(seed, row, j)` hashes (seed, row index, element index)
//! through a SplitMix64-style finalizer — so the result for a fixed seed
//! is a pure function of the data and its position, bitwise identical at
//! any thread count, worker count, or lane width. SR values below 2⁻²⁵
//! flush to zero deterministically (no random round-up in the
//! sub-subnormal tail); gradients there are noise.
//!
//! # Determinism
//!
//! The f16/bf16 conversions are scalar integer bit manipulation with an
//! identical per-element program order on every backend; the dispatched
//! `#[target_feature]` wrappers let LLVM autovectorize those
//! element-independent loops (and show the dispatch in
//! `simd.dispatch.*` telemetry), never changing the arithmetic.
//!
//! The int8 packs are lanewise `Vf32` code like every other kernel
//! family, full vectors then the step-down tail, with the scalar lane
//! as the reference:
//!
//! * **Row fold.** Each lane keeps the first minimum and maximum it
//!   meets (`select_lt` replaces only on a strict, ordered `<`, so NaN
//!   is skipped), and the lanes merge by value. The sequential fold
//!   `if x < lo { lo = x }` keeps the *first* element equal to the
//!   minimum, which matters only for a zero minimum, where `+0.0` and
//!   `-0.0` tie and the zero-point header keeps the sign: every lane
//!   kept its own first zero and the row's first zero is one of them,
//!   so when the zero lanes agree (a post-ReLU row's zeros are all
//!   `+0.0`) that is the sign, and only a row whose lanes met different
//!   zeros first is scanned for its first zero.
//! * **Rounding.** `y = (x − zero_point) · inv` is clamped to
//!   `[0, 255]` first (exact: both roundings are monotone and fix 0 and
//!   255; NaN clamps to 0). Round-to-nearest then adds 1 to `trunc(y)`
//!   when `y − trunc(y) ≥ 0.5` — exact, half away from zero like
//!   [`f32::round`], where `floor(y + 0.5)` would round `0.49999997`
//!   up. Stochastic rounding truncates `y + u`, `u` from the scalar
//!   position hash per element.
//!
//! Sub, mul, add, compare-select and truncate are correctly rounded
//! lanewise IEEE ops, as is the unpack scale multiply, so
//! quantize→dequantize is bitwise identical across
//! scalar/SSE2/AVX2/AVX-512/NEON (proptests and a recorded-bytes pin in
//! `crates/tensor/tests/codec_roundtrip.rs` force every backend).

use super::*;

/// Bytes of per-row header in the int8 wire format (`scale` then
/// `zero_point`, both f32 little-endian).
pub const INT8_HEADER_BYTES: usize = 8;

/// Converts one f32 to IEEE binary16 with round-to-nearest-even.
pub fn f32_to_f16_rne(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // ±∞ stays ∞; every NaN collapses to the canonical quiet NaN so
        // payloads cannot differ across backends.
        return if man != 0 { 0x7e00 } else { sign | 0x7c00 };
    }
    let h_exp = exp - 112; // rebias: f32 bias 127 -> f16 bias 15
    if h_exp >= 0x1f {
        return sign | 0x7c00; // overflow -> ±∞
    }
    if h_exp <= 0 {
        // f16 subnormal (or zero): shift the 24-bit significand down.
        if h_exp < -10 {
            return sign; // below half the smallest subnormal -> ±0
        }
        let shift = (14 - h_exp) as u32;
        let sig = man | 0x0080_0000;
        let half = 1u32 << (shift - 1);
        let low = sig & ((1u32 << shift) - 1);
        let mut out = sig >> shift;
        if low > half || (low == half && out & 1 == 1) {
            out += 1; // may carry to 0x400 = smallest normal: correct
        }
        return sign | out as u16;
    }
    let base = ((h_exp as u32) << 10) | (man >> 13);
    let low = man & 0x1fff;
    let mut h = base;
    if low > 0x1000 || (low == 0x1000 && h & 1 == 1) {
        h += 1; // mantissa carry may bump the exponent, up to ∞: correct
    }
    sign | h as u16
}

/// Converts one f32 to IEEE binary16 with stochastic rounding driven by
/// the random word `r`: rounds away from zero with probability equal to
/// the fractional distance, so `E[dequant] = x` (magnitude-symmetric,
/// hence unbiased for both signs). Special values behave like
/// [`f32_to_f16_rne`].
pub fn f32_to_f16_sr(x: f32, r: u64) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        return if man != 0 { 0x7e00 } else { sign | 0x7c00 };
    }
    let h_exp = exp - 112;
    if h_exp >= 0x1f {
        return sign | 0x7c00;
    }
    let r = (r >> 32) as u32;
    if h_exp <= 0 {
        if h_exp < -10 {
            return sign; // deterministic flush (see module docs)
        }
        let shift = (14 - h_exp) as u32;
        let sig = man | 0x0080_0000;
        // P(round up) = (discarded bits) / 2^shift; sums fit in u32.
        return sign | ((sig + (r & ((1u32 << shift) - 1))) >> shift) as u16;
    }
    let base = ((h_exp as u32) << 10) | (man >> 13);
    let carry = ((man & 0x1fff) + (r & 0x1fff)) >> 13;
    sign | (base + carry) as u16
}

/// Converts one IEEE binary16 to f32 (exact — every f16 value is
/// representable in f32).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x3ff) as u32;
    let bits = if exp == 0x1f {
        sign | 0x7f80_0000 | (man << 13) // ±∞ / NaN (payload widened)
    } else if exp == 0 {
        if man == 0 {
            sign // ±0
        } else {
            // Normalize the subnormal: value = man × 2⁻²⁴.
            let mut e = 1i32;
            let mut m = man;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | (((e + 112) as u32) << 23) | ((m & 0x3ff) << 13)
        }
    } else {
        sign | ((exp + 112) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

/// Converts one f32 to bfloat16 with round-to-nearest-even.
pub fn f32_to_bf16_rne(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Force the quiet bit so a truncated payload can't read as ∞.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = 0x7fff + ((bits >> 16) & 1);
    ((bits + round) >> 16) as u16
}

/// Converts one f32 to bfloat16 with stochastic rounding driven by `r`
/// (magnitude-symmetric, unbiased; see [`f32_to_f16_sr`]).
pub fn f32_to_bf16_sr(x: f32, r: u64) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    // The magnitude occupies bits 0..31, so adding the random word to the
    // low 16 bits rounds the magnitude up with P = frac; the carry can
    // reach the exponent (overflow saturates to ∞) but never the sign.
    ((bits + ((r >> 48) as u32 & 0xffff)) >> 16) as u16
}

/// Converts one bfloat16 to f32 (exact).
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// SplitMix64-style finalizer: decorrelates consecutive or related
/// inputs into independent-looking 64-bit words.
#[inline(always)]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The counter-based random word for element `j` of row `row` under
/// `seed`: a pure function of its arguments, so stochastic rounding does
/// not depend on loop order, chunking, threads, or workers.
#[inline(always)]
pub fn rand_at(seed: u64, row: u64, j: u64) -> u64 {
    mix64(seed ^ row.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ j.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
}

// The codec kernels. Generic over the vector trait like every other
// kernel family so `dispatch_kernels!` can monomorphize them per
// backend. The int8 packs and every unpack scale multiply are lanewise
// `Vf32` code (full vectors, then the step-down tail); the f16/bf16
// conversions are element-independent scalar bit manipulation with one
// program order everywhere, so those packs do not name `S` — the
// `#[target_feature]` wrapper still lets LLVM widen their integer
// loops.
#[allow(clippy::extra_unused_type_parameters)]
mod kernels {
    use super::super::Vf32;
    use super::{
        bf16_to_f32, f16_to_f32, f32_to_bf16_rne, f32_to_bf16_sr, f32_to_f16_rne, f32_to_f16_sr,
        rand_at, INT8_HEADER_BYTES,
    };

    /// Lanes in the widest vector of any backend (AVX-512).
    const MAX_LANES: usize = 16;

    /// The int8 row fold so far: the least and greatest non-NaN values,
    /// and which signs of zero some lane's minimum was (bit 0: `+0.0`,
    /// bit 1: `-0.0`).
    struct Extremes {
        lo: f32,
        hi: f32,
        zero_signs: u8,
    }

    /// Folds the first `n` (a power of two) entries of `v` with `keep`
    /// by halving, so the dependency chain is `log2(n)` deep.
    #[inline(always)]
    fn halve(mut v: [f32; MAX_LANES], mut n: usize, keep: impl Fn(f32, f32) -> f32) -> f32 {
        while n > 1 {
            n /= 2;
            for i in 0..n {
                v[i] = keep(v[i], v[i + n]);
            }
        }
        v[0]
    }

    impl Extremes {
        /// Merges the lane minima `los` and maxima `his` of `n` lanes.
        /// Lanes never hold NaN, so the extreme *values* do not depend
        /// on the merge order; which lanes' minima were zeros of which
        /// sign is read only when the minimum is a zero.
        #[inline(always)]
        fn merge(&mut self, los: [f32; MAX_LANES], his: [f32; MAX_LANES], n: usize) {
            let lo = halve(los, n, |a, b| if b < a { b } else { a });
            let hi = halve(his, n, |a, b| if b > a { b } else { a });
            if lo < self.lo {
                self.lo = lo;
            }
            if hi > self.hi {
                self.hi = hi;
            }
            if lo == 0.0 {
                for &l in &los[..n] {
                    if l == 0.0 {
                        self.zero_signs |= 1 << l.is_sign_negative() as u8;
                    }
                }
            }
        }

        /// The row minimum with the sign the sequential fold
        /// `if x < lo { lo = x }` gives it: that fold keeps the *first*
        /// element equal to the minimum, which only matters for a zero
        /// minimum (`+0.0 == -0.0`). Each lane kept its own first zero,
        /// and the row's first zero is one of those, so when every
        /// zero lane agrees on the sign, that is the sign; only a row
        /// whose lanes saw different zeros first is scanned.
        #[inline(always)]
        fn first_min(&self, row: &[f32]) -> f32 {
            match (self.lo == 0.0, self.zero_signs) {
                (false, _) => self.lo,
                (true, 0b01) => 0.0,
                (true, 0b10) => -0.0,
                (true, _) => row.iter().copied().find(|&x| x == 0.0).unwrap_or(self.lo),
            }
        }
    }

    /// Folds `row` into `e`, full vectors of `S` then the step-down
    /// tail. Each lane keeps the first minimum and maximum it meets and
    /// skips NaN, because `select_lt` replaces only on a strict,
    /// ordered `<`.
    #[inline(always)]
    fn fold_extremes<S: Vf32>(row: &[f32], e: &mut Extremes) {
        let mut chunks = row.chunks_exact(S::LANES);
        if row.len() >= S::LANES {
            let (mut lo, mut hi) = (S::splat(f32::INFINITY), S::splat(f32::NEG_INFINITY));
            for c in &mut chunks {
                let x = S::load(c);
                lo = S::select_lt(x, lo, x, lo);
                hi = S::select_lt(hi, x, x, hi);
            }
            let (mut los, mut his) = ([0.0f32; MAX_LANES], [0.0f32; MAX_LANES]);
            S::store(&mut los, lo);
            S::store(&mut his, hi);
            e.merge(los, his, S::LANES);
        }
        if S::LANES > 1 {
            fold_extremes::<S::Half>(chunks.remainder(), e);
        }
    }

    /// Per-row affine parameters for the int8 format: `(scale,
    /// zero_point, inv)` with `scale = (max−min)/255`, `zero_point =
    /// min`, `inv = 255/(max−min)`. The min/max fold skips NaN; a row
    /// with no finite spread — constant, empty, all-NaN, or a span that
    /// is not finite — degenerates to `scale = 0` so every element
    /// dequantizes to the zero-point exactly.
    #[inline(always)]
    fn int8_row_params<S: Vf32>(srow: &[f32]) -> (f32, f32, f32) {
        let mut e = Extremes {
            lo: f32::INFINITY,
            hi: f32::NEG_INFINITY,
            zero_signs: 0,
        };
        fold_extremes::<S>(srow, &mut e);
        let (lo, hi) = (e.first_min(srow), e.hi);
        let range = hi - lo;
        if range <= 0.0 || !range.is_finite() {
            let zp = if lo.is_finite() { lo } else { 0.0 };
            return (0.0, zp, 0.0);
        }
        (range / 255.0, lo, 255.0 / range)
    }

    /// Clamps lanes to `[0, 255]`, NaN and `-0.0` to `+0.0`. Clamping
    /// before rounding is exact: both roundings below are monotone and
    /// map `0` and `255` to themselves.
    #[inline(always)]
    fn clamp_byte<S: Vf32>(y: S::V) -> S::V {
        let y = S::select_gtz(y, y, S::splat(0.0));
        S::select_lt(y, S::splat(255.0), y, S::splat(255.0))
    }

    /// How an int8 pack rounds the affine-mapped lanes `y` (row
    /// positions `j..j + S::LANES`) to their byte values.
    trait Rounding: Copy {
        fn apply<S: Vf32>(self, y: S::V, j: usize) -> S::V;
    }

    /// Round half away from zero, as [`f32::round`]. On a clamped lane
    /// `c - trunc(c)` is exact, so comparing it with `0.5` decides
    /// the tie exactly, where `floor(c + 0.5)` would round
    /// `0.49999997` up.
    #[derive(Clone, Copy)]
    struct Nearest;

    impl Rounding for Nearest {
        #[inline(always)]
        fn apply<S: Vf32>(self, y: S::V, _: usize) -> S::V {
            let c = clamp_byte::<S>(y);
            let t = S::trunc(c);
            S::select_lt(S::sub(c, t), S::splat(0.5), t, S::add(t, S::splat(1.0)))
        }
    }

    /// `floor(y + u)` with `u` uniform in `[0, 1)` from the
    /// counter-based stream of `(seed, row, j)`: up with probability
    /// equal to the fraction. The hash stays one scalar per element
    /// feeding the vector lanes.
    #[derive(Clone, Copy)]
    struct Stochastic {
        seed: u64,
        row: u64,
    }

    impl Rounding for Stochastic {
        #[inline(always)]
        fn apply<S: Vf32>(self, y: S::V, j: usize) -> S::V {
            let mut u = [0.0f32; MAX_LANES];
            for (l, x) in u[..S::LANES].iter_mut().enumerate() {
                let r = rand_at(self.seed, self.row, (j + l) as u64);
                *x = ((r >> 40) as u32) as f32 / 16_777_216.0;
            }
            S::trunc(clamp_byte::<S>(S::add(y, S::load(&u))))
        }
    }

    /// `dst[j] = round((src[j] - zp) * inv)` as a byte, full vectors
    /// then the step-down tail; `j0` is `src[0]`'s row position.
    #[inline(always)]
    fn quantize<S: Vf32>(
        dst: &mut [u8],
        src: &[f32],
        (zp, inv): (f32, f32),
        j0: usize,
        rounding: impl Rounding,
    ) {
        let (zpv, invv) = (S::splat(zp), S::splat(inv));
        let mut q = dst.chunks_exact_mut(S::LANES);
        let mut x = src.chunks_exact(S::LANES);
        let mut j = j0;
        for (qc, xc) in (&mut q).zip(&mut x) {
            let y = S::mul(S::sub(S::load(xc), zpv), invv);
            S::narrow_u8(qc, rounding.apply::<S>(y, j));
            j += S::LANES;
        }
        if S::LANES > 1 {
            quantize::<S::Half>(q.into_remainder(), x.remainder(), (zp, inv), j, rounding);
        }
    }

    /// One int8 wire row: the header, then the quantized elements.
    #[inline(always)]
    fn pack_int8_row<S: Vf32>(drow: &mut [u8], srow: &[f32], rounding: impl Rounding) {
        let (scale, zp, inv) = int8_row_params::<S>(srow);
        drow[0..4].copy_from_slice(&scale.to_le_bytes());
        drow[4..8].copy_from_slice(&zp.to_le_bytes());
        quantize::<S>(&mut drow[INT8_HEADER_BYTES..], srow, (zp, inv), 0, rounding);
    }

    /// Applies the feature-scale multiply lanewise; `scale == 1.0` is
    /// skipped entirely so the gradient path (pre-scaled sends) never
    /// touches the data after conversion.
    #[inline(always)]
    fn scale_in_place<S: Vf32>(dst: &mut [f32], scale: f32) {
        if scale != 1.0 {
            super::super::kernels::scale::<S>(dst, scale);
        }
    }

    #[inline(always)]
    pub fn pack_f16<S: Vf32>(dst: &mut [u8], src: &[f32]) {
        assert_eq!(dst.len(), src.len() * 2, "f16 wire buffer size");
        for (d2, &x) in dst.chunks_exact_mut(2).zip(src) {
            d2.copy_from_slice(&f32_to_f16_rne(x).to_le_bytes());
        }
    }

    #[inline(always)]
    pub fn pack_bf16<S: Vf32>(dst: &mut [u8], src: &[f32]) {
        assert_eq!(dst.len(), src.len() * 2, "bf16 wire buffer size");
        for (d2, &x) in dst.chunks_exact_mut(2).zip(src) {
            d2.copy_from_slice(&f32_to_bf16_rne(x).to_le_bytes());
        }
    }

    #[inline(always)]
    pub fn pack_f16_sr<S: Vf32>(dst: &mut [u8], src: &[f32], d: usize, seed: u64) {
        assert!(
            d > 0 && src.len().is_multiple_of(d),
            "src must be whole rows"
        );
        assert_eq!(dst.len(), src.len() * 2, "f16 wire buffer size");
        for (row, (drow, srow)) in dst
            .chunks_exact_mut(2 * d)
            .zip(src.chunks_exact(d))
            .enumerate()
        {
            for (j, (d2, &x)) in drow.chunks_exact_mut(2).zip(srow).enumerate() {
                let h = f32_to_f16_sr(x, rand_at(seed, row as u64, j as u64));
                d2.copy_from_slice(&h.to_le_bytes());
            }
        }
    }

    #[inline(always)]
    pub fn pack_bf16_sr<S: Vf32>(dst: &mut [u8], src: &[f32], d: usize, seed: u64) {
        assert!(
            d > 0 && src.len().is_multiple_of(d),
            "src must be whole rows"
        );
        assert_eq!(dst.len(), src.len() * 2, "bf16 wire buffer size");
        for (row, (drow, srow)) in dst
            .chunks_exact_mut(2 * d)
            .zip(src.chunks_exact(d))
            .enumerate()
        {
            for (j, (d2, &x)) in drow.chunks_exact_mut(2).zip(srow).enumerate() {
                let h = f32_to_bf16_sr(x, rand_at(seed, row as u64, j as u64));
                d2.copy_from_slice(&h.to_le_bytes());
            }
        }
    }

    #[inline(always)]
    pub fn pack_int8<S: Vf32>(dst: &mut [u8], src: &[f32], d: usize) {
        assert!(
            d > 0 && src.len().is_multiple_of(d),
            "src must be whole rows"
        );
        let rb = d + INT8_HEADER_BYTES;
        assert_eq!(dst.len(), (src.len() / d) * rb, "int8 wire buffer size");
        for (drow, srow) in dst.chunks_exact_mut(rb).zip(src.chunks_exact(d)) {
            pack_int8_row::<S>(drow, srow, Nearest);
        }
    }

    #[inline(always)]
    pub fn pack_int8_sr<S: Vf32>(dst: &mut [u8], src: &[f32], d: usize, seed: u64) {
        assert!(
            d > 0 && src.len().is_multiple_of(d),
            "src must be whole rows"
        );
        let rb = d + INT8_HEADER_BYTES;
        assert_eq!(dst.len(), (src.len() / d) * rb, "int8 wire buffer size");
        for (row, (drow, srow)) in dst
            .chunks_exact_mut(rb)
            .zip(src.chunks_exact(d))
            .enumerate()
        {
            let row = row as u64;
            pack_int8_row::<S>(drow, srow, Stochastic { seed, row });
        }
    }

    #[inline(always)]
    pub fn unpack_f16<S: Vf32>(dst: &mut [f32], src: &[u8], scale: f32) {
        assert_eq!(src.len(), dst.len() * 2, "f16 wire buffer size");
        for (x, s2) in dst.iter_mut().zip(src.chunks_exact(2)) {
            *x = f16_to_f32(u16::from_le_bytes([s2[0], s2[1]]));
        }
        scale_in_place::<S>(dst, scale);
    }

    #[inline(always)]
    pub fn unpack_bf16<S: Vf32>(dst: &mut [f32], src: &[u8], scale: f32) {
        assert_eq!(src.len(), dst.len() * 2, "bf16 wire buffer size");
        for (x, s2) in dst.iter_mut().zip(src.chunks_exact(2)) {
            *x = bf16_to_f32(u16::from_le_bytes([s2[0], s2[1]]));
        }
        scale_in_place::<S>(dst, scale);
    }

    #[inline(always)]
    pub fn unpack_int8<S: Vf32>(dst: &mut [f32], src: &[u8], d: usize, scale: f32) {
        assert!(
            d > 0 && dst.len().is_multiple_of(d),
            "dst must be whole rows"
        );
        let rb = d + INT8_HEADER_BYTES;
        assert_eq!(src.len(), (dst.len() / d) * rb, "int8 wire buffer size");
        for (xrow, srow) in dst.chunks_exact_mut(d).zip(src.chunks_exact(rb)) {
            let rs = f32::from_le_bytes([srow[0], srow[1], srow[2], srow[3]]);
            let zp = f32::from_le_bytes([srow[4], srow[5], srow[6], srow[7]]);
            for (x, &q) in xrow.iter_mut().zip(&srow[INT8_HEADER_BYTES..]) {
                *x = zp + q as f32 * rs;
            }
        }
        scale_in_place::<S>(dst, scale);
    }
}

dispatch_kernels! {
    /// Packs f32s to little-endian f16, round-to-nearest-even (the
    /// feature path).
    ///
    /// # Panics
    ///
    /// Panics unless `dst.len() == 2 * src.len()`.
    pub fn pack_f16(dst: &mut [u8], src: &[f32]);

    /// Packs f32s to little-endian bf16, round-to-nearest-even.
    ///
    /// # Panics
    ///
    /// Panics unless `dst.len() == 2 * src.len()`.
    pub fn pack_bf16(dst: &mut [u8], src: &[f32]);

    /// Packs rows of `d` f32s to f16 with per-element stochastic
    /// rounding from the counter-based stream `(seed, row, j)` (the
    /// gradient path).
    ///
    /// # Panics
    ///
    /// Panics unless `src` is whole rows and `dst.len() == 2 * src.len()`.
    pub fn pack_f16_sr(dst: &mut [u8], src: &[f32], d: usize, seed: u64);

    /// Packs rows of `d` f32s to bf16 with stochastic rounding.
    ///
    /// # Panics
    ///
    /// Panics unless `src` is whole rows and `dst.len() == 2 * src.len()`.
    pub fn pack_bf16_sr(dst: &mut [u8], src: &[f32], d: usize, seed: u64);

    /// Packs rows of `d` f32s to the per-row affine int8 wire format
    /// (8-byte scale/zero-point header + `d` bytes), round-to-nearest.
    ///
    /// # Panics
    ///
    /// Panics unless `src` is whole rows and `dst.len()` is
    /// `rows * (d + 8)`.
    pub fn pack_int8(dst: &mut [u8], src: &[f32], d: usize);

    /// Packs rows of `d` f32s to affine int8 with stochastic rounding.
    ///
    /// # Panics
    ///
    /// Panics unless `src` is whole rows and `dst.len()` is
    /// `rows * (d + 8)`.
    pub fn pack_int8_sr(dst: &mut [u8], src: &[f32], d: usize, seed: u64);

    /// Unpacks little-endian f16 to f32 and multiplies by `scale`
    /// (`1.0` skips the multiply — used by the pre-scaled gradient
    /// path).
    ///
    /// # Panics
    ///
    /// Panics unless `src.len() == 2 * dst.len()`.
    pub fn unpack_f16(dst: &mut [f32], src: &[u8], scale: f32);

    /// Unpacks little-endian bf16 to f32 and multiplies by `scale`.
    ///
    /// # Panics
    ///
    /// Panics unless `src.len() == 2 * dst.len()`.
    pub fn unpack_bf16(dst: &mut [f32], src: &[u8], scale: f32);

    /// Unpacks affine int8 rows to f32 (`zp + q * row_scale`) and
    /// multiplies by `scale`.
    ///
    /// # Panics
    ///
    /// Panics unless `dst` is whole rows and `src.len()` is
    /// `rows * (d + 8)`.
    pub fn unpack_int8(dst: &mut [f32], src: &[u8], d: usize, scale: f32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_special_values() {
        assert_eq!(f32_to_f16_rne(0.0), 0x0000);
        assert_eq!(f32_to_f16_rne(-0.0), 0x8000);
        assert_eq!(f32_to_f16_rne(1.0), 0x3c00);
        assert_eq!(f32_to_f16_rne(-2.0), 0xc000);
        assert_eq!(f32_to_f16_rne(65504.0), 0x7bff); // f16 max
        assert_eq!(f32_to_f16_rne(65536.0), 0x7c00); // overflow -> inf
        assert_eq!(f32_to_f16_rne(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_rne(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_rne(f32::NAN), 0x7e00);
        // Smallest subnormal and the flush boundary at 2^-25.
        assert_eq!(f32_to_f16_rne(2.0f32.powi(-24)), 0x0001);
        assert_eq!(f32_to_f16_rne(2.0f32.powi(-25)), 0x0000); // tie -> even
        assert_eq!(f32_to_f16_rne(2.0f32.powi(-26)), 0x0000);
        assert_eq!(f16_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert!(f16_to_f32(0x7e00).is_nan());
        assert_eq!(f16_to_f32(0xfc00), f32::NEG_INFINITY);
    }

    #[test]
    fn f16_rne_rounds_to_even() {
        // 1.0 + 2^-11 is exactly between 0x3c00 and 0x3c01 -> even.
        let tie = f32::from_bits(0x3f80_0000 | (1 << 12));
        assert_eq!(f32_to_f16_rne(tie), 0x3c00);
        // Just above the tie rounds up.
        let above = f32::from_bits(0x3f80_0000 | (1 << 12) | 1);
        assert_eq!(f32_to_f16_rne(above), 0x3c01);
    }

    #[test]
    fn bf16_special_values() {
        assert_eq!(f32_to_bf16_rne(1.0), 0x3f80);
        assert_eq!(f32_to_bf16_rne(-0.0), 0x8000);
        assert_eq!(f32_to_bf16_rne(f32::INFINITY), 0x7f80);
        assert_eq!(f32_to_bf16_rne(f32::MAX), 0x7f80); // rounds up to inf
        let n = f32_to_bf16_rne(f32::NAN);
        assert!(bf16_to_f32(n).is_nan());
        assert_eq!(bf16_to_f32(0x3f80), 1.0);
        // Tie at 1.0 + 2^-8 rounds to even.
        let tie = f32::from_bits(0x3f80_0000 | (1 << 15));
        assert_eq!(f32_to_bf16_rne(tie), 0x3f80);
    }

    #[test]
    fn int8_wire_layout_and_nan_policy() {
        let src = [1.0f32, 2.0, f32::NAN, 3.0];
        let mut wire = vec![0u8; 4 + INT8_HEADER_BYTES];
        pack_int8(Backend::Scalar, &mut wire, &src, 4);
        let scale = f32::from_le_bytes([wire[0], wire[1], wire[2], wire[3]]);
        let zp = f32::from_le_bytes([wire[4], wire[5], wire[6], wire[7]]);
        assert_eq!(zp, 1.0);
        assert!((scale - 2.0 / 255.0).abs() < 1e-9);
        assert_eq!(wire[8], 0); // 1.0 -> q = 0
        assert_eq!(wire[10], 0); // NaN -> q = 0
        assert_eq!(wire[11], 255); // 3.0 -> q = 255
        let mut out = [0.0f32; 4];
        unpack_int8(Backend::Scalar, &mut out, &wire, 4, 1.0);
        assert_eq!(out[0], 1.0); // zero-point is exact
        assert_eq!(out[2], 1.0); // NaN became the zero-point
        assert!((out[3] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn int8_degenerate_rows() {
        // Constant row: scale 0, every element dequantizes exactly.
        let src = [7.5f32; 6];
        let mut wire = vec![0u8; 6 + INT8_HEADER_BYTES];
        pack_int8(Backend::Scalar, &mut wire, &src, 6);
        let mut out = [0.0f32; 6];
        unpack_int8(Backend::Scalar, &mut out, &wire, 6, 1.0);
        assert_eq!(out, src);
        // Infinite span collapses to zeros rather than NaN.
        let src = [f32::NEG_INFINITY, 0.0, 1.0];
        pack_int8(Backend::Scalar, &mut wire[..3 + INT8_HEADER_BYTES], &src, 3);
        let mut out = [9.0f32; 3];
        unpack_int8(
            Backend::Scalar,
            &mut out,
            &wire[..3 + INT8_HEADER_BYTES],
            3,
            1.0,
        );
        assert_eq!(out, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn rand_at_is_a_pure_function_of_position() {
        let a = rand_at(42, 3, 17);
        assert_eq!(a, rand_at(42, 3, 17));
        assert_ne!(a, rand_at(42, 3, 18));
        assert_ne!(a, rand_at(42, 4, 17));
        assert_ne!(a, rand_at(43, 3, 17));
    }

    #[test]
    fn sr_is_deterministic_for_fixed_seed() {
        let src: Vec<f32> = (0..32).map(|i| (i as f32) * 0.37 - 4.0).collect();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        pack_f16_sr(Backend::Scalar, &mut a, &src, 8, 99);
        pack_f16_sr(Backend::Scalar, &mut b, &src, 8, 99);
        assert_eq!(a, b);
        pack_f16_sr(Backend::Scalar, &mut b, &src, 8, 100);
        assert_ne!(a, b);
    }
}
