//! Round-trip, error-bound, unbiasedness and cross-backend determinism
//! properties of the wire codecs (`bns_tensor::simd::codec`).
//!
//! The codecs carry the quantized boundary exchange, so they inherit
//! the SIMD backend's determinism contract: every pack/unpack must be
//! bitwise identical on every backend this CPU supports, for both the
//! round-to-nearest feature path and the stochastically rounded
//! gradient path (whose randomness is counter-based, hence
//! position-pure). On top of that the formats promise analytic error
//! bounds — int8 is within half a step of the per-row affine grid,
//! f16/bf16 reproduce exactly-representable values exactly, and
//! stochastic rounding is unbiased in expectation.

use bns_tensor::simd::{codec, Backend};
use bns_tensor::SeededRng;
use proptest::prelude::*;

/// A pack kernel under test: name, the boxed pack closure, and the
/// wire-buffer size it expects.
type PackCase<'a> = (&'a str, Box<dyn Fn(Backend, &mut [u8]) + 'a>, usize);
/// An unpack kernel under test: name and the boxed unpack closure.
type UnpackCase<'a> = (&'a str, Box<dyn Fn(Backend, &mut [f32]) + 'a>);

/// Every backend this CPU can run, scalar first (the reference).
fn backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|bk| bk.is_available())
        .collect()
}

/// Random row-major data in a training-like range with a few exact
/// values planted (so the "representable stays exact" corner is always
/// exercised).
fn sample_rows(rng: &mut SeededRng, rows: usize, d: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..rows * d)
        .map(|_| rng.uniform_range(-8.0, 8.0))
        .collect();
    for s in [0.0f32, -0.0, 1.0, -2.5] {
        let at = rng.usize_below(v.len().max(1));
        if !v.is_empty() {
            v[at] = s;
        }
    }
    v
}

/// Turns some rows of `src` into the int8 fold's corner cases: `+0.0`
/// and `-0.0` tied as the row min or the row max, in both orders at
/// random positions (so the tie may span lanes and vectors), a leading
/// NaN, and all-NaN, constant and ±∞ rows.
fn plant_corner_rows(rng: &mut SeededRng, src: &mut [f32], d: usize) {
    for row in src.chunks_exact_mut(d) {
        let (i, j) = (rng.usize_below(d), rng.usize_below(d));
        let case = rng.usize_below(10);
        if (1..=4).contains(&case) {
            // Every other element strictly positive (min ties) or
            // strictly negative (max ties).
            let sign = if case <= 2 { 1.0 } else { -1.0 };
            for x in row.iter_mut() {
                *x = sign * (x.abs() + 0.5);
            }
            let (a, b) = if case % 2 == 1 {
                (0.0, -0.0)
            } else {
                (-0.0, 0.0)
            };
            row[i.min(j)] = a;
            if i != j {
                row[i.max(j)] = b;
            }
        }
        match case {
            5 => row[0] = f32::NAN,
            6 => row.fill(f32::NAN),
            7 => row.fill(row[0]),
            8 => row[i] = f32::INFINITY,
            9 => row.fill(f32::NEG_INFINITY),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// int8: every finite element dequantizes to within half a
    /// quantization step of the original (round-to-nearest onto the
    /// per-row affine grid), and the row min/max endpoints are exact.
    #[test]
    fn int8_roundtrip_error_is_within_half_step(
        rows in 1usize..12, d in 1usize..40, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let src = sample_rows(&mut rng, rows, d);
        let rb = d + codec::INT8_HEADER_BYTES;
        let mut wire = vec![0u8; rows * rb];
        codec::pack_int8(Backend::Scalar, &mut wire, &src, d);
        let mut out = vec![0.0f32; rows * d];
        codec::unpack_int8(Backend::Scalar, &mut out, &wire, d, 1.0);
        for (row, (srow, orow)) in src.chunks_exact(d).zip(out.chunks_exact(d)).enumerate() {
            let scale = f32::from_le_bytes(wire[row * rb..row * rb + 4].try_into().unwrap());
            // Half a step, plus slack for the f32 rounding of
            // (x - zp) * inv and zp + q * scale themselves.
            let bound = 0.5 * scale * (1.0 + 1e-5) + 1e-6;
            for (j, (&x, &y)) in srow.iter().zip(orow).enumerate() {
                prop_assert!(
                    (x - y).abs() <= bound,
                    "row {row} elem {j}: {x} -> {y}, step {scale}"
                );
            }
            let lo = srow.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = srow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(orow.contains(&lo), "row min must be exact");
            if scale > 0.0 {
                let hi_deq = orow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(
                    (hi_deq - hi).abs() <= 1e-4 * hi.abs().max(1.0),
                    "row max {hi} came back {hi_deq}"
                );
            }
        }
    }

    /// f16/bf16: a value that is exactly representable in the narrow
    /// format round-trips bitwise. Representable values are generated
    /// from the narrow side (every finite f16/bf16 widens exactly).
    #[test]
    fn half_formats_are_exact_on_representable_values(bits in 0u16..=u16::MAX) {
        // f16: skip inf/NaN encodings (exp field all ones).
        if bits & 0x7c00 != 0x7c00 {
            let x = codec::f16_to_f32(bits);
            prop_assert_eq!(codec::f32_to_f16_rne(x), bits);
        }
        // bf16: skip inf/NaN encodings (exp field all ones).
        if bits & 0x7f80 != 0x7f80 {
            let x = codec::bf16_to_f32(bits);
            prop_assert_eq!(codec::f32_to_bf16_rne(x), bits);
        }
    }

    /// Every pack/unpack kernel is bitwise identical across backends —
    /// the property that lets a heterogeneous set of ranks (or a CI
    /// matrix of `BNS_SIMD` values) exchange quantized rows and still
    /// train deterministically.
    #[test]
    fn codec_kernels_bitwise_across_backends(
        rows in 1usize..10, d in 1usize..80, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let mut src = sample_rows(&mut rng, rows, d);
        plant_corner_rows(&mut rng, &mut src, d);
        // NaN and ±∞ must not break cross-backend identity either.
        let n = src.len();
        src[rng.usize_below(n)] = f32::NAN;
        src[rng.usize_below(n)] = f32::INFINITY;
        let scale = rng.uniform_range(0.5, 4.0);
        let sr_seed = rng.next_u64();

        let half = vec![0u8; rows * d * 2];
        let i8w = vec![0u8; rows * (d + codec::INT8_HEADER_BYTES)];
        let packs: [PackCase; 6] = [
            ("pack_f16", Box::new(|bk, w: &mut [u8]| codec::pack_f16(bk, w, &src)), half.len()),
            ("pack_bf16", Box::new(|bk, w: &mut [u8]| codec::pack_bf16(bk, w, &src)), half.len()),
            (
                "pack_f16_sr",
                Box::new(|bk, w: &mut [u8]| codec::pack_f16_sr(bk, w, &src, d, sr_seed)),
                half.len(),
            ),
            (
                "pack_bf16_sr",
                Box::new(|bk, w: &mut [u8]| codec::pack_bf16_sr(bk, w, &src, d, sr_seed)),
                half.len(),
            ),
            (
                "pack_int8",
                Box::new(|bk, w: &mut [u8]| codec::pack_int8(bk, w, &src, d)),
                i8w.len(),
            ),
            (
                "pack_int8_sr",
                Box::new(|bk, w: &mut [u8]| codec::pack_int8_sr(bk, w, &src, d, sr_seed)),
                i8w.len(),
            ),
        ];
        for (name, pack, len) in &packs {
            let mut reference = vec![0u8; *len];
            pack(Backend::Scalar, &mut reference);
            for bk in backends() {
                let mut got = vec![0u8; *len];
                pack(bk, &mut got);
                prop_assert_eq!(&reference, &got, "{} diverged on {}", name, bk.name());
            }
        }

        // Unpack: pack once on scalar, unpack on every backend; the
        // lanewise scale multiply must not change a single bit.
        let mut f16w = vec![0u8; rows * d * 2];
        codec::pack_f16(Backend::Scalar, &mut f16w, &src);
        let mut bf16w = vec![0u8; rows * d * 2];
        codec::pack_bf16(Backend::Scalar, &mut bf16w, &src);
        let mut int8w = vec![0u8; rows * (d + codec::INT8_HEADER_BYTES)];
        codec::pack_int8(Backend::Scalar, &mut int8w, &src, d);
        let unpacks: [UnpackCase; 3] = [
            (
                "unpack_f16",
                Box::new(|bk, o: &mut [f32]| codec::unpack_f16(bk, o, &f16w, scale)),
            ),
            (
                "unpack_bf16",
                Box::new(|bk, o: &mut [f32]| codec::unpack_bf16(bk, o, &bf16w, scale)),
            ),
            (
                "unpack_int8",
                Box::new(|bk, o: &mut [f32]| codec::unpack_int8(bk, o, &int8w, d, scale)),
            ),
        ];
        for (name, unpack) in &unpacks {
            let mut reference = vec![0.0f32; rows * d];
            unpack(Backend::Scalar, &mut reference);
            for bk in backends() {
                let mut got = vec![0.0f32; rows * d];
                unpack(bk, &mut got);
                let same = reference
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                prop_assert!(same, "{} diverged on {}", name, bk.name());
            }
        }
    }

    /// Stochastic rounding never lands anywhere but the two bracketing
    /// grid points, and its per-position randomness is position-pure:
    /// packing the same rows twice under one seed is byte-identical.
    #[test]
    fn sr_stays_on_bracketing_grid_points(
        rows in 1usize..8, d in 1usize..24, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let src = sample_rows(&mut rng, rows, d);
        let sr_seed = rng.next_u64();
        let mut wire = vec![0u8; rows * d * 2];
        codec::pack_f16_sr(Backend::Scalar, &mut wire, &src, d, sr_seed);
        let mut again = vec![0u8; rows * d * 2];
        codec::pack_f16_sr(Backend::Scalar, &mut again, &src, d, sr_seed);
        prop_assert_eq!(&wire, &again, "SR must be deterministic per seed");
        for (&x, h2) in src.iter().zip(wire.chunks_exact(2)) {
            let y = codec::f16_to_f32(u16::from_le_bytes([h2[0], h2[1]]));
            let down = codec::f16_to_f32(codec::f32_to_f16_rne(x));
            // y is either RNE's choice or its neighbor one ulp toward
            // the other side of x — never further than one f16 step.
            let lo = down.min(x);
            let hi = down.max(x);
            let step = (hi - lo).abs().max(f32::EPSILON);
            prop_assert!(
                (y - x).abs() <= 2.0 * step + 2.0 * (x.abs() * 0.001),
                "SR of {x} landed at {y}, too far off the grid"
            );
        }
    }
}

/// SR unbiasedness: averaging the dequantized value over many
/// independent seeds converges to the input, for every format. RNE by
/// contrast has a fixed bias for a value sitting off-center between
/// grid points — which is exactly why the gradient path uses SR.
#[test]
fn stochastic_rounding_is_unbiased() {
    // Values chosen off-grid in every format (f16 step at 1.2 is
    // ~0.00098; bf16 step is ~0.0078; int8 step depends on the row).
    let src = [1.2003f32, -0.7377, 3.2083, 0.0101];
    let d = src.len();
    let trials = 4000u64;

    let mut sums = [[0.0f64; 4]; 3];
    for t in 0..trials {
        let seed = 0x5eed_0000 + t;
        let mut f16w = vec![0u8; d * 2];
        codec::pack_f16_sr(Backend::Scalar, &mut f16w, &src, d, seed);
        let mut bf16w = vec![0u8; d * 2];
        codec::pack_bf16_sr(Backend::Scalar, &mut bf16w, &src, d, seed);
        let mut i8w = vec![0u8; d + codec::INT8_HEADER_BYTES];
        codec::pack_int8_sr(Backend::Scalar, &mut i8w, &src, d, seed);

        let mut out = vec![0.0f32; d];
        codec::unpack_f16(Backend::Scalar, &mut out, &f16w, 1.0);
        for (s, &y) in sums[0].iter_mut().zip(&out) {
            *s += y as f64;
        }
        codec::unpack_bf16(Backend::Scalar, &mut out, &bf16w, 1.0);
        for (s, &y) in sums[1].iter_mut().zip(&out) {
            *s += y as f64;
        }
        codec::unpack_int8(Backend::Scalar, &mut out, &i8w, d, 1.0);
        for (s, &y) in sums[2].iter_mut().zip(&out) {
            *s += y as f64;
        }
    }
    // int8's grid is shared by the whole row: one step is
    // (max - min)/255 regardless of the element's own magnitude, so a
    // small element in a wide row sees the full row step as its noise
    // scale.
    let lo = src.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
    let hi = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
    let int8_step = (hi - lo) / 255.0;
    for (fmt, sums) in ["f16", "bf16", "int8"].iter().zip(&sums) {
        for (&x, &s) in src.iter().zip(sums) {
            let mean = s / trials as f64;
            // The mean must sit within a small fraction of one
            // quantization step of the input (the empirical-mean noise
            // is ~step/(2·√trials) ≈ 0.008·step, so 0.05·step is ~6σ).
            // bf16's step at these magnitudes is ~2^-8 of the value;
            // use that as the yard for the float formats.
            let step = if *fmt == "int8" {
                int8_step
            } else {
                (x.abs() as f64) / 128.0 + 1e-4
            };
            assert!(
                (mean - x as f64).abs() < 0.05 * step + 5e-5,
                "{fmt}: E[deq({x})] = {mean}, off by more than SR noise"
            );
        }
    }
}

/// NaN policy across formats: the half formats carry NaN through the
/// wire, int8 replaces it with the row zero-point (finite), and no
/// format ever turns a non-NaN into NaN.
#[test]
fn nan_policy_per_format() {
    let src = [f32::NAN, 1.0f32, 2.0, 3.0];
    let d = src.len();

    let mut f16w = vec![0u8; d * 2];
    codec::pack_f16(Backend::Scalar, &mut f16w, &src);
    let mut out = vec![0.0f32; d];
    codec::unpack_f16(Backend::Scalar, &mut out, &f16w, 2.0);
    assert!(out[0].is_nan(), "f16 must preserve NaN");
    assert!(out[1..].iter().all(|x| x.is_finite()));

    let mut bf16w = vec![0u8; d * 2];
    codec::pack_bf16(Backend::Scalar, &mut bf16w, &src);
    codec::unpack_bf16(Backend::Scalar, &mut out, &bf16w, 2.0);
    assert!(out[0].is_nan(), "bf16 must preserve NaN");
    assert!(out[1..].iter().all(|x| x.is_finite()));

    let mut i8w = vec![0u8; d + codec::INT8_HEADER_BYTES];
    codec::pack_int8(Backend::Scalar, &mut i8w, &src, d);
    codec::unpack_int8(Backend::Scalar, &mut out, &i8w, d, 2.0);
    assert!(out.iter().all(|x| x.is_finite()), "int8 drops NaN to zp");
    assert_eq!(out[0], 2.0, "NaN became zero-point (1.0) x scale (2.0)");
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rows of width `d` that hit every corner of the int8 packs: seeded
/// training-range rows, post-ReLU rows (half `+0.0`), `+0.0`/`-0.0`
/// ties in both orders as the row min and as the row max (at nearby
/// and at far-apart positions, so the tie spans lanes and vectors), a
/// leading NaN, all-NaN, constant and ±∞ rows, and a row on the
/// integer grid whose elements sit exactly on and just below the
/// rounding ties.
fn int8_corner_rows(rng: &mut SeededRng, d: usize) -> Vec<f32> {
    let mut rows: Vec<Vec<f32>> = Vec::new();
    for _ in 0..3 {
        rows.push((0..d).map(|_| rng.uniform_range(-8.0, 8.0)).collect());
    }
    rows.push(
        (0..d)
            .map(|_| rng.uniform_range(-2.0, 2.0).max(0.0))
            .collect(),
    );
    let positive =
        |rng: &mut SeededRng| -> Vec<f32> { (0..d).map(|_| rng.uniform_range(0.5, 4.0)).collect() };
    let (near, far) = (d / 3, d - 1);
    // Positions 15 and 17 put the first zero in a higher lane than the
    // second at every vector width (lanes 15 and 1, 7 and 1, 3 and 1).
    let lanes_apart = (15.min(d - 1), 17.min(d - 1));
    for (a, b) in [(0.0f32, -0.0f32), (-0.0, 0.0)] {
        for (i, j) in [(0, near.max(1).min(d - 1)), (near, far), lanes_apart] {
            // Zeros as the row min (every other element positive)...
            let mut r = positive(rng);
            r[i] = a;
            if j != i {
                r[j] = b;
            }
            rows.push(r);
            // ...and as the row max (every other element negative).
            let mut r: Vec<f32> = positive(rng).iter().map(|x| -x).collect();
            r[i] = a;
            if j != i {
                r[j] = b;
            }
            rows.push(r);
        }
    }
    let mut r = positive(rng);
    r[0] = f32::NAN;
    rows.push(r);
    rows.push(vec![f32::NAN; d]);
    rows.push(vec![2.75; d]);
    rows.push(vec![-0.0; d]);
    for inf in [f32::INFINITY, f32::NEG_INFINITY] {
        let mut r = positive(rng);
        r[d / 2] = inf;
        rows.push(r);
        rows.push(vec![inf; d]);
    }
    // Row min 0 and max 255 make the affine map the identity, so these
    // elements reach the rounding step unchanged: half-way ties round
    // away from zero, 0.49999997 rounds down.
    let ties = [0.5f32, 1.5, 2.5, 0.499_999_97, 254.5, 127.5, 3.0];
    let mut r: Vec<f32> = (0..d).map(|j| ties[j % ties.len()]).collect();
    r[0] = 0.0;
    r[d - 1] = 255.0;
    rows.push(r);
    rows.concat()
}

/// The int8 pack bytes are pinned to values recorded from the scalar
/// fold-and-round implementation, on every backend this CPU runs, at
/// widths that take every strip and step-down tail.
#[test]
fn int8_pack_matches_recorded_bytes() {
    let (mut rne, mut sr) = (Vec::new(), Vec::new());
    for d in [1usize, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 40, 64, 79, 128] {
        let mut rng = SeededRng::new(0x1e8 + d as u64);
        let src = int8_corner_rows(&mut rng, d);
        let rows = src.len() / d;
        let sr_seed = rng.next_u64();
        let len = rows * (d + codec::INT8_HEADER_BYTES);
        let pack = |bk| {
            let (mut wire, mut wire_sr) = (vec![0u8; len], vec![0u8; len]);
            codec::pack_int8(bk, &mut wire, &src, d);
            codec::pack_int8_sr(bk, &mut wire_sr, &src, d, sr_seed);
            (wire, wire_sr)
        };
        let (want, want_sr) = pack(Backend::Scalar);
        for bk in backends() {
            let (wire, wire_sr) = pack(bk);
            assert_eq!(wire, want, "pack_int8 d = {d} on {}", bk.name());
            assert_eq!(wire_sr, want_sr, "pack_int8_sr d = {d} on {}", bk.name());
        }
        rne.extend(want);
        sr.extend(want_sr);
    }
    assert_eq!(
        (fnv1a(&rne), fnv1a(&sr)),
        (0x730f_7dce_aa8d_8adc, 0x5494_8ff7_967d_0aae),
        "(pack_int8, pack_int8_sr)"
    );
}
