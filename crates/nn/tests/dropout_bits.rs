//! The bit-packed [`DropMask`] against the f32-mask dropout it
//! replaced, bit for bit: the forward output, the backward product and
//! the RNG stream position afterwards, on every available SIMD backend.
//!
//! The reference is a transcription of the former kernel: a mask
//! matrix of `1/keep` or `0.0` from one `rng.bernoulli(keep)` per
//! element (`Matrix::from_fn`, row-major), applied with `hadamard`.
//! Inputs carry NaN, ±inf, -0.0 and subnormals, so a dropped element
//! must still come out as `x * 0.0` (NaN, -0.0), never as a forced
//! `+0.0`.

use bns_nn::DropMask;
use bns_tensor::simd::{self, Backend};
use bns_tensor::{Matrix, SeededRng};
use proptest::prelude::*;

/// The former `dropout` + its backward `hadamard`, on one row.
fn reference(x: &[f32], up: &[f32], rate: f32, rng: &mut SeededRng) -> (Vec<u32>, Vec<u32>) {
    let _scalar = simd::force(Backend::Scalar);
    let keep = 1.0 - rate;
    let mask = Matrix::from_fn(1, x.len(), |_, _| {
        if rng.bernoulli(keep as f64) {
            1.0 / keep
        } else {
            0.0
        }
    });
    let fwd = Matrix::from_vec(1, x.len(), x.to_vec()).hadamard(&mask);
    let bwd = Matrix::from_vec(1, up.len(), up.to_vec()).hadamard(&mask);
    (bits(fwd.as_slice()), bits(bwd.as_slice()))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `len` values mixing finite numbers with every special class.
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SeededRng::new(seed);
    (0..len)
        .map(|_| match rng.next_u64() % 9 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 => 1.0e-40,
            _ => rng.uniform_range(-4.0, 4.0),
        })
        .collect()
}

/// Checks one (length, rate, seed) case on every available backend.
fn check(len: usize, rate: f32, seed: u64) -> Result<(), String> {
    let x = values(len, seed);
    let up = values(len, seed ^ 0x5eed);
    let mut ref_rng = SeededRng::new(seed);
    let (want_fwd, want_bwd) = reference(&x, &up, rate, &mut ref_rng);
    let want_next = ref_rng.next_u64();
    for bk in Backend::ALL.into_iter().filter(|b| b.is_available()) {
        let _g = simd::force(bk);
        let mut rng = SeededRng::new(seed);
        let mut mask = DropMask::default();
        mask.draw(len, rate, &mut rng);
        let (mut fwd, mut bwd) = (x.clone(), up.clone());
        mask.apply(&mut fwd);
        mask.apply(&mut bwd);
        let tag = format!("len {len} rate {rate} seed {seed} on {}", bk.name());
        if bits(&fwd) != want_fwd {
            return Err(format!("forward differs: {tag}"));
        }
        if bits(&bwd) != want_bwd {
            return Err(format!("backward differs: {tag}"));
        }
        if rng.next_u64() != want_next {
            return Err(format!("RNG stream position differs: {tag}"));
        }
    }
    Ok(())
}

/// The listed rates (0.5 and 0.75 make `keep · 2⁵³` an integer, so the
/// threshold has no rounding slack) at the word-boundary lengths.
#[test]
fn listed_rates_and_lengths_match_reference() {
    for rate in [0.0f32, 0.1, 0.3, 0.5, 0.75, 0.9] {
        for len in [1usize, 63, 64, 65, 1000] {
            for seed in [1u64, 42, 0xdead_beef] {
                if let Err(e) = check(len, rate, seed) {
                    panic!("{e}");
                }
            }
        }
    }
}

/// A rate so small that `keep` rounds to 1.0 draws nothing, like
/// `bernoulli(1.0)`.
#[test]
fn keep_of_one_draws_nothing() {
    let mut rng = SeededRng::new(9);
    let next = rng.clone().next_u64();
    let mut mask = DropMask::default();
    mask.draw(100, 1.0e-9, &mut rng);
    assert_eq!(rng.next_u64(), next);
    assert!((0..100).all(|j| mask.keeps(j)));
    check(100, 1.0e-9, 9).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random rates and lengths.
    #[test]
    fn random_rates_and_lengths_match_reference(
        len in 1usize..700,
        rate in 0.0f32..0.99,
        seed in 0u64..1_000_000,
    ) {
        let res = check(len, rate, seed);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}

#[test]
#[should_panic(expected = "dropout rate must be in [0,1)")]
fn rate_of_one_is_rejected() {
    DropMask::default().draw(4, 1.0, &mut SeededRng::new(0));
}
