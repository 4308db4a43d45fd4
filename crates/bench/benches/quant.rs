//! Criterion micro-benchmarks for the wire codecs: pack/unpack
//! throughput for f16/bf16/int8 (round-to-nearest and stochastic
//! rounding), forced-scalar vs every vector backend this CPU runs, on
//! a boundary-block-sized input (2048 rows × 128 floats — 1 MB).
//!
//! The codecs are bitwise identical across backends by construction
//! (see `crates/tensor/tests/codec_roundtrip.rs`), so the scalar/simd
//! pairs measure pure throughput. The interesting number is MB/s
//! against the exchange's wire bandwidth: packing must be far cheaper
//! than the bytes it saves for the codec to be a win, and the
//! CHANGELOG records the measured margins.

use bns_tensor::simd::{self, codec, Backend};
use bns_tensor::SeededRng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const ROWS: usize = 2_048;
const D: usize = 128;

/// Benchmarks `f` forced to scalar and forced to every vector backend
/// this CPU runs, under the given suffix labels.
fn bench_forced(c: &mut Criterion, name: &str, mut f: impl FnMut(Backend)) {
    c.bench_function(&format!("{name}_scalar"), |bch| {
        let _g = simd::force(Backend::Scalar);
        bch.iter(|| f(simd::begin_kernel()));
    });
    for bk in Backend::ALL {
        if bk == Backend::Scalar || !bk.is_available() {
            continue;
        }
        c.bench_function(&format!("{name}_simd_{}", bk.name()), |bch| {
            let _g = simd::force(bk);
            bch.iter(|| f(simd::begin_kernel()));
        });
    }
}

fn block() -> Vec<f32> {
    let mut rng = SeededRng::new(11);
    (0..ROWS * D)
        .map(|_| rng.uniform_range(-4.0, 4.0))
        .collect()
}

fn bench_pack(c: &mut Criterion) {
    let src = block();
    let mut half = vec![0u8; ROWS * D * 2];
    let mut i8w = vec![0u8; ROWS * (D + codec::INT8_HEADER_BYTES)];
    bench_forced(c, "quant_pack_f16_2k_d128", |bk| {
        codec::pack_f16(bk, &mut half, &src);
        black_box(half.first());
    });
    bench_forced(c, "quant_pack_bf16_2k_d128", |bk| {
        codec::pack_bf16(bk, &mut half, &src);
        black_box(half.first());
    });
    bench_forced(c, "quant_pack_int8_2k_d128", |bk| {
        codec::pack_int8(bk, &mut i8w, &src, D);
        black_box(i8w.first());
    });
}

fn bench_pack_sr(c: &mut Criterion) {
    let src = block();
    let mut half = vec![0u8; ROWS * D * 2];
    let mut i8w = vec![0u8; ROWS * (D + codec::INT8_HEADER_BYTES)];
    bench_forced(c, "quant_pack_f16_sr_2k_d128", |bk| {
        codec::pack_f16_sr(bk, &mut half, &src, D, 0x5eed);
        black_box(half.first());
    });
    bench_forced(c, "quant_pack_bf16_sr_2k_d128", |bk| {
        codec::pack_bf16_sr(bk, &mut half, &src, D, 0x5eed);
        black_box(half.first());
    });
    bench_forced(c, "quant_pack_int8_sr_2k_d128", |bk| {
        codec::pack_int8_sr(bk, &mut i8w, &src, D, 0x5eed);
        black_box(i8w.first());
    });
}

fn bench_unpack(c: &mut Criterion) {
    let src = block();
    let mut f16w = vec![0u8; ROWS * D * 2];
    codec::pack_f16(Backend::Scalar, &mut f16w, &src);
    let mut bf16w = vec![0u8; ROWS * D * 2];
    codec::pack_bf16(Backend::Scalar, &mut bf16w, &src);
    let mut i8w = vec![0u8; ROWS * (D + codec::INT8_HEADER_BYTES)];
    codec::pack_int8(Backend::Scalar, &mut i8w, &src, D);
    let mut out = vec![0.0f32; ROWS * D];
    // scale = 10.0 exercises the lanewise feature-scale multiply (the
    // 1/p rescale of the feature path; the gradient path's scale = 1.0
    // skips it).
    bench_forced(c, "quant_unpack_f16_2k_d128", |bk| {
        codec::unpack_f16(bk, &mut out, &f16w, 10.0);
        black_box(out.first());
    });
    bench_forced(c, "quant_unpack_bf16_2k_d128", |bk| {
        codec::unpack_bf16(bk, &mut out, &bf16w, 10.0);
        black_box(out.first());
    });
    bench_forced(c, "quant_unpack_int8_2k_d128", |bk| {
        codec::unpack_int8(bk, &mut out, &i8w, D, 10.0);
        black_box(out.first());
    });
}

criterion_group!(
    name = quant;
    config = Criterion::default().sample_size(10);
    targets = bench_pack, bench_pack_sr, bench_unpack
);
criterion_main!(quant);
