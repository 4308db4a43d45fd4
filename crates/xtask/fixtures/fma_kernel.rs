// BNS-A001 fixture: a `mul_add` and an AVX-512 fused multiply-add
// intrinsic in a file the fixture config designates as a kernel, each
// caught at its call line (6 and 11).

pub fn fused(a: f32, b: f32, c: f32) -> f32 {
    a.mul_add(b, c)
}

#[target_feature(enable = "avx512f")]
pub fn fused_avx512(a: __m512, b: __m512, c: __m512) -> __m512 {
    _mm512_fmadd_ps(a, b, c)
}
