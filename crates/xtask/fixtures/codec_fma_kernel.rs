// BNS-A001 fixture: FMA in a file the fixture config designates as a
// codec kernel — proving the kernel bans extend to the quantization
// codecs (fires at line 7). The dequant affine `zp + q * scale` is
// exactly the shape that tempts an FMA.

pub fn fused_dequant(q: f32, scale: f32, zp: f32) -> f32 {
    q.mul_add(scale, zp)
}
