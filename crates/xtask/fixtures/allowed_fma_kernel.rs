//! BNS-A001 fixture: no allow comment excuses a banned token in a kernel
//! file. `mul_add` still fires (line 7), and the allow, suppressing
//! nothing, is itself flagged as unused (BNS-A000, line 6).

pub fn axpy(a: f32, x: f32, y: f32) -> f32 {
    // bns-allow(BNS-A001): one rounding is fine here
    a.mul_add(x, y)
}
