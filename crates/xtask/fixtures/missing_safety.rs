//! BNS-A006 fixture: an unsafe block with no SAFETY comment.

pub fn zero(p: *mut u8) {
    unsafe {
        *p = 0;
    }
}
