//! BNS-A006 fixture: a properly documented unsafe site. It has its
//! SAFETY comment but must be registered in the unsafe ledger.

// SAFETY: the caller guarantees `p` is valid for writes of one byte.
pub unsafe fn zero(p: *mut u8) {
    *p = 0;
}
