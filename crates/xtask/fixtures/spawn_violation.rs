//! BNS-A007 fixture: thread spawning outside the allowlist.

pub fn leak_a_thread() {
    std::thread::spawn(|| {});
}
