//! BNS-A007 fixture: spawns no fn body names. The module-level `use`
//! fires (line 5), not the bare `spawn(..)` it enables, and so does the
//! spawn in a `macro_rules!` body (line 9).

use std::thread::spawn;

macro_rules! fork {
    () => {
        std::thread::spawn(|| {})
    };
}

pub fn real() {
    spawn(|| {});
    fork!();
}
