//! BNS-A007 fixture: `#[cfg(test)]` on a `use` covers only that item, so
//! the spawn in the fn after it is production code (fires at line 8).

#[cfg(test)]
use std::thread;

pub fn real() {
    std::thread::spawn(|| {});
}
