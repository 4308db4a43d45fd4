//! BNS-A007 fixture: thread spawning inside a `#[cfg(test)]` module is
//! exempt.

pub fn fine() {}

#[cfg(test)]
mod tests {
    #[test]
    fn helper_threads_are_allowed_in_tests() {
        std::thread::spawn(|| {}).join().unwrap();
    }
}
