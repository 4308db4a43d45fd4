//! BNS-A001 fixture: the only `HashMap` in this kernel file is a field
//! type. No fn body names it (the cache is used through `self.m.get`),
//! so only the whole-file kernel ban catches it (fires at line 7).

#[derive(Default)]
pub struct Cache {
    m: std::collections::HashMap<u32, f32>,
}

impl Cache {
    pub fn get(&self, k: u32) -> Option<f32> {
        self.m.get(&k).copied()
    }
}
