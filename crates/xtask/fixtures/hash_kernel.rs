//! BNS-A001 fixture: hash collections in a file configured as a kernel
//! (listed in `AnalyzeConfig::kernel_files`).

use std::collections::HashMap;

pub fn degree_sum(degrees: &HashMap<usize, usize>) -> usize {
    degrees.values().sum()
}
