//! Byte-accurate traffic accounting.

/// What a message is for; lets experiments split epoch time into the
/// paper's three components (Figure 5 / Table 6: computation, boundary
/// communication, gradient all-reduce).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Boundary-node feature/gradient exchange (the traffic BNS shrinks).
    Boundary,
    /// Model-gradient AllReduce.
    AllReduce,
    /// Small control messages. The trainer sends none: both ends of a
    /// boundary derive the sampled selection locally.
    Control,
}

impl TrafficClass {
    /// All classes, in display order.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::Boundary,
        TrafficClass::AllReduce,
        TrafficClass::Control,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::Boundary => 0,
            TrafficClass::AllReduce => 1,
            TrafficClass::Control => 2,
        }
    }

    /// Telemetry counter fed with bytes sent in this class.
    pub fn counter_name(self) -> &'static str {
        match self {
            TrafficClass::Boundary => "comm.bytes_sent.boundary",
            TrafficClass::AllReduce => "comm.bytes_sent.allreduce",
            TrafficClass::Control => "comm.bytes_sent.control",
        }
    }
}

/// Per-rank counters of sent traffic.
///
/// Only the *send* side counts (every byte sent is received exactly once,
/// so send totals equal receive totals globally).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    bytes: [u64; 3],
    messages: [u64; 3],
}

impl TrafficStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sent message.
    pub fn record(&mut self, class: TrafficClass, bytes: usize) {
        self.bytes[class.index()] += bytes as u64;
        self.messages[class.index()] += 1;
    }

    /// Bytes sent in `class`.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Messages sent in `class`.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[class.index()]
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total messages across all classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Adds another rank's counters into this one (for global totals).
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..3 {
            self.bytes[i] += other.bytes[i];
            self.messages[i] += other.messages[i];
        }
    }

    /// Difference since an earlier snapshot (`self - earlier`).
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has larger counters (it must be a prefix of
    /// this rank's history).
    pub fn since(&self, earlier: &TrafficStats) -> TrafficStats {
        let mut out = TrafficStats::new();
        for i in 0..3 {
            assert!(
                self.bytes[i] >= earlier.bytes[i] && self.messages[i] >= earlier.messages[i],
                "snapshot is not a prefix"
            );
            out.bytes[i] = self.bytes[i] - earlier.bytes[i];
            out.messages[i] = self.messages[i] - earlier.messages[i];
        }
        out
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = TrafficStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut t = TrafficStats::new();
        t.record(TrafficClass::Boundary, 100);
        t.record(TrafficClass::Boundary, 50);
        t.record(TrafficClass::AllReduce, 8);
        assert_eq!(t.bytes(TrafficClass::Boundary), 150);
        assert_eq!(t.messages(TrafficClass::Boundary), 2);
        assert_eq!(t.total_bytes(), 158);
        assert_eq!(t.total_messages(), 3);
    }

    #[test]
    fn merge_and_since() {
        let mut a = TrafficStats::new();
        a.record(TrafficClass::Control, 4);
        let snap = a.clone();
        a.record(TrafficClass::Control, 6);
        let d = a.since(&snap);
        assert_eq!(d.bytes(TrafficClass::Control), 6);
        let mut g = TrafficStats::new();
        g.merge(&a);
        g.merge(&d);
        assert_eq!(g.total_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn since_rejects_non_prefix() {
        let a = TrafficStats::new();
        let mut b = TrafficStats::new();
        b.record(TrafficClass::Control, 1);
        let _ = a.since(&b);
    }
}
