//! Self-time aggregation over captured spans.
//!
//! The telemetry collector stores flat spans (name, thread, start,
//! duration, args) without parent links. Spans of one thread nest by
//! time, so the parent of a span is the innermost span of the same
//! thread whose interval contains it. A span's self time is its
//! duration minus the part of its interval that its children cover.

use std::collections::BTreeMap;

/// One completed span, reduced to what aggregation needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub tid: u32,
    /// The span's `layer` argument, if it has one.
    pub layer: Option<usize>,
    pub start: f64,
    pub dur: f64,
}

impl Span {
    fn end(&self) -> f64 {
        self.start + self.dur
    }

    fn contains(&self, other: &Span) -> bool {
        other.start >= self.start && other.end() <= self.end()
    }
}

impl From<&bns_telemetry::SpanEvent> for Span {
    fn from(ev: &bns_telemetry::SpanEvent) -> Self {
        let layer = ev.args.iter().find_map(|(k, v)| match (k, v) {
            (&"layer", bns_telemetry::ArgValue::U64(l)) => Some(*l as usize),
            _ => None,
        });
        Span {
            name: ev.name.to_string(),
            tid: ev.tid,
            layer,
            start: ev.ts_s,
            dur: ev.dur_s,
        }
    }
}

/// Self time of every span, in input order.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    // Visit spans thread by thread in start order, longest first on
    // ties, so a parent is always visited before its children.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        let (x, y) = (&spans[a], &spans[b]);
        x.tid
            .cmp(&y.tid)
            .then(x.start.total_cmp(&y.start))
            .then(y.dur.total_cmp(&x.dur))
            .then(a.cmp(&b))
    });
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            if spans[top].tid == spans[i].tid && spans[top].contains(&spans[i]) {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            children[parent].push(i);
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.dur - covered(kids.iter().map(|&k| &spans[k])))
        .collect()
}

/// Length of the union of the intervals of `spans`, which arrive sorted
/// by start.
fn covered<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    let mut total = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for s in spans {
        run = match run {
            Some((lo, hi)) if s.start <= hi => Some((lo, hi.max(s.end()))),
            Some((lo, hi)) => {
                total += hi - lo;
                Some((s.start, s.end()))
            }
            None => Some((s.start, s.end())),
        };
    }
    if let Some((lo, hi)) = run {
        total += hi - lo;
    }
    total
}

/// Self time per (span name, layer), as `(max over threads, sum over
/// threads)` of each thread's total, in seconds.
pub fn self_time_by_key(spans: &[Span]) -> BTreeMap<(String, Option<usize>), (f64, f64)> {
    let selfs = self_times(spans);
    let mut per_thread: BTreeMap<(String, Option<usize>), BTreeMap<u32, f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *per_thread
            .entry((s.name.clone(), s.layer))
            .or_default()
            .entry(s.tid)
            .or_default() += t;
    }
    per_thread
        .into_iter()
        .map(|(key, by_tid)| {
            let max = by_tid.values().copied().fold(0.0, f64::max);
            let sum = by_tid.values().sum();
            (key, (max, sum))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u32, layer: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            tid,
            layer,
            start,
            dur: end - start,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = vec![
            span("epoch", 0, None, 0.0, 10.0),
            span("compute", 0, Some(0), 1.0, 4.0),
            span("inner", 0, None, 2.0, 3.0),
            span("exchange", 0, Some(0), 5.0, 6.0),
            // Another thread's span overlapping in time is no child.
            span("epoch", 1, None, 0.5, 9.0),
        ];
        let st = self_times(&spans);
        assert!(close(st[0], 10.0 - 3.0 - 1.0), "{st:?}");
        assert!(close(st[1], 3.0 - 1.0), "{st:?}");
        assert!(close(st[2], 1.0));
        assert!(close(st[3], 1.0));
        assert!(close(st[4], 8.5));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two siblings that overlap each other (neither contains the
        // other) cover their union, not the sum of their lengths.
        let spans = vec![
            span("epoch", 0, None, 0.0, 10.0),
            span("a", 0, None, 1.0, 5.0),
            span("b", 0, None, 4.0, 7.0),
        ];
        let st = self_times(&spans);
        assert!(close(st[0], 10.0 - 6.0), "{st:?}");
    }

    #[test]
    fn identical_intervals_nest_in_input_order() {
        let spans = vec![
            span("outer", 0, None, 1.0, 2.0),
            span("inner", 0, None, 1.0, 2.0),
        ];
        let st = self_times(&spans);
        assert!(close(st[0], 0.0));
        assert!(close(st[1], 1.0));
    }

    #[test]
    fn aggregation_keys_by_span_and_layer_with_max_and_sum_over_threads() {
        let spans = vec![
            span("compute", 0, Some(0), 0.0, 2.0),
            span("compute", 0, Some(0), 3.0, 4.0),
            span("compute", 1, Some(0), 0.0, 1.0),
            span("compute", 1, Some(1), 1.0, 5.0),
        ];
        let agg = self_time_by_key(&spans);
        let (max, sum) = agg[&("compute".to_string(), Some(0))];
        assert!(close(max, 3.0) && close(sum, 4.0));
        let (max, sum) = agg[&("compute".to_string(), Some(1))];
        assert!(close(max, 4.0) && close(sum, 4.0));
        assert_eq!(agg.len(), 2);
    }
}
