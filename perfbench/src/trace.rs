//! In-memory wall-clock spans around the calls into each layer.
//!
//! A span records its name, start, end, the span that caused it, and the
//! op it belongs to. Spans stay in memory while the benchmark runs and
//! are written out once at exit, so recording costs two clock reads and
//! a push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Spans opened from now on belong to `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated dump: one span per line with its self time.
    pub fn to_tsv(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("id\tname\top\tparent\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{own}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Each span's duration minus the durations of its direct children.
/// Children of one parent run one after another on the single client
/// thread, so their durations never overlap and the sum is the part of
/// the parent's interval they cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-name totals over the spans whose root is named `root`.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Self time per span name, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration per span name, in nanoseconds.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Spans per name.
    pub count: BTreeMap<&'static str, u64>,
    /// Summed duration of the root spans.
    pub root_ns: u64,
    /// Summed duration of the roots' direct children.
    pub covered_ns: u64,
}

impl LayerTotals {
    pub fn of(spans: &[Span], root: &str) -> Self {
        let selfs = self_times(spans);
        let root_of = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let mut t = LayerTotals::default();
        for (i, s) in spans.iter().enumerate() {
            if spans[root_of(i)].name != root {
                continue;
            }
            match s.parent {
                None => t.root_ns += s.duration_ns(),
                Some(p) if spans[p].parent.is_none() => t.covered_ns += s.duration_ns(),
                Some(_) => {}
            }
            if s.parent.is_some() {
                *t.self_ns.entry(s.name).or_default() += selfs[i];
                *t.total_ns.entry(s.name).or_default() += s.duration_ns();
                *t.count.entry(s.name).or_default() += 1;
            }
        }
        t
    }

    /// Share of root time the named layer spans cover.
    pub fn coverage(&self) -> f64 {
        self.covered_ns as f64 / self.root_ns.max(1) as f64
    }

    /// Share of root time spent in `name` itself (children excluded).
    pub fn self_share(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / self.root_ns.max(1) as f64
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.total_ns.get(name).copied().unwrap_or(0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) > a [10,40) > a.inner [15,35); op > b [50,90).
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
        let t = LayerTotals::of(&spans, "op");
        assert_eq!(t.root_ns, 100);
        assert_eq!(t.covered_ns, 70);
        assert!((t.coverage() - 0.7).abs() < 1e-12);
        assert!((t.self_share("a.inner") - 0.2).abs() < 1e-12);
        assert_eq!(t.total_ns("a"), 30);
        assert_eq!(t.count("b"), 1);
    }

    #[test]
    fn totals_ignore_other_roots() {
        let spans = vec![
            span("op", 0, 10, None),
            span("x", 0, 5, Some(0)),
            span("probe", 10, 30, None),
            span("x", 12, 28, Some(2)),
        ];
        let t = LayerTotals::of(&spans, "op");
        assert_eq!(t.total_ns("x"), 5);
        assert_eq!(LayerTotals::of(&spans, "probe").total_ns("x"), 16);
    }

    #[test]
    fn tracer_nests_and_attributes_ops() {
        let mut t = Tracer::default();
        t.set_op(3);
        t.span("op", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("c", |_| ()));
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.op == 3 && x.end_ns >= x.start_ns));
        let own: u64 = self_times(s).iter().sum();
        assert_eq!(own, s[0].duration_ns(), "self times partition the root");
        assert_eq!(t.to_tsv().lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::default();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
