//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer.
//! A span has a name, a start, an end, the span that caused it and the
//! op it belongs to. Spans stay in memory until [`Tracer::write_tsv`]
//! writes them out after the run. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name aggregate of span self times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    pub spans: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call, so workloads call it unconditionally.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans"))
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Records a span with explicit bounds (nanoseconds since the
    /// tracer's origin).
    #[cfg(test)]
    fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        SpanId(u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans"))
    }

    /// Runs `f` inside a span and returns its output with its wall time
    /// in seconds (measured whether or not the tracer is enabled).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, op, parent);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to its own interval.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p.0 as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Self and total time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.spans += 1;
            e.self_ns += own;
            e.total_ns += s.end_ns - s.start_ns;
        }
        out
    }

    /// Writes the per-layer self-time summary as `#` lines, then one
    /// tab-separated line per span: id, op, parent (-1 for a root), name,
    /// start and end in ns since the run's origin.
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# {header}")?;
        for (name, t) in self.layer_times() {
            writeln!(
                w,
                "# self {name} spans={} self_s={:.6} total_s={:.6}",
                t.spans,
                t.self_ns as f64 * 1e-9,
                t.total_ns as f64 * 1e-9
            )?;
        }
        writeln!(w, "id\top\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| i64::from(p.0));
            writeln!(
                w,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        // op [0, 100): children [10, 40) and [30, 60) overlap, so they
        // cover 50; a grandchild inside them does not count again.
        let op = t.push("op", 7, None, 0, 100);
        let a = t.push("a", 7, Some(op), 10, 40);
        t.push("b", 7, Some(op), 30, 60);
        t.push("leaf", 7, Some(a), 15, 20);
        // A child running past its parent's end is clipped.
        let other = t.push("op", 8, None, 200, 250);
        t.push("a", 8, Some(other), 240, 300);
        let times = t.layer_times();
        assert_eq!(
            times["op"],
            LayerTime {
                spans: 2,
                self_ns: 50 + 40,
                total_ns: 150
            }
        );
        assert_eq!(
            times["a"],
            LayerTime {
                spans: 2,
                self_ns: 25 + 60,
                total_ns: 90
            }
        );
        assert_eq!(
            times["b"],
            LayerTime {
                spans: 1,
                self_ns: 30,
                total_ns: 30
            }
        );
        assert_eq!(
            times["leaf"],
            LayerTime {
                spans: 1,
                self_ns: 5,
                total_ns: 5
            }
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", 1, None);
        t.end(id);
        assert_eq!(t.span("x", 1, Some(id), || 3).0, 3);
        assert_eq!(t.len(), 0);
        assert!(t.layer_times().is_empty());
    }
}
