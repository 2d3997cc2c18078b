//! The benchmark's own spans: one per layer call it makes, kept in
//! memory and written out when the workload ends.
//!
//! Spans are recorded from the benchmark's side of each public call into
//! a layer (graph build, `Sim::new`, an algorithm's `run`, a sweep), so a
//! layer's self time here is the time inside that call minus what the
//! benchmark's nested spans cover. Spans inside the program are not
//! recorded.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Index in record order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (or set-up repetition) the span belongs to; every span of
    /// one op shares it.
    pub op: u64,
    /// `<layer>.<call>`, or a bare harness name such as `op`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// The layer a span belongs to: the part of its name before the first
    /// `.`; bare names are the benchmark's own harness.
    pub fn layer(&self) -> &'static str {
        self.name
            .split_once('.')
            .map_or("harness", |(layer, _)| layer)
    }
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// untraced pass pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens span `name` of `op`, nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            id,
            parent: self.open.last().copied(),
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its duration in ns
    /// (0 when disabled).
    pub fn exit(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.open.pop().expect("span exit without an open span");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// The number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain — after a panic unwound
    /// past their exits.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Turns recording on or off; the untraced pass runs with it off.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time (ns) of every span, indexed by span id.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| self_time((s.start_ns, s.end_ns), &children[s.id]))
            .collect()
    }

    /// Self time (ns) summed per layer, layers in first-seen order.
    pub fn layer_self_times(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            match out.iter_mut().find(|(layer, _)| *layer == s.layer()) {
                Some((_, sum)) => *sum += t,
                None => out.push((s.layer(), t)),
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its length minus the part of it that the union of
/// its children covers. Children are clipped to the parent, and
/// overlapping children are counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_parts_only() {
        // No children: all of it is self time.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children inside the parent.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
        // Children that only partly cover the parent are clipped: 90..130
        // counts 10 and -20..5 counts 5.
        assert_eq!(self_time((0, 100), &[(90, 130), (0, 5)]), 85);
        assert_eq!(self_time((10, 100), &[(0, 15)]), 85);
        // Overlapping children count their union once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60), (55, 58)]), 50);
        // A child entirely outside covers nothing; a full cover leaves 0.
        assert_eq!(self_time((0, 100), &[(100, 200)]), 100);
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 30)]), 0);
    }

    #[test]
    fn tracer_nests_and_attributes_self_time_per_layer() {
        let mut t = Tracer::new(true);
        t.enter("op", 7);
        t.enter("radio.sim_new", 7);
        t.exit();
        t.enter("core.run", 7);
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let layers: Vec<&str> = t.layer_self_times().iter().map(|(l, _)| *l).collect();
        assert_eq!(layers, ["harness", "radio", "core"]);
        // Self times partition the root span's length exactly.
        let total: u64 = t.self_times().iter().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("op", 0);
        assert_eq!(t.exit(), 0);
        assert!(t.spans().is_empty());
    }
}
