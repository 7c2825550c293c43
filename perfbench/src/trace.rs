//! Benchmark-side spans around every call the benchmark makes into a layer.
//!
//! Spans are recorded only when tracing is on; with tracing off `begin` and
//! `end` are a branch each. Spans live in memory and are written out once,
//! when the run ends ([`Tracer::dump`]).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Handle on an open span (`NONE` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The `World::submit` ticket of the request this span belongs to, if any.
    pub ticket: Option<u64>,
}

/// Span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between measured episodes.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled with open spans");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            ticket: None,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (which must be the innermost open span).
    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Closes `id` and tags it with the request's ticket id.
    pub fn end_ticket(&mut self, id: SpanId, ticket: u64) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].ticket = Some(ticket);
        }
        self.end(id);
    }

    /// Host nanoseconds one `begin`/`end` pair costs, measured on a
    /// scratch tracer.
    pub fn span_cost_ns() -> f64 {
        const N: u32 = 200_000;
        let mut scratch = Tracer::new(true);
        let root = scratch.begin("bench.calibrate");
        let t0 = Instant::now();
        for i in 0..N {
            let s = scratch.begin("core.calibrate");
            scratch.end_ticket(s, u64::from(i));
        }
        let elapsed = t0.elapsed();
        scratch.end(root);
        elapsed.as_nanos() as f64 / f64::from(N)
    }

    /// Number of spans recorded so far (an episode's spans start at the
    /// count taken before it).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Each span's self time: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p as usize] = own[p as usize].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Summary of the spans recorded since index `from`.
    pub fn summarize(&self, from: usize) -> TraceSummary {
        let self_ns = self.self_ns();
        let mut summary = TraceSummary::default();
        for (i, span) in self.spans.iter().enumerate().skip(from) {
            let total = span.end_ns - span.start_ns;
            let entry = summary.by_name.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += self_ns[i];
            // Layer calls whose parent is a benchmark-level span (or none)
            // are the outermost attributed intervals: their sum is the
            // covered share of the measured wall time.
            let parent_is_bench = span
                .parent
                .is_none_or(|p| self.spans[p as usize].name.starts_with("bench."));
            if !span.name.starts_with("bench.") && parent_is_bench {
                summary.covered_ns += total;
            }
        }
        summary.spans = self.spans.len() - from;
        summary
    }

    /// Writes every span as one tab-separated line:
    /// `index  parent  ticket  name  start_ns  end_ns  self_ns`.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "index\tparent\tticket\tname\tstart_ns\tend_ns\tself_ns"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent.map(u64::from)),
                opt(s.ticket),
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[i],
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a range of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// What a traced episode's spans add up to.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Nanoseconds inside outermost layer-call spans.
    pub covered_ns: u64,
    pub spans: usize,
}

impl TraceSummary {
    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e9)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_outermost_layer_calls() {
        let mut tr = Tracer::new(true);
        let wave = tr.begin("bench.wave");
        let submit = tr.begin("core.submit");
        tr.end_ticket(submit, 7);
        let idle = tr.begin("core.idle_loop");
        let inner = tr.begin("core.inner");
        tr.end(inner);
        tr.end(idle);
        tr.end(wave);
        let s = tr.summarize(0);
        assert_eq!(s.spans, 4);
        let idle_t = s.by_name["core.idle_loop"];
        let inner_t = s.by_name["core.inner"];
        assert_eq!(idle_t.self_ns, idle_t.total_ns - inner_t.total_ns);
        assert_eq!(
            s.covered_ns,
            s.by_name["core.submit"].total_ns + idle_t.total_ns
        );
        assert_eq!(tr.spans[submit.0 as usize].ticket, Some(7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("core.submit");
        tr.end_ticket(s, 1);
        assert_eq!(tr.len(), 0);
    }
}
