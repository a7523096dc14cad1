//! In-memory phase spans for the traced run. Spans are recorded by the
//! benchmark around its calls into each layer's public functions, kept in
//! memory, and written as JSONL once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The root span of one campaign (one operation); every other span of the
/// same campaign id is one of its phases.
pub const CAMPAIGN: &str = "campaign";

/// Campaign pipeline phases, in execution order.
pub const PHASES: [&str; 5] =
    ["network.construct", "passive.fingerprint", "active.scan", "discovery.run", "fuzzer.run"];

/// Trace-layer phases of a replay round trip, in execution order.
pub const TRACE_PHASES: [&str; 4] =
    ["trace.finish", "trace_format.encode", "trace_format.decode", "trace.replay"];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the campaign the span belongs to.
    pub campaign: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span buffer for one thread. Workers each fill their own and the
/// buffers are merged afterwards; all share one epoch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans { epoch, spans: Vec::new() }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span: its start, to hand to [`Spans::close`].
    pub fn open(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes the span opened at `start_ns` as span `name` of `campaign`.
    pub fn close(&mut self, name: &'static str, start_ns: u64, campaign: u64) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns, campaign });
    }

    /// Runs `f`, recording it as span `name` of `campaign`.
    pub fn time<R>(&mut self, name: &'static str, campaign: u64, f: impl FnOnce() -> R) -> R {
        let start = self.open();
        let out = f();
        self.close(name, start, campaign);
        out
    }

    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Total nanoseconds per span name.
    pub fn busy_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut busy = BTreeMap::new();
        for span in &self.spans {
            *busy.entry(span.name).or_default() += span.ns();
        }
        busy
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent =
                if s.name == CAMPAIGN { String::from("null") } else { s.campaign.to_string() };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"campaign\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns, s.campaign
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_nest_inside_their_campaign_and_sum_by_name() {
        let mut spans = Spans::new(Instant::now());
        let opened = spans.open();
        spans.time("fuzzer.run", 7, || std::hint::black_box(1 + 1));
        spans.time("fuzzer.run", 7, || std::hint::black_box(2 + 2));
        spans.close(CAMPAIGN, opened, 7);
        let busy = spans.busy_ns();
        let (phase, root) = (&spans.spans[0], &spans.spans[2]);
        assert!(root.start_ns <= phase.start_ns && phase.end_ns <= root.end_ns);
        assert_eq!(busy["fuzzer.run"], spans.spans[0].ns() + spans.spans[1].ns());
        assert!(busy[CAMPAIGN] >= busy["fuzzer.run"]);
    }
}
