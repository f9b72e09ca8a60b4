//! In-memory spans recorded around calls into each layer, written out when
//! the benchmark ends. A recorder belongs to one client thread, so its
//! spans nest strictly and a parent is always opened before its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `client.submit`.
    pub name: &'static str,
    /// Microseconds since the recorder's epoch.
    pub start_us: f64,
    /// Microseconds since the recorder's epoch.
    pub end_us: f64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Operation the span belongs to; every span of one operation shares it.
    pub req: u64,
}

/// Span sink of one thread. Disabled recorders only keep the clock.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    /// Most spans kept per name; later ones are not recorded.
    per_name: usize,
    counts: BTreeMap<&'static str, usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing against `epoch`; records only when `enabled`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder {
            epoch,
            enabled,
            per_name: usize::MAX,
            counts: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder that keeps at most `per_name` spans of each name, for
    /// loops that call one function many thousands of times.
    pub fn capped(epoch: Instant, per_name: usize) -> Self {
        Recorder {
            per_name,
            ..Recorder::new(epoch, true)
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; the returned token closes it.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.per_name != usize::MAX {
            let count = self.counts.entry(name).or_insert(0);
            if *count >= self.per_name {
                return None;
            }
            *count += 1;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Self::open`].
    pub fn close(&mut self, token: Option<usize>) {
        if let Some(i) = token {
            self.spans[i].end_us = self.now_us();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let token = self.open(name, req, parent);
        let out = f();
        self.close(token);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus what its children cover.
/// Spans are indexed as recorded (children after their parent).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_us - s.start_us;
        }
    }
    own
}

/// Self times grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_us(spans)) {
        by.entry(s.name).or_default().push(t);
    }
    by
}

/// Write spans as JSON lines. Each entry of `threads` is one recorder's
/// spans, labelled with the phase that recorded them; `parent` indexes
/// the same recorder's spans.
pub fn write_jsonl(path: &std::path::Path, threads: &[(&str, Vec<Span>)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, (phase, spans)) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"phase\":\"{phase}\",\"thread\":{thread},\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\
                 \"end_us\":{:.3},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_us, s.end_us, s.req
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_only_from_their_parent() {
        let spans = vec![
            span("op", 0.0, 100.0, None),
            span("client.submit", 5.0, 35.0, Some(0)),
            span("client.result", 40.0, 90.0, Some(0)),
            span("inner", 50.0, 60.0, Some(2)),
        ];
        assert_eq!(self_times_us(&spans), vec![20.0, 30.0, 40.0, 10.0]);
        let by = self_times_by_name(&spans);
        assert_eq!(by["op"], vec![20.0]);
        assert_eq!(by["client.result"], vec![40.0]);
    }

    #[test]
    fn capped_recorder_keeps_the_first_spans_of_each_name() {
        let mut r = Recorder::capped(Instant::now(), 2);
        for _ in 0..5 {
            r.span("a", 1, None, || ());
        }
        r.span("b", 1, None, || ());
        let names: Vec<&str> = r.into_spans().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a", "a", "b"]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), false);
        let t = r.open("op", 1, None);
        r.close(t);
        assert_eq!(r.span("x", 1, t, || 7), 7);
        assert!(r.into_spans().is_empty());
    }
}
