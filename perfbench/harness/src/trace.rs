//! Span recorder for the traced run, written out as Chrome trace-event
//! JSON (the format Perfetto and `chrome://tracing` open).
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer — setup phases, `run_until`/`advance` chunks, layer probes — and
//! kept in memory until the run ends. Each span sits on a named track
//! (one per workload phase or layer) and carries optional arguments such
//! as the chunk's sim-time range and event deltas. When tracing is off
//! every call is a no-op that reads no clock.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    track: usize,
    name: String,
    start_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tracks: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            tracks: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The start mark of a span, `None` when tracing is off.
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Closes the span opened at `start` on `track`.
    pub fn record(
        &mut self,
        track: &'static str,
        name: &str,
        start: Option<Instant>,
        args: &[(&'static str, f64)],
    ) {
        let Some(start) = start else {
            return;
        };
        let end = Instant::now();
        let track = match self.tracks.iter().position(|&t| t == track) {
            Some(ix) => ix,
            None => {
                self.tracks.push(track);
                self.tracks.len() - 1
            }
        };
        self.spans.push(Span {
            track,
            name: name.to_owned(),
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            args: args.to_vec(),
        });
    }

    /// Durations in seconds of every span named `name` on `track`.
    pub fn durations(&self, track: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| self.tracks[s.track] == track && s.name == name)
            .map(|s| s.dur_us / 1e6)
            .collect()
    }

    /// The Chrome trace-event document: one thread (track) per workload
    /// phase or layer, complete (`"X"`) events in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (tid, name) in self.tracks.iter().enumerate() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{name}\"}}}}"
            );
        }
        for s in &self.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"name\": \"{}\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{",
                s.track, s.name, s.start_us, s.dur_us
            );
            for (i, (k, v)) in s.args.iter().enumerate() {
                let comma = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{comma}\"{k}\": {v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.start();
        t.record("run", "chunk", s, &[("events", 1.0)]);
        assert!(t.durations("run", "chunk").is_empty());
    }

    #[test]
    fn chrome_document_has_tracks_and_spans() {
        let mut t = Tracer::new(true);
        let s = t.start();
        t.record("setup", "build", s, &[]);
        let s = t.start();
        t.record("run", "chunk", s, &[("sim_from_us", 0.0), ("events", 12.0)]);
        let doc = t.to_chrome_json();
        assert!(doc.contains("\"name\": \"thread_name\""));
        assert!(doc.contains("\"args\": {\"name\": \"run\"}"));
        assert!(doc.contains("\"events\": 12"));
        assert_eq!(t.durations("run", "chunk").len(), 1);
    }
}
