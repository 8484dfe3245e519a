//! In-memory spans around the traced run's calls into each layer, written
//! out as Chrome trace-event JSON when the run ends.
//!
//! A span is named `layer.fn` after the call it wraps, and carries the id
//! of the request that caused it and the bytes it handled. The file is a
//! plain `{"traceEvents": [...]}` document of complete (`"ph": "X"`)
//! events with microsecond timestamps, which any trace viewer opens.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
struct Span {
    /// `layer.fn`.
    name: &'static str,
    /// The request (or setup step) that caused the call.
    req: u64,
    /// Start, relative to the tracer's epoch.
    start: Duration,
    /// Wall time of the call.
    dur: Duration,
    /// Bytes the call handled.
    bytes: u64,
}

/// Span recorder. Spans stay in memory until [`Tracer::chrome_json`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Record a call to `name` that started at `start` and ends now;
    /// returns its duration.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, bytes: u64) -> Duration {
        let dur = start.elapsed();
        self.spans.push(Span {
            name,
            req,
            start: start.saturating_duration_since(self.epoch),
            dur,
            bytes,
        });
        dur
    }

    /// Durations in milliseconds of every span named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// The Chrome trace-event document of every span, in record order.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"bytes\":{}}}}}",
                s.name,
                layer,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.req,
                s.bytes
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn chrome_json_is_valid_trace_event_json() {
        let mut t = Tracer::new();
        let start = Instant::now();
        t.record("engine.solve", 0, start, 0);
        t.record("checkout.serve", 7, Instant::now(), 1_500_000);
        t.record("checkout.serve", 8, Instant::now(), 20);
        let doc: Value = serde_json::from_str(&t.chrome_json()).expect("parses as JSON");
        let Value::Map(top) = doc else {
            panic!("top level is an object")
        };
        let Some(Value::Seq(events)) = top.get("traceEvents") else {
            panic!("traceEvents array")
        };
        assert_eq!(events.len(), 3);
        for e in events {
            let Value::Map(e) = e else {
                panic!("event is an object")
            };
            for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(e.contains_key(key), "event lacks {key}");
            }
            assert_eq!(e["ph"], Value::Str("X".into()));
            let Value::Map(args) = &e["args"] else {
                panic!("args is an object")
            };
            assert!(args.contains_key("req") && args.contains_key("bytes"));
        }
        assert_eq!(t.durations_ms("checkout.serve").len(), 2);
        assert_eq!(t.durations_ms("engine.solve").len(), 1);
    }
}
