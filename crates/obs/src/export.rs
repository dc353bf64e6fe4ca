//! Snapshot exporters: plain text for terminals, JSON for tooling.
//!
//! JSON is emitted by hand — the whole point of `omni-obs` is to add zero
//! external dependencies — against the schema documented in `DESIGN.md`:
//!
//! ```json
//! {
//!   "counters": {"tech.ble-beacon.tx_frames": 12},
//!   "gauges": {"queue.receive.depth": 0},
//!   "histograms": {"mgr.beacon_interval_us": {"count": 9, "sum": 4500000,
//!     "min": 500000, "max": 500000, "p50": 500000, "p95": 500000, "p99": 500000}},
//!   "digests": {"mgr.delivery_latency_us": {"count": 7, "sum": 3500, "min": 400,
//!     "max": 900, "p50": 500, "p99": 900, "p999": 900}},
//!   "events_dropped": 0,
//!   "events": [{"t_us": 1000, "node": 0, "kind": "BeaconSent", "tech": "ble-beacon"}]
//! }
//! ```
//!
//! Profiler output has two additional shapes: collapsed-stack flamegraph
//! text ([`flamegraph_collapsed`], one `stack value` line per frame, the
//! format `inferno`/`flamegraph.pl` consume) and Chrome-trace phase slices
//! ([`chrome_phase_slices`], `"X"` events the trace bench splices into its
//! Perfetto export). [`digest_json`] renders one labeled quantile digest
//! with its exemplar buckets so a slow-window sample links back to
//! `FlightRecorder` timelines by trace id.

use crate::digest::QuantileDigest;
use crate::event::{Event, EventKind};
use crate::json::{self, Value};
use crate::metrics::MetricsRead;
use crate::profile::{PhaseReport, PhaseSlice};
use std::fmt::Write as _;

/// A complete point-in-time view of an [`Obs`](crate::Obs) handle: every
/// metric plus the retained event stream.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Metric values, sorted by name.
    pub metrics: MetricsRead,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events overwritten before this snapshot was taken.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Render as an aligned text block suitable for appending to bench
    /// reports.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== metrics ==\n");
        if self.metrics.counters.is_empty()
            && self.metrics.gauges.is_empty()
            && self.metrics.histograms.is_empty()
            && self.metrics.digests.is_empty()
        {
            out.push_str("(none)\n");
        }
        let width = self
            .metrics
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.metrics.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.metrics.histograms.iter().map(|(n, _)| n.len()))
            .chain(self.metrics.digests.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        for (name, v) in &self.metrics.counters {
            let _ = writeln!(out, "{name:<width$}  {v}");
        }
        for (name, g) in &self.metrics.gauges {
            let _ = writeln!(out, "{name:<width$}  {} (lo={} hi={})", g.value, g.lo, g.hi);
        }
        for (name, h) in &self.metrics.histograms {
            let _ = writeln!(
                out,
                "{name:<width$}  n={} min={} p50={} p95={} p99={} max={}",
                h.count, h.min, h.p50, h.p95, h.p99, h.max
            );
        }
        for (name, d) in &self.metrics.digests {
            let _ = writeln!(
                out,
                "{name:<width$}  n={} min={} p50={} p99={} p999={} max={}",
                d.count, d.min, d.p50, d.p99, d.p999, d.max
            );
        }
        let _ = writeln!(
            out,
            "== events == {} retained, {} dropped",
            self.events.len(),
            self.events_dropped
        );
        out
    }

    /// Render as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", json_str(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, g)) in self.metrics.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"value\": {}, \"lo\": {}, \"hi\": {}}}",
                json_str(name),
                g.value,
                g.lo,
                g.hi
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.metrics.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                json_str(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99
            );
        }
        out.push_str("\n  },\n  \"digests\": {");
        for (i, (name, d)) in self.metrics.digests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                json_str(name),
                d.count,
                d.sum,
                d.min,
                d.max,
                d.p50,
                d.p99,
                d.p999
            );
        }
        let _ =
            write!(out, "\n  }},\n  \"events_dropped\": {},\n  \"events\": [", self.events_dropped);
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&event_json(e));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Every `&'static str` an [`EventKind`] field carries: technology labels,
/// queue labels, fault causes, and health states and causes.
/// [`event_from_json`] maps a parsed label back to its entry here.
const EVENT_LABELS: &[&str] = &[
    "ble-beacon",
    "wifi-multicast",
    "wifi-tcp",
    "nfc",
    "none",
    "receive",
    "response",
    "send-ble-beacon",
    "send-wifi-multicast",
    "send-wifi-tcp",
    "send-nfc",
    "frame-loss",
    "partition",
    "node-down",
    "healthy",
    "degraded",
    "critical",
    "delivery-ratio",
    "queue-depth",
    "delivery-latency",
    "beacon-staleness",
    "recovered",
];

/// One scalar of an event payload, as [`event_json`] writes it and
/// [`event_from_json`] reads it back.
trait Field: Sized {
    fn write(self, out: &mut String, key: &str);
    fn read(fields: &[(String, Value)], key: &str) -> Result<Self, String>;
}

fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    fields.iter().find(|(name, _)| name == key).map(|(_, v)| v).ok_or(format!("missing {key:?}"))
}

impl Field for u64 {
    fn write(self, out: &mut String, key: &str) {
        let _ = write!(out, ", \"{key}\": {self}");
    }

    fn read(fields: &[(String, Value)], key: &str) -> Result<Self, String> {
        field(fields, key)?.as_u64().ok_or(format!("{key:?} is not an unsigned integer"))
    }
}

impl Field for &'static str {
    fn write(self, out: &mut String, key: &str) {
        let _ = write!(out, ", \"{key}\": {}", json_str(self));
    }

    fn read(fields: &[(String, Value)], key: &str) -> Result<Self, String> {
        let s = field(fields, key)?.as_str().ok_or(format!("{key:?} is not a string"))?;
        EVENT_LABELS.iter().find(|l| **l == s).copied().ok_or(format!("unknown label {s:?}"))
    }
}

/// Defines [`EventKind::name`], [`event_json`] and [`event_from_json`]
/// from one table listing each variant's payload fields in the order they
/// are written, so the writer and the reader cannot drift apart. A variant
/// missing from the table fails to compile (the matches are exhaustive).
macro_rules! event_codec {
    ($($kind:ident { $($field:ident),* }),* $(,)?) => {
        impl EventKind {
            /// Stable name of the variant, for exporters and tests.
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$kind { .. } => stringify!($kind),)*
                }
            }
        }

        /// Encode one event as a flat JSON object.
        pub fn event_json(e: &Event) -> String {
            let mut out = format!(
                "{{\"t_us\": {}, \"node\": {}, \"kind\": {}",
                e.t_us,
                e.node,
                json_str(e.kind.name())
            );
            match e.kind {
                $(EventKind::$kind { $($field),* } => {
                    $(Field::write($field, &mut out, stringify!($field));)*
                })*
            }
            out.push('}');
            out
        }

        /// Decode one flat event object written by [`event_json`], the
        /// inverse of that function. Keys before `"kind"` other than `t_us`
        /// and `node` (the flight recorder's `seq`) are ignored; the payload
        /// fields are read from the keys after it. Labels map back to their
        /// `&'static str` values, and an unknown label or kind is an error.
        pub fn event_from_json(text: &str) -> Result<Event, String> {
            event_from_value(&json::parse(text)?)
        }

        /// [`event_from_json`] over an already parsed line, for readers
        /// that also take other keys (such as `seq`) from the same object.
        pub fn event_from_value(value: &Value) -> Result<Event, String> {
            let pairs = value.as_object().ok_or("event is not a JSON object")?;
            let k = pairs.iter().position(|(key, _)| key == "kind").ok_or("missing \"kind\"")?;
            let (head, body) = (&pairs[..k], &pairs[k + 1..]);
            let kind = match pairs[k].1.as_str().ok_or("\"kind\" is not a string")? {
                $(stringify!($kind) => EventKind::$kind {
                    $($field: Field::read(body, stringify!($field))?),*
                },)*
                other => return Err(format!("unknown event kind {other:?}")),
            };
            let node = u32::try_from(u64::read(head, "node")?).map_err(|_| "\"node\" exceeds u32")?;
            Ok(Event { t_us: u64::read(head, "t_us")?, node, kind })
        }
    };
}

event_codec! {
    BeaconSent { tech, epoch },
    BeaconReceived { tech, peer, epoch },
    PeerDiscovered { peer },
    PeerExpired { peer },
    TechEngaged { tech },
    TechDisengaged { tech },
    DataEnqueued { tech, bytes, trace },
    DataSent { tech, bytes, trace },
    DataDelivered { peer, bytes, trace },
    DataFailed { tech, trace },
    ContextUpdated { id },
    QueueDropped { queue },
    DataRetried { tech, attempt, trace },
    DataFailedOver { from_tech, to_tech, trace },
    SendExhausted { peer, trace },
    FrameDropped { tech, cause, trace },
    LinkPartitioned { a, b },
    NodeDown { node },
    DataRelayed { tech, peer, hops, trace },
    DataCustody { peer, ttl, trace },
    DataDeduped { peer, trace },
    TtlExpired { peer, hops, trace },
    HealthTransition { from, to, cause },
}

/// Encode one named [`QuantileDigest`] as a flat JSON object, including its
/// exemplar buckets: `{"name": ..., "count": ..., ..., "exemplars":
/// [{"le": <bucket upper bound>, "traces": [<trace ids, newest last>]}]}`.
/// The name is escaped, so labeled digest names (`lat{tech=ble}` or worse)
/// survive verbatim.
pub fn digest_json(name: &str, d: &QuantileDigest) -> String {
    let s = d.summary();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"name\": {}, \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
         \"p50\": {}, \"p99\": {}, \"p999\": {}, \"exemplars\": [",
        json_str(name),
        s.count,
        s.sum,
        s.min,
        s.max,
        s.p50,
        s.p99,
        s.p999
    );
    for (i, (le, traces)) in d.exemplar_buckets().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"le\": {le}, \"traces\": [");
        for (j, t) in traces.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{t}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Render a [`PhaseReport`] as collapsed-stack flamegraph text: one
/// `tick;<phase> value` line per phase with recorded time, values in
/// microseconds.
pub fn flamegraph_collapsed(report: &PhaseReport) -> String {
    let mut out = String::new();
    for stat in report.phases.iter().filter(|s| s.total_us > 0) {
        let _ = writeln!(out, "tick;{} {}", stat.phase.name(), stat.total_us);
    }
    out
}

/// Parse collapsed-stack text back into `(stack, value)` rows — the
/// round-trip counterpart of [`flamegraph_collapsed`], also handy for
/// asserting on exported profiles. Lines without a trailing integer field
/// are skipped.
pub fn parse_collapsed(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter_map(|line| {
            let (stack, value) = line.rsplit_once(' ')?;
            let value = value.parse().ok()?;
            if stack.is_empty() {
                return None;
            }
            Some((stack.to_string(), value))
        })
        .collect()
}

/// Encode profiler [`PhaseSlice`]s as Chrome-trace `"X"` (complete) events
/// under the given `pid`/`tid`, returned as comma-joined JSON objects with
/// **no** surrounding brackets so callers can splice them into an existing
/// `traceEvents` array.
pub fn chrome_phase_slices(slices: &[PhaseSlice], pid: u64, tid: u64) -> String {
    let mut out = String::new();
    for (i, s) in slices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{pid},\"tid\":{tid}}}",
            json_str(s.phase.name()),
            s.start_us,
            s.dur_us
        );
    }
    out
}

/// Quote and escape a string for JSON, control characters included.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn text_and_json_cover_all_metric_kinds() {
        let obs = Obs::new();
        obs.counter("tech.ble-beacon.tx_frames").add(3);
        obs.gauge("queue.receive.depth").set(2);
        obs.histogram("mgr.beacon_interval_us").record(500_000);
        obs.event(1_000, 0, EventKind::BeaconSent { tech: "ble-beacon", epoch: 0 });
        let snap = obs.snapshot();

        let text = snap.to_text();
        assert!(text.contains("tech.ble-beacon.tx_frames"));
        assert!(text.contains("queue.receive.depth"));
        assert!(text.contains("p99="));
        assert!(text.contains("1 retained, 0 dropped"));

        let json = snap.to_json();
        assert!(json.contains("\"tech.ble-beacon.tx_frames\": 3"));
        assert!(json.contains("\"queue.receive.depth\": {\"value\": 2, \"lo\": 0, \"hi\": 2}"));
        assert!(json.contains("\"kind\": \"BeaconSent\""));
        assert!(json.contains("\"events_dropped\": 0"));
    }

    #[test]
    fn overflowed_ring_surfaces_the_drop_count_in_both_exports() {
        // Regression: the overflow counter must be rendered, not just kept.
        let obs = Obs::with_event_capacity(4);
        for t in 0..10 {
            obs.event(t, 0, EventKind::PeerDiscovered { peer: t });
        }
        let snap = obs.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events_dropped, 6);
        assert!(snap.to_text().contains("4 retained, 6 dropped"));
        assert!(snap.to_json().contains("\"events_dropped\": 6"));
    }

    #[test]
    fn gauge_watermarks_render_in_both_exports() {
        let obs = Obs::new();
        let g = obs.gauge("queue.send.depth");
        g.set(7);
        g.set(1);
        let snap = obs.snapshot();
        assert!(snap.to_text().contains("queue.send.depth"));
        assert!(snap.to_text().contains("1 (lo=0 hi=7)"));
        assert!(snap
            .to_json()
            .contains("\"queue.send.depth\": {\"value\": 1, \"lo\": 0, \"hi\": 7}"));
    }

    #[test]
    fn health_transition_event_renders_all_fields() {
        let e = Event {
            t_us: 9,
            node: u32::MAX,
            kind: EventKind::HealthTransition {
                from: "healthy",
                to: "degraded",
                cause: "delivery-ratio",
            },
        };
        let j = event_json(&e);
        assert!(j.contains("\"kind\": \"HealthTransition\""));
        assert!(j.contains("\"from\": \"healthy\""));
        assert!(j.contains("\"to\": \"degraded\""));
        assert!(j.contains("\"cause\": \"delivery-ratio\""));
    }

    #[test]
    fn json_escapes_names() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn json_escapes_every_control_character() {
        // Named escapes for the common three, \u00XX for the rest of C0.
        assert_eq!(json_str("\n"), "\"\\n\"");
        assert_eq!(json_str("\r"), "\"\\r\"");
        assert_eq!(json_str("\t"), "\"\\t\"");
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let escaped = json_str(&c.to_string());
            assert!(escaped.starts_with('"') && escaped.ends_with('"'), "{c:?} must stay quoted");
            let inner = &escaped[1..escaped.len() - 1];
            assert!(inner.starts_with('\\'), "control char {c:?} must be escaped, got {inner:?}");
            assert!(
                inner.chars().all(|c| (c as u32) >= 0x20),
                "no raw control bytes may survive escaping: {inner:?}"
            );
        }
    }

    #[test]
    fn json_escaping_is_parseable_back() {
        // The escaped form of a hostile label reads back as the same string.
        let hostile = "quote\" back\\slash \x07bell \x1f unit\tsep\r\n";
        assert_eq!(json::parse(&json_str(hostile)), Ok(Value::Str(hostile.into())));
    }

    #[test]
    fn hostile_event_labels_survive_snapshot_json() {
        let obs = Obs::new();
        obs.counter("evil \"quoted\\name\"").add(1);
        obs.event(1, 0, EventKind::QueueDropped { queue: "rx\"q\\" });
        let json = obs.snapshot().to_json();
        assert!(json.contains("\"evil \\\"quoted\\\\name\\\"\": 1"));
        assert!(json.contains("\"queue\": \"rx\\\"q\\\\\""));
    }

    #[test]
    fn event_json_includes_payload_fields() {
        let e = Event {
            t_us: 5,
            node: 1,
            kind: EventKind::DataDelivered { peer: 42, bytes: 1024, trace: 7 },
        };
        let j = event_json(&e);
        assert!(j.contains("\"peer\": 42"));
        assert!(j.contains("\"bytes\": 1024"));
        assert!(j.contains("\"trace\": 7"));
    }

    #[test]
    fn event_json_carries_trace_epoch_and_drop_cause() {
        let sent = Event {
            t_us: 1,
            node: 0,
            kind: EventKind::BeaconSent { tech: "ble-beacon", epoch: 99 },
        };
        assert!(event_json(&sent).contains("\"epoch\": 99"));
        let dropped = Event {
            t_us: 2,
            node: 3,
            kind: EventKind::FrameDropped { tech: "ble", cause: "partition", trace: 11 },
        };
        let j = event_json(&dropped);
        assert!(j.contains("\"cause\": \"partition\""));
        assert!(j.contains("\"trace\": 11"));
        let exhausted =
            Event { t_us: 3, node: 0, kind: EventKind::SendExhausted { peer: 4, trace: 11 } };
        assert!(event_json(&exhausted).contains("\"kind\": \"SendExhausted\""));
    }

    #[test]
    fn event_json_covers_relay_events() {
        let relayed = Event {
            t_us: 1,
            node: 1,
            kind: EventKind::DataRelayed { tech: "ble-beacon", peer: 2, hops: 3, trace: 9 },
        };
        let j = event_json(&relayed);
        assert!(j.contains("\"kind\": \"DataRelayed\""));
        assert!(j.contains("\"hops\": 3"));
        assert!(j.contains("\"trace\": 9"));
        let custody =
            Event { t_us: 2, node: 1, kind: EventKind::DataCustody { peer: 2, ttl: 5, trace: 9 } };
        assert!(event_json(&custody).contains("\"ttl\": 5"));
        let deduped =
            Event { t_us: 3, node: 1, kind: EventKind::DataDeduped { peer: 2, trace: 9 } };
        assert!(event_json(&deduped).contains("\"kind\": \"DataDeduped\""));
        let expired =
            Event { t_us: 4, node: 1, kind: EventKind::TtlExpired { peer: 2, hops: 8, trace: 9 } };
        let j = event_json(&expired);
        assert!(j.contains("\"kind\": \"TtlExpired\""));
        assert!(j.contains("\"hops\": 8"));
    }

    #[test]
    fn digests_render_in_snapshot_text_and_json() {
        let obs = Obs::new();
        let d = obs.digest("mgr.delivery_latency_us");
        for v in [400u64, 500, 900] {
            d.record(v);
        }
        let snap = obs.snapshot();
        assert!(snap.to_text().contains("mgr.delivery_latency_us"));
        assert!(snap.to_text().contains("p999="));
        let json = snap.to_json();
        assert!(json.contains("\"digests\": {"));
        assert!(json.contains("\"mgr.delivery_latency_us\": {\"count\": 3"));
        assert!(json.contains("\"p999\":"));
    }

    #[test]
    fn digest_json_escapes_labeled_and_hostile_names() {
        let mut d = QuantileDigest::new();
        d.record_with_exemplar(1_000, 0xABCD);
        // A labeled name with braces passes through; quotes and backslashes
        // must be escaped into a valid JSON string literal.
        let labeled = digest_json("lat{tech=ble-beacon}", &d);
        assert!(labeled.starts_with("{\"name\": \"lat{tech=ble-beacon}\""));
        let hostile = digest_json("evil \"quoted\\name\"\n", &d);
        assert!(hostile.contains("\"name\": \"evil \\\"quoted\\\\name\\\"\\n\""));
        assert!(hostile.contains("\"traces\": [43981]"), "exemplar trace id exported: {hostile}");
    }

    #[test]
    fn empty_digest_exports_cleanly() {
        let d = QuantileDigest::new();
        let j = digest_json("nothing", &d);
        assert_eq!(
            j,
            "{\"name\": \"nothing\", \"count\": 0, \"sum\": 0, \"min\": 0, \"max\": 0, \
             \"p50\": 0, \"p99\": 0, \"p999\": 0, \"exemplars\": []}"
        );
        // An empty profiler likewise produces an empty (but valid) profile.
        let report = crate::profile::TickProfiler::new().report();
        assert_eq!(flamegraph_collapsed(&report), "");
        assert_eq!(parse_collapsed(&flamegraph_collapsed(&report)), vec![]);
        assert_eq!(chrome_phase_slices(&report.slices, 1, 1), "");
    }

    #[test]
    fn collapsed_stack_round_trips() {
        use crate::profile::{Phase, TickProfiler};
        let mut p = TickProfiler::new();
        let token = p.begin(Phase::Deliver);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.finish(token);
        let mut report = p.report();
        report.phases[Phase::TimerDrain as usize].total_us = 4_000;
        let text = flamegraph_collapsed(&report);
        let rows = parse_collapsed(&text);
        assert_eq!(rows.len(), text.lines().count(), "every emitted line parses back");
        assert_eq!(rows.len(), 2, "only phases with recorded time are emitted");
        let find = |stack: &str| rows.iter().find(|(s, _)| s == stack).map(|(_, v)| *v);
        assert!(find("tick;deliver").unwrap() >= 1_000);
        assert_eq!(find("tick;timer-drain"), Some(4_000));
        // Malformed lines are skipped, not mis-parsed.
        assert_eq!(parse_collapsed("no-value-here\n\na;b 12\n"), vec![("a;b".into(), 12)]);
    }

    #[test]
    fn chrome_phase_slices_are_spliceable_x_events() {
        use crate::profile::{Phase, PhaseSlice};
        let slices = [
            PhaseSlice { phase: Phase::FaultEval, start_us: 10, dur_us: 5 },
            PhaseSlice { phase: Phase::Deliver, start_us: 16, dur_us: 2 },
        ];
        let json = chrome_phase_slices(&slices, 1, 99);
        let wrapped = format!("[{json}]");
        assert!(wrapped.contains("\"name\":\"fault-eval\""));
        assert!(wrapped.contains("\"ph\":\"X\""));
        assert!(wrapped.contains("\"ts\":16"));
        assert!(wrapped.contains("\"tid\":99"));
        assert_eq!(json.matches("},{").count(), 1, "comma-joined, no brackets");
    }
}
