//! `FlightRecorder::from_jsonl`: a written dump reads back into the
//! recorder that wrote it, and a dump with a `seq` gap is refused.

use omni_obs::{Event, EventKind, Obs};
use omni_sim::{FlightRecorder, TraceOutcome};

fn ev(t_us: u64, node: u32, kind: EventKind) -> Event {
    Event { t_us, node, kind }
}

fn recorder(events: &[Event]) -> FlightRecorder {
    let obs = Obs::new();
    for e in events {
        obs.event(e.t_us, e.node, e.kind);
    }
    FlightRecorder::from_obs(&obs)
}

#[test]
fn jsonl_reads_back_into_the_same_timelines() {
    let rec = recorder(&[
        ev(10, 0, EventKind::DataEnqueued { tech: "ble-beacon", bytes: 4, trace: 7 }),
        ev(11, 0, EventKind::FrameDropped { tech: "ble-beacon", cause: "partition", trace: 7 }),
        ev(12, 4, EventKind::NodeDown { node: 4 }),
        ev(20, 2, EventKind::DataDelivered { peer: 77, bytes: 4, trace: 7 }),
    ]);
    let back = FlightRecorder::from_jsonl(&rec.to_jsonl()).expect("own dump parses");
    assert_eq!(back.events(), rec.events());
    assert_eq!(back.traces()[0].outcome(), TraceOutcome::Delivered);
    assert_eq!(back.traces()[0].drops, [("ble-beacon", "partition")]);
}

#[test]
fn jsonl_with_a_seq_gap_is_rejected() {
    let rec = recorder(&[
        ev(10, 0, EventKind::PeerDiscovered { peer: 1 }),
        ev(11, 0, EventKind::PeerDiscovered { peer: 2 }),
        ev(12, 0, EventKind::PeerDiscovered { peer: 3 }),
    ]);
    let dump = rec.to_jsonl();
    let spliced: String = dump.lines().skip(1).map(|l| format!("{l}\n")).collect();
    let err = FlightRecorder::from_jsonl(&spliced).unwrap_err();
    assert!(err.contains("line 1"), "{err}");
}

/// Every technology and fault cause the runner attributes a dropped frame
/// to (`Runner::record_frame_drop`) reads back from a dump. Real fleets'
/// dumps are also read back on every run `common::Artifacts` captures.
#[test]
fn every_runner_drop_label_reads_back() {
    let mut events = Vec::new();
    for tech in ["ble-beacon", "wifi-multicast", "nfc"] {
        for cause in ["frame-loss", "partition", "node-down"] {
            events.push(ev(1, 0, EventKind::FrameDropped { tech, cause, trace: 3 }));
        }
    }
    events.push(ev(2, 0, EventKind::BeaconSent { tech: "ble-beacon", epoch: 1 }));
    let rec = recorder(&events);
    let back = FlightRecorder::from_jsonl(&rec.to_jsonl()).expect("every drop label parses");
    assert_eq!(back.events(), rec.events());
}
