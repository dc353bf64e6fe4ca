//! The one JSON reader and the event codec built on it: `omni_obs::json`
//! parses what this repository writes, and `event_from_json` inverts
//! `event_json` for every event kind.

use omni_obs::json::{parse, Value};
use omni_obs::{event_from_json, event_json, json_str, Event, EventKind};

#[test]
fn objects_keep_order_and_duplicate_keys() {
    let v = parse(r#"{"node": 1, "kind": "NodeDown", "node": 7}"#).unwrap();
    let pairs = v.as_object().unwrap();
    assert_eq!(pairs.len(), 3);
    assert_eq!(v.get("node").and_then(Value::as_u64), Some(1), "get returns the first");
    assert_eq!(pairs[2].1.as_u64(), Some(7));
}

#[test]
fn u64_trace_ids_survive_exactly() {
    let v = parse("[18446744073709551615, 1.5, -2, true, null]").unwrap();
    let Value::Array(items) = v else { panic!("array") };
    assert_eq!(items[0].as_u64(), Some(u64::MAX));
    assert_eq!(items[1].as_f64(), Some(1.5));
    assert_eq!(items[2].as_u64(), None);
    assert_eq!(items[3].as_bool(), Some(true));
    assert_eq!(items[4], Value::Null);
}

#[test]
fn strings_round_trip_through_the_escaper() {
    for s in ["plain", "q\"uote\\", "tab\tnl\nctl\u{1}", "ünï"] {
        assert_eq!(parse(&json_str(s)).unwrap().as_str(), Some(s));
    }
}

#[test]
fn garbage_is_rejected() {
    for bad in ["", "{", "{\"a\" 1}", "[1,]", "nope", "\"open", "{} x", "1e", "\"raw\ttab\""] {
        assert!(parse(bad).is_err(), "{bad:?} must not parse");
    }
}

/// One sample of every [`EventKind`] variant. The match below has no
/// wildcard arm, so a new variant fails to compile until it is listed
/// here — and, through the round trip, parsed by [`event_from_json`].
fn every_kind() -> Vec<EventKind> {
    let kinds = vec![
        EventKind::BeaconSent { tech: "ble-beacon", epoch: 3 },
        EventKind::BeaconReceived { tech: "wifi-multicast", peer: u64::MAX, epoch: 4 },
        EventKind::PeerDiscovered { peer: 5 },
        EventKind::PeerExpired { peer: 6 },
        EventKind::TechEngaged { tech: "wifi-multicast" },
        EventKind::TechDisengaged { tech: "nfc" },
        EventKind::DataEnqueued { tech: "none", bytes: 7, trace: 8 },
        EventKind::DataSent { tech: "wifi-tcp", bytes: 9, trace: u64::MAX - 1 },
        EventKind::DataDelivered { peer: 10, bytes: 11, trace: 12 },
        EventKind::DataFailed { tech: "ble-beacon", trace: 13 },
        EventKind::ContextUpdated { id: 14 },
        EventKind::QueueDropped { queue: "send-wifi-tcp" },
        EventKind::DataRetried { tech: "wifi-tcp", attempt: 2, trace: 15 },
        EventKind::DataFailedOver { from_tech: "wifi-tcp", to_tech: "ble-beacon", trace: 16 },
        EventKind::SendExhausted { peer: 17, trace: 18 },
        EventKind::FrameDropped { tech: "nfc", cause: "node-down", trace: 19 },
        EventKind::LinkPartitioned { a: 20, b: 21 },
        EventKind::NodeDown { node: 22 },
        EventKind::DataRelayed { tech: "ble-beacon", peer: 23, hops: 2, trace: 24 },
        EventKind::DataCustody { peer: 25, ttl: 6, trace: 26 },
        EventKind::DataDeduped { peer: 27, trace: 28 },
        EventKind::TtlExpired { peer: 29, hops: 3, trace: 30 },
        EventKind::HealthTransition { from: "healthy", to: "critical", cause: "queue-depth" },
    ];
    let mut seen = [false; 23];
    for k in &kinds {
        let i = match k {
            EventKind::BeaconSent { .. } => 0,
            EventKind::BeaconReceived { .. } => 1,
            EventKind::PeerDiscovered { .. } => 2,
            EventKind::PeerExpired { .. } => 3,
            EventKind::TechEngaged { .. } => 4,
            EventKind::TechDisengaged { .. } => 5,
            EventKind::DataEnqueued { .. } => 6,
            EventKind::DataSent { .. } => 7,
            EventKind::DataDelivered { .. } => 8,
            EventKind::DataFailed { .. } => 9,
            EventKind::ContextUpdated { .. } => 10,
            EventKind::QueueDropped { .. } => 11,
            EventKind::DataRetried { .. } => 12,
            EventKind::DataFailedOver { .. } => 13,
            EventKind::SendExhausted { .. } => 14,
            EventKind::FrameDropped { .. } => 15,
            EventKind::LinkPartitioned { .. } => 16,
            EventKind::NodeDown { .. } => 17,
            EventKind::DataRelayed { .. } => 18,
            EventKind::DataCustody { .. } => 19,
            EventKind::DataDeduped { .. } => 20,
            EventKind::TtlExpired { .. } => 21,
            EventKind::HealthTransition { .. } => 22,
        };
        seen[i] = true;
    }
    assert!(seen.iter().all(|s| *s), "every variant has a sample");
    kinds
}

#[test]
fn event_from_json_inverts_event_json_for_every_kind() {
    for (i, kind) in every_kind().into_iter().enumerate() {
        let e = Event { t_us: 1_000 + i as u64, node: i as u32, kind };
        assert_eq!(event_from_json(&event_json(&e)), Ok(e));
    }
    // NodeDown repeats the `node` key: the first is the event's, the
    // one after `kind` is the payload's.
    let e = Event { t_us: 1, node: 2, kind: EventKind::NodeDown { node: 3 } };
    assert_eq!(event_from_json(&event_json(&e)), Ok(e));
}

#[test]
fn event_from_json_rejects_unknown_labels_and_kinds() {
    let unknown_tech = Event { t_us: 1, node: 0, kind: EventKind::TechEngaged { tech: "t" } };
    let err = event_from_json(&event_json(&unknown_tech)).unwrap_err();
    assert!(err.contains("unknown label"), "{err}");
    let err = event_from_json(r#"{"t_us": 1, "node": 0, "kind": "Bogus"}"#).unwrap_err();
    assert!(err.contains("unknown event kind"), "{err}");
    assert!(event_from_json(r#"{"t_us": 1, "node": 0, "kind": "PeerExpired"}"#).is_err());
    assert!(event_from_json("not json").is_err());
}
