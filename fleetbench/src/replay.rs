//! Replay timers for the `wire` and `security` layers.
//!
//! The traced run keeps a bounded sample of received BLE frames at the
//! technology probes. Afterwards each frame goes back through the public
//! decoder the BLE technology uses (`omni_wire::frame::parse_for_shared`)
//! and, for sealed address beacons and context packs, through
//! `ContextCipher::open`. The replayed outcomes must match what the live
//! run did with the same frames before their timings are reported.

use std::hint::black_box;
use std::time::Instant;

use omni_core::{ContextCipher, GroupKey};
use omni_wire::frame::{parse_for_shared, Incoming};
use omni_wire::{AddressBeaconPayload, ContentKind, PackedStruct};

use crate::probe::Sample;

/// Passes over the sample per timer; enough to make a 4096-frame sample
/// take tens of milliseconds.
const ROUNDS: usize = 40;

pub struct Replay {
    /// Mean `parse_for_shared` time per frame.
    pub parse_ns: f64,
    /// Mean `ContextCipher::open` time per sealed payload (0 unkeyed).
    pub open_ns: f64,
    /// Sampled frames whose replayed outcome differs from the live one.
    pub mismatches: Vec<String>,
}

fn delivered(incoming: Incoming) -> Option<PackedStruct> {
    match incoming {
        Incoming::Plain(packed) | Incoming::Acked { packed, .. } => Some(packed),
        Incoming::Ack { .. } | Incoming::NotForUs => None,
    }
}

pub fn replay(samples: &[Sample], key: Option<GroupKey>) -> Replay {
    let mut mismatches = Vec::new();
    let mut sealed = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let packed = delivered(parse_for_shared(s.own, &s.payload));
        if packed.is_some() != s.delivered {
            mismatches.push(format!("frame {i}: live delivered={}, replay disagrees", s.delivered));
        }
        let (Some(key), Some(packed)) = (key, packed) else { continue };
        let opened = match packed.kind {
            ContentKind::Data => continue,
            ContentKind::Context => {
                let opened = ContextCipher::open(&key, &packed.payload);
                if opened.is_some() != s.ctx_fired {
                    mismatches.push(format!("frame {i}: live context callback={}", s.ctx_fired));
                }
                opened
            }
            ContentKind::AddressBeacon => {
                let opened = ContextCipher::open(&key, &packed.payload);
                let beacon = opened.as_ref().and_then(|p| AddressBeaconPayload::decode(p).ok());
                if beacon.and_then(|b| b.ble) != Some(s.from) {
                    mismatches.push(format!("frame {i}: beacon does not open to its sender"));
                }
                opened
            }
        };
        if opened.is_some() {
            sealed.push(packed.payload);
        }
    }

    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for s in samples {
            black_box(parse_for_shared(black_box(s.own), black_box(&s.payload)));
        }
    }
    let parse_ns = per_op(t0, ROUNDS * samples.len());
    let open_ns = match key {
        Some(key) => {
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                for p in &sealed {
                    black_box(ContextCipher::open(black_box(&key), black_box(p)));
                }
            }
            per_op(t0, ROUNDS * sealed.len())
        }
        None => 0.0,
    };
    Replay { parse_ns, open_ns, mismatches }
}

fn per_op(t0: Instant, ops: usize) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}
