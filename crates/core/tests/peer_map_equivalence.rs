//! The flat per-technology sighting array in `PeerRecord` answers every
//! peer-map query exactly as the `HashMap<TechType, _>` table it replaced.
//!
//! `reference` keeps that table: one heap map per peer, and a separate
//! lookup to decide whether a sighting is a new peer. Random `observe` /
//! `observe_beacon` sequences are replayed into both, and every query is
//! compared after every step.

use std::collections::HashMap;

use omni_core::{LowAddr, PeerMap};
use omni_sim::{SimDuration, SimTime};
use omni_wire::{AddressBeaconPayload, BleAddress, MeshAddress, NfcAddress, OmniAddress, TechType};
use proptest::prelude::*;

mod reference {
    use super::*;

    #[derive(Default)]
    pub struct Record {
        pub seen: HashMap<TechType, (LowAddr, SimTime)>,
        pub mesh_direct: Option<(MeshAddress, SimTime)>,
        pub mesh_mcast: Option<(MeshAddress, SimTime)>,
        pub ble: Option<(BleAddress, SimTime)>,
        pub nfc: Option<(NfcAddress, SimTime)>,
    }

    impl Record {
        pub fn fresh_on(&self, tech: TechType, now: SimTime, ttl: SimDuration) -> bool {
            self.seen.get(&tech).map(|(_, at)| now.saturating_since(*at) <= ttl).unwrap_or(false)
        }

        pub fn last_seen(&self) -> Option<SimTime> {
            self.seen.values().map(|(_, at)| *at).max()
        }
    }

    #[derive(Default)]
    pub struct Map {
        pub peers: HashMap<OmniAddress, Record>,
    }

    impl Map {
        /// Returns whether the peer was new, found the way the manager
        /// used to: a `get` before the `observe`.
        pub fn observe(
            &mut self,
            omni: OmniAddress,
            tech: TechType,
            source: LowAddr,
            now: SimTime,
        ) -> bool {
            let new = !self.peers.contains_key(&omni);
            let rec = self.peers.entry(omni).or_default();
            rec.seen.insert(tech, (source, now));
            match (tech, source) {
                (TechType::BleBeacon, LowAddr::Ble(a)) => rec.ble = Some((a, now)),
                (TechType::Nfc, LowAddr::Nfc(a)) => rec.nfc = Some((a, now)),
                (TechType::WifiTcp, LowAddr::Mesh(m)) => rec.mesh_direct = Some((m, now)),
                (TechType::WifiMulticast, LowAddr::Mesh(m)) => rec.mesh_mcast = Some((m, now)),
                _ => {}
            }
            new
        }

        pub fn observe_beacon(
            &mut self,
            omni: OmniAddress,
            beacon: &AddressBeaconPayload,
            via: TechType,
            now: SimTime,
        ) {
            let rec = self.peers.entry(omni).or_default();
            if let Some(ble) = beacon.ble {
                rec.ble = Some((ble, now));
            }
            if let Some(mesh) = beacon.mesh {
                match via {
                    TechType::BleBeacon | TechType::Nfc => rec.mesh_direct = Some((mesh, now)),
                    _ => rec.mesh_mcast = Some((mesh, now)),
                }
            }
        }

        pub fn fresh_peers(&self, now: SimTime, ttl: SimDuration) -> Vec<OmniAddress> {
            let mut v: Vec<OmniAddress> = self
                .peers
                .iter()
                .filter(|(_, r)| {
                    r.last_seen().map(|at| now.saturating_since(at) <= ttl).unwrap_or(false)
                })
                .map(|(a, _)| *a)
                .collect();
            v.sort_unstable();
            v
        }

        pub fn tech_needed(
            &self,
            tech: TechType,
            cheaper: &[TechType],
            now: SimTime,
            ttl: SimDuration,
        ) -> bool {
            self.peers.values().any(|r| {
                r.fresh_on(tech, now, ttl) && !cheaper.iter().any(|&c| r.fresh_on(c, now, ttl))
            })
        }

        pub fn mesh_direct(
            &self,
            omni: OmniAddress,
            now: SimTime,
            ttl: SimDuration,
        ) -> Option<MeshAddress> {
            let (m, at) = self.peers.get(&omni)?.mesh_direct?;
            (now.saturating_since(at) <= ttl).then_some(m)
        }
    }
}

const TTL: SimDuration = SimDuration::from_secs(3);
const PEERS: u64 = 5;

/// One step: an `observe` (`beacon` is `None`) or an `observe_beacon`, then
/// the queries at `query_ms`.
#[derive(Debug, Clone)]
struct Step {
    peer: u64,
    tech: TechType,
    source: LowAddr,
    beacon: Option<AddressBeaconPayload>,
    at_ms: u64,
    query_ms: u64,
}

fn tech(i: usize) -> TechType {
    TechType::ALL[i % TechType::ALL.len()]
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0..PEERS, 0usize..4, (0u8..3, 0u64..4), (0u8..3, 0u64..3, 0u64..3), 0u64..20_000, 0u64..25_000)
        .prop_map(|(peer, t, (kind, addr), (beacon, mesh, ble), at_ms, query_ms)| {
            // A source that mismatches its technology is legal input too:
            // only matching pairs refresh the per-technology addresses.
            let source = match kind {
                0 => LowAddr::Ble(BleAddress::from_u64(addr + 1)),
                1 => LowAddr::Mesh(MeshAddress::from_u64(addr + 1)),
                _ => LowAddr::Nfc(NfcAddress::from_u32(addr as u32 + 1)),
            };
            let beacon = (beacon > 0).then(|| AddressBeaconPayload {
                mesh: (mesh > 0).then(|| MeshAddress::from_u64(mesh)),
                ble: (ble > 0).then(|| BleAddress::from_u64(ble)),
            });
            Step { peer, tech: tech(t), source, beacon, at_ms, query_ms }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_records_answer_like_the_per_peer_table(
        steps in proptest::collection::vec(arb_step(), 1..40),
    ) {
        let mut map = PeerMap::new();
        let mut model = reference::Map::default();
        for (i, s) in steps.iter().enumerate() {
            let omni = OmniAddress::from_u64(s.peer);
            let at = SimTime::from_millis(s.at_ms);
            match &s.beacon {
                None => prop_assert_eq!(
                    map.observe(omni, s.tech, s.source, at),
                    model.observe(omni, s.tech, s.source, at),
                    "new-peer verdict at step {}", i
                ),
                Some(b) => {
                    map.observe_beacon(omni, b, s.tech, at);
                    model.observe_beacon(omni, b, s.tech, at);
                }
            }
            prop_assert_eq!(map.len(), model.peers.len());

            let now = SimTime::from_millis(s.query_ms);
            prop_assert_eq!(map.fresh_peers(now, TTL), model.fresh_peers(now, TTL));
            for t in TechType::ALL {
                for cheaper in [&[][..], &TechType::ALL[..1], &TechType::ALL[..2], &TechType::ALL[..]] {
                    prop_assert_eq!(
                        map.tech_needed(t, cheaper, now, TTL),
                        model.tech_needed(t, cheaper, now, TTL),
                        "tech_needed({}, {:?}) at step {}", t, cheaper, i
                    );
                }
            }
            for p in 0..PEERS {
                let omni = OmniAddress::from_u64(p);
                prop_assert_eq!(map.mesh_direct(omni, now, TTL), model.mesh_direct(omni, now, TTL));
                let (Some(rec), Some(want)) = (map.get(omni), model.peers.get(&omni)) else {
                    prop_assert!(map.get(omni).is_none() && !model.peers.contains_key(&omni));
                    continue;
                };
                prop_assert_eq!(rec.last_seen(), want.last_seen());
                prop_assert_eq!(rec.mesh_direct, want.mesh_direct);
                prop_assert_eq!(rec.mesh_mcast, want.mesh_mcast);
                prop_assert_eq!(rec.ble, want.ble);
                prop_assert_eq!(rec.nfc, want.nfc);
                for t in TechType::ALL {
                    prop_assert_eq!(rec.seen_on(t), want.seen.get(&t).copied());
                    prop_assert_eq!(rec.fresh_on(t, now, TTL), want.fresh_on(t, now, TTL));
                }
            }
        }
    }
}
