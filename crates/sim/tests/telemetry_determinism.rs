//! Determinism contract for the telemetry sampler (Issue 6, satellite 3):
//!
//! 1. Same seed, sampler on, run twice → **byte-identical JSONL**.
//! 2. Sampler on vs. sampler off → **identical fleet behavior**: the same
//!    counters and the same event stream (modulo the `HealthTransition`
//!    events only the sampler emits).  Sampling draws no randomness and only
//!    appends `(time, seq)`-ordered events, so enabling it must not perturb
//!    a run.
//! 3. Same seed, run twice, over fleets that change mid-run — walks,
//!    teleports, scan-duty toggles, radio power cycles, faults, and
//!    relay-enabled Omni fleets with a walker → **every externalized
//!    artifact byte-identical**: sampler JSONL, event ring, recorder dump,
//!    counters, and the fault RNG draw count.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use common::Artifacts;
use omni_core::{OmniBuilder, OmniConfig, OmniStack, RelayPolicy};
use omni_obs::{event_json, Obs};
use omni_sim::{
    ChurnWindow, Command, DeviceCaps, FaultConfig, LinkPartition, NodeApi, NodeEvent, Position,
    Runner, SamplerConfig, SimConfig, SimDuration, SimTime, Stack,
};
use proptest::prelude::*;

/// Beacons every 500 ms and scans continuously; counts what it hears.
struct Chatter {
    heard: u64,
}

impl Stack for Chatter {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => {
                api.push(Command::BleSetScan { duty: Some(1.0) });
                api.push(Command::BleAdvertiseSet {
                    slot: 0,
                    payload: Bytes::from_static(b"chatter"),
                    interval: SimDuration::from_millis(500),
                });
            }
            NodeEvent::BleBeacon { .. } => self.heard += 1,
            _ => {}
        }
    }
}

/// A 12-node faulty fleet: BLE loss, one partition, two churn windows.
fn faulty_config(seed: u64) -> SimConfig {
    let faults = FaultConfig {
        ble_loss: 0.2,
        partitions: vec![LinkPartition::new(0, 1, SimTime::from_secs(8), SimTime::from_secs(14))],
        churn: vec![
            ChurnWindow { dev: 3, down_at: SimTime::from_secs(10), up_at: SimTime::from_secs(16) },
            ChurnWindow { dev: 7, down_at: SimTime::from_secs(12), up_at: SimTime::from_secs(18) },
        ],
        ..Default::default()
    };
    SimConfig { seed, faults, ..Default::default() }
}

/// Runs the fleet for 30 s; returns the obs handle and the sampler JSONL
/// (empty when sampling is off).
fn run_fleet(seed: u64, sample: bool) -> (Obs, String) {
    let mut sim = Runner::new(faulty_config(seed));
    let obs = Obs::new();
    sim.set_obs(obs.clone());
    if sample {
        sim.enable_sampler(SamplerConfig::default());
    }
    for i in 0..12 {
        let dev = sim.add_device(DeviceCaps::PI, Position::new(5.0 * i as f64, 0.0));
        sim.set_stack(dev, Box::new(Chatter { heard: 0 }));
    }
    sim.run_until(SimTime::from_secs(30));
    let jsonl = sim.sampler().map(|s| s.to_jsonl().to_string()).unwrap_or_default();
    (obs, jsonl)
}

/// The event stream as JSON lines, with the sampler-only health events
/// stripped so on/off runs are comparable.
fn behavior_events(obs: &Obs) -> Vec<String> {
    obs.events().iter().filter(|e| e.kind.name() != "HealthTransition").map(event_json).collect()
}

#[test]
fn same_seed_sampler_runs_emit_byte_identical_jsonl() {
    let (_, a) = run_fleet(42, true);
    let (_, b) = run_fleet(42, true);
    assert!(!a.is_empty(), "30s at 1s sampling must produce lines");
    assert_eq!(a, b, "sampler JSONL must be byte-identical across same-seed runs");

    let (_, c) = run_fleet(43, true);
    assert_ne!(a, c, "a different seed must produce a different stream");
}

#[test]
fn enabling_the_sampler_does_not_perturb_fleet_behavior() {
    let (on, jsonl) = run_fleet(42, true);
    let (off, _) = run_fleet(42, false);

    assert!(!jsonl.is_empty());
    assert_eq!(
        on.snapshot().metrics.counters,
        off.snapshot().metrics.counters,
        "every counter (tx/rx, drops, per-cell traffic) must match sampler-off"
    );
    assert_eq!(
        behavior_events(&on),
        behavior_events(&off),
        "the event streams must be identical apart from health transitions"
    );
}

#[test]
fn health_transitions_reach_the_event_ring_at_fleet_scope() {
    let (on, _) = run_fleet(42, true);
    let health: Vec<_> =
        on.events().into_iter().filter(|e| e.kind.name() == "HealthTransition").collect();
    assert!(!health.is_empty(), "churn windows must trip the health monitor");
    assert!(health.iter().all(|e| e.node == u32::MAX), "fleet-scope node id");
    // The fleet starts healthy, degrades during the fault windows, and
    // recovers after they end.
    let first = event_json(&health[0]);
    assert!(first.contains("\"from\": \"healthy\""), "{first}");
    let last = event_json(health.last().unwrap());
    assert!(last.contains("\"to\": \"healthy\""), "{last}");
}

/// Beacons, scans, and periodically perturbs its own radio state: toggles
/// its scan duty every 3 s and power-cycles BLE every 7 s.
struct Restless {
    heard: u64,
    fiddle: bool,
}

const TOGGLE: u64 = 1;
const CYCLE: u64 = 2;

impl Stack for Restless {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => {
                api.push(Command::BleSetScan { duty: Some(0.8) });
                api.push(Command::BleAdvertiseSet {
                    slot: 0,
                    payload: Bytes::from_static(b"restless"),
                    interval: SimDuration::from_millis(500),
                });
                if self.fiddle {
                    api.push(Command::SetTimer { token: TOGGLE, delay: SimDuration::from_secs(3) });
                    api.push(Command::SetTimer { token: CYCLE, delay: SimDuration::from_secs(7) });
                }
            }
            NodeEvent::BleBeacon { .. } => self.heard += 1,
            NodeEvent::Timer { token: TOGGLE } => {
                let duty = if self.heard.is_multiple_of(2) { Some(0.5) } else { None };
                api.push(Command::BleSetScan { duty });
                api.push(Command::SetTimer { token: TOGGLE, delay: SimDuration::from_secs(3) });
            }
            NodeEvent::Timer { token: CYCLE } => {
                api.push(Command::BlePower(false));
                api.push(Command::BlePower(true));
                // Radios come back up bare; re-arm scanning + advertising.
                api.push(Command::BleSetScan { duty: Some(1.0) });
                api.push(Command::BleAdvertiseSet {
                    slot: 0,
                    payload: Bytes::from_static(b"restless"),
                    interval: SimDuration::from_millis(500),
                });
                api.push(Command::SetTimer { token: CYCLE, delay: SimDuration::from_secs(7) });
            }
            _ => {}
        }
    }
}

/// One randomized mutating fleet: topology + fault matrix + mobility.
#[derive(Clone, Debug)]
struct Scenario {
    seed: u64,
    nodes: usize,
    cols: usize,
    pitch_m: f64,
    ble_loss: f64,
    jitter_ms: u64,
    partition: bool,
    churn: bool,
    mobile: bool,
    fiddle: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        8usize..=20,
        2usize..=5,
        3.0f64..12.0,
        0.0f64..0.35,
        prop_oneof![Just(0u64), Just(5u64)],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                seed,
                nodes,
                cols,
                pitch_m,
                ble_loss,
                jitter_ms,
                partition,
                churn,
                mobile,
                fiddle,
            )| {
                Scenario {
                    seed,
                    nodes,
                    cols,
                    pitch_m,
                    ble_loss,
                    jitter_ms,
                    partition,
                    churn,
                    mobile,
                    fiddle,
                }
            },
        )
}

fn run_mutating(sc: &Scenario) -> Artifacts {
    let faults = FaultConfig {
        ble_loss: sc.ble_loss,
        ble_jitter: SimDuration::from_millis(sc.jitter_ms),
        partitions: if sc.partition {
            vec![LinkPartition::new(0, 1, SimTime::from_secs(6), SimTime::from_secs(14))]
        } else {
            Vec::new()
        },
        churn: if sc.churn {
            vec![
                ChurnWindow {
                    dev: 2,
                    down_at: SimTime::from_secs(8),
                    up_at: SimTime::from_secs(15),
                },
                ChurnWindow {
                    dev: sc.nodes - 1,
                    down_at: SimTime::from_secs(10),
                    up_at: SimTime::from_secs(18),
                },
            ]
        } else {
            Vec::new()
        },
        ..Default::default()
    };
    let mut sim = Runner::new(SimConfig { seed: sc.seed, faults, ..Default::default() });
    let obs = Obs::new();
    sim.set_obs(obs.clone());
    sim.enable_sampler(SamplerConfig::default());
    for i in 0..sc.nodes {
        let pos =
            Position::new((i % sc.cols) as f64 * sc.pitch_m, (i / sc.cols) as f64 * sc.pitch_m);
        let dev = sim.add_device(DeviceCaps::PI, pos);
        sim.set_stack(dev, Box::new(Restless { heard: 0, fiddle: sc.fiddle }));
    }
    if sc.mobile {
        // Mid-run position churn: a teleport out and back, plus a walker.
        let roamer = omni_sim::DeviceId(0);
        sim.schedule_teleport(roamer, SimTime::from_secs(9), Position::new(500.0, 500.0));
        sim.schedule_teleport(roamer, SimTime::from_secs(16), Position::new(0.0, 0.0));
        let walker = omni_sim::DeviceId(1);
        sim.schedule_walk(walker, SimTime::from_secs(5), Position::new(40.0, 0.0), 2.0);
    }
    sim.run_until(SimTime::from_secs(25));
    let heard = obs.counter("tech.ble-beacon.rx_frames").get();
    Artifacts::capture(&sim, &obs, heard)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two same-seed runs of a mutating fleet agree byte for byte on every
    /// externalized artifact.
    #[test]
    fn mutating_fleets_replay_byte_identically(sc in scenario()) {
        let first = run_mutating(&sc);
        // A faulty scenario must actually exercise the fault RNG, or the
        // draw-count comparison is vacuous.
        if sc.ble_loss > 0.05 {
            prop_assert!(first.fault_draws > 0, "loss {} drew nothing", sc.ble_loss);
        }
        first.assert_identical(&run_mutating(&sc), "mutating fleet");
    }
}

/// One randomized relay scenario: forwarding strategy + faults over a
/// sparse BLE chain no single hop can cross.
#[derive(Clone, Debug)]
struct RelayScenario {
    seed: u64,
    nodes: usize,
    strategy: u8,
    ble_loss: f64,
    partition: bool,
    churn: bool,
    mobile: bool,
}

fn relay_scenario() -> impl Strategy<Value = RelayScenario> {
    (any::<u64>(), 4usize..=6, 0u8..3, 0.0f64..0.3, any::<bool>(), any::<bool>(), any::<bool>())
        .prop_map(|(seed, nodes, strategy, ble_loss, partition, churn, mobile)| RelayScenario {
            seed,
            nodes,
            strategy,
            ble_loss,
            partition,
            churn,
            mobile,
        })
}

/// Runs a relay-enabled Omni fleet — custody stores, seen-sets, PRoPHET
/// summaries and all. The chain pitch (25 m vs. the 30 m BLE range) forces
/// every delivery through the relay path.
fn run_relay(sc: &RelayScenario) -> Artifacts {
    let faults = FaultConfig {
        ble_loss: sc.ble_loss,
        partitions: if sc.partition {
            vec![LinkPartition::new(1, 2, SimTime::from_secs(6), SimTime::from_secs(12))]
        } else {
            Vec::new()
        },
        churn: if sc.churn {
            vec![ChurnWindow {
                dev: 2,
                down_at: SimTime::from_secs(8),
                up_at: SimTime::from_secs(13),
            }]
        } else {
            Vec::new()
        },
        ..Default::default()
    };
    let mut sim = Runner::new(SimConfig { seed: sc.seed, faults, ..Default::default() });
    let obs = Obs::new();
    sim.set_obs(obs.clone());
    sim.enable_sampler(SamplerConfig::default());

    let policy = match sc.strategy {
        0 => RelayPolicy::epidemic(),
        1 => RelayPolicy::prophet(),
        _ => RelayPolicy::spray(4),
    };
    let cfg = OmniConfig { relay: policy, ..Default::default() };
    let devs: Vec<_> = (0..sc.nodes)
        .map(|i| sim.add_device(DeviceCaps::PI, Position::new(i as f64 * 25.0, 0.0)))
        .collect();
    let dest = OmniBuilder::omni_address(&sim, devs[sc.nodes - 1]);
    let heard: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    for (i, &dev) in devs.iter().enumerate() {
        let mgr =
            OmniBuilder::new().with_ble().with_config(cfg.clone()).with_obs(&obs).build(&sim, dev);
        if i == 0 {
            sim.set_stack(
                dev,
                Box::new(OmniStack::new(mgr, move |omni| {
                    omni.request_timers(Box::new(move |token, o| {
                        o.send_data(
                            vec![dest],
                            Bytes::from(vec![token as u8]),
                            Box::new(|_, _, _| {}),
                        );
                    }));
                    for m in 0..4u64 {
                        omni.set_timer(m + 1, SimDuration::from_millis(2_000 + 500 * m));
                    }
                })),
            );
        } else {
            let h = heard.clone();
            sim.set_stack(
                dev,
                Box::new(OmniStack::new(mgr, move |omni| {
                    omni.request_data(Box::new(move |_, _, _| *h.borrow_mut() += 1));
                })),
            );
        }
    }
    if sc.mobile {
        // A walker drifting off the chain mid-run changes the relay
        // topology while custody is held.
        sim.schedule_walk(devs[1], SimTime::from_secs(7), Position::new(25.0, 40.0), 1.5);
    }
    sim.run_until(SimTime::from_secs(20));
    let heard_total = *heard.borrow();
    Artifacts::capture(&sim, &obs, heard_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Relay-enabled runs: custody pumps, seen-set dedup, and strategy
    /// decisions replay byte for byte under the same seed.
    #[test]
    fn relay_fleets_replay_byte_identically(sc in relay_scenario()) {
        run_relay(&sc).assert_identical(&run_relay(&sc), "relay fleet");
    }
}

/// Fixed-seed relay spot check: a faulty 5-node epidemic chain that must
/// actually deliver multi-hop, identical across same-seed runs.
#[test]
fn relay_chain_replays_at_fixed_seed() {
    let sc = RelayScenario {
        seed: 8,
        nodes: 5,
        strategy: 0,
        ble_loss: 0.15,
        partition: true,
        churn: true,
        mobile: true,
    };
    let first = run_relay(&sc);
    assert!(!first.sampler_jsonl.is_empty());
    assert!(
        first.recorder_dump.contains("DataRelayed"),
        "the scenario must exercise the relay path"
    );
    first.assert_identical(&run_relay(&sc), "relay chain");
}

/// Fixed-seed spot check kept outside proptest so a plain `cargo test`
/// failure names it directly: a 12-node faulty, mobile, restless fleet.
#[test]
fn mutating_fleet_replays_at_fixed_seed() {
    let sc = Scenario {
        seed: 42,
        nodes: 12,
        cols: 4,
        pitch_m: 5.0,
        ble_loss: 0.2,
        jitter_ms: 5,
        partition: true,
        churn: true,
        mobile: true,
        fiddle: true,
    };
    let first = run_mutating(&sc);
    assert!(!first.sampler_jsonl.is_empty());
    assert!(first.fault_draws > 0);
    first.assert_identical(&run_mutating(&sc), "mutating fleet");
}
