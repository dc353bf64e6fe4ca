//! The three workloads: seeded fleet generation, fleet construction, the
//! benchmark's application callbacks, and the outcome each run is judged by.
//!
//! The middleware only ever sees the generated fleet: positions, walks,
//! fault windows, context items and a send schedule, all derived from the
//! seed. Sends fire on sim-time application timers (an open loop in
//! simulated time), so a slow send never delays the next one.

use std::cell::RefCell;
use std::collections::HashMap;
use std::f64::consts::TAU;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use omni_core::techs::{BleBeaconTech, WifiMulticastTech, WifiTcpTech};
use omni_core::{
    ContextParams, D2dTechnology, GroupKey, LinkTimings, OmniBuilder, OmniConfig, OmniCtl,
    OmniManager, OmniStack, RelayPolicy, RetryPolicy,
};
use omni_obs::Obs;
use omni_sim::{
    ChurnWindow, DeviceCaps, DeviceId, FaultConfig, LinkPartition, Position, Runner, SimConfig,
    SimDuration, SimTime,
};
use omni_wire::{OmniAddress, StatusCode};

use crate::probe::{Ledger, StackProbe, TechProbe};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ContextDense,
    DataWild,
    RelayMule,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ContextDense, Workload::DataWild, Workload::RelayMule];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ContextDense => "context-dense",
            Workload::DataWild => "data-wild",
            Workload::RelayMule => "relay-mule",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tail percentile reported as `delivery_tail_ms`: the highest one
    /// with at least ten delivered samples beyond it.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::ContextDense | Workload::DataWild => 0.99,
            Workload::RelayMule => 0.90,
        }
    }
}

/// splitmix64: the benchmark's own seeded generator, so inputs depend on
/// nothing but the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6f6d_6e69_666c_6565)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-r, r)`.
    fn jitter(&mut self, r: f64) -> f64 {
        (self.unit() * 2.0 - 1.0) * r
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

/// One scheduled application send.
#[derive(Clone)]
pub struct Send {
    pub from: usize,
    pub to: usize,
    pub at: SimTime,
    /// Starts with the little-endian message id; receivers key on it.
    pub payload: Bytes,
    /// Logical transfer size (bulk sends are larger than their payload).
    pub total_len: u64,
}

/// A generated fleet: everything the middleware is given.
#[derive(Clone)]
pub struct Spec {
    pub workload: Workload,
    pub caps: DeviceCaps,
    pub sim: SimConfig,
    pub omni: OmniConfig,
    pub positions: Vec<Position>,
    /// `(device, depart, destination, speed m/s)`.
    pub walks: Vec<(usize, SimTime, Position, f64)>,
    /// One context item per device (`context-dense` only).
    pub contexts: Vec<Bytes>,
    pub sends: Vec<Send>,
    pub end: SimTime,
    /// Offered load of the WiFi-only (medium and bulk) messages, in bytes
    /// per second of the send window.
    pub bulk_bps: f64,
}

// context-dense: a 45 × 45 grid at 15 m pitch against the 30 m BLE range
// gives 12 neighbours per interior device.
const GRID_SIDE: usize = 45;
const GRID_PITCH_M: f64 = 15.0;
const CTX_END_S: u64 = 4;

// data-wild: 8-device clusters 160 m apart, beyond the 100 m WiFi range.
// Sizes keep the offered load at ~16 % of the fleet-wide WiFi channel,
// below the ~20 % where retried bulk sends collapse it (README.md).
const CLUSTERS: usize = 256;
const CLUSTER_PITCH_M: f64 = 160.0;
const MSGS_PER_HEAD: u64 = 24;
const MSG_GAP_MS: u64 = 600;
const MEDIUM_MIN: u64 = 500;
const MEDIUM_SPAN: usize = 3_500;
const BULK_MIN: u64 = 8_000;
const BULK_SPAN: usize = 16_000;
/// Largest payload an acked, traced BLE data frame carries (64-byte
/// advertisement minus 17 framing, 9 header and 8 trace bytes).
const BLE_PAYLOAD_MAX: usize = 30;

// relay-mule: 3 × 3 single-device islands 80 m apart (beyond BLE range),
// bridged by carriers shuttling along each row and each column. Relay
// frames ride BLE one-shots, so payloads stay small. The drain after the
// last send outlasts the 30 s custody timeout, so every send reaches its
// terminal status.
const ISLAND_SIDE: usize = 3;
const ISLAND_PITCH_M: f64 = 80.0;
const CARRIER_SPEED_MPS: f64 = 10.0;
const RELAY_MSGS_PER_ISLAND: u64 = 24;
const RELAY_GAP_MS: u64 = 2_000;
const RELAY_DRAIN_S: u64 = 40;

impl Spec {
    pub fn generate(workload: Workload, seed: u64) -> Spec {
        let mut rng = Rng::new(seed);
        let sim = SimConfig { seed: rng.next_u64(), ..Default::default() };
        match workload {
            Workload::ContextDense => Self::context_dense(sim, &mut rng),
            Workload::DataWild => Self::data_wild(sim, &mut rng),
            Workload::RelayMule => Self::relay_mule(sim, &mut rng),
        }
    }

    fn context_dense(mut sim: SimConfig, rng: &mut Rng) -> Spec {
        sim.faults = FaultConfig { ble_loss: 0.10, ..Default::default() };
        let mut key = [0u8; 16];
        key.copy_from_slice(&rng.bytes(16));
        let omni =
            OmniConfig { context_key: Some(GroupKey::from_bytes(key)), ..Default::default() };
        let mut positions = Vec::new();
        let mut contexts = Vec::new();
        for i in 0..GRID_SIDE * GRID_SIDE {
            let (x, y) = ((i % GRID_SIDE) as f64, (i / GRID_SIDE) as f64);
            positions.push(Position::new(
                x * GRID_PITCH_M + rng.jitter(1.5),
                y * GRID_PITCH_M + rng.jitter(1.5),
            ));
            let mut item = b"ctx".to_vec();
            item.extend_from_slice(&(i as u32).to_le_bytes());
            item.extend_from_slice(&rng.bytes(5));
            contexts.push(Bytes::from(item));
        }
        Spec {
            workload: Workload::ContextDense,
            caps: DeviceCaps::PI,
            sim,
            omni,
            positions,
            walks: Vec::new(),
            contexts,
            sends: Vec::new(),
            end: SimTime::from_secs(CTX_END_S),
            bulk_bps: 0.0,
        }
    }

    fn data_wild(mut sim: SimConfig, rng: &mut Rng) -> Spec {
        let side = (CLUSTERS as f64).sqrt().ceil() as usize;
        let mut positions = Vec::new();
        let mut sends = Vec::new();
        let mut faults = FaultConfig { ble_loss: 0.05, ..Default::default() };
        for c in 0..CLUSTERS {
            let head = positions.len();
            let cx = (c % side) as f64 * CLUSTER_PITCH_M + rng.jitter(5.0);
            let cy = (c / side) as f64 * CLUSTER_PITCH_M + rng.jitter(5.0);
            positions.push(Position::new(cx, cy));
            for m in 0..7 {
                let angle = TAU * m as f64 / 7.0 + rng.jitter(0.2);
                let r = 10.0 + rng.jitter(2.0);
                positions.push(Position::new(cx + r * angle.cos(), cy + r * angle.sin()));
            }
            // One cluster in eight loses its head↔member-1 link for 1.5 s,
            // another in eight reboots member 2 for 1.5 s: both shorter than
            // the retry ladder and the peer TTL.
            if rng.below(8) == 0 {
                faults.partitions.push(LinkPartition::new(
                    head,
                    head + 1,
                    SimTime::from_millis(6_000),
                    SimTime::from_millis(7_500),
                ));
            }
            if rng.below(8) == 0 {
                faults.churn.push(ChurnWindow {
                    dev: head + 2,
                    down_at: SimTime::from_millis(10_000),
                    up_at: SimTime::from_millis(11_500),
                });
            }
            let phase = rng.below(MSG_GAP_MS as usize) as u64;
            for k in 0..MSGS_PER_HEAD {
                // Of every eight messages: three small enough for BLE
                // failover, four medium and one bulk (WiFi-TCP only). The
                // cycle is offset per cluster so bulk sends spread over time
                // instead of bursting fleet-wide.
                let (extra, total_len) = match (k + c as u64) % 8 {
                    0 | 3 | 6 => (4 + rng.below(BLE_PAYLOAD_MAX - 4 - 3), None),
                    7 => (20, Some(BULK_MIN + rng.below(BULK_SPAN) as u64)),
                    _ => (20, Some(MEDIUM_MIN + rng.below(MEDIUM_SPAN) as u64)),
                };
                let payload = message(sends.len(), extra, rng);
                let total_len = total_len.unwrap_or(payload.len() as u64);
                sends.push(Send {
                    from: head,
                    to: head + 1 + (k % 7) as usize,
                    at: SimTime::from_millis(3_000 + phase + k * MSG_GAP_MS),
                    payload,
                    total_len,
                });
            }
        }
        sim.faults = faults;
        let window_s = (MSGS_PER_HEAD * MSG_GAP_MS) as f64 / 1000.0;
        let bulk_bytes: u64 = sends
            .iter()
            .filter(|s| s.total_len > BLE_PAYLOAD_MAX as u64)
            .map(|s| s.total_len)
            .sum();
        let last = sends.iter().map(|s| s.at).max().expect("sends");
        Spec {
            workload: Workload::DataWild,
            caps: DeviceCaps::PI,
            sim,
            omni: OmniConfig { retry: RetryPolicy::reliable(), ..Default::default() },
            positions,
            walks: Vec::new(),
            contexts: Vec::new(),
            sends,
            end: last + SimDuration::from_secs(8),
            bulk_bps: bulk_bytes as f64 / window_s,
        }
    }

    fn relay_mule(sim: SimConfig, rng: &mut Rng) -> Spec {
        let island = |r: usize, c: usize| {
            Position::new(c as f64 * ISLAND_PITCH_M, r as f64 * ISLAND_PITCH_M)
        };
        let islands = ISLAND_SIDE * ISLAND_SIDE;
        let mut positions: Vec<Position> = (0..islands)
            .map(|i| {
                let centre = island(i / ISLAND_SIDE, i % ISLAND_SIDE);
                Position::new(centre.x + rng.jitter(1.0), centre.y + rng.jitter(1.0))
            })
            .collect();
        // Two carriers per row and two per column shuttle end to end,
        // pausing 2 s at each island; the second of each pair starts from
        // the opposite end so every island sees a carrier every ~20 s.
        let mut walks = Vec::new();
        let leg = SimDuration::from_secs_f64(ISLAND_PITCH_M / CARRIER_SPEED_MPS);
        let dwell = SimDuration::from_secs(2);
        let horizon =
            SimTime::from_secs(RELAY_MSGS_PER_ISLAND * RELAY_GAP_MS / 1000 + RELAY_DRAIN_S);
        for line in 0..ISLAND_SIDE {
            for along_rows in [true, false] {
                for reverse in [false, true] {
                    let stop =
                        |k: usize| if along_rows { island(line, k) } else { island(k, line) };
                    let mut route: Vec<Position> = (0..ISLAND_SIDE).map(stop).collect();
                    if reverse {
                        route.reverse();
                    }
                    let dev = positions.len();
                    positions.push(Position::new(route[0].x + 3.0, route[0].y + 3.0));
                    let mut t = SimTime::from_secs(1);
                    let mut at = 0usize;
                    let mut step: isize = 1;
                    while t < horizon {
                        let next = (at as isize + step) as usize;
                        let to = route[next];
                        walks.push((
                            dev,
                            t,
                            Position::new(to.x + 3.0, to.y + 3.0),
                            CARRIER_SPEED_MPS,
                        ));
                        t = t + leg + dwell;
                        at = next;
                        if at == 0 || at == ISLAND_SIDE - 1 {
                            step = -step;
                        }
                    }
                }
            }
        }
        // Every island cycles through every other island in a seeded order,
        // so the mix of one- and two-carrier routes is the same for every
        // seed.
        let mut sends = Vec::new();
        let orders: Vec<Vec<usize>> = (0..islands)
            .map(|h| {
                let mut order: Vec<usize> = (0..islands).filter(|&o| o != h).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                order
            })
            .collect();
        for k in 0..RELAY_MSGS_PER_ISLAND {
            for (from, order) in orders.iter().enumerate() {
                let to = order[k as usize % order.len()];
                let payload = message(sends.len(), 8, rng);
                let total_len = payload.len() as u64;
                sends.push(Send {
                    from,
                    to,
                    at: SimTime::from_millis(5_000 + k * RELAY_GAP_MS + rng.below(1_000) as u64),
                    payload,
                    total_len,
                });
            }
        }
        Spec {
            workload: Workload::RelayMule,
            caps: DeviceCaps::BEACON,
            sim,
            omni: OmniConfig {
                retry: RetryPolicy::reliable(),
                relay: RelayPolicy::epidemic(),
                ..Default::default()
            },
            positions,
            walks,
            contexts: Vec::new(),
            sends,
            end: horizon,
            bulk_bps: 0.0,
        }
    }

    /// The same fleet with the relay layer off: the single-hop reference.
    pub fn single_hop(&self) -> Spec {
        let omni = OmniConfig { relay: RelayPolicy::off(), ..self.omni.clone() };
        Spec { omni, ..self.clone() }
    }
}

/// A message payload: little-endian id followed by `extra` seeded bytes.
fn message(id: usize, extra: usize, rng: &mut Rng) -> Bytes {
    let mut v = (id as u32).to_le_bytes().to_vec();
    v.extend_from_slice(&rng.bytes(extra));
    Bytes::from(v)
}

/// What the application callbacks observed.
#[derive(Default)]
pub struct Book {
    /// Per receiver: `(advertiser, first receipt)` for every in-range
    /// advertiser (`context-dense`).
    pairs: Vec<Vec<(u32, Option<SimTime>)>>,
    /// Per send: terminal success and failure statuses seen.
    ok: Vec<u32>,
    failed: Vec<u32>,
    first_rx: Vec<Option<SimTime>>,
    context_added: Vec<u32>,
    pub violations: Vec<String>,
}

impl Book {
    fn violation(&mut self, what: String) {
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }
}

/// One built fleet, ready to run.
pub struct Fleet {
    pub runner: Runner,
    pub book: Rc<RefCell<Book>>,
    pub ledger: Rc<Ledger>,
    pub obs: Option<Obs>,
    pub setup_s: f64,
}

/// Builds the fleet. `setup_s` covers `Runner::new`, `add_device`, walks,
/// manager construction and `set_stack`: everything up to the first
/// `run_until`. The checker's own bookkeeping is filled in afterwards.
pub fn build(spec: &Rc<Spec>, traced: bool) -> Fleet {
    let ledger = Ledger::new(traced, spec.omni.context_key.is_some());
    let book = Rc::new(RefCell::new(Book::default()));
    let t0 = Instant::now();
    let mut runner = Runner::new(spec.sim.clone());
    runner.trace_mut().set_enabled(false);
    let obs = traced.then(Obs::new);
    if let Some(obs) = &obs {
        runner.set_obs(obs.clone());
    }
    let devs: Vec<DeviceId> =
        spec.positions.iter().map(|&p| runner.add_device(spec.caps, p)).collect();
    for &(dev, depart, to, speed) in &spec.walks {
        runner.schedule_walk(devs[dev], depart, to, speed);
    }
    let addrs: Rc<Vec<OmniAddress>> =
        Rc::new(devs.iter().map(|&d| OmniBuilder::omni_address(&runner, d)).collect());
    let index: Rc<HashMap<OmniAddress, u32>> =
        Rc::new(addrs.iter().enumerate().map(|(i, &a)| (a, i as u32)).collect());
    let mut cfg = spec.omni.clone();
    cfg.obs = obs.clone();
    let mut sends_by_head: HashMap<usize, Vec<usize>> = HashMap::new();
    for (id, s) in spec.sends.iter().enumerate() {
        sends_by_head.entry(s.from).or_default().push(id);
    }
    for (i, &dev) in devs.iter().enumerate() {
        let manager = if traced {
            build_probed(&runner, dev, spec.caps, &cfg, &ledger)
        } else {
            OmniBuilder::new().with_caps(spec.caps).with_config(cfg.clone()).build(&runner, dev)
        };
        let app = App {
            dev: i,
            spec: spec.clone(),
            book: book.clone(),
            ledger: ledger.clone(),
            addrs: addrs.clone(),
            index: index.clone(),
            sends: sends_by_head.remove(&i).unwrap_or_default(),
        };
        let stack = OmniStack::new(manager, move |omni| app.init(omni));
        runner.set_stack(dev, Box::new(StackProbe::new(stack, ledger.clone())));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    {
        let mut b = book.borrow_mut();
        let n = spec.sends.len();
        b.ok = vec![0; n];
        b.failed = vec![0; n];
        b.first_rx = vec![None; n];
        if !spec.contexts.is_empty() {
            b.context_added = vec![0; devs.len()];
            let range = runner.config().ble.range_m;
            b.pairs = devs
                .iter()
                .map(|&d| runner.world().neighbors(d, range).map(|n| (n.0 as u32, None)).collect())
                .collect();
        }
    }
    Fleet { runner, book, ledger, obs, setup_s }
}

/// `OmniBuilder::with_caps(caps).build`, with every technology wrapped in a
/// [`TechProbe`] (including the BLE link-ack switch the builder sets).
fn build_probed(
    runner: &Runner,
    dev: DeviceId,
    caps: DeviceCaps,
    cfg: &OmniConfig,
    ledger: &Rc<Ledger>,
) -> OmniManager {
    let own = OmniBuilder::omni_address(runner, dev);
    let timings = LinkTimings::from_sim(runner.config());
    let probe = |t: Box<dyn D2dTechnology>| -> Box<dyn D2dTechnology> {
        Box::new(TechProbe::new(t, own, ledger.clone()))
    };
    let mut techs = Vec::new();
    if caps.ble {
        techs.push(probe(Box::new(
            BleBeaconTech::new(own, runner.ble_addr(dev), timings.ble_max_payload, 1.0)
                .with_link_acks(cfg.retry.enabled()),
        )));
    }
    if caps.wifi {
        techs.push(probe(Box::new(WifiMulticastTech::new(
            own,
            runner.mesh_addr(dev),
            timings.clone(),
        ))));
        techs.push(probe(Box::new(WifiTcpTech::new(own, runner.mesh_addr(dev), timings.clone()))));
    }
    let mut cfg = cfg.clone();
    cfg.timings = timings;
    OmniManager::new(own, cfg, techs)
}

/// The benchmark's application on one device.
struct App {
    dev: usize,
    spec: Rc<Spec>,
    book: Rc<RefCell<Book>>,
    ledger: Rc<Ledger>,
    addrs: Rc<Vec<OmniAddress>>,
    index: Rc<HashMap<OmniAddress, u32>>,
    /// Ids of the sends this device originates.
    sends: Vec<usize>,
}

impl App {
    fn init(self, omni: &mut OmniCtl) {
        let App { dev, spec, book, ledger, addrs, index, sends } = self;
        if let Some(item) = spec.contexts.get(dev) {
            let (b, l) = (book.clone(), ledger.clone());
            omni.add_context(
                ContextParams::default(),
                item.clone(),
                Box::new(move |code, _, _| {
                    l.app(|| {
                        let mut b = b.borrow_mut();
                        if code == StatusCode::AddContextSuccess {
                            b.context_added[dev] += 1;
                        } else {
                            b.violation(format!("device {dev}: add_context ended {code}"));
                        }
                    })
                }),
            );
            let (b, l, s) = (book.clone(), ledger.clone(), spec.clone());
            let index = index.clone();
            omni.request_context(Box::new(move |src, payload, ctl| {
                l.app(|| {
                    l.receipts.set(l.receipts.get() + 1);
                    l.ctx_receipts.set(l.ctx_receipts.get() + 1);
                    let mut b = b.borrow_mut();
                    let Some(&from) = index.get(&src) else {
                        return b.violation(format!("device {dev}: context from unknown {src}"));
                    };
                    if payload != &s.contexts[from as usize] {
                        b.violation(format!("device {dev}: context from {from} does not match"));
                    }
                    match b.pairs[dev].iter_mut().find(|p| p.0 == from) {
                        Some(p) => {
                            p.1.get_or_insert(ctl.now);
                        }
                        None => {
                            b.violation(format!("device {dev}: context from {from} out of range"))
                        }
                    }
                })
            }));
        }
        if spec.sends.is_empty() {
            return;
        }
        let (b, l, s, a) = (book.clone(), ledger.clone(), spec.clone(), addrs.clone());
        omni.request_data(Box::new(move |src, payload, ctl| {
            l.app(|| {
                l.receipts.set(l.receipts.get() + 1);
                let mut b = b.borrow_mut();
                let id = payload
                    .get(..4)
                    .map(|h| u32::from_le_bytes(h.try_into().expect("4 bytes")) as usize);
                let Some((id, send)) = id.and_then(|id| Some((id, s.sends.get(id)?))) else {
                    return b.violation(format!("device {dev}: data without a known message id"));
                };
                if send.to != dev || src != a[send.from] || payload != &send.payload {
                    return b
                        .violation(format!("device {dev}: message {id} does not match its send"));
                }
                b.first_rx[id].get_or_insert(ctl.now);
            })
        }));
        if sends.is_empty() {
            return;
        }
        for &id in &sends {
            let delay = spec.sends[id].at.saturating_since(SimTime::ZERO);
            omni.set_timer(id as u64 + 1, delay);
        }
        omni.request_timers(Box::new(move |token, ctl| {
            ledger.app(|| {
                let id = (token - 1) as usize;
                let send = &spec.sends[id];
                let (b, l) = (book.clone(), ledger.clone());
                ctl.send_data_sized(
                    vec![addrs[send.to]],
                    send.payload.clone(),
                    send.total_len,
                    Box::new(move |code, _, _| {
                        l.app(|| {
                            let mut b = b.borrow_mut();
                            match code {
                                StatusCode::SendDataSuccess => b.ok[id] += 1,
                                StatusCode::SendDataFailure => b.failed[id] += 1,
                                other => b.violation(format!("message {id}: status {other}")),
                            }
                        })
                    }),
                );
            })
        }));
    }
}

/// The simulated outcome of one run. Every field repeats exactly for a
/// fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub delivered: u64,
    /// Sends whose one terminal status was a failure.
    pub failed: u64,
    /// Sim-time latency of each delivered item, ascending.
    pub latencies_ms: Vec<f64>,
    pub energy_ma: f64,
    pub receipts: u64,
    pub events: [u64; crate::probe::EVENT_KINDS.len()],
}

impl Outcome {
    pub fn ratio(&self) -> f64 {
        self.delivered as f64 / self.attempted as f64
    }

    /// Nearest-rank quantile over delivered items.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.latencies_ms.len();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.latencies_ms[rank - 1]
    }
}

/// Reads the outcome of a finished run and appends every check violation
/// to the book.
pub fn outcome(spec: &Spec, fleet: &Fleet) -> Outcome {
    let runner = &fleet.runner;
    let end = runner.now();
    let n = runner.device_count();
    let energy_ma =
        (0..n).map(|d| runner.energy().average_ma(DeviceId(d), SimTime::ZERO, end)).sum::<f64>()
            / n as f64;
    let mut b = fleet.book.borrow_mut();
    let mut latencies = Vec::new();
    let (attempted, delivered, failed);
    if spec.contexts.is_empty() {
        attempted = spec.sends.len() as u64;
        let mut bad = Vec::new();
        for (id, send) in spec.sends.iter().enumerate() {
            let terminal = b.ok[id] + b.failed[id];
            if terminal != 1 {
                bad.push(format!("message {id} ended with {terminal} terminal statuses"));
            }
            // A send the application was told failed is a miss, even if a
            // copy reached the destination.
            if let (Some(t), 0) = (b.first_rx[id], b.failed[id]) {
                latencies.push(t.saturating_since(send.at).as_micros() as f64 / 1000.0);
            }
        }
        for v in bad {
            b.violation(v);
        }
        delivered = latencies.len() as u64;
        failed = b.failed.iter().filter(|&&f| f > 0).count() as u64;
    } else {
        let unadded = b.context_added.iter().filter(|&&c| c != 1).count();
        if unadded > 0 {
            b.violation(format!("{unadded} devices did not add their context exactly once"));
        }
        attempted = b.pairs.iter().map(|p| p.len() as u64).sum();
        for pairs in &b.pairs {
            latencies
                .extend(pairs.iter().filter_map(|p| p.1).map(|t| t.as_micros() as f64 / 1000.0));
        }
        delivered = latencies.len() as u64;
        failed = 0;
    }
    latencies.sort_by(f64::total_cmp);
    Outcome {
        attempted,
        delivered,
        failed,
        latencies_ms: latencies,
        energy_ma,
        receipts: fleet.ledger.receipts.get(),
        events: fleet.ledger.event_counts(),
    }
}
