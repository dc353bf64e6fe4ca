//! The discrete-event simulation runner.
//!
//! The [`Runner`] owns the virtual clock, the event queue, every device's
//! radio state, the shared WiFi medium, the energy ledger, and the protocol
//! [`Stack`]s. Determinism: events are ordered by `(time, sequence)` and all
//! randomness flows from the configured seed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use bytes::Bytes;
use omni_obs::{Counter, EventKind, Gauge, Histogram, Obs, Phase, PhaseScope, TickProfiler};
use omni_wire::{BleAddress, MeshAddress, NfcAddress, TechType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::energy::{EnergyLedger, EnergyState};
use crate::faults::{FaultScope, FaultState};
use crate::medium::{Flow, McastJob, WifiMedium};
use crate::node::{Command, ConnId, DeviceId, NodeApi, NodeEvent, Stack, TcpError};
use crate::telemetry::{Sampler, SamplerConfig};
use crate::time::{SimDuration, SimTime};
use crate::world::{Position, World};

/// Which radios a device is built with. Present radios start powered on.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCaps {
    /// Has a BLE radio.
    pub ble: bool,
    /// Has a WiFi-Mesh radio.
    pub wifi: bool,
    /// Has NFC.
    pub nfc: bool,
}

impl DeviceCaps {
    /// BLE + WiFi + NFC (a modern smartphone, per paper Figure 3).
    pub const PHONE: DeviceCaps = DeviceCaps { ble: true, wifi: true, nfc: true };
    /// BLE + WiFi (the Raspberry Pi testbed devices of §4).
    pub const PI: DeviceCaps = DeviceCaps { ble: true, wifi: true, nfc: false };
    /// BLE only (a simple beacon).
    pub const BEACON: DeviceCaps = DeviceCaps { ble: true, wifi: false, nfc: false };
}

#[derive(Debug, Clone)]
struct BleSlot {
    payload: Bytes,
    interval: SimDuration,
    gen: u64,
}

#[derive(Debug, Clone)]
struct ActiveInfra {
    req: u64,
    total: u64,
    chunk: u64,
    received: u64,
    next_chunk_index: u64,
}

#[derive(Debug)]
struct DeviceState {
    caps: DeviceCaps,
    ble_on: bool,
    ble_scan_duty: Option<f64>,
    /// Advertising slots, keyed by caller-chosen slot id. A Vec, not a map:
    /// devices have one or two slots and the beacon tick probes this on
    /// every pulse.
    ble_slots: Vec<(u32, BleSlot)>,
    /// Next advertising generation. Monotonic per device and never reused —
    /// a slot that is stopped and re-registered must not produce a
    /// generation an already-scheduled pulse of the old registration could
    /// match, or the beacon cadence doubles.
    ble_next_gen: u64,
    ble_addr: BleAddress,
    wifi_on: bool,
    wifi_joined: bool,
    wifi_mcast_listen: bool,
    wifi_scanning: bool,
    wifi_scan_gen: u64,
    wifi_joining: bool,
    wifi_join_gen: u64,
    mesh_addr: MeshAddress,
    nfc_addr: NfcAddress,
    infra_rate_bps: f64,
    infra_queue: VecDeque<(u64, u64, u64)>, // (req, total, chunk)
    infra_active: Option<ActiveInfra>,
    infra_gen: u64,
    macs: Vec<[u8; 6]>,
}

#[derive(Debug)]
struct Connection {
    a: DeviceId,
    b: DeviceId,
    open: bool,
    /// Pending messages per direction (0: a→b, 1: b→a).
    pending: [VecDeque<(Bytes, f64)>; 2],
    /// Whether a flow for the direction is in the medium.
    active: [bool; 2],
}

impl Connection {
    fn dir_from(&self, dev: DeviceId) -> Option<usize> {
        if dev == self.a {
            Some(0)
        } else if dev == self.b {
            Some(1)
        } else {
            None
        }
    }

    fn endpoint(&self, dir: usize) -> (DeviceId, DeviceId) {
        if dir == 0 {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        }
    }

    fn involves(&self, dev: DeviceId) -> bool {
        self.a == dev || self.b == dev
    }
}

#[derive(Debug)]
enum Engine {
    StartStack {
        dev: DeviceId,
    },
    Timer {
        dev: DeviceId,
        token: u64,
        gen: u64,
    },
    BleAdv {
        dev: DeviceId,
        slot: u32,
        gen: u64,
    },
    /// Payload carried inline: `Bytes` is a two-word refcounted handle, so
    /// cloning it per receiver is an `Arc` bump, not an allocation — boxing
    /// it would put one heap allocation back on every fan-out delivery
    /// (DESIGN.md §5i).
    BleOneShotDeliver {
        to: DeviceId,
        from: DeviceId,
        payload: Bytes,
    },
    BleOneShotSent {
        dev: DeviceId,
    },
    WifiScanDone {
        dev: DeviceId,
        gen: u64,
    },
    WifiJoinDone {
        dev: DeviceId,
        gen: u64,
    },
    /// Immediate confirmation for a join issued while already joined.
    WifiJoinEcho {
        dev: DeviceId,
    },
    TcpConnectDone {
        initiator: DeviceId,
        token: u64,
        target: DeviceId,
    },
    TcpConnectFail {
        dev: DeviceId,
        token: u64,
        error: TcpError,
    },
    FlowBoundary {
        gen: u64,
    },
    McastDone {
        gen: u64,
    },
    /// Payload carried inline for the same reason as `BleOneShotDeliver`.
    NfcDeliver {
        to: DeviceId,
        from: DeviceId,
        payload: Bytes,
    },
    InfraChunkDone {
        dev: DeviceId,
        gen: u64,
    },
    Teleport {
        dev: DeviceId,
        pos: Position,
    },
    WalkStep {
        dev: DeviceId,
        to: Position,
        speed_mps: f64,
    },
    /// A configured link partition window opens (tears down TCP between the
    /// pair; subsequent reachability is checked against the window itself).
    PartitionStart {
        idx: usize,
    },
    /// A churn window takes a node's radios down.
    ChurnDown {
        dev: DeviceId,
    },
    /// A churn window ends: the node's radios come back.
    ChurnUp {
        dev: DeviceId,
    },
    /// A periodic telemetry sampling tick (only scheduled when
    /// [`Runner::enable_sampler`] was called).
    Sample,
}

/// Cached tx/rx meters for one technology; handles are atomic, so the
/// per-frame record path takes no lock and allocates nothing.
struct TechMeters {
    tx_frames: Counter,
    tx_bytes: Counter,
    rx_frames: Counter,
    rx_bytes: Counter,
}

impl TechMeters {
    fn new(obs: &Obs, tech: &str) -> Self {
        TechMeters {
            tx_frames: obs.counter(&format!("tech.{tech}.tx_frames")),
            tx_bytes: obs.counter(&format!("tech.{tech}.tx_bytes")),
            rx_frames: obs.counter(&format!("tech.{tech}.rx_frames")),
            rx_bytes: obs.counter(&format!("tech.{tech}.rx_bytes")),
        }
    }

    fn tx(&self, bytes: usize) {
        self.tx_frames.inc();
        self.tx_bytes.add(bytes as u64);
    }

    fn rx(&self, bytes: usize) {
        self.rx_frames.inc();
        self.rx_bytes.add(bytes as u64);
    }
}

/// Observability state attached to a [`Runner`] via [`Runner::set_obs`].
struct RunnerObs {
    obs: Obs,
    ble: TechMeters,
    mcast: TechMeters,
    tcp: TechMeters,
    nfc: TechMeters,
    beacon_interval_us: Histogram,
    fault_drops: Counter,
    /// Fault drops sliced by cause (`sim.faults.drops{cause=…}`).
    drops_frame_loss: Counter,
    drops_partition: Counter,
    drops_node_down: Counter,
    /// Per-cell frame transmission counters
    /// (`sim.cell.tx_frames{cell=x:y}`), cached per grid cell.
    cell_tx: HashMap<(i64, i64), Counter>,
    /// Per-cell device density gauges (`sim.cell.density{cell=x:y}`),
    /// refreshed on every sampling tick.
    cell_density: HashMap<(i64, i64), Gauge>,
}

impl RunnerObs {
    fn cell_tx_counter(&mut self, cell: (i64, i64)) -> &Counter {
        let obs = &self.obs;
        self.cell_tx.entry(cell).or_insert_with(|| {
            obs.counter_with("sim.cell.tx_frames", &[("cell", &format!("{}:{}", cell.0, cell.1))])
        })
    }

    fn cell_density_gauge(&mut self, cell: (i64, i64)) -> &Gauge {
        let obs = &self.obs;
        self.cell_density.entry(cell).or_insert_with(|| {
            obs.gauge_with("sim.cell.density", &[("cell", &format!("{}:{}", cell.0, cell.1))])
        })
    }

    fn drops_by_cause(&self, cause: &str) -> &Counter {
        match cause {
            "partition" => &self.drops_partition,
            "node-down" => &self.drops_node_down,
            _ => &self.drops_frame_loss,
        }
    }
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    ev: Engine,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// What [`Runner::trace_mut`] returns: a zero-sized switch that controls
/// nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Trace;

impl Trace {
    /// Does nothing.
    pub fn set_enabled(self, _enabled: bool) {}
}

/// The simulation runner. See the crate docs for the overall model.
pub struct Runner {
    cfg: SimConfig,
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled>>,
    rng: SmallRng,
    world: World,
    energy: EnergyLedger,
    devices: Vec<DeviceState>,
    stacks: Vec<Option<Box<dyn Stack>>>,
    medium: WifiMedium,
    conns: Vec<Connection>,
    mesh_index: HashMap<MeshAddress, DeviceId>,
    timer_gens: HashMap<(usize, u64), u64>,
    cmd_buf: Vec<(DeviceId, Command)>,
    /// Pooled recipient buffer for broadcast fan-out (beacons, one-shots,
    /// multicast, NFC, scans): taken, filled from the spatial grid, and put
    /// back, so the steady-state hot path allocates nothing.
    nbr_buf: Vec<DeviceId>,
    /// Pooled `(recipient, scan duty)` buffer for the BLE advertising tick.
    adv_buf: Vec<(DeviceId, f64)>,
    obs: Option<RunnerObs>,
    faults: FaultState,
    sampler: Option<Sampler>,
    /// Wall-clock tick-phase profiler (off by default). Boxed: the digest
    /// arrays are large and most runners never profile.
    profiler: Option<Box<TickProfiler>>,
    /// The coalesced phase scope currently being charged (see
    /// [`Runner::profile_event`]). Always `None` when `profiler` is.
    open_scope: Option<PhaseScope>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("now", &self.now)
            .field("devices", &self.devices.len())
            .field("pending_events", &self.heap.len())
            .finish_non_exhaustive()
    }
}

impl Runner {
    /// Creates a runner with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let medium = WifiMedium::new(cfg.wifi.capacity_bps);
        let faults = FaultState::new(cfg.seed, cfg.faults.clone());
        // Grid cell = the largest radio range, so every per-technology
        // neighbor query stays within a 3×3 cell neighborhood.
        let world = World::with_cell_size(cfg.max_range_m());
        let mut runner = Runner {
            cfg,
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            rng,
            world,
            energy: EnergyLedger::new(),
            devices: Vec::new(),
            stacks: Vec::new(),
            medium,
            conns: Vec::new(),
            mesh_index: HashMap::new(),
            timer_gens: HashMap::new(),
            cmd_buf: Vec::new(),
            nbr_buf: Vec::new(),
            adv_buf: Vec::new(),
            obs: None,
            faults,
            sampler: None,
            profiler: None,
            open_scope: None,
        };
        // Materialize configured fault windows as engine events. A default
        // (empty) FaultConfig schedules nothing, keeping the event sequence
        // byte-identical to a fault-free build.
        for (idx, p) in runner.cfg.faults.partitions.clone().into_iter().enumerate() {
            runner.schedule(
                SimDuration::from_micros(p.from.as_micros()),
                Engine::PartitionStart { idx },
            );
        }
        for w in runner.cfg.faults.churn.clone() {
            let dev = DeviceId(w.dev);
            runner.schedule(
                SimDuration::from_micros(w.down_at.as_micros()),
                Engine::ChurnDown { dev },
            );
            runner.schedule(SimDuration::from_micros(w.up_at.as_micros()), Engine::ChurnUp { dev });
        }
        runner
    }

    /// Frames dropped so far by fault-layer loss injection (all media).
    pub fn fault_frames_dropped(&self) -> u64 {
        self.faults.frames_dropped
    }

    /// Attaches an observability handle. The runner records per-technology
    /// tx/rx frame and byte counters, the realized BLE advertising cadence
    /// (`beacon.interval_us`), fault drops, commands it rejects
    /// (`sim.commands_dropped{cause=…}`), and [`EventKind::BeaconSent`],
    /// [`EventKind::FrameDropped`], [`EventKind::LinkPartitioned`] and
    /// [`EventKind::NodeDown`] events.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(RunnerObs {
            ble: TechMeters::new(&obs, "ble-beacon"),
            mcast: TechMeters::new(&obs, "wifi-multicast"),
            tcp: TechMeters::new(&obs, "wifi-tcp"),
            nfc: TechMeters::new(&obs, "nfc"),
            beacon_interval_us: obs.histogram("beacon.interval_us"),
            fault_drops: obs.counter("sim.faults.frames_dropped"),
            drops_frame_loss: obs.counter_with("sim.faults.drops", &[("cause", "frame-loss")]),
            drops_partition: obs.counter_with("sim.faults.drops", &[("cause", "partition")]),
            drops_node_down: obs.counter_with("sim.faults.drops", &[("cause", "node-down")]),
            cell_tx: HashMap::new(),
            cell_density: HashMap::new(),
            obs,
        });
    }

    /// Enables periodic telemetry sampling (off by default): every
    /// [`SamplerConfig::every`] of sim time, the attached [`Obs`] registry is
    /// folded into per-metric time series, a JSONL stream, and the fleet
    /// health monitor (see [`Sampler`]).  Health transitions are recorded as
    /// [`EventKind::HealthTransition`] events under the fleet-scope node id
    /// `u32::MAX`.
    ///
    /// Sampling draws no randomness and only appends `(time, seq)`-ordered
    /// events, so enabling it does not perturb fleet behavior: a sampler-on
    /// run is event-for-event identical to a sampler-off run of the same
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics when no [`Obs`] handle is attached ([`Runner::set_obs`]), when
    /// the interval is zero, or when a sampler is already enabled.
    pub fn enable_sampler(&mut self, cfg: SamplerConfig) {
        assert!(self.obs.is_some(), "attach an Obs handle (set_obs) before enabling the sampler");
        assert!(!cfg.every.is_zero(), "sampling interval must be positive");
        assert!(self.sampler.is_none(), "sampler already enabled");
        let every = cfg.every;
        self.sampler = Some(Sampler::new(cfg));
        self.schedule(every, Engine::Sample);
    }

    /// The telemetry sampler, when [`Runner::enable_sampler`] was called.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// The attached observability handle, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref().map(|o| &o.obs)
    }

    /// Enables the wall-clock tick-phase profiler (off by default).
    ///
    /// The profiler attributes runner wall time to the [`Phase`] taxonomy
    /// (delivery, fault evaluation, medium pump, timer drain, telemetry
    /// sampling) and keeps per-phase latency digests. It needs no [`Obs`]
    /// handle: its state lives outside the metrics registry on purpose.
    ///
    /// **Determinism invariant** (DESIGN.md §5j, enforced by the
    /// `profiler_invariance` test suite): the profiler only reads
    /// `std::time::Instant` and writes its own buffers — never the RNG, the
    /// event sequence, the metrics registry, or the event ring — so a
    /// profiler-on run produces byte-identical simulation artifacts to a
    /// profiler-off run of the same seed. Wall-clock measurements leave only
    /// through [`TickProfiler::report`].
    ///
    /// # Panics
    ///
    /// Panics when a profiler is already enabled.
    pub fn enable_profiler(&mut self) {
        assert!(self.profiler.is_none(), "profiler already enabled");
        self.profiler = Some(Box::new(TickProfiler::new()));
    }

    /// The tick-phase profiler, when [`Runner::enable_profiler`] was called.
    pub fn profiler(&self) -> Option<&TickProfiler> {
        self.profiler.as_deref()
    }

    /// Mutable profiler access (to set slice capacity for trace export).
    pub fn profiler_mut(&mut self) -> Option<&mut TickProfiler> {
        self.profiler.as_deref_mut()
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The energy ledger.
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// A no-op, kept because the fleet benchmark (`fleetbench/`), whose
    /// sources are frozen with the benchmark definition, calls
    /// `set_enabled(false)` on it. The [`Obs`] event ring and its counters
    /// are the runner's only per-event record.
    pub fn trace_mut(&mut self) -> Trace {
        Trace
    }

    /// The world (placements).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Forces (or stops forcing) neighbor resolution through the retained
    /// brute-force linear scan instead of the spatial grid. Both modes are
    /// bit-identical in behavior (see `World::neighbors_scan`); the `scale`
    /// bench and equivalence tests use this to compare whole runs.
    pub fn set_brute_force_neighbors(&mut self, on: bool) {
        self.world.set_brute_force(on);
    }

    /// Total RNG draws made by the fault layer so far; determinism tests
    /// assert two same-seed runs make the same draws.
    pub fn fault_rng_draws(&self) -> u64 {
        self.faults.draws
    }

    /// Adds a device with the given radios at the given position.
    /// Present radios start powered on (WiFi standby draw starts accruing
    /// immediately, as on the paper's testbed).
    pub fn add_device(&mut self, caps: DeviceCaps, pos: Position) -> DeviceId {
        let idx = self.devices.len();
        let id = DeviceId(idx);
        let n = idx as u64 + 1;
        let mesh_addr = MeshAddress::from_u64(0x0a00_0000_0000_0000 | n);
        let ble_addr = BleAddress::from_u64(0x0200_0000_0000 | n);
        let nfc_addr = NfcAddress::from_u32(n as u32);
        let mut macs = Vec::new();
        if caps.wifi {
            macs.push([0x02, 0x57, 0x1f, 0x00, (n >> 8) as u8, n as u8]);
        }
        if caps.ble {
            macs.push(ble_addr.0);
        }
        if macs.is_empty() {
            // NFC-only devices still need an identity source.
            macs.push([0x02, 0x4e, 0x46, 0x43, (n >> 8) as u8, n as u8]);
        }
        self.devices.push(DeviceState {
            caps,
            ble_on: caps.ble,
            ble_scan_duty: None,
            // Most stacks advertise at least one context slot; reserving up
            // front keeps the first `BleAdvertiseSet` of every device out of
            // the allocator (at 10k devices that first push was the single
            // largest startup allocation burst — see `scale --smoke`).
            ble_slots: Vec::with_capacity(2),
            ble_next_gen: 1,
            ble_addr,
            wifi_on: caps.wifi,
            wifi_joined: false,
            wifi_mcast_listen: false,
            wifi_scanning: false,
            wifi_scan_gen: 0,
            wifi_joining: false,
            wifi_join_gen: 0,
            mesh_addr,
            nfc_addr,
            infra_rate_bps: 0.0,
            infra_queue: VecDeque::new(),
            infra_active: None,
            infra_gen: 0,
            macs,
        });
        self.stacks.push(None);
        self.world.add_device(pos);
        self.energy.add_device();
        if caps.wifi {
            self.energy.enter(id, self.now, EnergyState::WifiOn, self.cfg.energy.wifi_standby_ma);
        }
        self.mesh_index.insert(mesh_addr, id);
        id
    }

    /// Attaches a stack to a device. The stack receives [`NodeEvent::Start`]
    /// at the current virtual time once the simulation runs.
    pub fn set_stack(&mut self, dev: DeviceId, stack: Box<dyn Stack>) {
        self.stacks[dev.0] = Some(stack);
        self.schedule(SimDuration::ZERO, Engine::StartStack { dev });
    }

    /// Sets the device's infrastructure downlink rate in bytes/second.
    pub fn set_infra_rate(&mut self, dev: DeviceId, bytes_per_sec: f64) {
        assert!(bytes_per_sec >= 0.0);
        self.devices[dev.0].infra_rate_bps = bytes_per_sec;
    }

    /// Schedules an instantaneous move of a device at a future time.
    pub fn schedule_teleport(&mut self, dev: DeviceId, at: SimTime, pos: Position) {
        let delay = at.saturating_since(self.now);
        self.schedule(delay, Engine::Teleport { dev, pos });
    }

    /// Schedules a continuous walk: starting at `depart`, the device moves
    /// in a straight line toward `to` at `speed_mps` meters per second,
    /// updating its position once per second (encounter dynamics — range
    /// checks, connection audits — happen at every step).
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not strictly positive and finite.
    pub fn schedule_walk(&mut self, dev: DeviceId, depart: SimTime, to: Position, speed_mps: f64) {
        assert!(speed_mps > 0.0 && speed_mps.is_finite(), "walking speed must be positive");
        // The first step lands one second after departure (the walker covers
        // its first `speed_mps` meters during that second).
        let delay = depart.saturating_since(self.now) + SimDuration::from_secs(1);
        self.schedule(delay, Engine::WalkStep { dev, to, speed_mps });
    }

    /// The device's WiFi-Mesh address.
    pub fn mesh_addr(&self, dev: DeviceId) -> MeshAddress {
        self.devices[dev.0].mesh_addr
    }

    /// The device's BLE address.
    pub fn ble_addr(&self, dev: DeviceId) -> BleAddress {
        self.devices[dev.0].ble_addr
    }

    /// The device's NFC id.
    pub fn nfc_addr(&self, dev: DeviceId) -> NfcAddress {
        self.devices[dev.0].nfc_addr
    }

    /// The device's hardware MAC addresses (for `omni_address` derivation).
    pub fn macs(&self, dev: DeviceId) -> &[[u8; 6]] {
        &self.devices[dev.0].macs
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Whether the device's WiFi radio is powered.
    pub fn wifi_on(&self, dev: DeviceId) -> bool {
        self.devices[dev.0].wifi_on
    }

    /// Whether the device is joined to the mesh group.
    pub fn wifi_joined(&self, dev: DeviceId) -> bool {
        self.devices[dev.0].wifi_joined
    }

    /// Whether the device is BLE-scanning.
    pub fn ble_scanning(&self, dev: DeviceId) -> bool {
        self.devices[dev.0].ble_scan_duty.is_some()
    }

    /// Maps an engine event to the profiler phase its handling is charged to
    /// (DESIGN.md §5j). Beacons, deliveries and mobility run under
    /// [`Phase::Deliver`]; configured fault windows under
    /// [`Phase::FaultEval`]; timers, telemetry, and the medium machinery
    /// under their own phases.
    fn phase_of(ev: &Engine) -> Phase {
        match ev {
            Engine::StartStack { .. }
            | Engine::BleAdv { .. }
            | Engine::BleOneShotDeliver { .. }
            | Engine::BleOneShotSent { .. }
            | Engine::NfcDeliver { .. }
            | Engine::Teleport { .. }
            | Engine::WalkStep { .. } => Phase::Deliver,
            Engine::Timer { .. } => Phase::TimerDrain,
            Engine::WifiScanDone { .. }
            | Engine::WifiJoinEcho { .. }
            | Engine::WifiJoinDone { .. }
            | Engine::TcpConnectDone { .. }
            | Engine::TcpConnectFail { .. }
            | Engine::FlowBoundary { .. }
            | Engine::McastDone { .. }
            | Engine::InfraChunkDone { .. } => Phase::MediumPump,
            Engine::PartitionStart { .. } | Engine::ChurnDown { .. } | Engine::ChurnUp { .. } => {
                Phase::FaultEval
            }
            Engine::Sample => Phase::TelemetrySample,
        }
    }

    /// Charges the event about to be handled to its phase, coalescing
    /// consecutive same-phase events into one open scope so profiling costs
    /// two clock reads per phase *transition*, not two per event. The tick
    /// loop drains long same-phase runs (a beacon round delivers thousands
    /// of frames back to back), so this keeps profiler overhead within
    /// the ≤5% budget `scale --smoke` enforces. Phase totals are exact
    /// either way; the per-phase latency quantiles describe contiguous
    /// same-phase runs rather than single events.
    ///
    /// Token (not RAII) scope: `handle` needs `&mut self`, so the
    /// measurement cannot hold a profiler borrow across it.
    fn profile_event(&mut self, ev: &Engine) {
        let phase = Self::phase_of(ev);
        if self.open_scope.as_ref().is_some_and(|s| s.phase() == phase) {
            return;
        }
        if let Some(p) = self.profiler.as_deref_mut() {
            if let Some(s) = self.open_scope.take() {
                p.finish(s);
            }
            self.open_scope = Some(p.begin(phase));
        }
    }

    /// Closes the coalesced scope, if any, at loop exit.
    fn profile_flush(&mut self) {
        if let Some(s) = self.open_scope.take() {
            if let Some(p) = self.profiler.as_deref_mut() {
                p.finish(s);
            }
        }
    }

    /// Runs the simulation up to and including `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(sch) = self.pop_due(t) {
            debug_assert!(sch.at >= self.now, "event queue went backwards");
            self.now = sch.at;
            if self.profiler.is_some() {
                self.profile_event(&sch.ev);
            }
            self.handle(sch.ev);
        }
        self.profile_flush();
        self.now = t;
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Runs until the event queue drains or `cap` is reached; returns the
    /// final virtual time.
    pub fn run_until_idle(&mut self, cap: SimTime) -> SimTime {
        while let Some(sch) = self.pop_due(cap) {
            self.now = sch.at;
            if self.profiler.is_some() {
                self.profile_event(&sch.ev);
            }
            self.handle(sch.ev);
        }
        self.profile_flush();
        // Distinguish "drained" (clock stays at the last event) from "next
        // event beyond the cap" (clock advances to the cap).
        if matches!(self.heap.peek(), Some(Reverse(top)) if top.at > cap) {
            self.now = cap;
        }
        self.now
    }

    /// Pops the next event due at or before `cap` in `(time, seq)` order.
    fn pop_due(&mut self, cap: SimTime) -> Option<Scheduled> {
        match self.heap.peek() {
            Some(Reverse(top)) if top.at <= cap => self.heap.pop().map(|Reverse(sch)| sch),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn schedule(&mut self, delay: SimDuration, ev: Engine) {
        let at = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, ev }));
    }

    /// Delivers a node event to a device's stack and applies the commands it
    /// queued. Stackless devices drop events.
    fn deliver(&mut self, dev: DeviceId, event: NodeEvent) {
        let Some(mut stack) = self.stacks[dev.0].take() else {
            return;
        };
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        cmds.clear();
        {
            let mut api = NodeApi { device: dev, now: self.now, commands: &mut cmds };
            stack.on_event(event, &mut api);
        }
        self.stacks[dev.0] = Some(stack);
        for (d, cmd) in cmds.drain(..) {
            self.apply(d, cmd);
        }
        // Restore the pooled buffer (a reentrant `deliver` from `apply` took
        // a fresh one; keep whichever has capacity).
        if cmds.capacity() > self.cmd_buf.capacity() {
            self.cmd_buf = cmds;
        }
    }

    fn resched_boundary(&mut self) {
        self.medium.boundary_gen += 1;
        if let Some(at) = self.medium.next_boundary() {
            let gen = self.medium.boundary_gen;
            let delay = at.saturating_since(self.now);
            self.schedule(delay, Engine::FlowBoundary { gen });
        }
    }

    /// Synchronizes a device's flow-related energy states with the medium.
    /// During an active flow a device drives both data and ACK traffic, so
    /// both send and receive draws apply (see DESIGN.md calibration).
    fn sync_flow_energy(&mut self, dev: DeviceId) {
        let active = self.medium.device_active(dev, true) || self.medium.device_active(dev, false);
        let tx_held = self.energy.is_active(dev, EnergyState::WifiTx);
        if active && !tx_held {
            self.energy.enter(dev, self.now, EnergyState::WifiTx, self.cfg.energy.wifi_tx_ma);
            self.energy.enter(dev, self.now, EnergyState::WifiRx, self.cfg.energy.wifi_rx_ma);
        } else if !active && tx_held {
            self.energy.leave(dev, self.now, EnergyState::WifiTx);
            self.energy.leave(dev, self.now, EnergyState::WifiRx);
        }
    }

    /// Handles completed flows: notifies endpoints and starts the next
    /// pending message per connection direction.
    fn finish_flows(&mut self, done: Vec<Flow>) {
        let mut notifications = Vec::new();
        for flow in done {
            if let Some(o) = &self.obs {
                o.tcp.tx(flow.payload.len());
                o.tcp.rx(flow.payload.len());
            }
            let conn = &mut self.conns[flow.conn.0 as usize];
            let dir = conn.dir_from(flow.sender).expect("flow sender is an endpoint");
            conn.active[dir] = false;
            notifications.push((flow.sender, NodeEvent::TcpSendComplete { conn: flow.conn }));
            notifications.push((
                flow.receiver,
                NodeEvent::TcpMessage { conn: flow.conn, payload: flow.payload },
            ));
            if let Some((payload, wire)) = self.conns[flow.conn.0 as usize].pending[dir].pop_front()
            {
                self.conns[flow.conn.0 as usize].active[dir] = true;
                self.medium.add_flow(Flow {
                    conn: flow.conn,
                    sender: flow.sender,
                    receiver: flow.receiver,
                    payload,
                    remaining: wire,
                });
            }
            self.sync_flow_energy(flow.sender);
            self.sync_flow_energy(flow.receiver);
        }
        self.resched_boundary();
        for (dev, ev) in notifications {
            self.deliver(dev, ev);
        }
    }

    /// Closes a connection, failing in-flight and pending messages.
    fn close_conn(&mut self, conn_id: ConnId, error: bool, notify_both: bool) {
        let (a, b, was_open) = {
            let c = &mut self.conns[conn_id.0 as usize];
            let was_open = c.open;
            c.open = false;
            c.pending[0].clear();
            c.pending[1].clear();
            c.active = [false, false];
            (c.a, c.b, was_open)
        };
        if !was_open {
            return;
        }
        let _ = self.medium.advance(self.now);
        let _removed = self.medium.remove_conn(conn_id);
        self.resched_boundary();
        self.sync_flow_energy(a);
        self.sync_flow_energy(b);
        if notify_both {
            self.deliver(a, NodeEvent::TcpClosed { conn: conn_id, error });
        }
        self.deliver(b, NodeEvent::TcpClosed { conn: conn_id, error });
    }

    /// Fails every open connection involving `dev` that is no longer viable.
    fn audit_connections(&mut self, dev: DeviceId, force_all: bool) {
        let range = self.cfg.range_m(TechType::WifiTcp);
        let to_fail: Vec<ConnId> = self
            .conns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.open && c.involves(dev))
            .filter(|(_, c)| {
                force_all
                    || !self.world.in_range(c.a, c.b, range)
                    || !self.devices[c.a.0].wifi_on
                    || !self.devices[c.b.0].wifi_on
                    || !self.faults.link_ok(c.a, c.b, self.now, FaultScope::Wifi)
            })
            .map(|(i, _)| ConnId(i as u64))
            .collect();
        for id in to_fail {
            self.close_conn(id, true, true);
        }
    }

    fn wifi_power_off(&mut self, dev: DeviceId) {
        let d = &mut self.devices[dev.0];
        if !d.wifi_on {
            return;
        }
        d.wifi_on = false;
        d.wifi_joined = false;
        d.wifi_mcast_listen = false;
        d.wifi_scan_gen += 1;
        d.wifi_join_gen += 1;
        d.infra_gen += 1;
        d.infra_queue.clear();
        let had_infra = d.infra_active.take().is_some();
        let was_scanning = std::mem::take(&mut d.wifi_scanning);
        let was_joining = std::mem::take(&mut d.wifi_joining);
        self.energy.leave(dev, self.now, EnergyState::WifiOn);
        if was_scanning {
            self.energy.leave(dev, self.now, EnergyState::WifiScan);
        }
        if was_joining {
            self.energy.leave(dev, self.now, EnergyState::WifiConnect);
        }
        if had_infra {
            self.energy.leave(dev, self.now, EnergyState::InfraRx);
        }
        let _ = self.medium.advance(self.now);
        if self.medium.cancel_mcast_for(dev) {
            self.energy.leave(dev, self.now, EnergyState::McastTx);
        }
        self.audit_connections(dev, true);
    }

    fn apply(&mut self, dev: DeviceId, cmd: Command) {
        match cmd {
            Command::SetTimer { token, delay } => {
                let gen = self.timer_gens.entry((dev.0, token)).or_insert(0);
                *gen += 1;
                let gen = *gen;
                self.schedule(delay, Engine::Timer { dev, token, gen });
            }
            Command::CancelTimer { token } => {
                *self.timer_gens.entry((dev.0, token)).or_insert(0) += 1;
            }
            Command::BlePower(on) => self.ble_power(dev, on),
            Command::BleSetScan { duty } => self.ble_set_scan(dev, duty),
            Command::BleAdvertiseSet { slot, payload, interval } => {
                self.ble_advertise_set(dev, slot, payload, interval)
            }
            Command::BleAdvertiseStop { slot } => {
                // Stale pulses die on the generation check; generations are
                // never reused, so no bump is needed here.
                self.devices[dev.0].ble_slots.retain(|&(s, _)| s != slot);
            }
            Command::BleSendOneShot { payload } => self.ble_send_oneshot(dev, payload),
            Command::WifiPower(on) => {
                if on {
                    let d = &mut self.devices[dev.0];
                    if d.caps.wifi && !d.wifi_on {
                        d.wifi_on = true;
                        self.energy.enter(
                            dev,
                            self.now,
                            EnergyState::WifiOn,
                            self.cfg.energy.wifi_standby_ma,
                        );
                    }
                } else {
                    self.wifi_power_off(dev);
                }
            }
            Command::WifiScan => self.wifi_scan(dev),
            Command::WifiJoin => self.wifi_join(dev),
            Command::WifiLeave => {
                let d = &mut self.devices[dev.0];
                d.wifi_joined = false;
                d.wifi_mcast_listen = false;
            }
            Command::WifiMcastListen(on) => {
                let d = &mut self.devices[dev.0];
                if on && !(d.wifi_on && d.wifi_joined) {
                    self.drop_command("not-joined");
                } else {
                    d.wifi_mcast_listen = on;
                }
            }
            Command::WifiMcastSend { payload, wire_len, bulk } => {
                self.mcast_send(dev, payload, wire_len, bulk)
            }
            Command::TcpConnect { token, peer } => self.tcp_connect(dev, token, peer),
            Command::TcpSend { conn, payload, wire_len } => {
                self.tcp_send(dev, conn, payload, wire_len)
            }
            Command::TcpClose { conn } => {
                let valid = (conn.0 as usize) < self.conns.len()
                    && self.conns[conn.0 as usize].involves(dev)
                    && self.conns[conn.0 as usize].open;
                if valid {
                    self.close_conn_from(conn, dev);
                }
            }
            Command::NfcSend { payload } => self.nfc_send(dev, payload),
            Command::InfraRequest { req, total_bytes, chunk_bytes } => {
                self.infra_request(dev, req, total_bytes, chunk_bytes)
            }
            Command::InfraCancel { req } => self.infra_cancel(dev, req),
        }
    }

    fn close_conn_from(&mut self, conn_id: ConnId, closer: DeviceId) {
        let remote = {
            let c = &mut self.conns[conn_id.0 as usize];
            if !c.open {
                return;
            }
            c.open = false;
            c.pending[0].clear();
            c.pending[1].clear();
            c.active = [false, false];
            if c.a == closer {
                c.b
            } else {
                c.a
            }
        };
        let _ = self.medium.advance(self.now);
        let _ = self.medium.remove_conn(conn_id);
        self.resched_boundary();
        self.sync_flow_energy(closer);
        self.sync_flow_energy(remote);
        self.deliver(remote, NodeEvent::TcpClosed { conn: conn_id, error: false });
    }

    fn ble_power(&mut self, dev: DeviceId, on: bool) {
        if !self.devices[dev.0].caps.ble {
            return;
        }
        let d = &mut self.devices[dev.0];
        if on {
            d.ble_on = true;
        } else {
            d.ble_on = false;
            d.ble_slots.clear();
            if d.ble_scan_duty.take().is_some() {
                self.energy.leave(dev, self.now, EnergyState::BleScan);
            }
        }
    }

    fn ble_set_scan(&mut self, dev: DeviceId, duty: Option<f64>) {
        if !self.devices[dev.0].ble_on {
            if duty.is_some() {
                self.drop_command("radio-off");
            }
            return;
        }
        let d = &mut self.devices[dev.0];
        if d.ble_scan_duty.take().is_some() {
            self.energy.leave(dev, self.now, EnergyState::BleScan);
        }
        if let Some(duty) = duty {
            assert!(duty > 0.0 && duty <= 1.0, "scan duty must be in (0, 1]");
            self.devices[dev.0].ble_scan_duty = Some(duty);
            let ma = self.cfg.energy.ble_scan_ma * duty;
            self.energy.enter(dev, self.now, EnergyState::BleScan, ma);
        }
    }

    fn ble_advertise_set(
        &mut self,
        dev: DeviceId,
        slot: u32,
        payload: Bytes,
        interval: SimDuration,
    ) {
        if payload.len() > self.cfg.ble.max_payload {
            self.drop_command("payload-too-large");
            return;
        }
        assert!(!interval.is_zero(), "advertising interval must be positive");
        let d = &mut self.devices[dev.0];
        if !d.ble_on {
            self.drop_command("radio-off");
            return;
        }
        let gen = d.ble_next_gen;
        d.ble_next_gen += 1;
        let entry = BleSlot { payload, interval, gen };
        match d.ble_slots.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, existing)) => *existing = entry,
            None => d.ble_slots.push((slot, entry)),
        }
        // First pulse after a seeded jitter within one interval so devices
        // don't synchronize artificially.
        let jitter = SimDuration::from_micros(self.rng.gen_range(0..interval.as_micros().max(1)));
        self.schedule(jitter, Engine::BleAdv { dev, slot, gen });
    }

    /// Counts a command this runner rejected or dropped under `cause`, in
    /// `sim.commands_dropped{cause=…}`. The counter is registered on its
    /// cause's first drop, so a run that never drops exports exactly what
    /// it did before the counter existed.
    fn drop_command(&self, cause: &'static str) {
        if let Some(o) = &self.obs {
            o.obs.counter_with("sim.commands_dropped", &[("cause", cause)]).inc();
        }
    }

    /// Attributes a dropped frame to the fault that killed it. Only directed
    /// frames carrying a trace ID (the reliable data/ack path) are recorded —
    /// beacon losses are routine background noise and would flood the flight
    /// recorder without adding causal information.
    fn record_frame_drop(
        &self,
        dev: DeviceId,
        tech: &'static str,
        cause: &'static str,
        payload: &[u8],
    ) {
        let Some(o) = &self.obs else { return };
        o.drops_by_cause(cause).inc();
        let Some(trace) = omni_wire::frame::directed_trace(payload) else { return };
        o.obs.event(
            self.now.as_micros(),
            dev.0 as u32,
            EventKind::FrameDropped { tech, cause, trace: trace.as_u64() },
        );
    }

    /// Distinguishes churn from partitions for drop attribution: a link that
    /// fails while either endpoint is churned down is a node fault, anything
    /// else is a partition window.
    fn link_drop_cause(&self, a: DeviceId, b: DeviceId) -> &'static str {
        if self.faults.is_down(a) || self.faults.is_down(b) {
            "node-down"
        } else {
            "partition"
        }
    }

    fn ble_send_oneshot(&mut self, dev: DeviceId, payload: Bytes) {
        if payload.len() > self.cfg.ble.max_payload {
            self.drop_command("payload-too-large");
            return;
        }
        let d = &self.devices[dev.0];
        if !d.ble_on {
            self.drop_command("radio-off");
            return;
        }
        if self.faults.is_down(dev) {
            self.drop_command("node-down");
            return;
        }
        self.energy.pulse(dev, self.cfg.energy.ble_adv_ma, self.cfg.ble.oneshot_pulse);
        let cell = self.world.cell_index(dev);
        if let Some(o) = self.obs.as_mut() {
            o.ble.tx(payload.len());
            o.cell_tx_counter(cell).inc();
        }
        let latency = self.cfg.ble.oneshot_latency;
        let mut recipients = std::mem::take(&mut self.nbr_buf);
        self.world.neighbors_into(dev, self.cfg.range_m(TechType::BleBeacon), &mut recipients);
        recipients
            .retain(|&n| self.devices[n.0].ble_on && self.devices[n.0].ble_scan_duty.is_some());
        recipients.retain(|&n| {
            if self.faults.link_ok(dev, n, self.now, FaultScope::Ble) {
                return true;
            }
            self.record_frame_drop(dev, "ble-beacon", self.link_drop_cause(dev, n), &payload);
            false
        });
        let loss = self.cfg.faults.ble_loss;
        let jitter_max = self.cfg.faults.ble_jitter;
        for &to in &recipients {
            if self.faults.lose(loss) {
                if let Some(o) = &self.obs {
                    o.fault_drops.inc();
                }
                self.record_frame_drop(dev, "ble-beacon", "frame-loss", &payload);
                continue;
            }
            let delay = latency + self.faults.jitter(jitter_max);
            self.schedule(
                delay,
                Engine::BleOneShotDeliver { to, from: dev, payload: payload.clone() },
            );
        }
        self.nbr_buf = recipients;
        self.schedule(latency, Engine::BleOneShotSent { dev });
    }

    fn wifi_scan(&mut self, dev: DeviceId) {
        if !self.devices[dev.0].wifi_on {
            let gen = self.devices[dev.0].wifi_scan_gen;
            self.schedule(SimDuration::ZERO, Engine::WifiScanDone { dev, gen });
            return;
        }
        let d = &mut self.devices[dev.0];
        if d.wifi_scanning {
            self.drop_command("already-scanning");
            return;
        }
        d.wifi_scanning = true;
        d.wifi_scan_gen += 1;
        let gen = d.wifi_scan_gen;
        self.energy.enter(dev, self.now, EnergyState::WifiScan, self.cfg.energy.wifi_scan_ma);
        self.schedule(self.cfg.wifi.scan_time, Engine::WifiScanDone { dev, gen });
    }

    fn wifi_join(&mut self, dev: DeviceId) {
        let d = &mut self.devices[dev.0];
        if !d.wifi_on {
            self.drop_command("radio-off");
            return;
        }
        if d.wifi_joined {
            // Idempotent: confirm immediately so join-driven state machines
            // make progress regardless of who joined first.
            self.schedule(SimDuration::ZERO, Engine::WifiJoinEcho { dev });
            return;
        }
        if d.wifi_joining {
            self.drop_command("join-in-progress");
            return;
        }
        d.wifi_joining = true;
        d.wifi_join_gen += 1;
        let gen = d.wifi_join_gen;
        self.energy.enter(dev, self.now, EnergyState::WifiConnect, self.cfg.energy.wifi_connect_ma);
        self.schedule(self.cfg.wifi.join_time, Engine::WifiJoinDone { dev, gen });
    }

    fn mcast_send(&mut self, dev: DeviceId, payload: Bytes, wire_len: u64, bulk: bool) {
        let d = &self.devices[dev.0];
        if !(d.wifi_on && d.wifi_joined) {
            self.drop_command("not-joined");
            return;
        }
        let airtime = self.cfg.wifi.mcast_fixed_airtime
            + SimDuration::from_secs_f64(wire_len as f64 / self.cfg.wifi.mcast_rate_bps);
        let _ = self.medium.advance(self.now);
        let job = McastJob { sender: dev, payload, airtime, bulk };
        if let Some(started) = self.medium.enqueue_mcast(job) {
            self.start_mcast(started);
        }
        self.resched_boundary();
    }

    fn start_mcast(&mut self, job: McastJob) {
        let ma = if job.bulk {
            self.cfg.energy.wifi_mcast_bulk_tx_ma
        } else {
            self.cfg.energy.wifi_tx_ma
        };
        self.energy.enter(job.sender, self.now, EnergyState::McastTx, ma);
        let gen = self.medium.mcast_gen;
        self.schedule(job.airtime, Engine::McastDone { gen });
    }

    fn tcp_connect(&mut self, dev: DeviceId, token: u64, peer: MeshAddress) {
        if !self.devices[dev.0].wifi_on {
            self.schedule(
                SimDuration::ZERO,
                Engine::TcpConnectFail { dev, token, error: TcpError::RadioOff },
            );
            return;
        }
        if self.faults.is_down(dev) {
            self.schedule(
                SimDuration::ZERO,
                Engine::TcpConnectFail { dev, token, error: TcpError::RadioOff },
            );
            return;
        }
        let target = self.mesh_index.get(&peer).copied();
        let ok = target.map(|t| {
            t != dev
                && self.devices[t.0].wifi_on
                && self.world.in_range(dev, t, self.cfg.range_m(TechType::WifiTcp))
                && self.faults.link_ok(dev, t, self.now, FaultScope::Wifi)
        });
        match (target, ok) {
            (Some(t), Some(true)) => {
                if self.faults.lose(self.cfg.faults.tcp_connect_loss) {
                    if let Some(o) = &self.obs {
                        o.fault_drops.inc();
                        o.drops_frame_loss.inc();
                    }
                    self.schedule(
                        self.cfg.wifi.tcp_connect_time,
                        Engine::TcpConnectFail { dev, token, error: TcpError::Unreachable },
                    );
                } else {
                    self.schedule(
                        self.cfg.wifi.tcp_connect_time,
                        Engine::TcpConnectDone { initiator: dev, token, target: t },
                    );
                }
            }
            (Some(t), _) if !self.devices[t.0].wifi_on => {
                self.schedule(
                    SimDuration::ZERO,
                    Engine::TcpConnectFail { dev, token, error: TcpError::RadioOff },
                );
            }
            _ => {
                self.schedule(
                    SimDuration::ZERO,
                    Engine::TcpConnectFail { dev, token, error: TcpError::Unreachable },
                );
            }
        }
    }

    fn tcp_send(&mut self, dev: DeviceId, conn_id: ConnId, payload: Bytes, wire_len: u64) {
        let idx = conn_id.0 as usize;
        if idx >= self.conns.len() || !self.conns[idx].open {
            self.drop_command("connection-closed");
            return;
        }
        let Some(dir) = self.conns[idx].dir_from(dev) else {
            self.drop_command("not-an-endpoint");
            return;
        };
        let wire = (wire_len + self.cfg.wifi.tcp_overhead_bytes) as f64;
        if self.conns[idx].active[dir] {
            self.conns[idx].pending[dir].push_back((payload, wire));
            return;
        }
        let (sender, receiver) = self.conns[idx].endpoint(dir);
        self.conns[idx].active[dir] = true;
        let _ = self.medium.advance(self.now);
        self.medium.add_flow(Flow { conn: conn_id, sender, receiver, payload, remaining: wire });
        self.resched_boundary();
        self.sync_flow_energy(sender);
        self.sync_flow_energy(receiver);
    }

    fn nfc_send(&mut self, dev: DeviceId, payload: Bytes) {
        if payload.len() > self.cfg.nfc.max_payload {
            self.drop_command("payload-too-large");
            return;
        }
        if !self.devices[dev.0].caps.nfc {
            self.drop_command("no-hardware");
            return;
        }
        if self.faults.is_down(dev) {
            self.drop_command("node-down");
            return;
        }
        let cell = self.world.cell_index(dev);
        if let Some(o) = self.obs.as_mut() {
            o.nfc.tx(payload.len());
            o.cell_tx_counter(cell).inc();
        }
        let mut recipients = std::mem::take(&mut self.nbr_buf);
        self.world.neighbors_into(dev, self.cfg.range_m(TechType::Nfc), &mut recipients);
        recipients.retain(|&n| self.devices[n.0].caps.nfc);
        recipients.retain(|&n| {
            if self.faults.link_ok(dev, n, self.now, FaultScope::Nfc) {
                return true;
            }
            self.record_frame_drop(dev, "nfc", self.link_drop_cause(dev, n), &payload);
            false
        });
        let loss = self.cfg.faults.nfc_loss;
        for &to in &recipients {
            if self.faults.lose(loss) {
                if let Some(o) = &self.obs {
                    o.fault_drops.inc();
                }
                self.record_frame_drop(dev, "nfc", "frame-loss", &payload);
                continue;
            }
            self.schedule(
                self.cfg.nfc.touch_latency,
                Engine::NfcDeliver { to, from: dev, payload: payload.clone() },
            );
        }
        self.nbr_buf = recipients;
    }

    fn infra_request(&mut self, dev: DeviceId, req: u64, total: u64, chunk: u64) {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(total > 0, "request must be non-empty");
        let d = &mut self.devices[dev.0];
        if !d.wifi_on {
            self.drop_command("radio-off");
            return;
        }
        if d.infra_rate_bps <= 0.0 {
            self.drop_command("no-infra-link");
            return;
        }
        if d.infra_active.is_some() {
            d.infra_queue.push_back((req, total, chunk));
            return;
        }
        self.infra_start(dev, req, total, chunk);
    }

    fn infra_start(&mut self, dev: DeviceId, req: u64, total: u64, chunk: u64) {
        let d = &mut self.devices[dev.0];
        d.infra_active = Some(ActiveInfra { req, total, chunk, received: 0, next_chunk_index: 0 });
        d.infra_gen += 1;
        let gen = d.infra_gen;
        let first = chunk.min(total);
        let delay = SimDuration::from_secs_f64(first as f64 / d.infra_rate_bps);
        self.energy.enter(dev, self.now, EnergyState::InfraRx, self.cfg.energy.wifi_infra_rx_ma);
        self.schedule(delay, Engine::InfraChunkDone { dev, gen });
    }

    fn infra_cancel(&mut self, dev: DeviceId, req: u64) {
        let d = &mut self.devices[dev.0];
        d.infra_queue.retain(|(r, _, _)| *r != req);
        if d.infra_active.as_ref().map(|a| a.req == req).unwrap_or(false) {
            d.infra_active = None;
            d.infra_gen += 1;
            self.energy.leave(dev, self.now, EnergyState::InfraRx);
            if let Some((req, total, chunk)) = self.devices[dev.0].infra_queue.pop_front() {
                // Re-enter for the next request.
                self.infra_start(dev, req, total, chunk);
            }
        }
    }

    fn handle(&mut self, ev: Engine) {
        match ev {
            Engine::StartStack { dev } => self.deliver(dev, NodeEvent::Start),
            Engine::Timer { dev, token, gen } => {
                if self.timer_gens.get(&(dev.0, token)) == Some(&gen) {
                    self.deliver(dev, NodeEvent::Timer { token });
                }
            }
            Engine::BleAdv { dev, slot, gen } => self.ble_adv_tick(dev, slot, gen),
            Engine::BleOneShotDeliver { to, from, payload } => {
                let d = &self.devices[to.0];
                if d.ble_on
                    && d.ble_scan_duty.is_some()
                    && self.faults.link_ok(from, to, self.now, FaultScope::Ble)
                {
                    let from_addr = self.devices[from.0].ble_addr;
                    if let Some(o) = &self.obs {
                        o.ble.rx(payload.len());
                    }
                    self.deliver(to, NodeEvent::BleOneShot { from: from_addr, payload });
                }
            }
            Engine::BleOneShotSent { dev } => self.deliver(dev, NodeEvent::BleOneShotSent),
            Engine::WifiScanDone { dev, gen } => {
                if self.devices[dev.0].wifi_scan_gen != gen || !self.devices[dev.0].wifi_scanning {
                    // Stale (power-cycled) or synthetic immediate failure.
                    if self.devices[dev.0].wifi_scan_gen == gen {
                        self.deliver(dev, NodeEvent::WifiScanDone { found: Vec::new() });
                    }
                    return;
                }
                self.devices[dev.0].wifi_scanning = false;
                self.energy.leave(dev, self.now, EnergyState::WifiScan);
                let mut nbrs = std::mem::take(&mut self.nbr_buf);
                self.world.neighbors_into(dev, self.cfg.range_m(TechType::WifiTcp), &mut nbrs);
                let found: Vec<MeshAddress> = nbrs
                    .iter()
                    .filter(|&&n| self.devices[n.0].wifi_on)
                    .filter(|&&n| self.faults.link_ok(dev, n, self.now, FaultScope::Wifi))
                    .map(|&n| self.devices[n.0].mesh_addr)
                    .collect();
                self.nbr_buf = nbrs;
                self.deliver(dev, NodeEvent::WifiScanDone { found });
            }
            Engine::WifiJoinEcho { dev } => {
                if self.devices[dev.0].wifi_joined {
                    self.deliver(dev, NodeEvent::WifiJoined { ok: true });
                }
            }
            Engine::WifiJoinDone { dev, gen } => {
                if self.devices[dev.0].wifi_join_gen != gen || !self.devices[dev.0].wifi_joining {
                    return;
                }
                let d = &mut self.devices[dev.0];
                d.wifi_joining = false;
                d.wifi_joined = true;
                self.energy.leave(dev, self.now, EnergyState::WifiConnect);
                self.deliver(dev, NodeEvent::WifiJoined { ok: true });
            }
            Engine::TcpConnectDone { initiator, token, target } => {
                let viable = self.devices[initiator.0].wifi_on
                    && self.devices[target.0].wifi_on
                    && self.world.in_range(initiator, target, self.cfg.range_m(TechType::WifiTcp))
                    && self.faults.link_ok(initiator, target, self.now, FaultScope::Wifi);
                if !viable {
                    self.deliver(
                        initiator,
                        NodeEvent::TcpConnectResult { token, result: Err(TcpError::Unreachable) },
                    );
                    return;
                }
                let id = ConnId(self.conns.len() as u64);
                self.conns.push(Connection {
                    a: initiator,
                    b: target,
                    open: true,
                    pending: [VecDeque::new(), VecDeque::new()],
                    active: [false, false],
                });
                let from = self.devices[initiator.0].mesh_addr;
                self.deliver(initiator, NodeEvent::TcpConnectResult { token, result: Ok(id) });
                self.deliver(target, NodeEvent::TcpIncoming { conn: id, from });
            }
            Engine::TcpConnectFail { dev, token, error } => {
                self.deliver(dev, NodeEvent::TcpConnectResult { token, result: Err(error) });
            }
            Engine::FlowBoundary { gen } => {
                if gen != self.medium.boundary_gen {
                    return;
                }
                let done = self.medium.advance(self.now);
                self.finish_flows(done);
            }
            Engine::McastDone { gen } => self.mcast_done(gen),
            Engine::NfcDeliver { to, from, payload } => {
                if self.world.in_range(to, from, self.cfg.range_m(TechType::Nfc))
                    && self.faults.link_ok(to, from, self.now, FaultScope::Nfc)
                {
                    let from_addr = self.devices[from.0].nfc_addr;
                    if let Some(o) = &self.obs {
                        o.nfc.rx(payload.len());
                    }
                    self.deliver(to, NodeEvent::NfcReceived { from: from_addr, payload });
                }
            }
            Engine::InfraChunkDone { dev, gen } => self.infra_chunk_done(dev, gen),
            Engine::Teleport { dev, pos } => {
                self.world.set_position(dev, pos);
                self.audit_connections(dev, false);
            }
            Engine::WalkStep { dev, to, speed_mps } => {
                let cur = self.world.position(dev);
                let remaining = cur.distance(to);
                if remaining <= speed_mps {
                    // Arrive within this step.
                    self.world.set_position(dev, to);
                } else {
                    let frac = speed_mps / remaining;
                    let next =
                        Position::new(cur.x + (to.x - cur.x) * frac, cur.y + (to.y - cur.y) * frac);
                    self.world.set_position(dev, next);
                    self.schedule(
                        SimDuration::from_secs(1),
                        Engine::WalkStep { dev, to, speed_mps },
                    );
                }
                self.audit_connections(dev, false);
            }
            Engine::PartitionStart { idx } => self.partition_start(idx),
            Engine::ChurnDown { dev } => self.churn_down(dev),
            Engine::ChurnUp { dev } => self.churn_up(dev),
            Engine::Sample => self.sample_tick(),
        }
    }

    /// One telemetry sampling tick: refresh the per-cell density gauges from
    /// the spatial grid, fold the registry into the sampler, surface any
    /// health transition as a fleet-scope event, and reschedule.
    fn sample_tick(&mut self) {
        let Some(mut sampler) = self.sampler.take() else { return };
        let occupancy = self.world.cell_occupancy();
        let nodes_down = self.faults.down_count();
        let fleet = self.devices.len();
        let t_us = self.now.as_micros();
        if let Some(o) = self.obs.as_mut() {
            for &(cell, n) in &occupancy {
                o.cell_density_gauge(cell).set(n as i64);
            }
            // Cells seen before but empty now drop to zero, so density
            // series decay instead of freezing at their last value.
            for (cell, g) in &o.cell_density {
                if occupancy.binary_search_by_key(cell, |&(c, _)| c).is_err() {
                    g.set(0);
                }
            }
            if let Some(ev) = sampler.sample(&o.obs, t_us, nodes_down, fleet) {
                o.obs.event(
                    t_us,
                    u32::MAX,
                    EventKind::HealthTransition {
                        from: ev.from.name(),
                        to: ev.to.name(),
                        cause: ev.cause,
                    },
                );
            }
        }
        let every = sampler.interval();
        self.sampler = Some(sampler);
        self.schedule(every, Engine::Sample);
    }

    /// Opens a configured partition window: tears down open TCP connections
    /// between the pair (when the scope covers WiFi) and records the event.
    /// Ongoing reachability during the window is enforced by the pure
    /// [`FaultState::link_ok`] checks at every delivery point, so nothing
    /// needs to happen when the window closes.
    fn partition_start(&mut self, idx: usize) {
        let Some(p) = self.cfg.faults.partitions.get(idx).copied() else {
            return;
        };
        let (a, b) = (DeviceId(p.a), DeviceId(p.b));
        if let Some(o) = &self.obs {
            o.obs.event(
                self.now.as_micros(),
                a.0 as u32,
                EventKind::LinkPartitioned { a: p.a as u64, b: p.b as u64 },
            );
        }
        if p.scope.covers(FaultScope::Wifi) {
            let to_close: Vec<ConnId> = self
                .conns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.open && c.involves(a) && c.involves(b))
                .map(|(i, _)| ConnId(i as u64))
                .collect();
            for id in to_close {
                self.close_conn(id, true, true);
            }
        }
    }

    /// Takes a node's radios down for a churn window. Device state (slots,
    /// join status, scan duty) is preserved — the fault layer mutes frames at
    /// the delivery points — but in-flight WiFi activity is flushed through
    /// the medium's removal paths so flows fail like a real radio cut.
    fn churn_down(&mut self, dev: DeviceId) {
        if dev.0 >= self.devices.len() || self.faults.is_down(dev) {
            return;
        }
        self.faults.set_down(dev, true);
        if let Some(o) = &self.obs {
            o.obs.event(
                self.now.as_micros(),
                dev.0 as u32,
                EventKind::NodeDown { node: dev.0 as u64 },
            );
        }
        let _ = self.medium.advance(self.now);
        if self.medium.cancel_mcast_for(dev) {
            self.energy.leave(dev, self.now, EnergyState::McastTx);
        }
        self.audit_connections(dev, true);
        let _ = self.medium.advance(self.now);
        let _flushed = self.medium.remove_device(dev);
        self.resched_boundary();
        self.sync_flow_energy(dev);
    }

    fn churn_up(&mut self, dev: DeviceId) {
        if dev.0 >= self.devices.len() || !self.faults.is_down(dev) {
            return;
        }
        self.faults.set_down(dev, false);
    }

    fn ble_adv_tick(&mut self, dev: DeviceId, slot: u32, gen: u64) {
        // Probe the slot without touching the payload: most pulses reach no
        // scanner, and the `Bytes` refcount round-trip is measurable at
        // fleet scale. The payload is cloned out only when a delivery
        // actually happens.
        let probed = {
            let d = &self.devices[dev.0];
            if !d.ble_on {
                None
            } else {
                match d.ble_slots.iter().find(|(s, _)| *s == slot) {
                    Some((_, s)) if s.gen == gen => {
                        let epoch = omni_wire::PackedStruct::peek_trace(&s.payload)
                            .map_or(0, omni_wire::TraceId::as_u64);
                        Some((s.payload.len(), s.interval, epoch))
                    }
                    _ => None,
                }
            }
        };
        let Some((payload_len, interval, epoch)) = probed else {
            return;
        };
        if self.faults.is_down(dev) {
            // Keep the slot cadence alive so advertising resumes when the
            // churn window ends.
            self.schedule(interval, Engine::BleAdv { dev, slot, gen });
            return;
        }
        self.energy.pulse(dev, self.cfg.energy.ble_adv_ma, self.cfg.ble.adv_pulse);
        let cell = self.world.cell_index(dev);
        if let Some(o) = self.obs.as_mut() {
            o.ble.tx(payload_len);
            o.cell_tx_counter(cell).inc();
            o.beacon_interval_us.record(interval.as_micros());
            o.obs.event(
                self.now.as_micros(),
                dev.0 as u32,
                EventKind::BeaconSent { tech: "ble-beacon", epoch },
            );
        }
        // Resolve the whole fan-out through the spatial grid once:
        // recipients plus their scan duty, snapshotted before any delivery
        // can mutate device state.
        let mut ids = std::mem::take(&mut self.nbr_buf);
        let mut candidates = std::mem::take(&mut self.adv_buf);
        self.world.neighbors_into(dev, self.cfg.range_m(TechType::BleBeacon), &mut ids);
        candidates.clear();
        candidates.extend(ids.iter().filter_map(|&n| {
            let d = &self.devices[n.0];
            match (d.ble_on, d.ble_scan_duty) {
                (true, Some(duty)) => Some((n, duty)),
                _ => None,
            }
        }));
        self.nbr_buf = ids;
        self.schedule(interval, Engine::BleAdv { dev, slot, gen });
        if !candidates.is_empty() {
            let d = &self.devices[dev.0];
            let from = d.ble_addr;
            let payload = d
                .ble_slots
                .iter()
                .find(|(s, _)| *s == slot)
                .map(|(_, s)| s.payload.clone())
                .expect("slot checked above");
            let loss = self.cfg.faults.ble_loss;
            for &(to, duty) in &candidates {
                // A duty-cycled scanner only catches the beacon when its
                // scan window overlaps the advertising event.
                if duty >= 1.0 || self.rng.gen_bool(duty) {
                    if !self.faults.link_ok(dev, to, self.now, FaultScope::Ble) {
                        if let Some(o) = &self.obs {
                            o.drops_by_cause(self.link_drop_cause(dev, to)).inc();
                        }
                        continue;
                    }
                    if self.faults.lose(loss) {
                        if let Some(o) = &self.obs {
                            o.fault_drops.inc();
                            o.drops_frame_loss.inc();
                        }
                        continue;
                    }
                    if let Some(o) = &self.obs {
                        o.ble.rx(payload.len());
                    }
                    self.deliver(to, NodeEvent::BleBeacon { from, payload: payload.clone() });
                }
            }
        }
        self.adv_buf = candidates;
    }

    fn mcast_done(&mut self, gen: u64) {
        if gen != self.medium.mcast_gen || self.medium.mcast_active.is_none() {
            return;
        }
        let _ = self.medium.advance(self.now);
        let (finished, next) = self.medium.finish_mcast();
        let Some(job) = finished else {
            return;
        };
        self.energy.leave(job.sender, self.now, EnergyState::McastTx);
        let cell = self.world.cell_index(job.sender);
        if let Some(o) = self.obs.as_mut() {
            o.mcast.tx(job.payload.len());
            o.cell_tx_counter(cell).inc();
        }
        if let Some(next_job) = next {
            self.start_mcast(next_job);
        }
        self.resched_boundary();
        let sender_on = self.devices[job.sender.0].wifi_on && !self.faults.is_down(job.sender);
        if sender_on {
            self.deliver(job.sender, NodeEvent::McastSendComplete);
        }
        // Re-check: the completion callback may have powered the radio off.
        if self.devices[job.sender.0].wifi_on && !self.faults.is_down(job.sender) {
            let from = self.devices[job.sender.0].mesh_addr;
            let mut recipients = std::mem::take(&mut self.nbr_buf);
            self.world.neighbors_into(
                job.sender,
                self.cfg.range_m(TechType::WifiMulticast),
                &mut recipients,
            );
            recipients.retain(|&n| {
                let d = &self.devices[n.0];
                d.wifi_on && d.wifi_joined && d.wifi_mcast_listen
            });
            recipients.retain(|&n| {
                if self.faults.link_ok(job.sender, n, self.now, FaultScope::Wifi) {
                    return true;
                }
                let cause = self.link_drop_cause(job.sender, n);
                self.record_frame_drop(job.sender, "wifi-multicast", cause, &job.payload);
                false
            });
            let loss = self.cfg.faults.mcast_loss;
            for &to in &recipients {
                if self.faults.lose(loss) {
                    if let Some(o) = &self.obs {
                        o.fault_drops.inc();
                    }
                    self.record_frame_drop(
                        job.sender,
                        "wifi-multicast",
                        "frame-loss",
                        &job.payload,
                    );
                    continue;
                }
                if let Some(o) = &self.obs {
                    o.mcast.rx(job.payload.len());
                }
                self.deliver(to, NodeEvent::Multicast { from, payload: job.payload.clone() });
            }
            self.nbr_buf = recipients;
        }
    }

    fn infra_chunk_done(&mut self, dev: DeviceId, gen: u64) {
        let (req, chunk_index, received, done) = {
            let d = &mut self.devices[dev.0];
            if d.infra_gen != gen {
                return;
            }
            let Some(active) = d.infra_active.as_mut() else {
                return;
            };
            let this_chunk = active.chunk.min(active.total - active.received);
            active.received += this_chunk;
            let idx = active.next_chunk_index;
            active.next_chunk_index += 1;
            (active.req, idx, active.received, active.received >= active.total)
        };
        if done {
            let d = &mut self.devices[dev.0];
            d.infra_active = None;
            d.infra_gen += 1;
            self.energy.leave(dev, self.now, EnergyState::InfraRx);
            if let Some((nreq, ntotal, nchunk)) = self.devices[dev.0].infra_queue.pop_front() {
                self.infra_start(dev, nreq, ntotal, nchunk);
            }
        } else {
            let d = &self.devices[dev.0];
            let active = d.infra_active.as_ref().expect("active request");
            let next = active.chunk.min(active.total - active.received);
            let delay = SimDuration::from_secs_f64(next as f64 / d.infra_rate_bps);
            self.schedule(delay, Engine::InfraChunkDone { dev, gen });
        }
        self.deliver(
            dev,
            NodeEvent::InfraChunk { req, chunk: chunk_index, received_bytes: received, done },
        );
    }
}
