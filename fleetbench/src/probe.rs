//! The per-layer ledger, timed only from outside the middleware.
//!
//! Every measurement here sits at a boundary the benchmark itself owns:
//!
//! * [`StackProbe`] wraps each device's `OmniStack` (one span per
//!   `Stack::on_event`, plus the per-kind event counts both runs keep);
//! * [`TechProbe`] wraps each technology exactly where `OmniBuilder::build`
//!   would have placed it (one span per trait call, queue depths read at
//!   `poll` entry, and a bounded sample of received BLE frames for the
//!   replay timers);
//! * [`Ledger::app`] brackets the benchmark's own application callbacks;
//! * [`CountingAlloc`] counts heap allocations while a traced run is live.
//!
//! Spans nest as run_until ⊃ stack ⊃ {tech, app}; tech and app spans never
//! nest in each other (technologies talk to the manager only via queues).
//! Self times are therefore: sim = run_until − stack, manager = stack − tech
//! − app. The untraced run keeps only the event counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use omni_core::{D2dTechnology, LowAddr, OmniStack, TechQueues};
use omni_obs::Obs;
use omni_sim::{NodeApi, NodeEvent, Stack};
use omni_wire::{BleAddress, OmniAddress, TechType, KIND_MASK};

/// Global allocator that counts allocations while [`CountingAlloc::set`]
/// has switched counting on. Relaxed atomics: the count publishes nothing
/// and the benchmark allocates from one thread.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the only
// addition is a relaxed counter increment, which cannot affect memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

impl CountingAlloc {
    /// Switches counting on or off.
    pub fn set(on: bool) {
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// Allocations counted so far.
    pub fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Accumulated wall time, allocations and calls of one span kind.
#[derive(Default)]
pub struct Span {
    pub ns: Cell<u64>,
    pub allocs: Cell<u64>,
    pub calls: Cell<u64>,
}

impl Span {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let a0 = CountingAlloc::count();
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.ns.set(self.ns.get() + ns);
        self.allocs.set(self.allocs.get() + CountingAlloc::count() - a0);
        self.calls.set(self.calls.get() + 1);
        r
    }
}

/// Technologies the benchmark builds, in ledger order.
pub const TECHS: [TechType; 3] = [TechType::BleBeacon, TechType::WifiMulticast, TechType::WifiTcp];

/// Ledger index of a technology.
pub fn tech_slot(ty: TechType) -> usize {
    TECHS.iter().position(|&t| t == ty).expect("the benchmark builds no NFC")
}

/// Stack-visible event kinds, as reported under `sim.events.<kind>`.
pub const EVENT_KINDS: [&str; 6] = ["beacon", "one-shot", "timer", "multicast", "tcp", "other"];

fn event_kind(ev: &NodeEvent) -> usize {
    match ev {
        NodeEvent::BleBeacon { .. } => 0,
        NodeEvent::BleOneShot { .. } | NodeEvent::BleOneShotSent => 1,
        NodeEvent::Timer { .. } => 2,
        NodeEvent::Multicast { .. } | NodeEvent::McastSendComplete => 3,
        NodeEvent::TcpConnectResult { .. }
        | NodeEvent::TcpIncoming { .. }
        | NodeEvent::TcpMessage { .. }
        | NodeEvent::TcpSendComplete { .. }
        | NodeEvent::TcpClosed { .. } => 4,
        _ => 5,
    }
}

/// One received BLE frame kept for the replay timers, with what the live
/// run did with it.
pub struct Sample {
    /// The receiving device's address (frames are parsed relative to it).
    pub own: OmniAddress,
    /// The sender's BLE address.
    pub from: BleAddress,
    pub payload: Bytes,
    /// Whether the live technology put the frame on the receive queue.
    pub delivered: bool,
    /// Whether an application context callback fired while the stack
    /// handled the frame's event.
    pub ctx_fired: bool,
}

/// Keep every `SAMPLE_EVERY`-th received BLE frame, up to `SAMPLE_CAP`.
const SAMPLE_EVERY: u64 = 7;
const SAMPLE_CAP: usize = 4096;

/// Queue depth accounting for one technology's send queue.
#[derive(Default)]
pub struct Depth {
    pub max: Cell<usize>,
    pub sum: Cell<u64>,
    pub reads: Cell<u64>,
}

impl Depth {
    fn read(&self, depth: usize) {
        self.max.set(self.max.get().max(depth));
        self.sum.set(self.sum.get() + depth as u64);
        self.reads.set(self.reads.get() + 1);
    }
}

/// The shared, single-threaded ledger of one run.
#[derive(Default)]
pub struct Ledger {
    /// Whether spans, queue depths and samples are recorded (the traced
    /// run); the untraced run keeps only event and receipt counts.
    pub traced: bool,
    pub events: [Cell<u64>; EVENT_KINDS.len()],
    /// Application receipts: context plus data callbacks.
    pub receipts: Cell<u64>,
    /// Context callbacks only (the live outcome of a sealed context frame).
    pub ctx_receipts: Cell<u64>,
    pub stack: Span,
    pub techs: [Span; 3],
    pub app: Span,
    pub send_depth: [Depth; 3],
    pub receive_depth_max: Cell<usize>,
    pub response_depth_max: Cell<usize>,
    /// Every queue bundle handed to a technology, with the technology's
    /// ledger slot, for the final drop count.
    pub queues: RefCell<Vec<(usize, TechQueues)>>,
    pub ble_rx: Cell<u64>,
    /// Received BLE frames whose kind byte marks a sealed payload (address
    /// beacon or context) while a group key is configured.
    pub sealed_rx: Cell<u64>,
    pub keyed: bool,
    pub samples: RefCell<Vec<Sample>>,
    /// Index of the sample taken during the stack event now running.
    open_sample: Cell<Option<usize>>,
}

impl Ledger {
    pub fn new(traced: bool, keyed: bool) -> Rc<Self> {
        Rc::new(Ledger { traced, keyed, ..Default::default() })
    }

    /// Runs one application callback body, timed in the traced run.
    pub fn app<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.traced {
            self.app.time(f)
        } else {
            f()
        }
    }

    pub fn events_total(&self) -> u64 {
        self.events.iter().map(Cell::get).sum()
    }

    pub fn event_counts(&self) -> [u64; EVENT_KINDS.len()] {
        std::array::from_fn(|i| self.events[i].get())
    }

    /// Items evicted from bounded queues. A device's receive and response
    /// queues are shared by its technologies, so only the BLE probe (every
    /// device has BLE) counts them.
    pub fn queue_drops(&self) -> u64 {
        self.queues
            .borrow()
            .iter()
            .map(|(slot, q)| {
                q.send.dropped()
                    + if *slot == 0 { q.receive.dropped() + q.response.dropped() } else { 0 }
            })
            .sum()
    }
}

/// Wraps one device's `OmniStack`.
pub struct StackProbe {
    inner: OmniStack,
    ledger: Rc<Ledger>,
}

impl StackProbe {
    pub fn new(inner: OmniStack, ledger: Rc<Ledger>) -> Self {
        StackProbe { inner, ledger }
    }
}

impl Stack for StackProbe {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        let k = &self.ledger.events[event_kind(&event)];
        k.set(k.get() + 1);
        if !self.ledger.traced {
            self.inner.on_event(event, api);
            return;
        }
        let ctx0 = self.ledger.ctx_receipts.get();
        self.ledger.stack.time(|| self.inner.on_event(event, api));
        if let Some(i) = self.ledger.open_sample.take() {
            self.ledger.samples.borrow_mut()[i].ctx_fired = self.ledger.ctx_receipts.get() > ctx0;
        }
    }
}

/// Wraps one technology. Only built for the traced run.
pub struct TechProbe {
    inner: Box<dyn D2dTechnology>,
    slot: usize,
    own: OmniAddress,
    ledger: Rc<Ledger>,
    queues: Option<TechQueues>,
}

impl TechProbe {
    pub fn new(inner: Box<dyn D2dTechnology>, own: OmniAddress, ledger: Rc<Ledger>) -> Self {
        let slot = tech_slot(inner.tech_type());
        TechProbe { inner, slot, own, ledger, queues: None }
    }

    /// Counts a received BLE frame and decides whether to sample it.
    fn note_ble_rx(&self, from: BleAddress, payload: &Bytes) -> Option<usize> {
        let l = &self.ledger;
        let n = l.ble_rx.get();
        l.ble_rx.set(n + 1);
        if l.keyed && payload.first().is_some_and(|b| b & KIND_MASK <= 1) {
            l.sealed_rx.set(l.sealed_rx.get() + 1);
        }
        let mut samples = l.samples.borrow_mut();
        if !n.is_multiple_of(SAMPLE_EVERY) || samples.len() >= SAMPLE_CAP {
            return None;
        }
        samples.push(Sample {
            own: self.own,
            from,
            payload: payload.clone(),
            delivered: false,
            ctx_fired: false,
        });
        Some(samples.len() - 1)
    }
}

impl D2dTechnology for TechProbe {
    fn enable(
        &mut self,
        queues: TechQueues,
        token_base: u64,
        api: &mut NodeApi<'_>,
    ) -> (TechType, LowAddr) {
        self.queues = Some(queues.clone());
        self.ledger.queues.borrow_mut().push((self.slot, queues.clone()));
        self.ledger.techs[self.slot].time(|| self.inner.enable(queues, token_base, api))
    }

    fn disable(&mut self, api: &mut NodeApi<'_>) {
        self.ledger.techs[self.slot].time(|| self.inner.disable(api))
    }

    fn tech_type(&self) -> TechType {
        self.inner.tech_type()
    }

    fn poll(&mut self, api: &mut NodeApi<'_>) {
        if let Some(q) = &self.queues {
            let l = &self.ledger;
            l.send_depth[self.slot].read(q.send.len());
            l.receive_depth_max.set(l.receive_depth_max.get().max(q.receive.len()));
            l.response_depth_max.set(l.response_depth_max.get().max(q.response.len()));
        }
        self.ledger.techs[self.slot].time(|| self.inner.poll(api))
    }

    fn on_node_event(&mut self, event: &NodeEvent, api: &mut NodeApi<'_>) -> bool {
        let sample = match event {
            NodeEvent::BleBeacon { from, payload } | NodeEvent::BleOneShot { from, payload }
                if self.slot == 0 =>
            {
                self.note_ble_rx(*from, payload)
            }
            _ => None,
        };
        let Some(i) = sample else {
            return self.ledger.techs[self.slot].time(|| self.inner.on_node_event(event, api));
        };
        let receive = &self.queues.as_ref().expect("enabled before frames arrive").receive;
        let before = receive.len();
        let consumed = self.ledger.techs[self.slot].time(|| self.inner.on_node_event(event, api));
        self.ledger.samples.borrow_mut()[i].delivered = receive.len() > before;
        self.ledger.open_sample.set(Some(i));
        consumed
    }

    fn has_session(&self, addr: &LowAddr) -> bool {
        self.ledger.techs[self.slot].time(|| self.inner.has_session(addr))
    }

    fn attach_obs(&mut self, obs: &Obs) {
        self.inner.attach_obs(obs)
    }
}
