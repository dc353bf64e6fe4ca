//! Tick-phase wall-clock profiler for the simulator's event loop.
//!
//! [`TickProfiler`] attributes the runner's wall time to a fixed
//! [`Phase`] taxonomy (delivery, fault evaluation, medium pump, timer
//! drain, telemetry sample), keeps a per-phase [`QuantileDigest`] of scope
//! latencies, and a bounded ring of recent [`PhaseSlice`]s for Chrome-trace
//! export.
//!
//! **Determinism contract** (DESIGN.md §5j): the profiler is *read-only*
//! with respect to the simulation. It reads `std::time::Instant` and writes
//! only its own buffers — never the RNG, the event sequence, the metrics
//! registry, or the event ring — so enabling it cannot change any
//! simulation artifact. Because its measurements are wall-clock they are
//! inherently nondeterministic and are exported only through
//! [`TickProfiler::report`], which no deterministic artifact includes
//! (the same rule that keeps `*.wait_us` histograms out of sampler JSONL).
//!
//! Regions are timed with the [`PhaseScope`] token pair
//! [`TickProfiler::begin`] / [`TickProfiler::finish`], which works even
//! where an `&mut` borrow of the profiler cannot live across the measured
//! code (the runner's event dispatch).

use std::collections::VecDeque;
use std::time::Instant;

use crate::digest::QuantileDigest;

/// Number of distinct phases in the taxonomy.
pub const PHASE_COUNT: usize = 5;

/// Where a slice of runner wall time is spent. See DESIGN.md §5j for the
/// event-kind mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Frame delivery: BLE advertising fan-out, one-shot and NFC
    /// deliveries, stack start, and mobility steps.
    Deliver,
    /// Fault-layer evaluation: partition windows and churn transitions.
    FaultEval,
    /// Medium pump: Wi-Fi scan/join, TCP connect, flow boundaries,
    /// multicast, and infra chunk completions.
    MediumPump,
    /// Timer drain: application and manager timer callbacks.
    TimerDrain,
    /// Telemetry sampling windows (`Engine::Sample`).
    TelemetrySample,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Deliver,
        Phase::FaultEval,
        Phase::MediumPump,
        Phase::TimerDrain,
        Phase::TelemetrySample,
    ];

    /// Stable kebab-case name used in flamegraph stacks and trace slices.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Deliver => "deliver",
            Phase::FaultEval => "fault-eval",
            Phase::MediumPump => "medium-pump",
            Phase::TimerDrain => "timer-drain",
            Phase::TelemetrySample => "telemetry-sample",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// An in-flight phase measurement returned by [`TickProfiler::begin`].
///
/// Deliberately *not* RAII: dropping it without [`TickProfiler::finish`]
/// discards the measurement (never panics), so the runner can hold one
/// across code that needs `&mut self`.
#[derive(Debug)]
pub struct PhaseScope {
    phase: Phase,
    start: Instant,
}

impl PhaseScope {
    /// The phase this scope is charging, so callers can coalesce
    /// consecutive same-phase work into one measurement.
    pub fn phase(&self) -> Phase {
        self.phase
    }
}

/// One recorded phase interval, for Chrome-trace export. Timestamps are
/// wall-clock microseconds since the profiler was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSlice {
    /// The phase measured.
    pub phase: Phase,
    /// Start offset from profiler creation, µs.
    pub start_us: u64,
    /// Duration, µs (at least 1 so renderers show it).
    pub dur_us: u64,
}

/// Per-phase totals and latency quantiles inside a [`PhaseReport`].
#[derive(Clone, Copy, Debug)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Total wall time attributed, µs.
    pub total_us: u64,
    /// Number of scopes recorded.
    pub scopes: u64,
    /// Fraction of the profiled total (0 when nothing was recorded).
    pub share: f64,
    /// Per-scope latency quantiles, µs.
    pub p50_us: u64,
    /// 99th percentile scope latency, µs.
    pub p99_us: u64,
    /// 99.9th percentile scope latency, µs.
    pub p999_us: u64,
}

/// Aggregated profiler readout: per-phase breakdown and recent slices.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// One entry per [`Phase::ALL`] member, in that order.
    pub phases: Vec<PhaseStat>,
    /// Total profiled wall time, µs.
    pub total_us: u64,
    /// Most recent phase slices (bounded; empty unless
    /// [`TickProfiler::set_slice_capacity`] was called).
    pub slices: Vec<PhaseSlice>,
}

impl PhaseReport {
    /// The stat row for one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseStat {
        &self.phases[phase.idx()]
    }
}

/// Wall-clock profiler for the runner's tick phases. See the module docs
/// for the determinism contract.
#[derive(Debug)]
pub struct TickProfiler {
    epoch: Instant,
    total_ns: [u64; PHASE_COUNT],
    scopes: [u64; PHASE_COUNT],
    latency_us: [QuantileDigest; PHASE_COUNT],
    slices: VecDeque<PhaseSlice>,
    slice_capacity: usize,
}

impl Default for TickProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl TickProfiler {
    /// A fresh profiler; the creation instant is the epoch for slices.
    pub fn new() -> Self {
        TickProfiler {
            epoch: Instant::now(),
            total_ns: [0; PHASE_COUNT],
            scopes: [0; PHASE_COUNT],
            latency_us: std::array::from_fn(|_| QuantileDigest::new()),
            slices: VecDeque::new(),
            slice_capacity: 0,
        }
    }

    /// Keep the most recent `cap` phase slices for Chrome-trace export
    /// (0, the default, records none — the cheapest configuration).
    pub fn set_slice_capacity(&mut self, cap: usize) {
        self.slice_capacity = cap;
        self.slices.reserve(cap.saturating_sub(self.slices.len()));
    }

    /// Start measuring `phase`; pass the returned token to
    /// [`TickProfiler::finish`]. Takes `&self` so a token can be opened
    /// before code that borrows the owner mutably.
    #[inline]
    pub fn begin(&self, phase: Phase) -> PhaseScope {
        PhaseScope { phase, start: Instant::now() }
    }

    /// Record the time since `scope` was begun.
    #[inline]
    pub fn finish(&mut self, scope: PhaseScope) {
        self.record_elapsed(scope.phase, scope.start);
    }

    fn record_elapsed(&mut self, phase: Phase, start: Instant) {
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let i = phase.idx();
        self.total_ns[i] += ns;
        self.scopes[i] += 1;
        self.latency_us[i].record(ns / 1_000);
        if self.slice_capacity > 0 {
            if self.slices.len() == self.slice_capacity {
                self.slices.pop_front();
            }
            let start_us = start.duration_since(self.epoch).as_micros() as u64;
            self.slices.push_back(PhaseSlice { phase, start_us, dur_us: (ns / 1_000).max(1) });
        }
    }

    /// Aggregate everything recorded so far.
    pub fn report(&self) -> PhaseReport {
        // Truncate each phase to µs first and total the truncated values,
        // so per-phase shares sum to exactly 1.
        let phase_us: [u64; PHASE_COUNT] = std::array::from_fn(|i| self.total_ns[i] / 1_000);
        let total_us: u64 = phase_us.iter().sum();
        let phases = Phase::ALL
            .iter()
            .map(|p| {
                let i = p.idx();
                let us = phase_us[i];
                let s = self.latency_us[i].summary();
                PhaseStat {
                    phase: *p,
                    total_us: us,
                    scopes: self.scopes[i],
                    share: if total_us == 0 { 0.0 } else { us as f64 / total_us as f64 },
                    p50_us: s.p50,
                    p99_us: s.p99,
                    p999_us: s.p999,
                }
            })
            .collect();
        PhaseReport { phases, total_us, slices: self.slices.iter().copied().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let until = Instant::now() + d;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn scopes_attribute_time_to_their_phase() {
        let mut p = TickProfiler::new();
        let token = p.begin(Phase::Deliver);
        spin(Duration::from_millis(2));
        p.finish(token);
        let token = p.begin(Phase::TimerDrain);
        spin(Duration::from_millis(1));
        p.finish(token);
        let r = p.report();
        assert!(r.phase(Phase::Deliver).total_us >= 1_000);
        assert!(r.phase(Phase::TimerDrain).total_us >= 500);
        assert_eq!(r.phase(Phase::Deliver).scopes, 1);
        assert_eq!(r.phase(Phase::FaultEval).total_us, 0);
        let share_sum: f64 = r.phases.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to 1, got {share_sum}");
    }

    #[test]
    fn dropped_token_discards_the_measurement() {
        let p = TickProfiler::new();
        let token = p.begin(Phase::MediumPump);
        let _discarded = token;
        let r = p.report();
        assert_eq!(r.phase(Phase::MediumPump).scopes, 0);
        assert_eq!(r.total_us, 0);
    }

    #[test]
    fn slice_ring_is_bounded_and_recent() {
        let mut p = TickProfiler::new();
        p.set_slice_capacity(3);
        for _ in 0..10 {
            let t = p.begin(Phase::TimerDrain);
            p.finish(t);
        }
        let r = p.report();
        assert_eq!(r.slices.len(), 3, "ring keeps only the most recent slices");
        assert!(r.slices.iter().all(|s| s.dur_us >= 1));
        // Default capacity records nothing.
        let mut q = TickProfiler::new();
        let t = q.begin(Phase::TimerDrain);
        q.finish(t);
        assert!(q.report().slices.is_empty());
    }
}
