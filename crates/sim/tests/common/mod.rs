//! Shared capture of every artifact a run externalizes, for the
//! byte-for-byte determinism suites.

use omni_obs::{event_json, Obs};
use omni_sim::{FlightRecorder, Runner};

/// Everything a run externalizes, captured for byte comparison: sampler
/// JSONL, the event ring (as rendered JSON lines), the flight-recorder
/// dump, the counter registry, application-visible state, and the fault
/// RNG draw count — the sharpest probe, since one extra or reordered draw
/// anywhere desynchronizes the whole stream.
#[derive(PartialEq, Debug)]
pub struct Artifacts {
    pub sampler_jsonl: String,
    pub event_ring: Vec<String>,
    pub recorder_dump: String,
    pub counters: Vec<(String, u64)>,
    pub heard_total: u64,
    pub fault_draws: u64,
    pub frames_dropped: u64,
    pub final_t_us: u64,
}

impl Artifacts {
    /// Captures a finished run; `heard_total` is the scenario's own
    /// application-level delivery count.
    /// The recorder dump must read back into the same events, so every
    /// label a run emits is one `FlightRecorder::from_jsonl` knows.
    pub fn capture(sim: &Runner, obs: &Obs, heard_total: u64) -> Self {
        let recorder = FlightRecorder::from_obs(obs);
        let recorder_dump = recorder.to_jsonl();
        let back = FlightRecorder::from_jsonl(&recorder_dump).expect("recorder dump reads back");
        assert_eq!(back.events(), recorder.events(), "recorder dump read back differently");
        Artifacts {
            sampler_jsonl: sim.sampler().map(|s| s.to_jsonl()).unwrap_or_default(),
            event_ring: obs.events().iter().map(event_json).collect(),
            recorder_dump,
            counters: obs.snapshot().metrics.counters,
            heard_total,
            fault_draws: sim.fault_rng_draws(),
            frames_dropped: sim.fault_frames_dropped(),
            final_t_us: sim.now().as_micros(),
        }
    }

    /// Asserts field by field, so a failure names the artifact that diverged.
    pub fn assert_identical(&self, other: &Artifacts, label: &str) {
        assert_eq!(self.sampler_jsonl, other.sampler_jsonl, "{label}: sampler JSONL diverged");
        assert_eq!(self.event_ring, other.event_ring, "{label}: event ring diverged");
        assert_eq!(self.recorder_dump, other.recorder_dump, "{label}: recorder dump diverged");
        assert_eq!(self.counters, other.counters, "{label}: counter registry diverged");
        assert_eq!(self.fault_draws, other.fault_draws, "{label}: fault RNG draws diverged");
        assert_eq!(self.heard_total, other.heard_total, "{label}: heard count diverged");
        assert_eq!(self.frames_dropped, other.frames_dropped, "{label}: frame drops diverged");
        assert_eq!(self.final_t_us, other.final_t_us, "{label}: final clock diverged");
    }
}
