//! Omni fleet benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload <context-dense|data-wild|relay-mule|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` builds and runs the workload's fleet of real `OmniStack`s
//! repeatedly for `--seconds`, checks every run's outputs, and prints the
//! end-to-end metrics. `--trace 1` alternates untraced and traced runs and
//! prints the per-layer ledger. `--workload all` runs the three workloads in
//! turn. The last line of standard output is one JSON object; the exit code
//! is non-zero when any check fails. See README.md.

mod probe;
mod replay;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use omni_obs::Obs;

use probe::{CountingAlloc, Ledger, EVENT_KINDS, TECHS};
use workload::{Outcome, Spec, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Extra fleet constructions sampled per untraced invocation for `setup_s`:
/// at least this many, and for at least this long, before the first run;
/// then for this long after every run, so that the samples span the same
/// stretch of host time as the runs.
const MIN_SETUPS: usize = 21;
const SETUP_SECONDS: f64 = 0.5;
const SETUP_SLICE_SECONDS: f64 = 0.1;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workloads = match name {
        "all" => Workload::ALL.to_vec(),
        _ => vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?],
    };
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { workloads, seed, seconds: seconds.max(1) as f64, trace })
}

/// One built-and-run fleet.
struct Run {
    setup_s: f64,
    /// Wall time of the `run_until` span.
    run_s: f64,
    /// Allocations inside `run_until` (traced runs only).
    run_allocs: u64,
    outcome: Outcome,
    violations: Vec<String>,
    ledger: Rc<Ledger>,
    obs: Option<Obs>,
    frames_dropped: u64,
}

fn run_once(spec: &Rc<Spec>, traced: bool) -> Run {
    let mut fleet = workload::build(spec, traced);
    CountingAlloc::set(traced);
    let a0 = CountingAlloc::count();
    let t0 = Instant::now();
    fleet.runner.run_until(spec.end);
    let run_s = t0.elapsed().as_secs_f64();
    let run_allocs = CountingAlloc::count() - a0;
    CountingAlloc::set(false);
    let outcome = workload::outcome(spec, &fleet);
    let violations = std::mem::take(&mut fleet.book.borrow_mut().violations);
    Run {
        setup_s: fleet.setup_s,
        run_s,
        run_allocs,
        outcome,
        violations,
        frames_dropped: fleet.runner.fault_frames_dropped(),
        ledger: fleet.ledger,
        obs: fleet.obs,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Two outcomes of the same seed must agree exactly. The energy ledger sums
/// a device's open draw states in hash-map order, so `energy_ma` may differ
/// in its last bits; it is compared to 1e-9 relative.
fn same_behaviour(a: &Outcome, b: &Outcome) -> bool {
    let close = (a.energy_ma - b.energy_ma).abs() <= 1e-9 * a.energy_ma.abs();
    close && Outcome { energy_ma: a.energy_ma, ..b.clone() } == *a
}

struct Report {
    lines: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.lines.push((name.into(), value, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.lines.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN; a non-finite value already failed a check.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    // `--workload all` runs each workload in turn and prefixes its metrics.
    let prefixed = args.workloads.len() > 1;
    let mut all = Report { lines: Vec::new() };
    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    for &workload in &args.workloads {
        let spec = Rc::new(Spec::generate(workload, args.seed));
        println!(
            "fleetbench workload={} seed={} seconds={} trace={} devices={} sends={} sim_end_s={}",
            workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            spec.positions.len(),
            spec.sends.len(),
            spec.end.as_secs_f64(),
        );
        if spec.bulk_bps > 0.0 {
            let capacity = spec.sim.wifi.capacity_bps;
            println!(
                "offered medium+bulk load {:.0} B/s = {:.1}% of the fleet-wide {:.0} B/s WiFi channel",
                spec.bulk_bps,
                100.0 * spec.bulk_bps / capacity,
                capacity
            );
        }
        let mut found = Vec::new();
        let (report, outcome) = if args.trace {
            traced(args.seconds, &spec, &mut found)
        } else {
            untraced(args.seconds, &spec, &mut found)
        };
        if outcome.delivered == 0 {
            found.push("the workload delivered nothing".into());
        }
        for (name, value, unit) in report.lines {
            println!("  {name:<36} {value:>16.6} {unit}");
            if !value.is_finite() {
                found.push(format!("{name} is not a number"));
            }
            let name = if prefixed { format!("{}.{name}", workload.name()) } else { name };
            all.lines.push((name, value, unit));
        }
        problems.extend(found.into_iter().map(|p| format!("{}: {p}", workload.name())));
        attempted += outcome.attempted;
        failed += outcome.failed;
    }
    for p in &problems {
        eprintln!("fleetbench check failed: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", all.json(correct, attempted, failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Calls `each` (one build-and-run) until `seconds` of host time are spent,
/// at least once, stopping early when a check fails.
fn repeat(seconds: f64, problems: &mut Vec<String>, mut each: impl FnMut(&mut Vec<String>)) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        each(problems);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + t.elapsed().as_secs_f64() > seconds || !problems.is_empty() {
            break;
        }
    }
}

/// Builds and drops the fleet at least `min_count` times and for at least
/// `min_seconds`, recording each construction time.
fn sample_setups(spec: &Rc<Spec>, setups: &mut Vec<f64>, min_count: usize, min_seconds: f64) {
    let t = Instant::now();
    let mut n = 0;
    while n < min_count || t.elapsed().as_secs_f64() < min_seconds {
        setups.push(workload::build(spec, false).setup_s);
        n += 1;
    }
}

fn check_run(run: &Run, reference: &Outcome, problems: &mut Vec<String>) {
    problems.extend(run.violations.iter().cloned());
    if !same_behaviour(reference, &run.outcome) {
        problems.push("two runs of the same seed behaved differently".into());
    }
}

fn untraced(seconds: f64, spec: &Rc<Spec>, problems: &mut Vec<String>) -> (Report, Outcome) {
    // Set-up alone is short, so it is sampled more often than the runs:
    // first, and then between the runs.
    let mut setups = Vec::new();
    sample_setups(spec, &mut setups, MIN_SETUPS, SETUP_SECONDS);
    // The first run faults in the heap and warms the caches: it is checked
    // and gives the reference outcome, but its time is not reported.
    let first = run_once(spec, false);
    let reference = first.outcome.clone();
    check_run(&first, &reference, problems);
    let mut runs = Vec::new();
    setups.push(first.setup_s);
    drop(first);
    repeat(seconds, problems, |problems| {
        let run = run_once(spec, false);
        check_run(&run, &reference, problems);
        runs.push(run.run_s);
        setups.push(run.setup_s);
        drop(run);
        sample_setups(spec, &mut setups, 1, SETUP_SLICE_SECONDS);
    });
    if spec.workload == Workload::RelayMule {
        let single = Rc::new(spec.single_hop());
        let run = run_once(&single, false);
        problems.extend(run.violations.iter().cloned());
        println!(
            "single-hop reference: {}/{} delivered",
            run.outcome.delivered, run.outcome.attempted
        );
        if run.outcome.delivered * 100 > run.outcome.attempted {
            problems.push(format!(
                "single-hop delivered {}/{}; the islands are not isolated",
                run.outcome.delivered, run.outcome.attempted
            ));
        }
    }
    let o = &reference;
    let sim_s = spec.end.as_secs_f64();
    println!(
        "runs={} receipts={} delivered={}/{} run_s={:.3?}",
        runs.len(),
        o.receipts,
        o.delivered,
        o.attempted,
        runs
    );
    let q = |v: &[f64], p: f64| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v[((v.len() - 1) as f64 * p).round() as usize]
    };
    println!(
        "setups={} setup_s quartiles=[{:.6}, {:.6}, {:.6}]",
        setups.len(),
        q(&setups, 0.25),
        q(&setups, 0.5),
        q(&setups, 0.75)
    );
    let mut r = Report { lines: Vec::new() };
    r.put("sim_s_per_wall_s", median(runs.iter().map(|t| sim_s / t).collect()), "sim-s/s");
    r.put(
        "wall_us_per_delivery",
        median(runs.iter().map(|t| t * 1e6 / o.receipts as f64).collect()),
        "us",
    );
    r.put("setup_s", median(setups), "s");
    r.put("peak_rss_mb", vm_hwm_mb(), "MB");
    r.put("delivery_ratio", o.ratio(), "ratio");
    r.put("delivery_p50_ms", o.quantile_ms(0.5), "sim-ms");
    r.put("delivery_tail_ms", o.quantile_ms(spec.workload.tail_quantile()), "sim-ms");
    r.put("energy_ma", o.energy_ma, "mA");
    (r, reference)
}

fn traced(seconds: f64, spec: &Rc<Spec>, problems: &mut Vec<String>) -> (Report, Outcome) {
    let reference = run_once(spec, false);
    check_run(&reference, &reference.outcome, problems);
    let mut plain = vec![reference.run_s];
    let reference = reference.outcome;
    let mut traced_runs: Vec<Run> = Vec::new();
    repeat(seconds, problems, |problems| {
        let run = run_once(spec, true);
        problems.extend(run.violations.iter().cloned());
        if !same_behaviour(&reference, &run.outcome) {
            problems.push(
                "the traced run behaved differently from the untraced run of the same seed".into(),
            );
        }
        traced_runs.push(run);
        if traced_runs.len() > 1 {
            let run = run_once(spec, false);
            check_run(&run, &reference, problems);
            plain.push(run.run_s);
        }
    });
    // Report the traced run with the median run_until time.
    traced_runs.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    let traced_median = median(traced_runs.iter().map(|r| r.run_s).collect());
    let run = traced_runs.swap_remove(traced_runs.len() / 2);
    let overhead_pct = 100.0 * (traced_median / median(plain) - 1.0);
    let samples = std::mem::take(&mut *run.ledger.samples.borrow_mut());
    let rep = replay::replay(&samples, spec.omni.context_key);
    problems.extend(rep.mismatches.iter().take(8).cloned());
    println!("traced runs={} replay sample={} frames", traced_runs.len() + 1, samples.len());
    (ledger_report(spec, &run, &rep, overhead_pct), reference)
}

fn ledger_report(spec: &Spec, run: &Run, rep: &replay::Replay, overhead_pct: f64) -> Report {
    let l = &run.ledger;
    let o = &run.outcome;
    let obs = run.obs.as_ref().expect("traced runs attach an Obs");
    let counter = |name: &str| obs.counter(name).get() as f64;
    let relay = spec.omni.relay.strategy.label();
    let relay_counter = |name: &str| obs.counter_with(name, &[("strategy", relay)]).get() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ns = |c: &std::cell::Cell<u64>| c.get() as f64;

    let run_ns = run.run_s * 1e9;
    let tech_ns: f64 = l.techs.iter().map(|s| ns(&s.ns)).sum();
    let tech_allocs: f64 = l.techs.iter().map(|s| ns(&s.allocs)).sum();
    let sim_ns = run_ns - ns(&l.stack.ns);
    let mgr_ns = ns(&l.stack.ns) - tech_ns - ns(&l.app.ns);
    let app_ns = ns(&l.app.ns);
    let events = l.events_total() as f64;
    let calls = ns(&l.stack.calls);
    let receipts = o.receipts as f64;
    let delivered = o.delivered as f64;

    let mut r = Report { lines: Vec::new() };
    r.put("sim.self_s", sim_ns / 1e9, "s");
    r.put("sim.self_ns_per_event", ratio(sim_ns, events), "ns");
    r.put("sim.events", events, "count");
    for (k, name) in EVENT_KINDS.iter().enumerate() {
        r.put(format!("sim.events.{name}"), o.events[k] as f64, "count");
    }
    r.put(
        "sim.allocs_per_event",
        ratio(run.run_allocs as f64 - ns(&l.stack.allocs), events),
        "count",
    );
    r.put("sim.frames_dropped", run.frames_dropped as f64, "count");

    r.put("manager.self_s", mgr_ns / 1e9, "s");
    r.put("manager.calls", calls, "count");
    r.put("manager.ns_per_call", ratio(mgr_ns, calls), "ns");
    r.put(
        "manager.allocs_per_call",
        ratio(ns(&l.stack.allocs) - tech_allocs - ns(&l.app.allocs), calls),
        "count",
    );
    r.put("manager.beacons_rx", counter("mgr.beacons_rx"), "count");
    r.put("manager.retries", counter("mgr.data_retries"), "count");
    r.put("manager.fallbacks", counter("mgr.data_fallbacks"), "count");
    r.put("manager.failed", counter("mgr.data_failed"), "count");
    let useful = if spec.sends.is_empty() { 0.0 } else { delivered };
    r.put("manager.tech_sends_per_delivery", ratio(counter("mgr.data_enqueued"), useful), "ratio");

    r.put("security.open_ns", rep.open_ns, "ns");
    r.put("security.est_s", rep.open_ns * l.sealed_rx.get() as f64 / 1e9, "s");

    let mut air_bytes = 0.0;
    for (i, ty) in TECHS.iter().enumerate() {
        let t = ty.to_string();
        let span = &l.techs[i];
        r.put(format!("techs.{t}.self_s"), ns(&span.ns) / 1e9, "s");
        r.put(format!("techs.{t}.calls"), ns(&span.calls), "count");
        r.put(format!("techs.{t}.failures"), counter(&format!("tech.{t}.failures")), "count");
    }
    for (i, ty) in TECHS.iter().enumerate() {
        let t = ty.to_string();
        let d = &l.send_depth[i];
        r.put(format!("queues.send.{t}.depth_max"), d.max.get() as f64, "count");
        r.put(format!("queues.send.{t}.depth_mean"), ratio(ns(&d.sum), ns(&d.reads)), "count");
    }
    r.put("queues.receive.depth_max", l.receive_depth_max.get() as f64, "count");
    r.put("queues.response.depth_max", l.response_depth_max.get() as f64, "count");
    r.put("queues.dropped", l.queue_drops() as f64, "count");
    for ty in TECHS {
        let t = ty.to_string();
        for dir in ["tx_frames", "tx_bytes", "rx_frames", "rx_bytes"] {
            let v = counter(&format!("tech.{t}.{dir}"));
            if dir == "tx_bytes" {
                air_bytes += v;
            }
            r.put(format!("wire.{t}.{dir}"), v, "count");
        }
    }
    r.put("wire.air_bytes_per_delivery", ratio(air_bytes, receipts), "bytes");
    r.put("wire.parse_ns", rep.parse_ns, "ns");

    let forwards = relay_counter("mgr.data_relayed");
    r.put("relay.forwards", forwards, "count");
    r.put("relay.deduped", relay_counter("mgr.data_deduped"), "count");
    r.put("relay.ttl_expired", relay_counter("mgr.ttl_expired"), "count");
    r.put("relay.custody_depth_max", obs.gauge("mgr.custody_depth").watermarks().1 as f64, "count");
    r.put("relay.forwards_per_delivery", ratio(forwards, useful), "ratio");

    r.put("app.self_s", app_ns / 1e9, "s");
    r.put("alloc.per_delivery", ratio(run.run_allocs as f64, receipts), "count");
    r.put("trace.overhead_pct", overhead_pct, "%");
    r.put("trace.unattributed_s", (run_ns - sim_ns - mgr_ns - tech_ns - app_ns) / 1e9, "s");
    r
}
