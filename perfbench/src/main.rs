//! End-to-end benchmark of the reproduction's three user-facing paths:
//! OSTD slot latency (`cps simulate`), FRA plan latency (`cps plan`) and
//! sweep throughput (`cps sweep`), each driven in-process through the
//! public library API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ostd_cma --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One run sets up its inputs several times (the median is `setup_s`),
//! then repeats rounds of its workload for `--seconds`. With `--trace 0`
//! it prints the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced rounds and prints the per-layer metrics, writing
//! the traced rounds' spans to `.perfbench_out/`. The last stdout line
//! is the result object; the line before it holds the run's metadata.
//! See `perfbench/README.md` for the metrics and what each should move.

mod stats;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cps_obs::Counter;
use workload::{Options, Round, Scale, Workload, DEFAULT_SEED, THREADS};

const USAGE: &str = "usage: perfbench --workload ostd_cma|osd_fra|ostd_faults_resume|sweep_faults \
                     [--seed N] [--seconds S] [--trace 0|1] [--bless]";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Rounds stop once this much time has passed, whatever else is
/// pending, so a run always ends well inside three minutes.
const HARD_STOP_S: f64 = 120.0;

/// The reported tail percentile of op latency. On the OSTD workloads
/// the δ-sampled slots (every fifth) form the top fifth, so p90 is a
/// sampled slot's latency; p99 would mostly time host preemption.
const TAIL_P: f64 = 0.9;

/// Relative tolerance of the default-seed outputs against
/// `reference.txt`. Loose enough for intended last-bit changes (a
/// re-blessed golden moves δ by ~1e-9), tight enough for real breakage.
const REFERENCE_REL_TOL: f64 = 1e-4;

const REFERENCE: &str = include_str!("../reference.txt");

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        bless: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workload::NAMES));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = Options {
        seed: args.seed,
        scale: Scale::Full,
        corrupt: false,
    };
    let report = match execute(&args.workload, &opts, args.seconds, args.trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.bless {
        for (key, value) in &report.outputs {
            println!("{} {key} {value}", args.workload);
        }
    }
    if let Err(e) = write_trace(&args, &report.traces) {
        eprintln!("perfbench: writing spans: {e}");
        return ExitCode::FAILURE;
    }
    for why in &report.failures {
        eprintln!("perfbench: FAILED {why}");
    }
    println!("{}", report.meta_json(&args));
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One metric: value and unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run measured.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Metrics,
    outputs: BTreeMap<String, f64>,
    traces: Vec<Vec<trace::Span>>,
    op_name: &'static str,
    op_samples: usize,
    round_wall_s: Vec<f64>,
    traced_rounds: usize,
    steal_s: f64,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    fn meta_json(&self, args: &Args) -> String {
        format!(
            "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"round_wall_s\": {:?}, \"traced_rounds\": {}, \"steal_s\": {}, \"op\": \"{}\", \
             \"op_samples\": {}, \"nproc\": {}, \"threads\": {THREADS}, \
             \"git_sha\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\"}}}}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            self.round_wall_s,
            self.traced_rounds,
            self.steal_s,
            self.op_name,
            self.op_samples,
            sys::nproc(),
            sys::git_sha(),
            sys::rustc_version(),
            sys::build_profile(),
        )
    }
}

/// One timed round.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    round: Round,
    /// Traced rounds only: spans and `cps-obs` counters.
    spans: Option<(Vec<trace::Span>, cps_obs::RunMetrics)>,
}

/// Sets up `name`, runs it for `seconds`, and returns its metrics.
fn execute(name: &str, opts: &Options, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let started = Instant::now();
        let mut wl = workload::build(name, opts)?;
        wl.warm_up()?;
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some(wl);
    }
    let mut wl = built.ok_or("no set-up ran")?;
    let steal0 = sys::steal_seconds()?;
    let rounds = measure(wl.as_mut(), seconds, traced)?;
    let mut report = Report {
        op_name: wl.op_name(),
        round_wall_s: rounds.iter().map(|t| t.wall_s).collect(),
        traced_rounds: rounds.iter().filter(|t| t.spans.is_some()).count(),
        steal_s: sys::steal_seconds()? - steal0,
        ..Report::default()
    };
    check_rounds(&mut report, &rounds);
    if opts.seed == DEFAULT_SEED && opts.scale == Scale::Full && !opts.corrupt {
        check_reference(&mut report, name);
    }
    if traced {
        report.metrics = per_layer(&mut report, &rounds)?;
        report.traces = rounds
            .into_iter()
            .filter_map(|t| t.spans)
            .map(|s| s.0)
            .collect();
    } else {
        report.metrics = end_to_end(&mut report, &rounds, stats::median(&setup_s))?;
    }
    Ok(report)
}

/// Repeats rounds until `seconds` have passed and enough samples exist:
/// the tail rule's minimum of op latencies untraced; at least one
/// untraced and two traced rounds, alternating, when tracing.
fn measure(wl: &mut dyn Workload, seconds: f64, traced: bool) -> Result<Vec<Timed>, String> {
    let min_ops = stats::tail_min_samples(TAIL_P);
    let started = Instant::now();
    let mut rounds: Vec<Timed> = Vec::new();
    loop {
        let trace_this = traced && rounds.len() % 2 == 1;
        wl.prepare()?;
        let mut round = Round::default();
        if trace_this {
            cps_obs::reset();
            cps_obs::enable();
            trace::start();
        }
        let cpu0 = sys::cpu_seconds()?;
        let t0 = Instant::now();
        {
            let _round = trace::span("round");
            wl.round(&mut round, trace_this);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_seconds()? - cpu0;
        let spans = trace_this.then(|| {
            let spans = trace::finish();
            cps_obs::disable();
            (spans, cps_obs::snapshot())
        });
        rounds.push(Timed {
            wall_s,
            cpu_s,
            round,
            spans,
        });
        let elapsed = started.elapsed().as_secs_f64();
        let traced_rounds = rounds.iter().filter(|t| t.spans.is_some()).count();
        let enough = if traced {
            traced_rounds >= 2 && rounds.len() > traced_rounds
        } else {
            rounds.iter().map(|t| t.round.op_ms.len()).sum::<usize>() >= min_ops
        };
        if (elapsed >= seconds && enough) || elapsed >= HARD_STOP_S {
            return Ok(rounds);
        }
    }
}

/// Folds failures, and checks that every round produced the same
/// outputs (the workloads are deterministic).
fn check_rounds(report: &mut Report, rounds: &[Timed]) {
    for t in rounds {
        report.attempted += t.round.attempted;
        report.failed += t.round.failed;
        report.failures.extend(t.round.failures.iter().cloned());
    }
    let first = &rounds[0].round.outputs;
    for (i, t) in rounds.iter().enumerate().skip(1) {
        if &t.round.outputs != first {
            report.fail(format!("round {i} outputs differ from round 0's"));
        }
    }
    report.outputs = first.clone();
}

/// Compares the default seed's outputs with `reference.txt`.
fn check_reference(report: &mut Report, name: &str) {
    let reference: BTreeMap<&str, f64> = REFERENCE
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next()? == name).then_some(())?;
            Some((parts.next()?, parts.next()?.parse().ok()?))
        })
        .collect();
    let mut failures = Vec::new();
    if reference.len() != report.outputs.len() {
        failures.push(format!(
            "{} outputs, {} reference values",
            report.outputs.len(),
            reference.len()
        ));
    }
    for (key, &want) in &reference {
        let got = report.outputs.get(*key).copied().unwrap_or(f64::NAN);
        // NaN (a missing output) is never close.
        let close = (got - want).abs() <= REFERENCE_REL_TOL * want.abs();
        if !close {
            failures.push(format!("{key} = {got}, reference {want}"));
        }
    }
    for why in failures {
        report.fail(format!("reference: {why}"));
    }
}

fn end_to_end(report: &mut Report, rounds: &[Timed], setup_s: f64) -> Result<Metrics, String> {
    let walls: Vec<f64> = rounds.iter().map(|t| t.wall_s).collect();
    let cpus: Vec<f64> = rounds.iter().map(|t| t.cpu_s).collect();
    let op_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|t| t.round.op_ms.iter().copied())
        .collect();
    // The median of per-round rates, so one preempted round cannot move
    // it the way it would move total ops over total time.
    let rates: Vec<f64> = rounds
        .iter()
        .map(|t| {
            let (ops, s) = t
                .round
                .throughput
                .unwrap_or((t.round.op_ms.len() as u64, t.wall_s));
            ops as f64 / s
        })
        .collect();
    report.op_samples = op_ms.len();
    Ok(vec![
        ("setup_s", setup_s, "s"),
        ("wall_s", stats::median(&walls), "s"),
        ("cpu_s", stats::median(&cpus), "s"),
        ("peak_rss_mb", sys::peak_rss_mb()?, "MiB"),
        ("op_ms_p50", stats::median(&op_ms), "ms"),
        ("op_ms_p90", stats::tail(&op_ms, TAIL_P)?, "ms"),
        ("ops_per_s", stats::median(&rates), "1/s"),
    ])
}

/// Per-layer span times: metric name and span name.
const LAYER_TIMES: [(&str, &str); 18] = [
    ("sim.build_s", "sim.build"),
    ("sim.stage.fault_s", "sim.stage.fault"),
    ("sim.stage.sense_s", "sim.stage.sense"),
    ("sim.stage.exchange_s", "sim.stage.exchange"),
    ("sim.stage.recovery_s", "sim.stage.recovery"),
    ("sim.stage.optimize_s", "sim.stage.optimize"),
    ("sim.stage.record_s", "sim.stage.record"),
    ("sim.observe_s", "sim.observe"),
    ("field.delta_s", "field.delta"),
    ("core.fra_s", "core.fra"),
    ("core.report_s", "core.report"),
    ("greenorbs.region_field_s", "greenorbs.region_field"),
    ("persist.store_s", "persist.store"),
    ("persist.encode_s", "persist.encode"),
    ("persist.load_s", "persist.load"),
    ("persist.restore_s", "persist.restore"),
    ("sweep.run_s", "sweep.run"),
    ("sweep.replay_s", "sweep.replay"),
];

/// Per-layer span counts: metric name and span name.
const LAYER_CALLS: [(&str, &str); 4] = [
    ("field.delta_calls", "field.delta"),
    ("core.fra_calls", "core.fra"),
    ("greenorbs.region_field_calls", "greenorbs.region_field"),
    ("persist.store_calls", "persist.store"),
];

/// Per-layer `cps-obs` counters.
const LAYER_COUNTERS: [(&str, Counter); 10] = [
    ("sim.slots", Counter::SimSteps),
    ("field.raster_cells", Counter::RasterCells),
    ("core.fra.delaunay_inserts", Counter::DelaunayInserts),
    ("core.fra.cavity_recomputes", Counter::CavityRecomputes),
    ("core.fra.full_grid_recomputes", Counter::FullGridRecomputes),
    ("core.fra.argmax_rejections", Counter::ArgmaxRejections),
    ("core.fra.relay_replans", Counter::RelayReplans),
    ("pool.tasks", Counter::PoolTasks),
    ("sweep.jobs", Counter::SweepJobs),
    ("sweep.resumed", Counter::SweepResumed),
];

/// Counts the benchmark measures itself.
const OWN_COUNTS: [&str; 2] = ["persist.snapshot_bytes", "sweep.manifest_bytes"];

/// Per-layer metrics of the traced rounds (times are per round), with
/// the check that every count repeats exactly from round to round.
fn per_layer(report: &mut Report, rounds: &[Timed]) -> Result<Metrics, String> {
    let traced: Vec<(&Timed, trace::Totals, &cps_obs::RunMetrics)> = rounds
        .iter()
        .filter_map(|t| {
            let (spans, obs) = t.spans.as_ref()?;
            Some((t, trace::totals(spans), obs))
        })
        .collect();
    if traced.is_empty() {
        return Err("no traced round finished".into());
    }
    let n = traced.len() as f64;
    let counts_of = |t: &Timed, tot: &trace::Totals, obs: &cps_obs::RunMetrics| {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for (metric, span) in LAYER_CALLS {
            counts.push((metric, tot.calls.get(span).copied().unwrap_or(0)));
        }
        for (metric, counter) in LAYER_COUNTERS {
            counts.push((metric, obs.counter(counter)));
        }
        for metric in OWN_COUNTS {
            counts.push((
                metric,
                t.round.layer_counts.get(metric).copied().unwrap_or(0),
            ));
        }
        counts
    };
    let counts = counts_of(traced[0].0, &traced[0].1, traced[0].2);
    for (i, (t, tot, obs)) in traced.iter().enumerate().skip(1) {
        let again = counts_of(t, tot, obs);
        if again != counts {
            report.fail(format!(
                "traced round {i} counts {again:?} differ from {counts:?}"
            ));
        }
    }

    let mut metrics: Metrics = Vec::new();
    for (metric, span) in LAYER_TIMES {
        let total: f64 = traced
            .iter()
            .map(|(_, tot, _)| tot.seconds.get(span).copied().unwrap_or(0.0))
            .sum();
        let s = total / n;
        metrics.push((metric, s, "s"));
    }
    for &(metric, value) in &counts {
        metrics.push((metric, value as f64, "count"));
    }
    let count = |name: &str| counts.iter().find(|c| c.0 == name).map_or(0, |c| c.1) as f64;
    let (cavity, full) = (
        count("core.fra.cavity_recomputes"),
        count("core.fra.full_grid_recomputes"),
    );
    let ratio = if cavity + full > 0.0 {
        cavity / (cavity + full)
    } else {
        0.0
    };
    metrics.push(("core.fra.cavity_ratio", ratio, "ratio"));

    let traced_wall: f64 = traced.iter().map(|(_, tot, _)| tot.wall_s).sum();
    let traced_cpu: f64 = traced.iter().map(|(t, _, _)| t.cpu_s).sum();
    let unattributed: f64 = traced.iter().map(|(_, tot, _)| tot.unattributed_s).sum();
    metrics.push((
        "pool.parallel_efficiency",
        traced_cpu / (traced_wall * THREADS as f64),
        "ratio",
    ));
    metrics.push(("trace.coverage", 1.0 - unattributed / traced_wall, "ratio"));
    metrics.push(("trace.unattributed_s", unattributed / n, "s"));
    let walls = |with_spans: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|t| t.spans.is_some() == with_spans)
            .map(|t| t.wall_s)
            .collect()
    };
    metrics.push((
        "trace.overhead",
        stats::median(&walls(true)) / stats::median(&walls(false)),
        "ratio",
    ));
    Ok(metrics)
}

/// Writes the traced rounds' spans to `.perfbench_out/`.
fn write_trace(args: &Args, traces: &[Vec<trace::Span>]) -> std::io::Result<()> {
    if traces.is_empty() {
        return Ok(());
    }
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir)?;
    let rounds: Vec<String> = traces.iter().map(|s| trace::to_json(s)).collect();
    let text = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"rounds\": [{}]}}\n",
        args.workload,
        args.seed,
        rounds.join(",")
    );
    std::fs::write(
        dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed)),
        text,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `cps-obs` counters and the scratch directories are per process,
    /// so runs inside the test binary take turns.
    static RUNS: Mutex<()> = Mutex::new(());

    fn smoke(name: &str, corrupt: bool, traced: bool) -> Report {
        let _turn = RUNS.lock().unwrap_or_else(|e| e.into_inner());
        let opts = Options {
            seed: 5,
            scale: Scale::Smoke,
            corrupt,
        };
        execute(name, &opts, 0.01, traced).unwrap()
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let args = parse_args(
            [
                "--workload",
                "osd_fra",
                "--seed",
                "9",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (9, 3.0, true));
        assert!(parse_args(["--workload", "nope"].map(String::from).into_iter()).is_err());
        assert!(parse_args(
            ["--workload", "osd_fra", "--trace", "2"]
                .map(String::from)
                .into_iter()
        )
        .is_err());
    }

    #[test]
    fn clean_runs_pass_their_checks() {
        for name in workload::NAMES {
            let report = smoke(name, false, false);
            assert!(report.correct(), "{name}: {:?}", report.failures);
            assert!(report.attempted > 0);
        }
    }

    #[test]
    fn a_corrupted_output_raises_the_error_rate() {
        for name in workload::NAMES {
            let report = smoke(name, true, false);
            assert!(report.failed > 0, "{name}: corruption went unnoticed");
            assert!(report.result_json().starts_with("{\"correct\": false"));
        }
    }

    #[test]
    fn traced_counts_repeat_and_cover_the_round() {
        for name in workload::NAMES {
            let a = smoke(name, false, true);
            let b = smoke(name, false, true);
            assert!(a.correct(), "{name}: {:?}", a.failures);
            let counts = |r: &Report| -> Vec<(&str, f64)> {
                r.metrics
                    .iter()
                    .filter(|m| m.2 == "count")
                    .map(|m| (m.0, m.1))
                    .collect()
            };
            assert_eq!(counts(&a), counts(&b), "{name}");
            let coverage = a
                .metrics
                .iter()
                .find(|m| m.0 == "trace.coverage")
                .unwrap()
                .1;
            assert!(
                coverage > 0.5 && coverage <= 1.0,
                "{name}: coverage {coverage}"
            );
        }
    }

    #[test]
    fn reference_covers_every_workload() {
        for name in workload::NAMES {
            assert!(
                REFERENCE
                    .lines()
                    .any(|l| l.starts_with(&format!("{name} "))),
                "{name} has no reference values"
            );
        }
    }
}
