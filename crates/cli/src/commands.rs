//! The `cps` subcommands.

use std::error::Error;
use std::fs;
use std::path::Path;

use cps_core::osd::FraBuilder;
use cps_core::{analyze_deployment_with, CoreError, CpsConfig, EvalOptions, SurvivabilityTracker};
use cps_field::{Field, GridField, Parallelism, TimeVaryingField};
use cps_geometry::{GridSpec, Point2, Rect};
use cps_greenorbs::{Channel, Dataset, ForestConfig, LatentLightField, DEFAULT_KERNEL_BANDWIDTH};
use cps_network::UnitDiskGraph;
use cps_sim::{
    run_sweep, scenario, CheckpointDir, CheckpointPolicy, CmaBuilder, DeltaTimeline, FaultEvent,
    FaultPlan, RunRecorder, SweepSpec, TrajectoryRecorder,
};
use cps_viz::{ascii_heatmap, ascii_scatter, field_to_pgm, trajectories_svg, SvgStyle};

use crate::args::Args;

/// Usage text shown by `cps help` and on argument errors.
pub const USAGE: &str = "\
usage: cps <command> [--flag value]...

commands:
  generate  --out trace.json [--seed N] [--nodes 1000] [--hours 24] [--csv readings.csv]
            synthesize a GreenOrbs-style forest sensing trace
  surface   --trace trace.json [--hour 10] [--resolution 101] [--out surface.pgm]
            extract and render the referential light surface
  plan      --trace trace.json [--k 80] [--rc 10] [--hour 10] [--out plan.csv] [--threads N]
            [--metrics metrics.json]
            plan a stationary deployment with FRA and report its quality
  simulate  [--k 100] [--minutes 45] [--seed N] [--svg swarm.svg] [--threads N]
            [--faults spec] [--report out.json] [--metrics metrics.json]
            [--optimizer cma|fra|hybrid]
            [--checkpoint-dir DIR] [--checkpoint-every N]
            [--checkpoint-on-fault on] [--resume on]
            run the CMA mobile swarm on the latent light field; --faults
            injects a deterministic fault schedule (comma-separated
            key=value: seed=N, kill=NODE@SLOT, cull=FRAC@SLOT, death=P,
            battery=CAP:IDLE:MOVE, dropout=P, outlier=P:MAG,
            stuck=P:SLOTS, loss=P[:RETRIES], recovery=auto|on|off) and
            --report writes the survivability report JSON
  sweep     --spec sweep.json --out results.json [--workers N] [--resume on]
            [--manifest PATH] [--metrics metrics.json]
            run a deterministic batch sweep: the spec names axes (seeds,
            k, comm_radius, faults) and scenario knobs; jobs execute
            concurrently on the persistent pool and fold into per-cell
            aggregates that are bit-identical at any --workers value.
            A manifest (default: <out>.manifest) records completed jobs
            after each one; --resume on replays it instead of
            recomputing, with byte-identical output
  report    --trace trace.json --plan plan.csv [--rc 10] [--hour 10] [--threads N]
            full quality/robustness report for an existing deployment
  help      show this text

--threads selects the worker count for grid sweeps (0 = all cores, the
default), including the reference-surface smoothing of `plan` and
`report`; results are identical at any setting.

--optimizer selects the deployment optimizer for `simulate`: `cma` (the
default) starts from the evenly spaced grid and runs the paper's OSTD
movement loop; `fra` places the fleet with the paper's OSD refinement
algorithm against the light surface frozen at the start hour and holds
position (the movement loop is skipped); `hybrid` uses the FRA
placement as the starting formation and then polishes it with the CMA
movement loop. The flag is ignored on --resume: a checkpoint already
fixes the formation it was taken from.

--metrics turns on the instrumentation layer (algorithm counters and
per-phase wall-clock timers, off by default) and writes the structured
RunMetrics JSON after the run; `simulate` embeds the survivability
report into it. Instrumentation never changes results, only records
them.

--checkpoint-dir enables crash-safe checkpointing of `simulate`:
--checkpoint-every N snapshots the full simulation state every N
minutes, --checkpoint-on-fault on also snapshots on any death,
partition, or reconnection. --resume on restarts from the newest valid
snapshot in the directory (corrupt or truncated snapshots are skipped
automatically) and finishes with results bit-identical to a run that
was never interrupted.

the region of interest is the paper's 100x100 m window at (20,20)-(120,120).";

type CmdResult = Result<(), Box<dyn Error>>;

fn region() -> Rect {
    Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).expect("static region")
}

fn load_trace(path: &str) -> Result<Dataset, Box<dyn Error>> {
    let text = fs::read_to_string(path)?;
    Ok(Dataset::from_json(&text)?)
}

/// `cps generate` — synthesize and save a trace.
pub fn generate(args: &Args) -> CmdResult {
    let out = args.require("out")?;
    let config = ForestConfig {
        seed: args.u64_or("seed", ForestConfig::default().seed)?,
        node_count: args.usize_or("nodes", 1000)?,
        hours: args.u32_or("hours", 24)?,
        ..ForestConfig::default()
    };
    let csv_path = args.string_or("csv", "");
    args.finish()?;

    let dataset = Dataset::generate(&config);
    fs::write(&out, dataset.to_json()?)?;
    println!(
        "wrote {out}: {} nodes x {} hours ({} readings)",
        dataset.node_count(),
        dataset.hours(),
        dataset.readings().len()
    );
    if !csv_path.is_empty() {
        let mut buf = Vec::new();
        dataset.write_readings_csv(&mut buf)?;
        fs::write(&csv_path, buf)?;
        println!("wrote {csv_path} (readings CSV)");
    }
    Ok(())
}

/// `cps surface` — extract the referential surface.
pub fn surface(args: &Args) -> CmdResult {
    let trace = args.require("trace")?;
    let hour = args.u32_or("hour", 10)?;
    let resolution = args.usize_or("resolution", 101)?;
    let out = args.string_or("out", "");
    args.finish()?;

    let dataset = load_trace(&trace)?;
    let field = dataset.region_field(region(), Channel::Light, hour, resolution)?;
    let grid = GridSpec::new(region(), resolution, resolution)?;
    println!("light surface at hour {hour}:");
    println!("{}", ascii_heatmap(&field, &grid, 72, 28)?);
    let stats = field.summarize(&grid);
    println!(
        "KLux: min {:.2}  max {:.2}  mean {:.2}  std {:.2}",
        stats.min, stats.max, stats.mean, stats.std_dev
    );
    if !out.is_empty() {
        fs::write(&out, field_to_pgm(&field, &grid, 404, 404)?)?;
        println!("wrote {out}");
    }
    Ok(())
}

/// `cps plan` — run FRA and save the deployment.
pub fn plan(args: &Args) -> CmdResult {
    let trace = args.require("trace")?;
    let k = args.usize_or("k", 80)?;
    let rc = args.f64_or("rc", 10.0)?;
    let hour = args.u32_or("hour", 10)?;
    let out = args.string_or("out", "");
    let metrics_path = args.string_or("metrics", "");
    let par = Parallelism::from_threads(args.usize_or("threads", 0)?);
    let eval = EvalOptions::new().parallelism(par);
    args.finish()?;

    if !metrics_path.is_empty() {
        cps_obs::reset();
        cps_obs::enable();
    }
    let dataset = load_trace(&trace)?;
    let reference = reference_surface(&dataset, hour, par)?;
    let grid = GridSpec::new(region(), 101, 101)?;
    let result = FraBuilder::new(k, rc)
        .grid(grid)
        .evaluator(eval)
        .run(&reference)?;
    println!(
        "FRA placed {k} nodes: {} refinement picks, {} connectivity relays",
        result.refined, result.relays
    );
    println!("{}", ascii_scatter(&result.positions, region(), 60, 24)?);

    let report = analyze_deployment_with(&reference, &result.positions, rc, &grid, par)?;
    print_report(&report);

    if !out.is_empty() {
        let mut csv = String::from("x,y\n");
        for p in &result.positions {
            csv.push_str(&format!("{},{}\n", p.x, p.y));
        }
        fs::write(&out, csv)?;
        println!("wrote {out}");
    }
    if !metrics_path.is_empty() {
        let metrics = cps_obs::snapshot();
        cps_obs::disable();
        fs::write(&metrics_path, metrics.to_json()?)?;
        println!("wrote {metrics_path} (run metrics)");
    }
    Ok(())
}

/// The deployment optimizer `cps simulate --optimizer` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OptimizerKind {
    /// The paper's OSTD loop: evenly spaced grid start, CMA movement
    /// for the mission.
    Cma,
    /// The paper's OSD algorithm: FRA refinement against the field
    /// frozen at the start time; the deployment then holds position.
    Fra,
    /// FRA refinement for the initial placement, then CMA movement for
    /// the mission.
    Hybrid,
}

impl std::str::FromStr for OptimizerKind {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cma" => Ok(OptimizerKind::Cma),
            "fra" => Ok(OptimizerKind::Fra),
            "hybrid" => Ok(OptimizerKind::Hybrid),
            _ => Err(CoreError::InvalidParameter {
                name: "optimizer",
                requirement: "must be cma, fra, or hybrid",
            }),
        }
    }
}

/// `cps simulate` — the CMA mobile swarm.
pub fn simulate(args: &Args) -> CmdResult {
    let k = args.usize_or("k", 100)?;
    let minutes = args.usize_or("minutes", 45)?;
    let seed_flag = args.u64_or("seed", ForestConfig::default().seed)?;
    let svg_path = args.string_or("svg", "");
    let faults_spec = args.string_or("faults", "");
    let report_path = args.string_or("report", "");
    let metrics_path = args.string_or("metrics", "");
    let checkpoint_dir = args.string_or("checkpoint-dir", "");
    let checkpoint_every = args.u64_or("checkpoint-every", 0)?;
    let checkpoint_on_fault = args.bool_or("checkpoint-on-fault", false)?;
    let resume = args.bool_or("resume", false)?;
    let optimizer: OptimizerKind = args.string_or("optimizer", "cma").parse()?;
    let par = Parallelism::from_threads(args.usize_or("threads", 0)?);
    let eval = EvalOptions::new().parallelism(par);
    args.finish()?;

    let policy = CheckpointPolicy::every(checkpoint_every).on_fault_event(checkpoint_on_fault);
    if checkpoint_dir.is_empty() && (policy.is_enabled() || resume) {
        return Err(
            "--checkpoint-every, --checkpoint-on-fault, and --resume require --checkpoint-dir"
                .into(),
        );
    }
    let store = (!checkpoint_dir.is_empty()).then(|| CheckpointDir::new(&checkpoint_dir));

    if !metrics_path.is_empty() {
        cps_obs::reset();
        cps_obs::enable();
    }
    // Fall back through corrupt snapshots to the newest valid one; an
    // empty directory degrades to a fresh start.
    let resumed = match (&store, resume) {
        (Some(store), true) => store.latest_valid()?,
        _ => None,
    };
    // The snapshot's label pins the field: resuming against a different
    // forest would not be the interrupted run.
    let seed = match &resumed {
        Some((snapshot, _)) => snapshot
            .label
            .strip_prefix("forest,seed=")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                format!(
                    "snapshot label {:?} does not identify a forest seed",
                    snapshot.label
                )
            })?,
        None => seed_flag,
    };
    let config = ForestConfig {
        seed,
        ..ForestConfig::default()
    };
    let field = LatentLightField::new(&config);
    let label = format!("forest,seed={seed}");
    let grid = GridSpec::new(region(), 101, 101)?;
    let was_resumed = resumed.is_some();
    let (mut sim, timeline, survivability, start_minute) = match resumed {
        Some((snapshot, path)) => {
            // The optimizer flag is moot on resume: the checkpoint
            // already fixes the formation it was taken from.
            if optimizer != OptimizerKind::Cma {
                println!("--optimizer is ignored on resume; continuing the checkpointed run");
            }
            let timeline = snapshot
                .timeline(eval)
                .unwrap_or_else(|| DeltaTimeline::with_options(eval));
            let survivability = snapshot
                .survivability_tracker()
                .unwrap_or_else(|| SurvivabilityTracker::new(snapshot.node_count()));
            let sim = CmaBuilder::resume_from(snapshot)
                .parallelism(par)
                .run(&field)?;
            let start_minute = sim.slot() as usize;
            println!(
                "resumed from {} at t=10:{start_minute:02} ({} nodes alive)",
                path.display(),
                sim.alive_count()
            );
            (sim, timeline, survivability, start_minute)
        }
        None => {
            if resume {
                println!("no valid checkpoint in {checkpoint_dir}; starting fresh");
            }
            let start = match optimizer {
                OptimizerKind::Cma => scenario::grid_start_spaced(region(), k, 9.3)?,
                OptimizerKind::Fra | OptimizerKind::Hybrid => {
                    // FRA plans against the field frozen at the start
                    // time, with the fleet's default comm radius.
                    let placed = FraBuilder::new(k, CpsConfig::default().comm_radius())
                        .grid(grid)
                        .evaluator(eval)
                        .run(&field.at_time(600.0))?;
                    println!(
                        "fra placement: {} nodes ({} error-refined, {} relays)",
                        placed.positions.len(),
                        placed.refined,
                        placed.relays
                    );
                    placed.positions
                }
            };
            let fleet = start.len();
            let mut builder = CmaBuilder::new(region(), start)
                .evaluator(eval)
                .start_time(600.0);
            if !faults_spec.is_empty() {
                builder = builder.faults(FaultPlan::parse(&faults_spec)?);
            }
            let sim = builder.run(&field)?;
            let timeline = DeltaTimeline::for_simulation(&sim);
            let survivability = SurvivabilityTracker::new(fleet);
            (sim, timeline, survivability, 0)
        }
    };
    // OSD is a static deployment: with --optimizer fra the placement
    // *is* the answer and the movement loop never runs.
    let run_minutes = if optimizer == OptimizerKind::Fra && !was_resumed {
        if minutes > 0 {
            println!("optimizer fra: static deployment; skipping the movement loop");
        }
        start_minute
    } else {
        minutes
    };
    // The cross-cutting consumers — δ timeline, survivability ledger,
    // checkpoint policy — ride the step-observer bus instead of being
    // hand-wired into the loop body.
    let mut recorder = RunRecorder::new()
        .timeline(timeline, grid)
        .sample_every(5)
        .final_slot(run_minutes as u64)
        .survivability(survivability);
    if let Some(store) = store {
        recorder = recorder.checkpoints(policy, store, &label);
    }
    let mut recorder = recorder.sync_events(&sim);
    if !was_resumed {
        let e0 = recorder
            .prime(&sim)?
            .ok_or("recorder lost its timeline during priming")?;
        println!("t=10:00  delta {:.1}  connected {}", e0.delta, e0.connected);
    }
    let mut tracks = TrajectoryRecorder::new();
    tracks.record(&sim);
    for minute in (start_minute + 1)..=run_minutes {
        let r = sim.step_observed(&mut [&mut recorder])?;
        tracks.record(&sim);
        if let Some(e) = recorder.take_sample() {
            println!(
                "t=10:{minute:02}  delta {:.1}  connected {}  moved {}  lcm {}{}",
                e.delta,
                e.connected,
                r.moved,
                r.lcm_followers,
                if r.deaths > 0 {
                    format!("  deaths {}", r.deaths)
                } else {
                    String::new()
                },
            );
        }
        if let Some(path) = recorder.take_checkpoint() {
            println!("checkpoint: {}", path.display());
        }
    }
    let (_, survivability) = recorder.into_parts();
    let mut survivability = survivability.ok_or("recorder lost the survivability tracker")?;
    let survivability_report = if !faults_spec.is_empty() {
        let survivors = UnitDiskGraph::new(sim.positions(), sim.config().cps.comm_radius())?;
        survivability.set_critical_nodes(survivors.critical_nodes());
        let report = survivability.finish();
        println!(
            "survivability: {}/{} nodes alive  partitions {} (reconnected {})  \
             messages {} (retried {}, dropped {})",
            report.surviving_nodes,
            report.initial_nodes,
            report.partitions,
            report.reconnects,
            report.messages,
            report.retried,
            report.dropped,
        );
        for event in sim.fault_events() {
            match *event {
                FaultEvent::Death { slot, node, .. } => {
                    println!("  slot {slot:>3}: node {node} died");
                }
                FaultEvent::Partition {
                    slot,
                    components,
                    critical,
                    ..
                } => {
                    println!(
                        "  slot {slot:>3}: network split into {components} components \
                         ({critical} critical nodes remain)"
                    );
                }
                FaultEvent::Reconnected {
                    slot, after_slots, ..
                } => {
                    println!("  slot {slot:>3}: network reconnected after {after_slots} slots");
                }
            }
        }
        report
    } else {
        survivability.finish()
    };
    if !report_path.is_empty() {
        fs::write(&report_path, survivability_report.to_json())?;
        println!("wrote {report_path} (survivability report)");
    }
    if !metrics_path.is_empty() {
        let mut metrics = cps_obs::snapshot();
        cps_obs::disable();
        metrics.merge_survivability(serde_json::from_str(&survivability_report.to_json())?);
        fs::write(&metrics_path, metrics.to_json()?)?;
        println!("wrote {metrics_path} (run metrics)");
    }
    println!("final formation:");
    println!("{}", ascii_scatter(&sim.positions(), region(), 60, 24)?);
    if !svg_path.is_empty() {
        // The fleet size comes from the simulation, not the --k flag: a
        // resumed run inherits the checkpointed fleet.
        let polylines: Vec<Vec<Point2>> = (0..sim.nodes().len())
            .map(|id| tracks.track(id).iter().map(|&(_, p)| p).collect())
            .collect();
        fs::write(
            &svg_path,
            trajectories_svg(&polylines, region(), &SvgStyle::default()),
        )?;
        println!("wrote {svg_path}");
    }
    Ok(())
}

/// `cps sweep` — deterministic multi-scenario batch runs.
pub fn sweep(args: &Args) -> CmdResult {
    let spec_path = args.require("spec")?;
    let out = args.require("out")?;
    let workers = args.usize_or("workers", 0)?;
    let resume = args.bool_or("resume", false)?;
    let metrics_path = args.string_or("metrics", "");
    let manifest_default = format!("{out}.manifest");
    let manifest_path = args.string_or("manifest", &manifest_default);
    args.finish()?;

    if !metrics_path.is_empty() {
        cps_obs::reset();
        cps_obs::enable();
    }
    let spec = SweepSpec::from_json(&fs::read_to_string(&spec_path)?)?;
    let jobs = spec.jobs();
    println!(
        "sweep: {} jobs ({} cells x {} seeds), spec digest {:016x}",
        jobs.len(),
        jobs.len() / spec.seeds.len(),
        spec.seeds.len(),
        spec.digest()?
    );
    // Each job's field is rebuilt from its seed, so a resumed sweep
    // sees exactly the fields the interrupted one did.
    let results = run_sweep(
        &spec,
        workers,
        Some(Path::new(&manifest_path)),
        resume,
        |job| {
            LatentLightField::new(&ForestConfig {
                seed: job.seed,
                ..ForestConfig::default()
            })
        },
    )?;
    for cell in &results.cells {
        println!(
            "  k={:<4} rc={:<5} faults={:<24} delta {:.1} ± {:.1}  connected {:.0}%",
            cell.k,
            cell.comm_radius,
            if cell.fault_spec.is_empty() {
                "-"
            } else {
                &cell.fault_spec
            },
            cell.final_delta.mean,
            cell.final_delta.stddev,
            100.0 * cell.connected_fraction,
        );
    }
    fs::write(&out, results.to_json()?)?;
    println!(
        "wrote {out} ({} jobs, {} cells; manifest at {manifest_path})",
        results.jobs.len(),
        results.cells.len()
    );
    if !metrics_path.is_empty() {
        let metrics = cps_obs::snapshot();
        cps_obs::disable();
        fs::write(&metrics_path, metrics.to_json()?)?;
        println!("wrote {metrics_path} (run metrics)");
    }
    Ok(())
}

/// `cps report` — analyze a saved deployment.
pub fn report(args: &Args) -> CmdResult {
    let trace = args.require("trace")?;
    let plan_path = args.require("plan")?;
    let rc = args.f64_or("rc", 10.0)?;
    let hour = args.u32_or("hour", 10)?;
    let par = Parallelism::from_threads(args.usize_or("threads", 0)?);
    args.finish()?;

    let dataset = load_trace(&trace)?;
    let reference = reference_surface(&dataset, hour, par)?;
    let grid = GridSpec::new(region(), 101, 101)?;
    let positions = read_positions_csv(&plan_path)?;
    println!("{} nodes loaded from {plan_path}", positions.len());
    let report = analyze_deployment_with(&reference, &positions, rc, &grid, par)?;
    print_report(&report);
    Ok(())
}

/// The 101² light surface `plan` and `report` place against, smoothed
/// under the `--threads` policy.
fn reference_surface(
    dataset: &Dataset,
    hour: u32,
    par: Parallelism,
) -> Result<GridField, Box<dyn Error>> {
    Ok(dataset.region_field_with_bandwidth(
        region(),
        Channel::Light,
        hour,
        101,
        DEFAULT_KERNEL_BANDWIDTH,
        par,
    )?)
}

fn print_report(report: &cps_core::DeploymentReport) {
    println!("--- deployment report ---");
    println!(
        "delta {:.1}   rms {:.2}   connected {}",
        report.evaluation.delta, report.evaluation.rms, report.evaluation.connected
    );
    println!(
        "articulation points {} ({:.0}% of nodes)   network diameter {}",
        report.articulation_points.len(),
        100.0 * report.criticality,
        report
            .network_diameter
            .map_or("n/a".to_string(), |d| format!("{d:.1} m")),
    );
    println!(
        "coverage per node: mean {:.1} m2, min {:.1}, max {:.1} (imbalance {:.1}x)",
        report.coverage.mean,
        report.coverage.min,
        report.coverage.max,
        report.coverage_imbalance()
    );
}

/// Reads an `x,y` CSV (with or without header) into positions.
///
/// # Errors
///
/// I/O failures and malformed rows.
fn read_positions_csv(path: &str) -> Result<Vec<Point2>, Box<dyn Error>> {
    let text = fs::read_to_string(path)?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 && line.trim() == "x,y" {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let x: f64 = parts
            .next()
            .ok_or_else(|| format!("line {}: missing x", i + 1))?
            .trim()
            .parse()?;
        let y: f64 = parts
            .next()
            .ok_or_else(|| format!("line {}: missing y", i + 1))?
            .trim()
            .parse()?;
        out.push(Point2::new(x, y));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizer_kind_parses_the_cli_values() {
        assert_eq!("cma".parse::<OptimizerKind>().unwrap(), OptimizerKind::Cma);
        assert_eq!("fra".parse::<OptimizerKind>().unwrap(), OptimizerKind::Fra);
        assert_eq!(
            "hybrid".parse::<OptimizerKind>().unwrap(),
            OptimizerKind::Hybrid
        );
        assert!("annealing".parse::<OptimizerKind>().is_err());
    }

    #[test]
    fn positions_csv_round_trip() {
        let dir = std::env::temp_dir().join("cps_cli_test_positions.csv");
        fs::write(&dir, "x,y\n1.5,2.5\n\n3.0,4.0\n").unwrap();
        let pts = read_positions_csv(dir.to_str().unwrap()).unwrap();
        assert_eq!(pts, vec![Point2::new(1.5, 2.5), Point2::new(3.0, 4.0)]);
        fs::remove_file(&dir).ok();
    }

    #[test]
    fn positions_csv_rejects_garbage() {
        let dir = std::env::temp_dir().join("cps_cli_test_garbage.csv");
        fs::write(&dir, "x,y\nnot,numbers\n").unwrap();
        assert!(read_positions_csv(dir.to_str().unwrap()).is_err());
        fs::remove_file(&dir).ok();
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        for cmd in ["generate", "surface", "plan", "simulate", "sweep", "report"] {
            assert!(USAGE.contains(cmd), "usage must document {cmd}");
        }
    }

    #[test]
    fn usage_documents_checkpointing() {
        for flag in [
            "--checkpoint-dir",
            "--checkpoint-every",
            "--checkpoint-on-fault",
            "--resume",
        ] {
            assert!(USAGE.contains(flag), "usage must document {flag}");
        }
    }
}
