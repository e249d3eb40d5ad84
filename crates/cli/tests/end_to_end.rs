//! End-to-end tests of the `cps` binary: every subcommand runs against
//! real files in a scratch directory.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cps_cli_e2e_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cps"))
}

fn golden(name: &str) -> String {
    let path = format!("{}/../../tests/goldens/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs `cps simulate <args> --report report.json` inside a scratch
/// directory (so the report path the command echoes is the same on
/// every machine) and returns `(stdout, report)`.
fn simulate_with_report(dir: &str, args: &[&str]) -> (String, String) {
    let dir = scratch(dir);
    let out = cps()
        .current_dir(&dir)
        .arg("simulate")
        .args(args)
        .args(["--report", "report.json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(dir.join("report.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (String::from_utf8(out.stdout).unwrap(), report)
}

/// Replays one `--optimizer` golden (stdout and report) at one and
/// two threads.
fn replay_optimizer_golden(optimizer: &str, extra: &[&str], golden_stem: &str) {
    for threads in ["1", "2"] {
        let mut args = vec!["--minutes", "20", "--seed", "7", "--k", "40"];
        args.extend(["--optimizer", optimizer, "--threads", threads]);
        args.extend(extra);
        let (stdout, report) = simulate_with_report(&format!("{golden_stem}_{threads}"), &args);
        assert_eq!(
            report,
            golden(&format!("{golden_stem}_report.json")),
            "{args:?}"
        );
        assert_eq!(
            stdout,
            golden(&format!("{golden_stem}_stdout.txt")),
            "{args:?}"
        );
    }
}

#[test]
fn generate_plan_report_pipeline() {
    let dir = scratch("pipeline");
    let trace = dir.join("trace.json");
    let plan = dir.join("plan.csv");

    // generate a small trace
    let out = cps()
        .args([
            "generate",
            "--out",
            trace.to_str().unwrap(),
            "--nodes",
            "250",
            "--hours",
            "12",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    // plan a deployment
    let out = cps()
        .args([
            "plan",
            "--trace",
            trace.to_str().unwrap(),
            "--k",
            "40",
            "--out",
            plan.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FRA placed 40 nodes"));
    assert!(stdout.contains("deployment report"));
    assert!(stdout.contains("connected true"));

    // report on the saved plan reproduces the numbers
    let out = cps()
        .args([
            "report",
            "--trace",
            trace.to_str().unwrap(),
            "--plan",
            plan.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report_out = String::from_utf8_lossy(&out.stdout);
    assert!(report_out.contains("40 nodes loaded"));
    // The delta line printed by `plan` must reappear verbatim.
    let delta_line = stdout
        .lines()
        .find(|l| l.starts_with("delta "))
        .expect("plan printed a delta line");
    assert!(report_out.contains(delta_line));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_runs_and_writes_svg() {
    let dir = scratch("simulate");
    let svg = dir.join("swarm.svg");
    let out = cps()
        .args([
            "simulate",
            "--k",
            "25",
            "--minutes",
            "5",
            "--svg",
            svg.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&svg).unwrap();
    assert!(text.starts_with("<svg"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_failures() {
    // Unknown subcommand.
    let out = cps().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // Missing required flag.
    let out = cps().args(["plan"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));

    // Typo'd flag is caught, not silently ignored.
    let out = cps().args(["simulate", "--minuets", "5"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--minuets"));

    // help succeeds
    let out = cps().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: cps"));
}

#[test]
fn removed_quadrature_flags_are_unknown() {
    // δ has one integration path, so the flags that used to pick the
    // quadrature kernel and the tile cache are rejected like any typo.
    // Flags are checked before any input is read.
    let trace = scratch("removed_flags").join("never_read.json");
    let trace = trace.to_str().unwrap();
    for (args, flag) in [
        (vec!["simulate"], ("kernel", "walk")),
        (vec!["plan", "--trace", trace], ("cache", "on")),
    ] {
        let (name, value) = flag;
        let flag = format!("--{name}");
        let out = cps()
            .args(&args)
            .args([flag.as_str(), value])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?} accepted {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flags: {flag}")),
            "{args:?} {flag}: {stderr}"
        );
    }
}

#[test]
fn fra_optimizer_golden_replays_at_one_and_two_threads() {
    replay_optimizer_golden("fra", &[], "simulate_fra");
}

#[test]
fn hybrid_optimizer_golden_replays_at_one_and_two_threads() {
    replay_optimizer_golden(
        "hybrid",
        &["--faults", "seed=3,kill=5@8,loss=0.1:2"],
        "simulate_hybrid_faults",
    );
}

#[test]
fn stage_report_goldens_replay() {
    let (_, clean) = simulate_with_report(
        "stage_clean",
        &["--minutes", "20", "--seed", "11", "--k", "40"],
    );
    assert_eq!(clean, golden("stage_report_clean.json"));
    let (_, faults) = simulate_with_report(
        "stage_faults",
        &[
            "--minutes",
            "20",
            "--seed",
            "7",
            "--k",
            "64",
            "--faults",
            "seed=3,kill=5@8,loss=0.1:2",
        ],
    );
    assert_eq!(faults, golden("stage_report_faults.json"));
}
