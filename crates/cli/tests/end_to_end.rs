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
