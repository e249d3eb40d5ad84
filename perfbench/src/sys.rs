//! Process measurements and run metadata.

use std::process::Command;

/// Clock ticks per second of `/proc/self/stat` CPU times (`CLK_TCK`,
/// 100 on Linux).
const CLOCK_TICKS: f64 = 100.0;

/// User + system CPU time of this process so far, seconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("unreadable /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / CLOCK_TICKS)
            .ok_or_else(|| format!("unreadable /proc/self/stat field {}", i + 3))
    };
    // utime is field 14, stime field 15.
    Ok(tick(11)? + tick(12)?)
}

/// CPU time the hypervisor ran something else while this machine's
/// CPUs wanted to run (the `steal` column of `/proc/stat`), seconds.
pub fn steal_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .map(|t| t as f64 / CLOCK_TICKS)
        .ok_or_else(|| "no steal column in /proc/stat".to_string())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Cores the OS lets this process use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str], envs: &[(&str, &str)]) -> String {
    Command::new(program)
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit of the working directory's own `.git`, or `unknown` when it
/// is not a git checkout.
pub fn git_sha() -> String {
    command_line("git", &["rev-parse", "HEAD"], &[("GIT_DIR", ".git")])
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"], &[])
}

/// Profile this binary was built with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable() {
        let cpu = cpu_seconds().unwrap();
        assert!(cpu >= 0.0);
        assert!(steal_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(nproc() >= 1);
    }
}
