//! `sweep_faults`: the `cps sweep` path. 8 forest seeds × k ∈ {36, 64}
//! × faults ∈ {none, [`FAULT_PLAN`]} = 32 jobs of 45 slots on 2
//! workers with a manifest, then a `--resume` replay of the finished
//! manifest, which must give byte-identical results.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use cps_greenorbs::{ForestConfig, LatentLightField};
use cps_sim::{run_sweep, SweepJob, SweepSpec};

use super::{derive_seed, Options, Round, Scale, TempDir, Workload, FAULT_PLAN, THREADS};
use crate::trace;

pub struct Sweep {
    spec: SweepSpec,
    warm_up_spec: SweepSpec,
    manifest: PathBuf,
    corrupt: bool,
    _tmp: TempDir,
}

fn spec(seeds: &[u64], ks: &[usize], faults: &[&str], minutes: u64) -> Result<SweepSpec, String> {
    let list = |v: Vec<String>| v.join(", ");
    let text = format!(
        "{{\"seeds\": [{}], \"k\": [{}], \"faults\": [{}], \"minutes\": {minutes}, \
         \"sample_every\": 5, \"resolution\": 101}}",
        list(seeds.iter().map(u64::to_string).collect()),
        list(ks.iter().map(usize::to_string).collect()),
        list(faults.iter().map(|f| format!("\"{f}\"")).collect()),
    );
    let spec = SweepSpec::from_json(&text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn field_for(job: &SweepJob) -> LatentLightField {
    LatentLightField::new(&ForestConfig {
        seed: job.seed,
        ..ForestConfig::default()
    })
}

impl Sweep {
    pub fn new(opts: &Options) -> Result<Self, String> {
        let (seeds, ks, minutes) = match opts.scale {
            Scale::Full => (8, vec![36, 64], 45),
            Scale::Smoke => (2, vec![9], 4),
        };
        let seeds: Vec<u64> = (0..seeds).map(|i| derive_seed(opts.seed, 3, i)).collect();
        let tmp = TempDir::new("sweep_faults")?;
        Ok(Sweep {
            spec: spec(&seeds, &ks, &["", FAULT_PLAN], minutes)?,
            warm_up_spec: spec(&seeds[..1], &ks[..1], &[""], 5)?,
            manifest: tmp.path().join("sweep.manifest"),
            corrupt: opts.corrupt,
            _tmp: tmp,
        })
    }
}

/// Job latencies from the start times of each worker's jobs: a job runs
/// from its field construction to the next one on the same worker. A
/// worker's last job has no observable end and is not sampled.
fn job_latencies_ms(starts: &[(ThreadId, Instant)]) -> Vec<f64> {
    let mut by_worker: BTreeMap<String, Vec<Instant>> = BTreeMap::new();
    for (id, t) in starts {
        by_worker.entry(format!("{id:?}")).or_default().push(*t);
    }
    by_worker
        .values_mut()
        .flat_map(|ts| {
            ts.sort();
            ts.windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
                .collect::<Vec<_>>()
        })
        .collect()
}

impl Workload for Sweep {
    fn op_name(&self) -> &'static str {
        "job"
    }

    fn prepare(&mut self) -> Result<(), String> {
        match std::fs::remove_file(&self.manifest) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("{}: {e}", self.manifest.display()))
            }
            _ => Ok(()),
        }
    }

    fn warm_up(&mut self) -> Result<(), String> {
        run_sweep(&self.warm_up_spec, THREADS, None, false, field_for)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn round(&mut self, round: &mut Round, _traced: bool) {
        let jobs = self.spec.jobs().len() as u64;
        let starts = Mutex::new(Vec::new());
        let make_field = |job: &SweepJob| {
            starts
                .lock()
                .expect("start log lock")
                .push((std::thread::current().id(), Instant::now()));
            field_for(job)
        };
        let started = Instant::now();
        let fresh = {
            let _s = trace::span("sweep.run");
            run_sweep(&self.spec, THREADS, Some(&self.manifest), false, make_field)
        };
        round.throughput = Some((jobs, started.elapsed().as_secs_f64()));
        let fresh = match fresh {
            Ok(results) => results,
            Err(e) => return round.fail(jobs, format!("sweep: {e}")),
        };
        round.attempted += jobs;
        round.op_ms.extend(job_latencies_ms(
            &starts.into_inner().expect("start log lock"),
        ));
        let manifest_bytes = std::fs::metadata(&self.manifest).map_or(0, |m| m.len());
        round.add_count("sweep.manifest_bytes", manifest_bytes);

        let recomputed = AtomicU64::new(0);
        let replay = {
            let _s = trace::span("sweep.replay");
            run_sweep(&self.spec, THREADS, Some(&self.manifest), true, |job| {
                recomputed.fetch_add(1, Ordering::Relaxed);
                field_for(job)
            })
        };
        let _check = trace::span("bench.check");
        let recomputed = recomputed.into_inner();
        round.check(recomputed == 0, || {
            format!("resume replay recomputed {recomputed} jobs")
        });
        let fresh_json = fresh.to_json();
        let mut replay_json = replay.and_then(|r| r.to_json());
        if self.corrupt {
            if let Ok(json) = replay_json.as_mut() {
                json.push(' ');
            }
        }
        match (&fresh_json, &replay_json) {
            (Ok(a), Ok(b)) => round.check(a == b, || {
                "resume replay is not byte-identical to the fresh sweep".into()
            }),
            (a, b) => round.check(false, || format!("results JSON: {a:?} / {b:?}")),
        }
        let finite = fresh.outcomes.len() as u64 == jobs
            && fresh.outcomes.iter().all(|o| o.final_delta.is_finite());
        round.check(finite, || "a job is missing or has a non-finite δ".into());
        for (c, cell) in fresh.cells.iter().enumerate() {
            round.output(format!("cell_delta.{c}"), cell.final_delta.mean);
            round.output(format!("cell_alive.{c}"), cell.mean_alive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_workers_last_job_is_not_sampled() {
        let t0 = Instant::now();
        let a = std::thread::current().id();
        let b = std::thread::spawn(|| std::thread::current().id())
            .join()
            .unwrap();
        let at = |ms| t0 + Duration::from_millis(ms);
        let starts = [
            (a, at(0)),
            (b, at(1)),
            (a, at(10)),
            (b, at(21)),
            (a, at(30)),
        ];
        let mut ms = job_latencies_ms(&starts);
        ms.sort_by(f64::total_cmp);
        assert_eq!(ms, [10.0, 20.0, 20.0]);
    }
}
