//! `osd_fra`: the `cps plan` path. For 4 forest traces × daylight hours
//! 08–16, extract the 101² reference light surface, then plan k ∈
//! {40, 80, 120} nodes with FRA at Rc = 10 and analyse each placement:
//! 108 plans a round.

use std::time::Instant;

use cps_core::osd::FraBuilder;
use cps_core::{analyze_deployment_with, EvalOptions};
use cps_geometry::GridSpec;
use cps_greenorbs::{Channel, Dataset, ForestConfig};

use super::{derive_seed, grid, parallelism, region, Options, Round, Scale, Workload, RC};
use crate::trace;

pub struct Osd {
    datasets: Vec<Dataset>,
    hours: Vec<u32>,
    plans: Vec<(usize, FraBuilder)>,
    grid: GridSpec,
    corrupt: bool,
}

impl Osd {
    pub fn new(opts: &Options) -> Result<Self, String> {
        let (traces, hours, ks): (u64, Vec<u32>, Vec<usize>) = match opts.scale {
            Scale::Full => (4, (8..=16).collect(), vec![40, 80, 120]),
            Scale::Smoke => (1, vec![10], vec![20]),
        };
        let datasets = (0..traces)
            .map(|i| {
                Dataset::generate(&ForestConfig {
                    seed: derive_seed(opts.seed, 2, i),
                    ..ForestConfig::default()
                })
            })
            .collect();
        let grid = grid();
        let plans = ks
            .into_iter()
            .map(|k| {
                let builder = FraBuilder::new(k, RC)
                    .grid(grid)
                    .evaluator(EvalOptions::new().parallelism(parallelism()));
                (k, builder)
            })
            .collect();
        Ok(Osd {
            datasets,
            hours,
            plans,
            grid,
            corrupt: opts.corrupt,
        })
    }
}

impl Workload for Osd {
    fn op_name(&self) -> &'static str {
        "plan"
    }

    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn warm_up(&mut self) -> Result<(), String> {
        let reference = self.datasets[0]
            .region_field(region(), Channel::Light, self.hours[0], 101)
            .map_err(|e| e.to_string())?;
        let (_, builder) = &self.plans[0];
        let fra = builder.run(&reference).map_err(|e| e.to_string())?;
        analyze_deployment_with(&reference, &fra.positions, RC, &self.grid, parallelism())
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    fn round(&mut self, round: &mut Round, _traced: bool) {
        for (d, dataset) in self.datasets.iter().enumerate() {
            for &hour in &self.hours {
                let _run = trace::span("run");
                let reference = {
                    let _s = trace::span("greenorbs.region_field");
                    dataset.region_field(region(), Channel::Light, hour, 101)
                };
                let reference = match reference {
                    Ok(r) => r,
                    Err(e) => {
                        round.fail(
                            self.plans.len() as u64,
                            format!("trace {d} hour {hour}: {e}"),
                        );
                        continue;
                    }
                };
                for (j, (k, builder)) in self.plans.iter().enumerate() {
                    let started = Instant::now();
                    let planned = {
                        let _plan = trace::span("plan");
                        let fra = {
                            let _s = trace::span("core.fra");
                            builder.run(&reference)
                        };
                        fra.and_then(|fra| {
                            let _s = trace::span("core.report");
                            let report = analyze_deployment_with(
                                &reference,
                                &fra.positions,
                                RC,
                                &self.grid,
                                parallelism(),
                            )?;
                            Ok((fra, report))
                        })
                    };
                    let (mut fra, report) = match planned {
                        Ok(p) => {
                            round.op(started, Ok(()));
                            p
                        }
                        Err(e) => {
                            round.op(started, Err(format!("trace {d} hour {hour} k {k}: {e}")));
                            continue;
                        }
                    };
                    let _check = trace::span("bench.check");
                    if self.corrupt && d == 0 && j == 0 {
                        fra.positions.pop();
                    }
                    let delta = report.evaluation.delta;
                    let placed = fra.positions.len();
                    round.check(
                        placed == *k
                            && report.evaluation.connected
                            && delta.is_finite()
                            && delta > 0.0,
                        || {
                            format!(
                                "trace {d} hour {hour}: {placed} of {k} nodes placed, \
                                 connected {}, δ {delta}",
                                report.evaluation.connected
                            )
                        },
                    );
                    round.output(format!("delta.{d}.{hour}.{k}"), delta);
                }
            }
        }
    }
}
