//! The instrumentation layer must observe, never perturb: running FRA
//! with metrics collection enabled has to reproduce the uninstrumented
//! result bit for bit, at any thread count, while actually recording
//! nonzero counters and phase timings.

use cps_core::osd::FraBuilder;
use cps_core::EvalOptions;
use cps_field::{Parallelism, PeaksField};
use cps_geometry::{GridSpec, Rect};

#[test]
fn metrics_collection_does_not_perturb_fra() {
    let region = Rect::square(100.0).unwrap();
    let grid = GridSpec::new(region, 41, 41).unwrap();
    let f = PeaksField::new(region, 8.0);
    let run = |par| {
        FraBuilder::new(18, 10.0)
            .grid(grid)
            .evaluator(EvalOptions::new().parallelism(par))
            .run(&f)
            .unwrap()
    };

    cps_obs::disable();
    cps_obs::reset();
    let baseline = run(Parallelism::serial());

    cps_obs::reset();
    cps_obs::enable();
    let observed = run(Parallelism::serial());
    let observed_par = run(Parallelism::fixed(3));
    let metrics = cps_obs::snapshot();
    cps_obs::disable();

    // Bit-identical positions (FraResult compares f64s exactly).
    assert_eq!(baseline, observed);
    assert_eq!(baseline, observed_par);

    // ... and the observed runs really were observed.
    assert!(metrics.counter(cps_obs::Counter::DelaunayInserts) > 0);
    assert!(metrics.phase_total_ns(cps_obs::Phase::FraForesight) > 0);
    assert!(metrics.phase_total_ns(cps_obs::Phase::FraRefine) > 0);
    assert!(metrics.phase_total_ns(cps_obs::Phase::FraRetriangulate) > 0);

    // The snapshot survives a JSON round trip losslessly.
    let json = metrics.to_json().unwrap();
    let back = cps_obs::RunMetrics::from_json(&json).unwrap();
    assert_eq!(
        metrics.counter(cps_obs::Counter::DelaunayInserts),
        back.counter(cps_obs::Counter::DelaunayInserts)
    );
    assert_eq!(
        metrics.phase_total_ns(cps_obs::Phase::FraRefine),
        back.phase_total_ns(cps_obs::Phase::FraRefine)
    );
}
