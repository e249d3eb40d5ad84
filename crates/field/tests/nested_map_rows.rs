//! A `map_rows` nested inside another's rows must finish and fold to
//! the serial result.
//!
//! Kept alone in its own test binary: the pool is process-global, and
//! the nesting only deadlocked while the pool was as small as the outer
//! batch, which other tests in the same process would grow.

use std::sync::mpsc::channel;
use std::thread;
use std::time::Duration;

use cps_field::par::map_rows;
use cps_field::Parallelism;

/// Long enough for a debug build on a loaded machine; a deadlocked
/// nest never finishes at all.
const WATCHDOG: Duration = Duration::from_secs(20);

fn nested(outer: Parallelism, inner: Parallelism) -> Vec<f64> {
    map_rows(4, outer, |i| {
        let row = map_rows(100, inner, |j| ((i * 100 + j) as f64 * 0.37).sin() * 1e6);
        row.iter().sum::<f64>()
    })
}

#[test]
fn nested_map_rows_returns_and_matches_serial_bitwise() {
    let (tx, rx) = channel();
    thread::spawn(move || {
        let _ = tx.send(nested(Parallelism::fixed(2), Parallelism::fixed(2)));
    });
    let got = rx
        .recv_timeout(WATCHDOG)
        .expect("nested map_rows did not return: the pool deadlocked");
    let want = nested(Parallelism::serial(), Parallelism::serial());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want));
}
