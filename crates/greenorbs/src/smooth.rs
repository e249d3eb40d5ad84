//! Gaussian-kernel (Nadaraya–Watson) smoothing of scattered readings,
//! summed bit-identically to the plain loop over every reading while
//! skipping the terms that provably cannot change the sums.
//!
//! The value at `p` is `num / den` with `num = Σ wₖ zₖ`, `den = Σ wₖ`
//! and `wₖ = exp(−|p − qₖ|² / 2h²)`, summed over the readings in index
//! order. Almost all of a grid point's ~800 terms come from readings
//! many bandwidths away, whose weights are far below the last bit of
//! the running sums. [`KernelSmoother`] drops exactly those.
//!
//! # Why the pruned sum is exact
//!
//! Let `cut = (R·h)²` for the reach `R` ([`REACH_BANDWIDTHS`]), and call
//! a reading *far* from `p` when its computed `d² = |p − q|²` exceeds
//! `cut`.
//!
//! 1. **Far terms are bounded.** For a far reading, `−d²/2h²` rounds to
//!    at most `x = fl(−cut/2h²)`, because rounding is monotone. `exp` is
//!    accurate to well under 2⁻⁵⁰ relative, so its result is at most
//!    `eˣ(1 + 2⁻⁵⁰)`. It is therefore below `w_max = 2·exp(x)`, even
//!    after the computed `exp(x)` rounds down. The product `w·z` rounds
//!    to at most `w·z(1 + 2⁻⁵³)`, so it is below `2·w_max·z_max`.
//! 2. **A small enough term is a no-op.** For a running sum `a ≥ 0` and
//!    a term `0 ≤ t < ulp(a)/2`, round-to-nearest gives `a + t = a`.
//!    Since `ulp(a) > a·2⁻⁵³` (subnormal `a` included), any
//!    `t ≤ a·2⁻⁵⁵` (a quarter ulp) is absorbed, with a factor-two
//!    margin on top of step 1's.
//! 3. **Once absorbed, always absorbed.** When every reading is finite
//!    and `≥ 0`, every term is `≥ 0`, so the running sums never
//!    decrease and their ulp never shrinks. Once `den ≥ w_max·2⁵⁵` and
//!    `num ≥ 2·w_max·z_max·2⁵⁵`, every far term *later in index order*
//!    adds nothing to either sum.
//!
//! So phase 1 sums every term in index order, exactly as the plain loop
//! does, until both sums pass their floors at some index `m`. Phase 2
//! then sums only the terms after `m` whose reading is not far, in index
//! order. Each sum takes the same sequence of values as in the plain
//! loop, so the final `num`, `den` and quotient are the same bits. When
//! the floors are never reached, phase 1 is the plain loop.
//!
//! Phase 2 needs the near readings without scanning them all. The
//! region is cut into square blocks. Each block lists, in index order,
//! the readings within `R·h` (plus a slack) of the block. A reading not
//! on the list of the block holding `p` is then far from `p`, by a
//! margin much larger than rounding in `d²`. A query outside every
//! block (never a grid point) takes the plain loop.
//!
//! A negative or non-finite reading breaks step 3, so such a reading set
//! is always summed in full.
//!
//! # Why the grid sweep shards bit-identically
//!
//! Every block list is built once, when the smoother is made, so a
//! query only reads shared state. A grid point's value depends on that
//! point alone and is summed in index order whichever thread asks, so
//! [`smooth_grid`] hands grid rows to the pool and every bit stays the
//! same at every thread count.

use cps_field::par::{map_rows, Parallelism};
use cps_geometry::{GridSpec, Point2, Rect};

/// Reach, in bandwidths, beyond which a term is dropped once the sums
/// are large enough (`exp(−50) ≈ 2·10⁻²²`). Any reach is exact; this
/// one lets phase 1 stop after the first reading within ~4.7
/// bandwidths, while the near set stays about a third of the readings
/// on the experiments' plots.
pub(crate) const REACH_BANDWIDTHS: f64 = 10.0;

/// Most blocks per axis, which bounds the index size for tiny
/// bandwidths.
const MAX_BLOCKS_PER_AXIS: usize = 64;

/// The smoother for one set of readings and one bandwidth.
pub(crate) struct KernelSmoother<'a> {
    readings: &'a [(Point2, f64)],
    two_h2: f64,
    /// `None` when some reading is negative or non-finite.
    pruning: Option<Pruning>,
}

/// The phase-1 floors and the phase-2 index.
struct Pruning {
    /// Squared reach.
    cut: f64,
    /// Phase 1 ends once `den` and `num` reach these.
    den_floor: f64,
    num_floor: f64,
    origin: Point2,
    block: f64,
    nbx: usize,
    nby: usize,
    /// Half the slack the lists are built with: the tolerance for a
    /// query to count as inside a block.
    tolerance: f64,
    /// Candidate reading indices of block `b = by·nbx + bx`, ascending:
    /// `candidates[starts[b]..starts[b + 1]]`.
    candidates: Vec<u32>,
    starts: Vec<usize>,
}

/// Smooths `readings` onto every point of `grid` (the smoother's
/// region is `grid.rect()`), in row-major order, with the rows sharded
/// over `par`'s pool workers. Bit-identical at every thread count.
pub(crate) fn smooth_grid(
    readings: &[(Point2, f64)],
    bandwidth: f64,
    grid: &GridSpec,
    par: Parallelism,
) -> Vec<f64> {
    let smoother = KernelSmoother::new(readings, bandwidth, grid.rect());
    map_rows(grid.ny(), par, |j| {
        (0..grid.nx())
            .map(|i| smoother.value(grid.point(i, j)))
            .collect::<Vec<f64>>()
    })
    .concat()
}

impl<'a> KernelSmoother<'a> {
    /// Builds the smoother for queries inside `region`.
    pub(crate) fn new(readings: &'a [(Point2, f64)], bandwidth: f64, region: Rect) -> Self {
        let two_h2 = 2.0 * bandwidth * bandwidth;
        let prunable = readings.iter().all(|&(_, z)| z.is_finite() && z >= 0.0)
            && u32::try_from(readings.len()).is_ok();
        let pruning = prunable.then(|| Pruning::new(readings, bandwidth, two_h2, region));
        KernelSmoother {
            readings,
            two_h2,
            pruning,
        }
    }

    /// The smoothed value at `p`; far from every reading (`den` at most
    /// 1e-300), the nearest reading's value.
    pub(crate) fn value(&self, p: Point2) -> f64 {
        let (readings, two_h2) = (self.readings, self.two_h2);
        let term = |q: Point2, z: f64, num: &mut f64, den: &mut f64| {
            let w = (-p.distance_squared(q) / two_h2).exp();
            *num += w * z;
            *den += w;
        };
        let (mut num, mut den) = (0.0, 0.0);
        match self
            .pruning
            .as_ref()
            .and_then(|pr| Some((pr, pr.candidates_at(p)?)))
        {
            Some((pr, list)) => {
                // Phase 1: the plain loop until the floors are reached.
                let mut next = 0;
                for &(q, z) in readings {
                    term(q, z, &mut num, &mut den);
                    next += 1;
                    if den >= pr.den_floor && num >= pr.num_floor {
                        break;
                    }
                }
                // Phase 2: the near readings after that, in index order.
                let from = list.partition_point(|&k| (k as usize) < next);
                for &k in &list[from..] {
                    let (q, z) = readings[k as usize];
                    if p.distance_squared(q) <= pr.cut {
                        term(q, z, &mut num, &mut den);
                    }
                }
            }
            None => {
                for &(q, z) in readings {
                    term(q, z, &mut num, &mut den);
                }
            }
        }
        if den > 1e-300 {
            num / den
        } else {
            // Far from every node: fall back to the nearest one.
            readings
                .iter()
                .min_by(|a, b| p.distance_squared(a.0).total_cmp(&p.distance_squared(b.0)))
                .map(|&(_, z)| z)
                .unwrap_or(0.0)
        }
    }
}

impl Pruning {
    fn new(readings: &[(Point2, f64)], bandwidth: f64, two_h2: f64, region: Rect) -> Self {
        let reach = REACH_BANDWIDTHS * bandwidth;
        let cut = reach * reach;
        let w_max = 2.0 * (-cut / two_h2).exp();
        let z_max = readings.iter().fold(0.0f64, |m, &(_, z)| m.max(z));
        let quarter_ulp = 2f64.powi(55);
        let extent = region.width().max(region.height());
        let block = (2.0 * bandwidth).max(extent / MAX_BLOCKS_PER_AXIS as f64);
        let blocks_along = |len: f64| ((len / block).ceil() as usize).clamp(1, MAX_BLOCKS_PER_AXIS);
        let (nbx, nby) = (blocks_along(region.width()), blocks_along(region.height()));
        let slack = 1e-3 * reach;
        let list_reach2 = (reach + slack) * (reach + slack);
        // Every block lists the readings within the list reach of it.
        let origin = region.min();
        let mut candidates = Vec::new();
        let mut starts = Vec::with_capacity(nbx * nby + 1);
        starts.push(0);
        for by in 0..nby {
            let y0 = origin.y + block * by as f64;
            for bx in 0..nbx {
                let x0 = origin.x + block * bx as f64;
                for (k, &(q, _)) in readings.iter().enumerate() {
                    let dx = (x0 - q.x).max(q.x - (x0 + block)).max(0.0);
                    let dy = (y0 - q.y).max(q.y - (y0 + block)).max(0.0);
                    if dx * dx + dy * dy <= list_reach2 {
                        candidates.push(k as u32);
                    }
                }
                starts.push(candidates.len());
            }
        }
        Pruning {
            cut,
            den_floor: w_max * quarter_ulp,
            num_floor: 2.0 * w_max * z_max * quarter_ulp,
            origin,
            block,
            nbx,
            nby,
            tolerance: 0.5 * slack,
            candidates,
            starts,
        }
    }

    /// The candidate list of the block holding `p`, or `None` when `p`
    /// lies outside every block (or is NaN).
    fn candidates_at(&self, p: Point2) -> Option<&[u32]> {
        let axis = |v: f64, o: f64, n: usize| {
            let b = ((v - o) / self.block).floor().clamp(0.0, (n - 1) as f64) as usize;
            let lo = o + self.block * b as f64;
            let inside = v >= lo - self.tolerance && v <= lo + self.block + self.tolerance;
            inside.then_some(b)
        };
        let bx = axis(p.x, self.origin.x, self.nbx)?;
        let by = axis(p.y, self.origin.y, self.nby)?;
        let b = by * self.nbx + bx;
        Some(&self.candidates[self.starts[b]..self.starts[b + 1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The thread policies every grid sweep must agree across.
    fn policies() -> [Parallelism; 4] {
        [
            Parallelism::serial(),
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::auto(),
        ]
    }

    /// The plain loop the smoother must reproduce bit for bit.
    fn naive(readings: &[(Point2, f64)], bandwidth: f64, p: Point2) -> f64 {
        let two_h2 = 2.0 * bandwidth * bandwidth;
        let mut num = 0.0;
        let mut den = 0.0;
        for &(q, z) in readings {
            let w = (-p.distance_squared(q) / two_h2).exp();
            num += w * z;
            den += w;
        }
        if den > 1e-300 {
            num / den
        } else {
            readings
                .iter()
                .min_by(|a, b| p.distance_squared(a.0).total_cmp(&p.distance_squared(b.0)))
                .map(|&(_, z)| z)
                .unwrap_or(0.0)
        }
    }

    /// `smooth_grid` under every policy equals the plain loop at every
    /// grid point, bit for bit (NaN payloads included).
    fn assert_grid_matches_naive(readings: &[(Point2, f64)], bandwidth: f64, grid: &GridSpec) {
        let want: Vec<u64> = grid
            .iter()
            .map(|(_, _, p)| naive(readings, bandwidth, p).to_bits())
            .collect();
        for par in policies() {
            let got: Vec<u64> = smooth_grid(readings, bandwidth, grid, par)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "h = {bandwidth} with {par:?}");
        }
    }

    fn random_readings(rng: &mut StdRng, n: usize, seed: u64) -> Vec<(Point2, f64)> {
        (0..n)
            .map(|_| {
                let q = Point2::new(rng.gen_range(-10.0..70.0), rng.gen_range(-10.0..50.0));
                let z = match seed % 3 {
                    0 => rng.gen_range(0.0..5.0),
                    1 => rng.gen_range(0.0..1e4) * rng.gen_range(0.0..1.0),
                    _ => 0.0,
                };
                (q, z)
            })
            .collect()
    }

    #[test]
    fn pruned_sums_match_the_plain_loop_bitwise() {
        let region = Rect::new(Point2::new(0.0, 0.0), Point2::new(60.0, 40.0)).unwrap();
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = [1, 3, 40, 400][seed as usize % 4];
            let bandwidth = [0.3, 1.0, 2.5, 4.0, 9.0][seed as usize % 5];
            let readings = random_readings(&mut rng, n, seed);
            let smoother = KernelSmoother::new(&readings, bandwidth, region);
            assert!(smoother.pruning.is_some());
            for _ in 0..300 {
                let p = Point2::new(rng.gen_range(-1.0..61.0), rng.gen_range(-1.0..41.0));
                assert_eq!(
                    smoother.value(p).to_bits(),
                    naive(&readings, bandwidth, p).to_bits(),
                    "seed {seed} at {p:?}"
                );
            }
        }
    }

    #[test]
    fn sharded_grids_match_the_plain_loop_bitwise() {
        // Random traces, bandwidths and grid shapes (rows below and
        // above the pool's auto cutoff), swept under every policy.
        let region = Rect::new(Point2::new(0.0, 0.0), Point2::new(60.0, 40.0)).unwrap();
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let n = [1, 3, 40, 400][seed as usize % 4];
            let bandwidth = [0.3, 1.0, 2.5, 4.0, 9.0][seed as usize % 5];
            let readings = random_readings(&mut rng, n, seed);
            let (nx, ny) = [(7, 5), (31, 23), (25, 70)][seed as usize % 3];
            let grid = GridSpec::new(region, nx, ny).unwrap();
            assert_grid_matches_naive(&readings, bandwidth, &grid);
        }
    }

    #[test]
    fn sparse_traces_fall_back_to_the_nearest_reading() {
        // Two readings and a narrow kernel: far from both, every weight
        // underflows (`den ≤ 1e-300`) and the value is the nearest
        // reading's, through the pruned path as through the plain loop.
        let region = Rect::square(100.0).unwrap();
        let readings = [(Point2::new(5.0, 5.0), 3.0), (Point2::new(90.0, 90.0), 7.0)];
        let smoother = KernelSmoother::new(&readings, 0.5, region);
        let mut fallbacks = 0;
        for i in 0..=20 {
            for j in 0..=20 {
                let p = Point2::new(5.0 * i as f64, 5.0 * j as f64);
                let v = smoother.value(p);
                assert_eq!(v.to_bits(), naive(&readings, 0.5, p).to_bits(), "at {p:?}");
                let far = readings.iter().all(|&(q, _)| p.distance(q) > 20.0);
                if far {
                    let nearest = if p.distance(readings[0].0) <= p.distance(readings[1].0) {
                        3.0
                    } else {
                        7.0
                    };
                    assert_eq!(v, nearest, "at {p:?}");
                    fallbacks += 1;
                }
            }
        }
        assert!(fallbacks > 300);
        // The same sweep, sharded: 81 rows, above the auto cutoff.
        assert_grid_matches_naive(&readings, 0.5, &GridSpec::new(region, 21, 81).unwrap());
    }

    #[test]
    fn negative_or_non_finite_readings_take_the_plain_loop() {
        let region = Rect::square(20.0).unwrap();
        let base = [
            (Point2::new(1.0, 1.0), 2.0),
            (Point2::new(15.0, 3.0), 0.5),
            (Point2::new(8.0, 18.0), 1.0),
        ];
        let grid = GridSpec::new(region, 9, 67).unwrap();
        for bad in [-1.0, -0.5e-300, f64::NAN, f64::INFINITY] {
            let mut readings = base.to_vec();
            readings[1].1 = bad;
            let smoother = KernelSmoother::new(&readings, 1.5, region);
            assert!(smoother.pruning.is_none(), "{bad}");
            for p in [
                Point2::new(2.0, 2.0),
                Point2::new(14.0, 4.0),
                Point2::new(10.0, 10.0),
            ] {
                assert_eq!(
                    smoother.value(p).to_bits(),
                    naive(&readings, 1.5, p).to_bits()
                );
            }
            assert_grid_matches_naive(&readings, 1.5, &grid);
        }
    }

    #[test]
    fn queries_outside_the_blocks_take_the_plain_loop() {
        let region = Rect::square(20.0).unwrap();
        let readings = [(Point2::new(1.0, 1.0), 2.0), (Point2::new(15.0, 3.0), 0.5)];
        let smoother = KernelSmoother::new(&readings, 1.0, region);
        let pr = smoother.pruning.as_ref().unwrap();
        for p in [
            Point2::new(-5.0, 3.0),
            Point2::new(3.0, 25.0),
            Point2::new(f64::NAN, 1.0),
        ] {
            assert!(pr.candidates_at(p).is_none());
            assert_eq!(
                smoother.value(p).to_bits(),
                naive(&readings, 1.0, p).to_bits()
            );
        }
        assert!(pr.candidates_at(Point2::new(20.0, 20.0)).is_some());
    }

    #[test]
    fn any_visiting_order_rebuilds_the_right_lists() {
        // Column-major and back-and-forth sweeps cross block rows on
        // almost every query; the lists, built once up front, serve
        // every order alike.
        let region = Rect::square(30.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let readings: Vec<(Point2, f64)> = (0..200)
            .map(|_| {
                let q = Point2::new(rng.gen_range(-3.0..33.0), rng.gen_range(-3.0..33.0));
                (q, rng.gen_range(0.0..3.0))
            })
            .collect();
        let smoother = KernelSmoother::new(&readings, 0.8, region);
        for i in 0..31 {
            for j in 0..31 {
                let j = if i % 2 == 0 { j } else { 30 - j };
                let p = Point2::new(i as f64, j as f64);
                assert_eq!(
                    smoother.value(p).to_bits(),
                    naive(&readings, 0.8, p).to_bits()
                );
            }
        }
    }
}
