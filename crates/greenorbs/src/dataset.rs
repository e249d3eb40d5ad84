//! The queryable sensing dataset.

use cps_field::{GridField, Parallelism};
use cps_geometry::{GridSpec, Point2, Rect};
use serde::{Deserialize, Serialize};

use crate::generator::{self, ForestConfig};
use crate::records::{Channel, NodeMeta, SensorReading};
use crate::smooth::smooth_grid;
use crate::TraceError;

/// Default Gaussian kernel bandwidth (metres) used to smooth scattered
/// node readings into the ground-truth grid field.
pub const DEFAULT_KERNEL_BANDWIDTH: f64 = 4.0;

/// A complete sensing trace: node metadata plus hourly readings,
/// queryable the way the experiments need.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    nodes: Vec<NodeMeta>,
    readings: Vec<SensorReading>,
    hours: u32,
    side: f64,
}

impl Dataset {
    /// Generates the synthetic trace for `config` (deterministic in the
    /// config).
    pub fn generate(config: &ForestConfig) -> Self {
        let (nodes, readings, model) = generator::generate(config);
        Dataset {
            nodes,
            readings,
            hours: config.hours,
            side: model.side(),
        }
    }

    /// Builds a dataset from explicit records (e.g. a real trace
    /// loaded from CSV).
    ///
    /// `side` is the plot size; readings referencing unknown nodes are
    /// rejected.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] when a reading references a node id
    /// not present in `nodes`.
    pub fn from_records(
        nodes: Vec<NodeMeta>,
        readings: Vec<SensorReading>,
        side: f64,
    ) -> Result<Self, TraceError> {
        let max_id = nodes.iter().map(|n| n.id).max();
        for (i, r) in readings.iter().enumerate() {
            if max_id.is_none_or(|m| r.node_id > m) {
                return Err(TraceError::Parse {
                    line: i + 1,
                    message: format!("reading references unknown node {}", r.node_id),
                });
            }
        }
        let hours = readings.iter().map(|r| r.hour + 1).max().unwrap_or(0);
        Ok(Dataset {
            nodes,
            readings,
            hours,
            side,
        })
    }

    /// Number of sensor nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Hours covered by the trace.
    pub fn hours(&self) -> u32 {
        self.hours
    }

    /// Side of the square forest plot, metres.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Node metadata.
    pub fn nodes(&self) -> &[NodeMeta] {
        &self.nodes
    }

    /// All readings (hour-major order for generated traces).
    pub fn readings(&self) -> &[SensorReading] {
        &self.readings
    }

    /// Readings reported at `hour`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::HourOutOfRange`] for hours beyond the
    /// trace.
    fn readings_at(&self, hour: u32) -> Result<Vec<&SensorReading>, TraceError> {
        if hour >= self.hours {
            return Err(TraceError::HourOutOfRange {
                hour,
                available: self.hours,
            });
        }
        Ok(self.readings.iter().filter(|r| r.hour == hour).collect())
    }

    /// Smooths one channel's readings at `hour` into a `resolution ×
    /// resolution` grid field over `region` — the experiments' ground
    /// truth `f(x, y)` (the paper's Fig. 1 surface).
    ///
    /// Scattered readings are interpolated by Gaussian-kernel
    /// (Nadaraya–Watson) smoothing, which keeps the surface smooth
    /// enough to carry meaningful Gaussian curvature for the OSTD
    /// algorithms. Terms too small to change the kernel sums are
    /// skipped; the result is bit-identical to summing every reading.
    ///
    /// Grid rows are smoothed on the worker pool under
    /// [`Parallelism::auto`] (one worker per core, serial below
    /// [`cps_field::par::AUTO_SERIAL_CUTOFF`] rows). Every grid point is
    /// summed on its own, in reading order, so the field is
    /// bit-identical at every thread count; pass another policy through
    /// [`Dataset::region_field_with_bandwidth`].
    ///
    /// # Errors
    ///
    /// * [`TraceError::HourOutOfRange`] — hour beyond the trace.
    /// * [`TraceError::EmptyRegion`] — no node within 3 bandwidths of
    ///   the region.
    /// * [`TraceError::Field`] — invalid grid construction.
    pub fn region_field(
        &self,
        region: Rect,
        channel: Channel,
        hour: u32,
        resolution: usize,
    ) -> Result<GridField, TraceError> {
        self.region_field_with_bandwidth(
            region,
            channel,
            hour,
            resolution,
            DEFAULT_KERNEL_BANDWIDTH,
            Parallelism::auto(),
        )
    }

    /// [`Dataset::region_field`] with an explicit kernel bandwidth and
    /// thread policy.
    ///
    /// Larger bandwidths trade spatial detail for noise suppression;
    /// the OSTD experiments use a wider kernel than the default so the
    /// Gaussian-curvature signal reflects terrain rather than
    /// sensor-noise texture. `par` only changes wall-clock time: the
    /// field is bit-identical under every policy.
    ///
    /// # Errors
    ///
    /// As [`Dataset::region_field`]; additionally
    /// [`TraceError::InvalidBandwidth`] when `bandwidth` is not positive
    /// and finite.
    pub fn region_field_with_bandwidth(
        &self,
        region: Rect,
        channel: Channel,
        hour: u32,
        resolution: usize,
        bandwidth: f64,
        par: Parallelism,
    ) -> Result<GridField, TraceError> {
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(TraceError::InvalidBandwidth { bandwidth });
        }
        let readings = self.readings_at(hour)?;
        // Restrict to nodes near the region: the kernel's reach is
        // ~3 bandwidths.
        let margin = 3.0 * bandwidth;
        let expanded = region.expanded(margin);
        let local: Vec<(Point2, f64)> = readings
            .iter()
            .filter_map(|r| {
                let n = &self.nodes[r.node_id as usize];
                let p = Point2::new(n.x, n.y);
                expanded.contains(p).then(|| (p, r.channel(channel)))
            })
            .collect();
        if local.is_empty() {
            return Err(TraceError::EmptyRegion);
        }
        let grid =
            GridSpec::new(region, resolution, resolution).map_err(cps_field::FieldError::from)?;
        // `from_fn` visits the grid points in the same row-major order
        // `smooth_grid` returns them in.
        let mut values = smooth_grid(&local, bandwidth, &grid, par).into_iter();
        Ok(GridField::from_fn(grid, |_| {
            values.next().expect("one value per grid point")
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::{Field, KeyframeField, TimeVaryingField};

    fn small_dataset() -> Dataset {
        Dataset::generate(&ForestConfig {
            node_count: 300,
            hours: 14,
            ..ForestConfig::default()
        })
    }

    #[test]
    fn accessors() {
        let d = small_dataset();
        assert_eq!(d.node_count(), 300);
        assert_eq!(d.hours(), 14);
        assert!(d.side() > 141.0);
        assert_eq!(d.readings().len(), 300 * 14);
        assert_eq!(d.readings_at(10).unwrap().len(), 300);
        assert!(matches!(
            d.readings_at(99),
            Err(TraceError::HourOutOfRange { .. })
        ));
    }

    #[test]
    fn region_field_is_smooth_and_positive_at_ten() {
        let d = small_dataset();
        let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap();
        let f = d.region_field(region, Channel::Light, 10, 51).unwrap();
        assert!(f.min_value() >= 0.0);
        assert!(f.max_value() > f.min_value());
        // Smoothness: neighboring grid values differ by a bounded step.
        let vals = f.values();
        let range = f.max_value() - f.min_value();
        for j in 0..51 {
            for i in 1..51 {
                let a = vals[j * 51 + i - 1];
                let b = vals[j * 51 + i];
                assert!((a - b).abs() < 0.5 * range, "jump at ({i},{j})");
            }
        }
    }

    #[test]
    fn empty_region_is_detected() {
        let nodes = vec![NodeMeta {
            id: 0,
            x: 5.0,
            y: 5.0,
        }];
        let readings = vec![SensorReading {
            node_id: 0,
            hour: 0,
            light: 1.0,
            temperature: 10.0,
            humidity: 80.0,
        }];
        let d = Dataset::from_records(nodes, readings, 200.0).unwrap();
        let far = Rect::new(Point2::new(150.0, 150.0), Point2::new(190.0, 190.0)).unwrap();
        assert!(matches!(
            d.region_field(far, Channel::Light, 0, 11),
            Err(TraceError::EmptyRegion)
        ));
    }

    #[test]
    fn region_fields_match_the_plain_kernel_sum_bitwise() {
        // Every channel, day and night, several bandwidths and a region
        // reaching past the plot edge: the pruned smoothing must equal
        // the plain loop over every local reading.
        let d = small_dataset();
        let regions = [
            Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap(),
            Rect::new(Point2::new(-10.0, 60.0), Point2::new(40.0, 170.0)).unwrap(),
        ];
        for (case, channel) in [Channel::Light, Channel::Temperature, Channel::Humidity]
            .into_iter()
            .enumerate()
        {
            for hour in [2, 10, 13] {
                for (r, &region) in regions.iter().enumerate() {
                    let bandwidth = [1.5, 4.0, 7.0][(case + r) % 3];
                    let f = d
                        .region_field_with_bandwidth(
                            region,
                            channel,
                            hour,
                            41,
                            bandwidth,
                            Parallelism::serial(),
                        )
                        .unwrap();
                    let expanded = region.expanded(3.0 * bandwidth);
                    let local: Vec<(Point2, f64)> = d
                        .readings_at(hour)
                        .unwrap()
                        .into_iter()
                        .map(|r| {
                            let n = &d.nodes()[r.node_id as usize];
                            (Point2::new(n.x, n.y), r.channel(channel))
                        })
                        .filter(|&(p, _)| expanded.contains(p))
                        .collect();
                    let two_h2 = 2.0 * bandwidth * bandwidth;
                    for (i, j, p) in f.spec().iter() {
                        let (mut num, mut den) = (0.0, 0.0);
                        for &(q, z) in &local {
                            let w = (-p.distance_squared(q) / two_h2).exp();
                            num += w * z;
                            den += w;
                        }
                        assert!(den > 1e-300);
                        assert_eq!(
                            f.at(i, j).to_bits(),
                            (num / den).to_bits(),
                            "{channel:?} hour {hour} region {r} at ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_bandwidths_are_typed_errors() {
        let d = small_dataset();
        let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let got = d.region_field_with_bandwidth(
                region,
                Channel::Light,
                10,
                11,
                bad,
                Parallelism::auto(),
            );
            match got {
                Err(TraceError::InvalidBandwidth { bandwidth }) => {
                    assert_eq!(bandwidth.to_bits(), bad.to_bits())
                }
                other => panic!("bandwidth {bad}: {other:?}"),
            }
        }
        assert!(d
            .region_field_with_bandwidth(region, Channel::Light, 10, 11, 1e-3, Parallelism::auto())
            .is_ok());
    }

    #[test]
    fn region_fields_are_bitwise_equal_across_thread_policies() {
        // The default resolution shards 101 rows, above the auto
        // cutoff; 41 rows stay serial under auto but not under fixed.
        let d = small_dataset();
        let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap();
        for (resolution, bandwidth, hour) in [(101, 4.0, 10), (41, 1.5, 2), (101, 9.0, 13)] {
            let field = |par| {
                d.region_field_with_bandwidth(
                    region,
                    Channel::Light,
                    hour,
                    resolution,
                    bandwidth,
                    par,
                )
                .unwrap()
            };
            let bits = |f: &GridField| f.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let want = bits(&field(Parallelism::serial()));
            for par in [
                Parallelism::fixed(2),
                Parallelism::fixed(3),
                Parallelism::auto(),
            ] {
                assert_eq!(
                    bits(&field(par)),
                    want,
                    "{resolution}² h = {bandwidth} with {par:?}"
                );
            }
        }
    }

    #[test]
    fn from_records_validates_node_ids() {
        let nodes = vec![NodeMeta {
            id: 0,
            x: 1.0,
            y: 1.0,
        }];
        let bad = vec![SensorReading {
            node_id: 5,
            hour: 0,
            light: 1.0,
            temperature: 1.0,
            humidity: 1.0,
        }];
        assert!(matches!(
            Dataset::from_records(nodes, bad, 10.0),
            Err(TraceError::Parse { .. })
        ));
    }

    #[test]
    fn keyframes_interpolate_between_hours() {
        // Hourly region fields keyed in minutes are the OSTD ground
        // truth: hour `h` sits at `t = 60·h`.
        let d = small_dataset();
        let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap();
        let frames = (10..13)
            .map(|hour| {
                let f = d.region_field(region, Channel::Light, hour, 31).unwrap();
                (60.0 * f64::from(hour), f)
            })
            .collect();
        let kf = KeyframeField::new(frames).unwrap();
        let p = Point2::new(60.0, 60.0);
        let at10 = kf.value_at(p, 600.0);
        let at11 = kf.value_at(p, 660.0);
        let mid = kf.value_at(p, 630.0);
        assert!((mid - 0.5 * (at10 + at11)).abs() < 1e-9);
        // Exact snapshot values at keyframe instants.
        let f10 = d.region_field(region, Channel::Light, 10, 31).unwrap();
        assert!((at10 - f10.value(p)).abs() < 1e-9);
    }
}
