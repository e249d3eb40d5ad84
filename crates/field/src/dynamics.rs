//! Time dynamics: wrappers turning static fields into time-varying ones.

use cps_geometry::Point2;
use cps_linalg::Vec2;

use crate::{Field, FieldError, GridField, TimeVaryingField};

/// A static field advected with a constant velocity: the pattern drifts
/// across the region over time, the way a sun-fleck pattern slides with
/// the sun's angle.
///
/// `value_at(p, t) = inner.value(p − velocity·t)`
///
/// # Example
///
/// ```
/// use cps_field::{DriftingField, GaussianBlob, TimeVaryingField};
/// use cps_geometry::Point2;
/// use cps_linalg::Vec2;
///
/// let blob = GaussianBlob::isotropic(Point2::new(0.0, 0.0), 1.0, 1.0);
/// let f = DriftingField::new(blob, Vec2::new(1.0, 0.0));
/// // After 5 time units the peak has moved to x = 5.
/// assert!((f.value_at(Point2::new(5.0, 0.0), 5.0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftingField<F> {
    inner: F,
    velocity: Vec2,
}

impl<F: Field> DriftingField<F> {
    /// Creates a field drifting at `velocity` (region units per time
    /// unit).
    pub fn new(inner: F, velocity: Vec2) -> Self {
        DriftingField { inner, velocity }
    }
}

impl<F: Field> TimeVaryingField for DriftingField<F> {
    fn value_at(&self, p: Point2, t: f64) -> f64 {
        self.inner.value(Point2::new(
            p.x - self.velocity.x * t,
            p.y - self.velocity.y * t,
        ))
    }
}

/// A time-varying field defined by snapshots ("keyframes") at known
/// instants, linearly interpolated in time and clamped outside the
/// covered interval. Backed by [`GridField`] snapshots — the natural
/// output of an hourly sensing trace.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyframeField {
    /// `(time, snapshot)` pairs, strictly increasing in time.
    frames: Vec<(f64, GridField)>,
}

impl KeyframeField {
    /// Creates a keyframe field.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::InvalidKeyframes`] when `frames` is empty
    /// or times are not strictly increasing, and
    /// [`FieldError::LengthMismatch`] when snapshots use different grids.
    pub fn new(frames: Vec<(f64, GridField)>) -> Result<Self, FieldError> {
        if frames.is_empty() {
            return Err(FieldError::InvalidKeyframes);
        }
        if frames.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(FieldError::InvalidKeyframes);
        }
        let spec = *frames[0].1.spec();
        if frames.iter().any(|(_, f)| *f.spec() != spec) {
            return Err(FieldError::LengthMismatch {
                positions: spec.len(),
                values: 0,
            });
        }
        Ok(KeyframeField { frames })
    }

    /// Time of the first keyframe.
    pub fn start_time(&self) -> f64 {
        self.frames[0].0
    }

    /// Number of keyframes.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Always `false` (construction rejects empty frame lists).
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl TimeVaryingField for KeyframeField {
    fn value_at(&self, p: Point2, t: f64) -> f64 {
        let frames = &self.frames;
        if t <= frames[0].0 {
            return frames[0].1.value(p);
        }
        if t >= frames[frames.len() - 1].0 {
            return frames[frames.len() - 1].1.value(p);
        }
        // Find the bracketing pair.
        let hi = frames.partition_point(|(ft, _)| *ft <= t);
        let (t0, ref f0) = frames[hi - 1];
        let (t1, ref f1) = frames[hi];
        let w = (t - t0) / (t1 - t0);
        f0.value(p) * (1.0 - w) + f1.value(p) * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlaneField;
    use cps_geometry::{GridSpec, Rect};

    fn snapshot(level: f64) -> GridField {
        let spec = GridSpec::new(Rect::square(10.0).unwrap(), 3, 3).unwrap();
        GridField::from_fn(spec, |_| level)
    }

    #[test]
    fn drift_moves_pattern() {
        let f = DriftingField::new(PlaneField::new(1.0, 0.0, 0.0), Vec2::new(2.0, 0.0));
        let p = Point2::new(10.0, 0.0);
        assert_eq!(f.value_at(p, 0.0), 10.0);
        assert_eq!(f.value_at(p, 3.0), 4.0);
    }

    #[test]
    fn keyframes_interpolate_and_clamp() {
        let f = KeyframeField::new(vec![
            (0.0, snapshot(0.0)),
            (10.0, snapshot(10.0)),
            (20.0, snapshot(0.0)),
        ])
        .unwrap();
        let p = Point2::new(5.0, 5.0);
        assert_eq!(f.value_at(p, -5.0), 0.0); // clamp before
        assert_eq!(f.value_at(p, 0.0), 0.0);
        assert_eq!(f.value_at(p, 5.0), 5.0); // halfway up
        assert_eq!(f.value_at(p, 10.0), 10.0);
        assert_eq!(f.value_at(p, 15.0), 5.0); // halfway down
        assert_eq!(f.value_at(p, 99.0), 0.0); // clamp after
        assert_eq!(f.len(), 3);
        assert_eq!(f.start_time(), 0.0);
    }

    #[test]
    fn keyframes_validate() {
        assert!(matches!(
            KeyframeField::new(vec![]),
            Err(FieldError::InvalidKeyframes)
        ));
        assert!(matches!(
            KeyframeField::new(vec![(1.0, snapshot(0.0)), (1.0, snapshot(1.0))]),
            Err(FieldError::InvalidKeyframes)
        ));
        let other_spec = GridSpec::new(Rect::square(10.0).unwrap(), 5, 5).unwrap();
        let other = GridField::from_fn(other_spec, |_| 0.0);
        assert!(matches!(
            KeyframeField::new(vec![(0.0, snapshot(0.0)), (1.0, other)]),
            Err(FieldError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn frozen_adapter_over_dynamics() {
        let f = DriftingField::new(PlaneField::new(1.0, 0.0, 0.0), Vec2::new(1.0, 0.0));
        let snap = f.at_time(2.0);
        assert_eq!(snap.value(Point2::new(5.0, 0.0)), 3.0);
    }
}
