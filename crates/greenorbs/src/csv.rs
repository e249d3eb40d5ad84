//! CSV and JSON interchange for traces.
//!
//! The CSV layout mirrors what field deployments publish:
//! `node_id,hour,light,temperature,humidity`, one reading per line,
//! with a header. Node metadata travels separately as JSON.

use std::io::{BufRead, BufReader, Read, Write};

use crate::records::SensorReading;
use crate::{Dataset, TraceError};

/// CSV header for reading files.
const READINGS_HEADER: &str = "node_id,hour,light,temperature,humidity";

impl Dataset {
    /// Writes all readings as CSV. A mutable reference works as the
    /// writer (`&mut Vec<u8>`, `&mut File`, ...).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_readings_csv<W: Write>(&self, mut w: W) -> Result<(), TraceError> {
        writeln!(w, "{READINGS_HEADER}")?;
        for r in self.readings() {
            writeln!(
                w,
                "{},{},{:.6},{:.6},{:.6}",
                r.node_id, r.hour, r.light, r.temperature, r.humidity
            )?;
        }
        Ok(())
    }

    /// Parses readings CSV (as written by
    /// [`Dataset::write_readings_csv`]).
    ///
    /// # Errors
    ///
    /// * [`TraceError::Parse`] — malformed header, wrong field count,
    ///   or unparseable numbers (with the 1-based line number).
    /// * [`TraceError::Io`] — underlying reader failure.
    pub fn read_readings_csv<R: Read>(r: R) -> Result<Vec<SensorReading>, TraceError> {
        let reader = BufReader::new(r);
        let mut out = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            let lineno = idx + 1;
            if idx == 0 {
                if line.trim() != READINGS_HEADER {
                    return Err(TraceError::Parse {
                        line: lineno,
                        message: format!("unexpected header {line:?}"),
                    });
                }
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 5 {
                return Err(TraceError::Parse {
                    line: lineno,
                    message: format!("expected 5 fields, got {}", fields.len()),
                });
            }
            let parse_f = |s: &str, what: &str| -> Result<f64, TraceError> {
                s.trim().parse().map_err(|e| TraceError::Parse {
                    line: lineno,
                    message: format!("bad {what}: {e}"),
                })
            };
            let parse_u = |s: &str, what: &str| -> Result<u32, TraceError> {
                s.trim().parse().map_err(|e| TraceError::Parse {
                    line: lineno,
                    message: format!("bad {what}: {e}"),
                })
            };
            out.push(SensorReading {
                node_id: parse_u(fields[0], "node_id")?,
                hour: parse_u(fields[1], "hour")?,
                light: parse_f(fields[2], "light")?,
                temperature: parse_f(fields[3], "temperature")?,
                humidity: parse_f(fields[4], "humidity")?,
            });
        }
        Ok(out)
    }

    /// Serializes the whole dataset (nodes + readings) as JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String, TraceError> {
        Ok(serde_json::to_string(self)?)
    }

    /// Restores a dataset from [`Dataset::to_json`] output.
    ///
    /// # Errors
    ///
    /// Propagates deserialization failures.
    pub fn from_json(s: &str) -> Result<Self, TraceError> {
        Ok(serde_json::from_str(s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForestConfig;

    fn tiny() -> Dataset {
        Dataset::generate(&ForestConfig {
            node_count: 10,
            hours: 3,
            ..ForestConfig::default()
        })
    }

    #[test]
    fn csv_round_trip() {
        let d = tiny();
        let mut buf = Vec::new();
        d.write_readings_csv(&mut buf).unwrap();
        let parsed = Dataset::read_readings_csv(buf.as_slice()).unwrap();
        assert_eq!(parsed.len(), d.readings().len());
        for (a, b) in parsed.iter().zip(d.readings()) {
            assert_eq!(a.node_id, b.node_id);
            assert_eq!(a.hour, b.hour);
            assert!((a.light - b.light).abs() < 1e-5);
        }
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(matches!(
            Dataset::read_readings_csv("wrong,header\n".as_bytes()),
            Err(TraceError::Parse { line: 1, .. })
        ));
        let bad_fields = format!("{READINGS_HEADER}\n1,2,3\n");
        assert!(matches!(
            Dataset::read_readings_csv(bad_fields.as_bytes()),
            Err(TraceError::Parse { line: 2, .. })
        ));
        let bad_number = format!("{READINGS_HEADER}\n1,2,abc,4,5\n");
        assert!(matches!(
            Dataset::read_readings_csv(bad_number.as_bytes()),
            Err(TraceError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn csv_skips_blank_lines() {
        let text = format!("{READINGS_HEADER}\n1,0,1.0,2.0,3.0\n\n2,0,4.0,5.0,6.0\n");
        let parsed = Dataset::read_readings_csv(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn json_round_trip() {
        let d = tiny();
        let json = d.to_json().unwrap();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(back.node_count(), d.node_count());
        assert_eq!(back.hours(), d.hours());
        assert_eq!(back.readings().len(), d.readings().len());
    }
}
