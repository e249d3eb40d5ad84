//! In-memory span recorder for the traced run.
//!
//! Spans are recorded on the driving thread only, around calls into the
//! library's public functions and from the `StepObserver` bus. Each span
//! links to the span that was open when it started, so a round forms a
//! tree: `round` → `run` → op (`slot`, `plan`) → layer calls. While no
//! recorder is installed every call is a no-op, which is how the untraced
//! rounds that produce the end-to-end metrics run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs an empty recorder on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Removes the recorder and returns its spans (closing any left open).
pub fn finish() -> Vec<Span> {
    while is_open() {
        exit();
    }
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

fn is_open() -> bool {
    RECORDER.with(|r| r.borrow().as_ref().is_some_and(|rec| !rec.open.is_empty()))
}

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let start_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.spans.push(Span {
                name,
                parent: rec.open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            rec.open.push(rec.spans.len() - 1);
        }
    });
}

/// Closes the innermost open span.
pub fn exit() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some(i) = rec.open.pop() {
                rec.spans[i].end_ns = rec.origin.elapsed().as_nanos() as u64;
            }
        }
    });
}

/// Number of open spans; [`unwind_to`] restores it after a failed call
/// left stage spans open.
pub fn depth() -> usize {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.open.len()))
}

/// Closes open spans until only `depth` remain.
pub fn unwind_to(depth: usize) {
    while self::depth() > depth {
        exit();
    }
}

/// Closes its span when dropped.
pub struct Guard(());

impl Drop for Guard {
    fn drop(&mut self) {
        exit();
    }
}

/// Opens a span that closes at the end of the enclosing scope.
pub fn span(name: &'static str) -> Guard {
    enter(name);
    Guard(())
}

/// Spans that only group work. Their self time is what no layer span
/// covers, reported as `trace.unattributed_s`; every other span is a
/// layer call.
pub const STRUCTURAL: [&str; 4] = ["round", "run", "slot", "plan"];

/// Per-name totals of one round's spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Totals {
    /// Summed duration per span name, seconds.
    pub seconds: BTreeMap<&'static str, f64>,
    /// Span count per name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed self time of the structural spans, seconds.
    pub unattributed_s: f64,
    /// Summed duration of the root spans, seconds.
    pub wall_s: f64,
}

/// Folds spans into per-name totals and the unattributed time.
pub fn totals(spans: &[Span]) -> Totals {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.end_ns - span.start_ns;
        }
    }
    let mut out = Totals::default();
    for (i, span) in spans.iter().enumerate() {
        *out.seconds.entry(span.name).or_default() += span.duration_s();
        *out.calls.entry(span.name).or_default() += 1;
        if STRUCTURAL.contains(&span.name) {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            out.unattributed_s += own as f64 * 1e-9;
        }
        if span.parent.is_none() {
            out.wall_s += span.duration_s();
        }
    }
    out
}

/// Renders spans as JSON: one object per span with its index, parent
/// index, name, and start/end in nanoseconds.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn untraced_calls_record_nothing() {
        enter("slot");
        exit();
        assert_eq!(depth(), 0);
        assert!(finish().is_empty());
    }

    #[test]
    fn spans_link_to_the_enclosing_span() {
        start();
        {
            let _round = super::span("round");
            let _slot = super::span("slot");
            enter("sim.stage.sense");
            // A failed step can leave a stage open; unwinding closes it.
            unwind_to(2);
        }
        let spans = finish();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("round", None),
                ("slot", Some(0)),
                ("sim.stage.sense", Some(1))
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn unattributed_is_the_self_time_of_structural_spans() {
        let spans = [
            span("round", None, 0, 100),
            span("slot", Some(0), 10, 90),
            span("sim.stage.optimize", Some(1), 20, 70),
            span("field.delta", Some(1), 70, 85),
        ];
        let t = totals(&spans);
        // round self 20 + slot self 15.
        assert!((t.unattributed_s - 35e-9).abs() < 1e-15);
        assert!((t.wall_s - 100e-9).abs() < 1e-15);
        assert_eq!(t.calls["slot"], 1);
        assert!((t.seconds["sim.stage.optimize"] - 50e-9).abs() < 1e-15);
    }
}
