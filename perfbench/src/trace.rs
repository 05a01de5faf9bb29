//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the library's public
//! functions from the benchmark's own code. They are kept in memory and
//! written once at the end, with each span's self time: its duration minus
//! the part of its interval its children cover. When tracing is off every
//! call is a no-op that reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Request or batch id on the serving path.
    id: Option<u64>,
    derived: bool,
    start: f64,
    end: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle of an open span; pass it to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const ROOT: SpanId = SpanId(None);
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.open_as(name, parent, false)
    }

    /// Opens a span for a layer entry point timed outside the pipeline.
    pub fn open_derived(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.open_as(name, parent, true)
    }

    fn open_as(&self, name: &'static str, parent: SpanId, derived: bool) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.origin.elapsed().as_secs_f64();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            parent: parent.0,
            id: None,
            derived,
            start,
            end: f64::NAN,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Closes `span` and returns its duration in seconds (0 when off).
    pub fn close(&self, span: SpanId) -> f64 {
        let Some(i) = span.0 else { return 0.0 };
        let end = self.origin.elapsed().as_secs_f64();
        let mut spans = self.lock();
        spans[i].end = end;
        end - spans[i].start
    }

    /// Records an already-measured interval (seconds since an `Instant`
    /// the caller took) as a closed span.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        id: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let s = start.saturating_duration_since(self.origin).as_secs_f64();
        let e = end.saturating_duration_since(self.origin).as_secs_f64();
        self.lock().push(Span {
            name,
            parent: parent.0,
            id,
            derived: false,
            start: s,
            end: e,
        });
    }

    /// Durations of every closed span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals clipped to it.
    fn self_times(&self) -> Vec<f64> {
        let spans = self.lock();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// Writes every span, then a per-name summary (count, total, self
    /// total), as JSON to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_times = self.self_times();
        let spans = self.lock();
        let mut out = String::from("{\"spans\": [\n");
        let mut summary: BTreeMap<&str, (usize, f64, f64, bool)> = BTreeMap::new();
        for (i, (s, own)) in spans.iter().zip(&self_times).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let id = s.id.map_or("null".to_owned(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{}{{\"span\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"id\": {id}, \"derived\": {}, \"start_s\": {:.9}, \"end_s\": {:.9}, \"self_s\": {:.9}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.derived,
                s.start,
                s.end,
                own
            );
            let entry = summary.entry(s.name).or_insert((0, 0.0, 0.0, s.derived));
            entry.0 += 1;
            entry.1 += s.end - s.start;
            entry.2 += own;
        }
        out.push_str("],\n\"summary\": {\n");
        let rows: Vec<String> = summary
            .iter()
            .map(|(name, (count, total, own, derived))| {
                format!("\"{name}\": {{\"count\": {count}, \"total_s\": {total:.9}, \"self_s\": {own:.9}, \"derived\": {derived}}}")
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let t = Tracer::new(true);
        t.lock().extend([
            Span {
                name: "p",
                parent: None,
                id: None,
                derived: false,
                start: 0.0,
                end: 10.0,
            },
            Span {
                name: "a",
                parent: Some(0),
                id: None,
                derived: false,
                start: 1.0,
                end: 4.0,
            },
            Span {
                name: "b",
                parent: Some(0),
                id: None,
                derived: false,
                start: 3.0,
                end: 6.0,
            },
            Span {
                name: "c",
                parent: Some(0),
                id: None,
                derived: false,
                start: 9.0,
                end: 12.0,
            },
        ]);
        let own = t.self_times();
        assert!((own[0] - 4.0).abs() < 1e-12);
        assert!((own[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.open("x", SpanId::ROOT);
        assert_eq!(t.close(s), 0.0);
        assert!(t.durations("x").is_empty());
    }
}
