//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. A span is (name, start, end, parent, epoch id,
//! lane). Spans of one epoch share the epoch id; `lane` is the thread
//! that does the work in the engine being re-enacted, a shard's worker
//! or the coordinator. Spans stay in memory until the run ends and are
//! then written out one per line. A layer's self time is its spans'
//! durations minus the parts their child spans cover.
//!
//! A disabled recorder records nothing and reads no clock, so the same
//! calling code runs traced and untraced and the difference between the
//! two is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Lane of work the engine's coordinator thread does.
pub const COORDINATOR: u32 = u32::MAX;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub epoch: u64,
    pub lane: u32,
}

/// Records spans against one time origin.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, epoch: u64, lane: u32) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            epoch,
            lane,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        epoch: u64,
        lane: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name, epoch, lane);
        let out = f();
        self.end();
        out
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Total self time per span name.
    #[must_use]
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Writes every span as `name start_ns end_ns parent epoch lane`,
    /// one per line (`-` for no parent, `c` for the coordinator lane).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# name start_ns end_ns parent epoch lane")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let lane = if s.lane == COORDINATOR {
                "c".to_string()
            } else {
                s.lane.to_string()
            };
            writeln!(
                out,
                "{} {} {} {parent} {} {lane}",
                s.name, s.start_ns, s.end_ns, s.epoch
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        r.spans = vec![
            Span {
                name: "epoch",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                epoch: 0,
                lane: COORDINATOR,
            },
            Span {
                name: "parse",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                epoch: 0,
                lane: 0,
            },
            Span {
                name: "ingest",
                start_ns: 40,
                end_ns: 90,
                parent: Some(0),
                epoch: 0,
                lane: 0,
            },
            Span {
                name: "inner",
                start_ns: 50,
                end_ns: 60,
                parent: Some(2),
                epoch: 0,
                lane: 0,
            },
        ];
        assert_eq!(r.self_times(), vec![20, 30, 40, 10]);
        let by = r.self_time_by_name();
        assert_eq!(by["epoch"], 20);
        assert_eq!(by["ingest"], 40);
    }

    #[test]
    fn nesting_and_disabled_recorder() {
        let mut r = Recorder::new(true);
        assert_eq!(r.span("outer", 3, COORDINATOR, || 7), 7);
        let mut off = Recorder::new(false);
        off.begin("x", 0, 0);
        off.end();
        assert!(off.spans().is_empty());
        r.begin("a", 1, COORDINATOR);
        r.begin("b", 1, 0);
        r.end();
        r.end();
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[1].parent, None);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
