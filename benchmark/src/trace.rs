//! Harness-side spans: recorded around the calls into each product layer,
//! kept in memory, written as JSON lines when the run ends. Nothing here
//! touches a product crate — spans inside the program are a later issue.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide epoch, never 0 (0 marks an unstamped
/// record). One clock for the harness thread and its `Logic` instances, so
/// timestamps taken on worker threads line up with control-thread spans.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Disabled (the untraced run), every call is a branch and
/// no clock read.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between spans (never inside one).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "a span is open");
        self.enabled = enabled;
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end() without begin()");
        self.spans[id as usize].end_ns = now_ns();
    }

    /// Records a finished span under `parent`, from timestamps taken
    /// elsewhere (a worker thread's `Logic` callbacks).
    pub fn add(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its direct children
    /// cover (children of one parent never overlap here — they are recorded
    /// by one thread, or are consecutive phases of one rescale).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Durations in nanoseconds of every span called `name`, in record order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes one JSON object per span: `{id, parent, name, start_ns,
    /// end_ns, self_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(own) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        let root_start = t.spans()[0].start_ns;
        t.add("a", root, root_start + 10, root_start + 40);
        let b = t.begin("b");
        t.add("b.inner", b, root_start + 50, root_start + 60);
        t.end();
        t.end();
        // Pin the clock-read spans to known times.
        t.spans[0].end_ns = root_start + 100;
        t.spans[2].start_ns = root_start + 45;
        t.spans[2].end_ns = root_start + 75;

        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(2));
        // root 100 - a 30 - b 30 = 40; b 30 - inner 10 = 20.
        assert_eq!(t.self_times_ns(), vec![40, 30, 20, 10]);
        assert_eq!(t.durations_ns("a"), vec![30.0]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.begin("x");
        t.add("y", x, 1, 2);
        t.end();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn clock_is_monotone_and_never_zero() {
        let a = now_ns();
        let b = now_ns();
        assert!(a >= 1 && b >= a);
    }
}
