//! [`WallProfile`]: the explicitly non-deterministic wall-clock sink.
//!
//! Everything else in this crate is stamped with virtual time and is
//! byte-reproducible; coarse "where did the seconds go" profiling of
//! the experiment drivers is the one place wall clocks are the right
//! tool. This module quarantines that: durations recorded here are for
//! **stderr reporting only** and must never reach stdout tables, trace
//! files, or persisted store bytes. Keeping the `Instant` reads in one
//! module scopes the determinism-lint exemption to exactly this file.

// lint:allow-file(determinism, wall-clock profiling sink: durations are stderr-only reporting and never reach stdout, trace files, or store bytes)

use crate::lock;
use std::sync::Mutex;
use std::time::Instant;

/// One timed entry: label and elapsed microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallEntry {
    /// What was timed (an experiment name, a phase).
    pub label: String,
    /// Elapsed wall time in microseconds.
    pub elapsed_us: u64,
}

/// A wall-clock profiling sink: times closures, renders a stderr
/// summary tree. Disabled by default; a disabled profile still runs the
/// closures but records nothing.
#[derive(Debug, Default)]
pub struct WallProfile {
    /// When the recording profile was created (`None` when disabled).
    start: Option<Instant>,
    entries: Mutex<Vec<WallEntry>>,
}

/// Microseconds in `d`, saturating.
fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl WallProfile {
    /// A recording profile; its elapsed time runs from this call.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            start: Some(Instant::now()),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// A no-op profile (the default).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether closures run under [`WallProfile::time`] are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.start.is_some()
    }

    /// Runs `f`, recording its wall duration under `label` when enabled.
    pub fn time<R>(&self, label: &str, f: impl FnOnce() -> R) -> R {
        if !self.is_enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let elapsed_us = micros(start.elapsed());
        lock(&self.entries).push(WallEntry {
            label: label.to_owned(),
            elapsed_us,
        });
        out
    }

    /// The recorded entries, in completion order.
    #[must_use]
    pub fn entries(&self) -> Vec<WallEntry> {
        lock(&self.entries).clone()
    }

    /// A stderr-ready summary tree: one line per entry under a root line
    /// with the profile's elapsed wall time, the sum of the entries'
    /// durations, and their ratio (entries timed on parallel workers
    /// overlap, so the sum can exceed the elapsed time). Empty string
    /// when nothing was recorded.
    #[must_use]
    pub fn to_text(&self, root: &str) -> String {
        let elapsed_us = self.start.map_or(0, |s| micros(s.elapsed()));
        render(root, elapsed_us, &self.entries())
    }
}

/// [`WallProfile::to_text`] for a given elapsed time.
fn render(root: &str, elapsed_us: u64, entries: &[WallEntry]) -> String {
    if entries.is_empty() {
        return String::new();
    }
    let work_us: u64 = entries.iter().map(|e| e.elapsed_us).sum();
    let width = entries.iter().map(|e| e.label.len()).max().unwrap_or(0);
    let mut out = format!(
        "{root}: {:.1} ms elapsed, {:.1} ms summed over {} entries ({:.2}x)\n",
        elapsed_us as f64 / 1e3,
        work_us as f64 / 1e3,
        entries.len(),
        work_us as f64 / elapsed_us.max(1) as f64
    );
    for e in entries {
        out.push_str(&format!(
            "  {:<width$} {:>10.1} ms\n",
            e.label,
            e.elapsed_us as f64 / 1e3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_runs_but_records_nothing() {
        let p = WallProfile::disabled();
        assert!(!p.is_enabled());
        assert_eq!(p.time("x", || 41 + 1), 42);
        assert!(p.entries().is_empty());
        assert_eq!(p.to_text("root"), "");
    }

    #[test]
    fn enabled_profile_records_each_closure() {
        let p = WallProfile::enabled();
        assert_eq!(p.time("first", || "a"), "a");
        p.time("second", || {});
        let entries = p.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].label, "first");
        assert_eq!(entries[1].label, "second");
        let text = p.to_text("run");
        assert!(text.starts_with("run: "), "{text}");
        assert!(text.contains(" ms elapsed, "), "{text}");
        assert!(text.contains("first") && text.contains("second"), "{text}");
    }

    #[test]
    fn root_line_separates_elapsed_time_from_summed_work() {
        // Two workers, 300 ms each, inside a 400 ms run.
        let entries = ["a", "bb"].map(|label| WallEntry {
            label: label.to_owned(),
            elapsed_us: 300_000,
        });
        let text = render("wall", 400_000, &entries);
        assert_eq!(
            text,
            "wall: 400.0 ms elapsed, 600.0 ms summed over 2 entries (1.50x)\n\
             \x20 a       300.0 ms\n\
             \x20 bb      300.0 ms\n"
        );
    }

    #[test]
    fn elapsed_time_covers_every_recorded_entry() {
        let p = WallProfile::enabled();
        p.time("sleep", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let elapsed_us = p.start.map_or(0, |s| micros(s.elapsed()));
        assert!(elapsed_us >= p.entries()[0].elapsed_us);
    }
}
