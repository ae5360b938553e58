//! Shared measurement utilities for the figure-regeneration harness.
//!
//! Every table/figure binary prints a table in the paper's own format: a
//! time column in microseconds and a `ratio` column giving each row's time
//! relative to the previous row (exactly how Figures 5 and 6 are laid out).

#![deny(missing_docs)]

pub mod io_bench;
pub mod io_scale;
pub mod rng;

use std::time::Duration;

/// Measures `iters` repetitions of `f` and returns the mean per-iteration
/// time in microseconds.
pub fn measure_us(iters: usize, mut f: impl FnMut()) -> f64 {
    assert!(iters > 0);
    let start = sunmt_sys::time::monotonic_now();
    for _ in 0..iters {
        f();
    }
    let total = sunmt_sys::time::monotonic_now() - start;
    total.as_secs_f64() * 1e6 / iters as f64
}

/// Runs `f(i)` for `i in 0..n` and returns the mean ns per call.
/// Generic so each body is monomorphized straight into the loop — a
/// `dyn` call per iteration would dwarf the single-nanosecond effects
/// the probe and fast-path benches measure.
#[inline(never)]
fn sample_ns<F: FnMut(u64)>(n: u64, f: &mut F) -> f64 {
    let start = std::time::Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// Median over `samples` runs of [`sample_ns`]: ns per call of `f`.
pub fn median_ns<F: FnMut(u64)>(n: u64, samples: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..samples).map(|_| sample_ns(n, &mut f)).collect();
    times.sort_by(f64::total_cmp);
    times[samples / 2]
}

/// Runs `f` once and returns the elapsed time.
pub fn time_once(f: impl FnOnce()) -> Duration {
    let start = sunmt_sys::time::monotonic_now();
    f();
    sunmt_sys::time::monotonic_now() - start
}

/// The rows of part `part` when `rows` rows are split among `parts`
/// threads: equal chunks of `rows / parts`, with the remainder going to the
/// last part, so the parts cover every row exactly once.
pub fn row_chunk(rows: usize, parts: usize, part: usize) -> std::ops::Range<usize> {
    assert!(part < parts, "part {part} of {parts}");
    let per = rows / parts;
    let end = if part + 1 == parts {
        rows
    } else {
        (part + 1) * per
    };
    part * per..end
}

/// A paper-style results table (time + ratio-to-previous-row columns).
#[derive(Default)]
pub struct PaperTable {
    title: String,
    rows: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl PaperTable {
    /// Creates a table with the figure's caption.
    pub fn new(title: impl Into<String>) -> PaperTable {
        PaperTable {
            title: title.into(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a measured row.
    pub fn row(&mut self, label: impl Into<String>, time_us: f64) -> &mut Self {
        self.rows.push((label.into(), time_us));
        self
    }

    /// Appends a free-form footnote.
    pub fn note(&mut self, n: impl Into<String>) -> &mut Self {
        self.notes.push(n.into());
        self
    }

    /// The measured values, for assertions in tests.
    pub fn values(&self) -> Vec<f64> {
        self.rows.iter().map(|(_, v)| *v).collect()
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .max()
            .unwrap_or(10)
            .max(10);
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(
            out,
            "{:label_w$}  {:>12}  {:>7}",
            "", "Time (usec)", "ratio"
        );
        let mut prev: Option<f64> = None;
        for (label, t) in &self.rows {
            match prev {
                Some(p) if p > 0.0 => {
                    let _ = writeln!(out, "{label:label_w$}  {t:>12.2}  {:>7.2}", t / p);
                }
                _ => {
                    let _ = writeln!(out, "{label:label_w$}  {t:>12.2}  {:>7}", "");
                }
            }
            prev = Some(*t);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Renders and prints.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders the table as a machine-readable JSON document, so the perf
    /// trajectory of each figure is comparable across PRs
    /// (`BENCH_fig5.json` / `BENCH_fig6.json`).
    pub fn to_json(&self, bench: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(out, "\"bench\":{},", json_str(bench));
        let _ = write!(out, "\"title\":{},", json_str(&self.title));
        out.push_str("\"rows\":[");
        out.push_str(&self.rows_json());
        out.push_str("],\"notes\":[");
        out.push_str(&self.notes_json());
        out.push_str("]}");
        out
    }

    /// The `rows` array body (comma-joined row objects, no brackets).
    fn rows_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, (label, t)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"label\":{},\"time_us\":{t}}}", json_str(label));
        }
        out
    }

    /// The `notes` array body (comma-joined strings, no brackets).
    fn notes_json(&self) -> String {
        let mut out = String::new();
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(n));
        }
        out
    }

    /// Splices this table's rows and notes into an existing
    /// [`Self::to_json`] document, preserving everything already there.
    /// Used by benches that extend a committed trajectory file with an
    /// extra axis — the connection-scaling rows `abl_io_scale` appends to
    /// `BENCH_io.json` — without re-running the base experiment.
    pub fn merge_into_json(&self, doc: &str) -> Result<String, String> {
        let marker = "],\"notes\":[";
        let rows_end = doc
            .rfind(marker)
            .ok_or_else(|| "document has no rows/notes arrays".to_string())?;
        let tail = &doc[rows_end + marker.len()..];
        let notes_end = tail
            .rfind("]}")
            .ok_or_else(|| "document has no closing ]}".to_string())?;
        let mut out = String::with_capacity(doc.len() + 256);
        out.push_str(&doc[..rows_end]);
        if !self.rows.is_empty() {
            if !doc[..rows_end].ends_with('[') {
                out.push(',');
            }
            out.push_str(&self.rows_json());
        }
        out.push_str(marker);
        out.push_str(&tail[..notes_end]);
        if !self.notes.is_empty() {
            if !tail[..notes_end].is_empty() {
                out.push(',');
            }
            out.push_str(&self.notes_json());
        }
        out.push_str(&tail[notes_end..]);
        Ok(out)
    }

    /// Merges this table into the JSON file named by a `--merge-json
    /// <path>` pair in `args`, rewriting the file in place. Falls back to
    /// writing a standalone document (under `bench`) when the file does
    /// not exist yet.
    pub fn merge_json_if_requested(
        &self,
        bench: &str,
        args: impl IntoIterator<Item = String>,
    ) -> std::io::Result<()> {
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if a == "--merge-json" {
                let path = args
                    .next()
                    .ok_or_else(|| std::io::Error::other("--merge-json needs a path"))?;
                let merged = match std::fs::read_to_string(&path) {
                    Ok(doc) => self.merge_into_json(&doc).map_err(std::io::Error::other)?,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => self.to_json(bench),
                    Err(e) => return Err(e),
                };
                std::fs::write(&path, merged)?;
                println!("merged into {path}");
                return Ok(());
            }
        }
        Ok(())
    }

    /// Writes [`Self::to_json`] to `path` if a `--json <path>` pair is
    /// present in `args` (the bench binaries' machine-readable output flag).
    pub fn write_json_if_requested(
        &self,
        bench: &str,
        args: impl IntoIterator<Item = String>,
    ) -> std::io::Result<()> {
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if a == "--json" {
                let path = args
                    .next()
                    .ok_or_else(|| std::io::Error::other("--json needs a path"))?;
                std::fs::write(&path, self.to_json(bench))?;
                println!("wrote {path}");
                return Ok(());
            }
        }
        Ok(())
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_us_is_positive_and_sane() {
        let us = measure_us(100, || {
            std::hint::black_box(42u64.wrapping_mul(17));
        });
        assert!(us >= 0.0);
        assert!(us < 10_000.0, "a multiply must not take 10ms (got {us})");
    }

    #[test]
    fn median_ns_calls_every_iteration_and_is_sane() {
        let mut calls = 0u64;
        let ns = median_ns(1_000, 3, |i| calls += std::hint::black_box(i) & 1);
        assert_eq!(calls, 3 * 500, "every sample must run all 1000 calls");
        assert!(ns < 10_000.0, "an add must not take 10us (got {ns})");
    }

    #[test]
    fn table_renders_ratios_against_previous_row() {
        let mut t = PaperTable::new("Figure X: test");
        t.row("a", 10.0).row("b", 25.0).note("hello");
        let s = t.render();
        assert!(s.contains("Figure X"));
        assert!(s.contains("2.50"), "ratio 25/10 missing:\n{s}");
        assert!(s.contains("note: hello"));
        assert_eq!(t.values(), vec![10.0, 25.0]);
    }

    #[test]
    fn to_json_emits_rows_and_escapes() {
        let mut t = PaperTable::new("Figure \"X\"");
        t.row("a", 10.5).note("line\nbreak");
        let j = t.to_json("figX");
        assert!(j.contains("\"bench\":\"figX\""));
        assert!(j.contains("\"label\":\"a\",\"time_us\":10.5"));
        assert!(j.contains("Figure \\\"X\\\""));
        assert!(j.contains("line\\nbreak"));
    }

    #[test]
    fn merge_into_json_splices_rows_and_notes() {
        let mut base = PaperTable::new("base");
        base.row("a", 1.0).note("k=1");
        let doc = base.to_json("b");

        let mut extra = PaperTable::new("ignored");
        extra.row("c", 2.0).note("scale_x=3.5");
        let merged = extra.merge_into_json(&doc).unwrap();
        assert!(merged.contains("\"label\":\"a\",\"time_us\":1"));
        assert!(merged.contains("\"label\":\"c\",\"time_us\":2"));
        assert!(merged.contains("\"k=1\",\"scale_x=3.5\""), "{merged}");
        // Still one well-formed document: merging again also works.
        let twice = extra.merge_into_json(&merged).unwrap();
        assert_eq!(twice.matches("scale_x=3.5").count(), 2);
    }

    #[test]
    fn merge_into_empty_arrays_adds_no_stray_commas() {
        let empty = PaperTable::new("e").to_json("e");
        let mut extra = PaperTable::new("x");
        extra.row("r", 4.5).note("n");
        let merged = extra.merge_into_json(&empty).unwrap();
        assert!(merged.contains("\"rows\":[{\"label\":\"r\""), "{merged}");
        assert!(merged.contains("\"notes\":[\"n\"]"), "{merged}");
    }

    #[test]
    fn time_once_measures_elapsed() {
        let d = time_once(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(d >= Duration::from_millis(4));
    }
}
