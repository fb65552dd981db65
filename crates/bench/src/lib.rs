//! Shared helpers for the table-reproduction bench harness.

use provlight_continuum::tables::TableResult;

/// Repetitions per cell: the paper uses 10; override with `PROVLIGHT_REPS`
/// for quick runs.
pub fn reps() -> usize {
    std::env::var("PROVLIGHT_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// Prints a reproduced table with a shape summary.
pub fn print_table(table: &TableResult) {
    println!("{}", table.render());
    // Mean absolute log-ratio between paper and measurement — a single
    // drift indicator per table.
    let mut ratios = Vec::new();
    for c in &table.cells {
        if c.paper > 0.0 && c.measured.mean() > 0.0 {
            ratios.push((c.measured.mean() / c.paper).ln().abs());
        }
    }
    if !ratios.is_empty() {
        let gmean = (ratios.iter().sum::<f64>() / ratios.len() as f64).exp();
        println!(
            "   shape drift: geometric mean paper-vs-measured factor = {:.2}x\n",
            gmean
        );
    }
}

/// Minimal top-level JSON-object surgery for `BENCH_hotpath.json`.
///
/// The capture and ingest benches each own one region of the tracked file
/// and must not clobber the other's metrics (the ROADMAP requires perf PRs
/// to *extend* the file). These helpers splice a top-level key in or out of
/// a machine-generated JSON object textually. A parse/re-serialize through
/// `prov_codec::json` would also work, but the file is committed and
/// diffed across PRs, so the untouched section must survive **byte for
/// byte** — hence string- and nesting-aware splicing instead of a parser
/// round-trip.
pub mod bench_json {
    use std::ops::Range;

    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    }

    /// Returns the index just past a string literal starting at `i`.
    fn scan_string(b: &[u8], mut i: usize) -> Option<usize> {
        debug_assert_eq!(b.get(i), Some(&b'"'));
        i += 1;
        while i < b.len() {
            match b[i] {
                b'\\' => i += 2,
                b'"' => return Some(i + 1),
                _ => i += 1,
            }
        }
        None
    }

    /// Returns the index just past the JSON value starting at `i` (ends at
    /// a top-level `,` or the enclosing `}` for scalars).
    fn scan_value(b: &[u8], mut i: usize) -> Option<usize> {
        let mut depth = 0usize;
        while i < b.len() {
            match b[i] {
                b'"' => i = scan_string(b, i)?,
                b'{' | b'[' => {
                    depth += 1;
                    i += 1;
                }
                b'}' | b']' => {
                    if depth == 0 {
                        return Some(i);
                    }
                    depth -= 1;
                    i += 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                b',' if depth == 0 => return Some(i),
                _ => i += 1,
            }
        }
        None
    }

    /// `(key, value byte range)` pairs of a top-level JSON object.
    fn top_level_entries(content: &str) -> Option<Vec<(String, Range<usize>)>> {
        let b = content.as_bytes();
        let mut i = skip_ws(b, 0);
        if b.get(i) != Some(&b'{') {
            return None;
        }
        i = skip_ws(b, i + 1);
        let mut entries = Vec::new();
        if b.get(i) == Some(&b'}') {
            return Some(entries);
        }
        loop {
            if b.get(i) != Some(&b'"') {
                return None;
            }
            let key_end = scan_string(b, i)?;
            let key = content[i + 1..key_end - 1].to_owned();
            i = skip_ws(b, key_end);
            if b.get(i) != Some(&b':') {
                return None;
            }
            i = skip_ws(b, i + 1);
            let mut value = i..scan_value(b, i)?;
            // Scalars end at the `,`/`}` delimiter; drop trailing space.
            while value.end > value.start && b[value.end - 1].is_ascii_whitespace() {
                value.end -= 1;
            }
            i = skip_ws(b, value.end);
            entries.push((key, value));
            match b.get(i) {
                Some(b',') => i = skip_ws(b, i + 1),
                Some(b'}') => return Some(entries),
                _ => return None,
            }
        }
    }

    /// The raw value text of a top-level key, if present.
    pub fn extract_section(content: &str, key: &str) -> Option<String> {
        top_level_entries(content)?
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, range)| content[range].to_owned())
    }

    /// Returns `content` with top-level `key` set to `value` (raw JSON
    /// text), replacing an existing entry in place or appending before the
    /// closing brace. Unrelated entries keep their exact formatting. A
    /// missing or malformed document becomes `{ key: value }`.
    pub fn upsert_section(content: &str, key: &str, value: &str) -> String {
        if let Some(entries) = top_level_entries(content) {
            if let Some((_, range)) = entries.iter().find(|(k, _)| k == key) {
                return format!(
                    "{}{}{}",
                    &content[..range.start],
                    value,
                    &content[range.end..]
                );
            }
            if let Some(close) = content.rfind('}') {
                let body = content[..close].trim_end();
                let comma = if entries.is_empty() { "" } else { "," };
                return format!("{body}{comma}\n  \"{key}\": {value}\n}}\n");
            }
        }
        format!("{{\n  \"{key}\": {value}\n}}\n")
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const DOC: &str =
            "{\n  \"bench\": \"x\",\n  \"paths\": {\n    \"a\": { \"r\": 1 }\n  },\n  \"n\": 3\n}\n";

        #[test]
        fn extracts_nested_and_scalar_sections() {
            assert_eq!(extract_section(DOC, "bench").as_deref(), Some("\"x\""));
            assert_eq!(extract_section(DOC, "n").as_deref(), Some("3"));
            assert_eq!(
                extract_section(DOC, "paths").as_deref(),
                Some("{\n    \"a\": { \"r\": 1 }\n  }")
            );
            assert_eq!(extract_section(DOC, "missing"), None);
        }

        #[test]
        fn upsert_replaces_in_place_preserving_the_rest() {
            let updated = upsert_section(DOC, "n", "42");
            assert_eq!(extract_section(&updated, "n").as_deref(), Some("42"));
            assert_eq!(
                extract_section(&updated, "paths"),
                extract_section(DOC, "paths")
            );
        }

        #[test]
        fn upsert_appends_new_key() {
            let updated = upsert_section(DOC, "ingest", "{ \"r\": 9 }");
            assert_eq!(
                extract_section(&updated, "ingest").as_deref(),
                Some("{ \"r\": 9 }")
            );
            assert_eq!(
                extract_section(&updated, "bench"),
                extract_section(DOC, "bench")
            );
            // Round-trips: replacing the fresh key again still parses.
            let again = upsert_section(&updated, "ingest", "1");
            assert_eq!(extract_section(&again, "ingest").as_deref(), Some("1"));
        }

        #[test]
        fn upsert_on_garbage_starts_fresh() {
            let doc = upsert_section("", "ingest", "{}");
            assert_eq!(extract_section(&doc, "ingest").as_deref(), Some("{}"));
        }
    }
}

/// The CI bench-regression gate over `BENCH_hotpath.json`.
///
/// The ROADMAP mandates standing perf floors — coalesced/per-record
/// capture speedup ≥ 2× among them — but until this module CI only
/// `cat`ed the file, so a regression would merge silently.
/// [`gate::check`] parses the tracked JSON and reports every violated (or
/// missing) metric; the `provlight-bench-check` binary wraps it with a
/// non-zero exit for CI.
pub mod gate {
    use super::bench_json::extract_section;

    /// One enforced perf floor.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Gate {
        /// Dotted path of the metric inside `BENCH_hotpath.json`.
        pub metric: String,
        /// Measured value.
        pub value: f64,
        /// Minimum the ROADMAP mandates.
        pub min: f64,
    }

    /// The standing floors. Future perf PRs extend this list alongside the
    /// metrics they add to the tracked file; `provlight-lint`'s drift rule
    /// cross-checks it against the tracked bench sections.
    pub const FLOORS: &[(&[&str], f64)] = &[
        (&["speedup_coalesced_vs_immediate"], 2.0),
        (&["broker", "speedup_broker_batched_vs_per_packet"], 2.0),
        // Ratio floor: with 2 query threads + 1 writer timesharing a
        // single core, fair scheduling alone caps the writer near 1/3 of
        // its solo rate; a cursor that actually held the store lock across
        // pages would push this toward zero.
        (&["query", "qps_closure_1m"], 5.0),
        (&["query", "ratio_ingest_under_query"], 0.2),
    ];

    /// Resolves a dotted metric path to a number inside the JSON text.
    fn number(content: &str, path: &[&str]) -> Option<f64> {
        let mut section = content.to_owned();
        let (last, parents) = path.split_last()?;
        for key in parents {
            section = extract_section(&section, key)?;
        }
        extract_section(&section, last)?.trim().parse().ok()
    }

    /// Checks every floor. `Ok` carries the passing gates for reporting;
    /// `Err` carries one message per violated or missing metric.
    pub fn check(content: &str) -> Result<Vec<Gate>, Vec<String>> {
        let mut gates = Vec::new();
        let mut failures = Vec::new();
        for (path, min) in FLOORS {
            let metric = path.join(".");
            match number(content, path) {
                Some(value) if value >= *min => gates.push(Gate {
                    metric,
                    value,
                    min: *min,
                }),
                Some(value) => failures.push(format!(
                    "{metric} = {value:.2} below the mandated {min:.1}x floor"
                )),
                None => failures.push(format!("{metric} missing from bench output")),
            }
        }
        if failures.is_empty() {
            Ok(gates)
        } else {
            Err(failures)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn doc(speedup: f64, broker: f64, qps: f64, ratio: f64) -> String {
            format!(
                "{{\n  \"bench\": \"capture_hot_path\",\n  \
                 \"speedup_coalesced_vs_immediate\": {speedup},\n  \
                 \"broker\": {{\n    \"speedup_broker_batched_vs_per_packet\": {broker}\n  }},\n  \
                 \"query\": {{\n    \"qps_closure_1m\": {qps},\n    \
                 \"ratio_ingest_under_query\": {ratio}\n  }}\n}}\n"
            )
        }

        #[test]
        fn healthy_metrics_pass() {
            let gates = check(&doc(2.19, 3.12, 14.0, 0.55)).expect("healthy file must pass");
            assert_eq!(gates.len(), 4);
            assert!(gates.iter().all(|g| g.value >= g.min));
        }

        #[test]
        fn sub_2x_capture_speedup_fails() {
            let failures = check(&doc(1.4, 3.12, 14.0, 0.55)).expect_err("regression must fail");
            assert_eq!(failures.len(), 1);
            assert!(failures[0].contains("speedup_coalesced_vs_immediate"));
            assert!(failures[0].contains("1.40"));
        }

        #[test]
        fn sub_2x_broker_speedup_fails() {
            let failures = check(&doc(2.19, 1.7, 14.0, 0.55)).expect_err("regression must fail");
            assert_eq!(failures.len(), 1);
            assert!(failures[0].contains("broker.speedup_broker_batched_vs_per_packet"));
            assert!(failures[0].contains("1.70"));
        }

        #[test]
        fn slow_query_closure_fails() {
            let failures = check(&doc(2.19, 3.12, 3.9, 0.55)).expect_err("regression must fail");
            assert_eq!(failures.len(), 1);
            assert!(failures[0].contains("query.qps_closure_1m"));
            assert!(failures[0].contains("3.90"));
        }

        #[test]
        fn query_load_stalling_ingest_fails() {
            let failures = check(&doc(2.19, 3.12, 14.0, 0.1)).expect_err("regression must fail");
            assert_eq!(failures.len(), 1);
            assert!(failures[0].contains("query.ratio_ingest_under_query"));
        }

        #[test]
        fn missing_metric_fails_rather_than_passes_vacuously() {
            let failures = check("{ \"bench\": \"x\" }").expect_err("missing metrics");
            assert_eq!(failures.len(), 4);
            assert!(failures.iter().all(|f| f.contains("missing")));
        }

        #[test]
        fn tracked_bench_file_passes_the_gate() {
            // The committed BENCH_hotpath.json must satisfy its own gate.
            let content = std::fs::read_to_string(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json"),
            )
            .expect("tracked bench file readable");
            check(&content).expect("tracked bench file violates the perf floors");
        }
    }
}

/// Code size per crate, for the `loc` section of `BENCH_hotpath.json`:
/// ROADMAP item 2 wants the tracked trajectory to show code shrinking
/// while the perf floors hold. `provlight-bench-check` owns the section
/// the way each bench owns its own.
pub mod loc {
    use std::path::Path;

    /// Non-test, non-blank, non-comment lines of one source file: a line
    /// counts when text is left on it after `prov_lint`'s lexer has
    /// blanked the comments, and that text starts outside every
    /// `#[cfg(test)]` / `#[test]` item.
    pub fn count(src: &str) -> usize {
        let scan = prov_lint::lexer::scan(src);
        let mut offset = 0;
        let mut lines = 0;
        for line in scan.masked.split('\n') {
            let code = line.trim_start();
            if !code.is_empty() && !scan.in_test_region(offset + line.len() - code.len()) {
                lines += 1;
            }
            offset += line.len() + 1;
        }
        lines
    }

    /// [`count`] summed over every `.rs` file under `dir`, recursively.
    /// Unreadable entries count as zero rather than failing the gate.
    pub fn count_dir(dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .map(|path| {
                if path.is_dir() {
                    count_dir(&path)
                } else if path.extension().is_some_and(|e| e == "rs") {
                    std::fs::read_to_string(&path).map_or(0, |src| count(&src))
                } else {
                    0
                }
            })
            .sum()
    }

    /// Collects `(crate path under crates/, src lines)` for every package
    /// below `dir` (the shims sit one level deeper than the rest).
    fn collect(crates: &Path, dir: &Path, out: &mut Vec<(String, usize)>) {
        if dir.join("Cargo.toml").is_file() {
            let name = dir.strip_prefix(crates).unwrap_or(dir).to_string_lossy();
            out.push((name.replace('\\', "/"), count_dir(&dir.join("src"))));
            return;
        }
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for path in entries.filter_map(Result::ok).map(|e| e.path()) {
            if path.is_dir() {
                collect(crates, &path, out);
            }
        }
    }

    /// The `loc` section for the workspace rooted at `root`: one entry per
    /// crate under `crates/` plus the facade crate's `src/`, sorted by
    /// name, and their total.
    pub fn section(root: &Path) -> String {
        let crates = root.join("crates");
        let mut rows = vec![("provlight".to_owned(), count_dir(&root.join("src")))];
        collect(&crates, &crates, &mut rows);
        rows.sort();
        let total: usize = rows.iter().map(|(_, n)| n).sum();
        let mut section = String::from(
            "{\n    \"model\": \"non-test, non-blank, non-comment lines under each crate's src/\",\n    \"crates\": {",
        );
        for (i, (name, lines)) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            section.push_str(&format!("\n      \"{name}\": {lines}{sep}"));
        }
        section.push_str(&format!("\n    }},\n    \"total\": {total}\n  }}"));
        section
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn counts_code_lines_only() {
            let src = "//! doc\n\nuse a::b; // trailing\n/* block\n   comment */\nfn prod() {\n    x();\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
            // `use`, `fn prod() {`, `x();`, `}` — nothing from the doc
            // line, the comments, the blanks or the test module.
            assert_eq!(count(src), 4);
        }

        #[test]
        fn section_lists_this_workspace() {
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
            let section = section(&root);
            let crates = crate::bench_json::extract_section(&section, "crates").expect("crates");
            for name in ["provlight", "mqtt-sn", "bench", "shims/parking_lot"] {
                let lines: usize = crate::bench_json::extract_section(&crates, name)
                    .unwrap_or_else(|| panic!("{name} missing from {crates}"))
                    .parse()
                    .expect("a line count");
                assert!(lines > 0, "{name} counted as empty");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reps_default_is_paper_count() {
        if std::env::var("PROVLIGHT_REPS").is_err() {
            assert_eq!(super::reps(), 10);
        }
    }
}
