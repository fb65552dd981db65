//! CI bench-regression gate: parses `BENCH_hotpath.json` (path as the
//! first argument, defaulting to the tracked file at the repo root) and
//! exits non-zero when any ROADMAP perf floor is violated — a sub-2×
//! coalesced-capture speedup, for one. Before
//! gating it refreshes the file's `loc` section (code lines per crate of
//! the workspace this binary was built from), so the tracked trajectory
//! shows code size next to the floors it has to hold.
//!
//! ```text
//! cargo run -p provlight_bench --bin provlight-bench-check [path]
//! ```

use provlight_bench::{bench_json, gate, loc};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".to_owned());
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => {
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
            let updated = bench_json::upsert_section(&c, "loc", &loc::section(&root));
            if updated != c {
                if let Err(e) = std::fs::write(&path, &updated) {
                    eprintln!("bench-check: cannot record loc in {path}: {e}");
                }
            }
            updated
        }
        Err(e) => {
            eprintln!("bench-check: cannot read {path}: {e}");
            eprintln!("bench-check: run the hot-path benches first (cargo bench --bench capture_hot_path / broker_hot_path / query_hot_path)");
            return ExitCode::FAILURE;
        }
    };
    match gate::check(&content) {
        Ok(gates) => {
            for g in &gates {
                println!(
                    "bench-check: PASS {} = {:.2} (floor {:.1}x)",
                    g.metric, g.value, g.min
                );
            }
            println!("bench-check: all {} perf floors hold", gates.len());
            ExitCode::SUCCESS
        }
        Err(failures) => {
            for f in &failures {
                eprintln!("bench-check: FAIL {f}");
            }
            eprintln!(
                "bench-check: {} perf floor(s) violated in {path}",
                failures.len()
            );
            ExitCode::FAILURE
        }
    }
}
