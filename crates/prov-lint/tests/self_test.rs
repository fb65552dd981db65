//! Fixture self-tests: run the real linter over the checked-in fixture
//! workspaces under `tests/fixtures/` and assert exact rule IDs, file:line
//! attribution, messages, waiver accounting, and CLI exit codes. The last
//! test lints the enclosing workspace itself, so `cargo test` enforces the
//! same gate CI does.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn violating_fixture_yields_exact_findings() {
    let report = prov_lint::lint_root(&fixture("violating")).expect("lint runs");
    assert_eq!(report.files, 6, "five src files plus tests/asserts.rs");

    let unwaived: Vec<(&str, &str, usize)> = report
        .unwaived()
        .map(|v| (v.rule, v.file.as_str(), v.line))
        .collect();
    assert_eq!(
        unwaived,
        vec![
            ("zero-alloc", "src/hot.rs", 10),
            ("lock-order", "src/locks.rs", 6),
            ("lock-send", "src/locks.rs", 13),
            ("no-panic", "src/panics.rs", 5),
            ("lint-directive", "src/panics.rs", 13),
            ("drift-stats", "src/stats.rs", 8),
            ("drift-state-version", "src/version.rs", 3),
            ("drift-state-version", "src/version.rs", 4),
        ],
    );

    let waived: Vec<(&str, &str, usize, &str)> = report
        .waived()
        .map(|v| {
            (
                v.rule,
                v.file.as_str(),
                v.line,
                v.waived.as_deref().expect("waived"),
            )
        })
        .collect();
    assert_eq!(
        waived,
        vec![
            (
                "no-panic",
                "src/panics.rs",
                10,
                "fixture: caller guarantees Some",
            ),
            (
                "drift-stats",
                "src/stats.rs",
                9,
                "fixture: documented as informational",
            ),
        ],
    );
    assert_eq!(
        report.waiver_tally(),
        vec![("drift-stats", 1), ("no-panic", 1)]
    );
}

#[test]
fn violating_fixture_messages_are_actionable() {
    let report = prov_lint::lint_root(&fixture("violating")).expect("lint runs");
    // First violation per rule in the sorted report (the unwaived one where
    // a rule fires twice).
    let msg = |rule: &str| -> &str {
        &report
            .violations
            .iter()
            .find(|v| v.rule == rule)
            .unwrap_or_else(|| panic!("no `{rule}` finding"))
            .message
    };
    assert_eq!(msg("no-panic"), "`.unwrap()` in a production module");
    assert_eq!(
        msg("zero-alloc"),
        "allocation idiom `.to_vec` inside a zero-alloc region"
    );
    assert_eq!(
        msg("lock-order"),
        "`outer` (rank 0) acquired while holding `inner` (rank 1): \
         declared order is [\"outer\", \"inner\"]"
    );
    assert_eq!(
        msg("lock-send"),
        "blocking send `socket.send` while holding `outer` lock — drain \
         under the lock, flush after unlock"
    );
    assert_eq!(
        msg("lint-directive"),
        "waiver `lint:allow(no-panic)` needs a reason: \
         `lint:allow(no-panic): <why the invariant holds>`"
    );
    assert_eq!(
        msg("drift-stats"),
        "counter `GadgetStats.orphaned` is never asserted in any test"
    );
    assert_eq!(
        msg("drift-state-version"),
        "`STATE_VERSION` definition has no migration test referencing it"
    );
}

#[test]
fn clean_fixture_passes_with_one_audited_waiver() {
    let report = prov_lint::lint_root(&fixture("clean")).expect("lint runs");
    assert_eq!(report.files, 2);
    assert_eq!(report.unwaived().count(), 0);
    let waived: Vec<_> = report.waived().collect();
    assert_eq!(waived.len(), 1);
    assert_eq!(waived[0].rule, "no-panic");
    assert_eq!(
        waived[0].waived.as_deref(),
        Some("fixture: checked by the caller")
    );
}

#[test]
fn cli_fails_on_violations_and_prints_the_tally() {
    let out = Command::new(env!("CARGO_BIN_EXE_provlight-lint"))
        .arg(fixture("violating"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("no-panic src/panics.rs:5 `.unwrap()` in a production module"),
        "{stdout}"
    );
    assert!(
        stdout.contains("provlight-lint: 6 files, 8 violation(s), 2 waived"),
        "{stdout}"
    );
    assert!(stdout.contains("  waived drift-stats: 1"), "{stdout}");
    assert!(stdout.contains("  waived no-panic: 1"), "{stdout}");
}

#[test]
fn cli_passes_the_clean_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_provlight-lint"))
        .arg(fixture("clean"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("provlight-lint: 2 files, 0 violation(s), 1 waived"),
        "{stdout}"
    );
}

#[test]
fn cli_distinguishes_gate_breakage_from_findings() {
    // A missing root is exit 2 ("the gate is broken"), never exit 1.
    let out = Command::new(env!("CARGO_BIN_EXE_provlight-lint"))
        .arg(fixture("does-not-exist"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn the_workspace_itself_passes_the_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = prov_lint::lint_root(&root).expect("lint runs");
    let bad: Vec<_> = report.unwaived().collect();
    assert!(bad.is_empty(), "unwaived lint violations: {bad:#?}");
}
