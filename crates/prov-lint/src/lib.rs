//! `prov-lint` — the project-specific static-analysis gate.
//!
//! Four rule families, configured by the root `lints.toml`:
//!
//! - **no-panic** — panic idioms are forbidden in the configured
//!   production modules; `// lint:allow(no-panic): <reason>` waives one
//!   finding with an auditable reason.
//! - **zero-alloc** — regions between `// lint: zero-alloc-begin` and
//!   `// lint: zero-alloc-end` forbid allocation idioms, making the
//!   counting-allocator tests' invariant visible at review time.
//! - **lock-order** / **lock-send** — nested lock acquisitions must follow
//!   the declared hierarchy, and blocking socket sends are forbidden while
//!   a broker lock is held (PR 5's drain-then-flush discipline).
//! - **drift-stats** / **drift-state-version** — paired artifacts
//!   (counter/assertion, version/migration-test) must not drift apart.
//!
//! The crate is dependency-free on purpose: the gate must build offline,
//! before — and independently of — everything it checks.

pub mod config;
pub mod drift;
pub mod lexer;
pub mod rules;

use std::io;
use std::path::{Path, PathBuf};

use config::Config;
use drift::FileScan;
pub use rules::Violation;

/// The result of linting a workspace.
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Every finding, waived and unwaived, sorted by file/line/rule.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Findings that fail the gate.
    pub fn unwaived(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.waived.is_none())
    }

    /// Findings covered by a waiver.
    pub fn waived(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.waived.is_some())
    }

    /// `(rule, waived count)` tally, for the CI summary.
    pub fn waiver_tally(&self) -> Vec<(&'static str, usize)> {
        let mut tally: Vec<(&'static str, usize)> = Vec::new();
        for v in self.waived() {
            match tally.iter_mut().find(|(r, _)| *r == v.rule) {
                Some((_, n)) => *n += 1,
                None => tally.push((v.rule, 1)),
            }
        }
        tally.sort();
        tally
    }
}

/// Lints the workspace rooted at `root` (the directory holding
/// `lints.toml`).
pub fn lint_root(root: &Path) -> io::Result<Report> {
    let cfg_text = std::fs::read_to_string(root.join("lints.toml"))?;
    let cfg = config::parse(&cfg_text).map_err(io::Error::other)?;
    lint_with_config(root, &cfg)
}

/// Lints `root` under an already-parsed config (fixture tests use this).
pub fn lint_with_config(root: &Path, cfg: &Config) -> io::Result<Report> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, cfg, &mut paths)?;
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let scan = lexer::scan(&src);
        files.push(FileScan { rel, src, scan });
    }

    let mut violations = Vec::new();
    for f in &files {
        if cfg
            .no_panic_modules
            .iter()
            .any(|m| f.rel.starts_with(m.as_str()))
        {
            rules::no_panic(&f.scan, &f.src, &f.rel, &mut violations);
        }
        rules::zero_alloc(&f.scan, &f.src, &f.rel, &mut violations);
        rules::lock_order(&f.scan, &f.src, &f.rel, cfg, &mut violations);
        rules::directive_lint(&f.scan, &f.rel, &mut violations);
    }
    drift::stats(cfg, &files, &mut violations);
    drift::state_version(cfg, &files, &mut violations);

    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Report {
        files: files.len(),
        violations,
    })
}

/// Recursively collects workspace `.rs` files, skipping build output, VCS
/// metadata, and configured excludes.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == ".git" || name == "target" || name.starts_with('.') {
            continue;
        }
        if cfg
            .exclude
            .iter()
            .any(|e| rel == *e || rel.starts_with(&format!("{e}/")))
        {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if ty.is_file() && rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
