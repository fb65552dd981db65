//! Cross-file drift checks: stats counters vs. test assertions and
//! format-version constants vs. migration tests. (That every gate-worthy
//! bench metric has a floor is checked where the floors live,
//! `provlight_bench::gate::check`.)
//!
//! These rules exist because the repo's invariants live in *pairs* of
//! places — a counter and its assertion, a version constant and its
//! migration test — and runtime testing cannot notice when one half of a
//! pair is added without the other.

use crate::config::{Config, Waiver};
use crate::lexer::{line_of, Scan};
use crate::rules::Violation;

/// One scanned workspace file, root-relative.
pub struct FileScan {
    pub rel: String,
    pub src: String,
    pub scan: Scan,
}

impl FileScan {
    /// Whether the whole file is test code (an integration-test or bench
    /// tree), as opposed to a production file with embedded test regions.
    fn is_test_file(&self) -> bool {
        self.rel.starts_with("tests/")
            || self.rel.contains("/tests/")
            || self.rel.starts_with("benches/")
            || self.rel.contains("/benches/")
    }
}

/// The concatenated masked text of all test code in the workspace.
fn test_corpus(files: &[FileScan]) -> String {
    let mut corpus = String::new();
    for f in files {
        if f.is_test_file() {
            corpus.push_str(&f.scan.masked);
            corpus.push('\n');
        } else {
            for r in &f.scan.test_regions {
                corpus.push_str(&f.scan.masked[r.clone()]);
                corpus.push('\n');
            }
        }
    }
    corpus
}

fn waived(waivers: &[Waiver], key: &str) -> Option<String> {
    waivers
        .iter()
        .find(|w| w.key == key)
        .map(|w| w.reason.clone())
}

/// Whether `token` occurs in `haystack` with non-identifier characters on
/// both sides.
fn has_token(haystack: &str, token: &str) -> bool {
    let mut search = 0;
    while let Some(pos) = haystack[search..].find(token) {
        let at = search + pos;
        search = at + token.len();
        // A `.field` probe is anchored by its own dot; bare tokens need a
        // non-identifier character before them.
        let before_ok = token.starts_with('.') || at == 0 || {
            let b = haystack.as_bytes()[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after_ok = haystack
            .as_bytes()
            .get(at + token.len())
            .is_none_or(|&b| !(b.is_ascii_alphanumeric() || b == b'_'));
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// `drift-stats`: every `pub` field of the configured `*Stats` structs must
/// be read somewhere in test code (`.field` access), or carry a
/// `Struct.field` waiver in `lints.toml`.
pub fn stats(cfg: &Config, files: &[FileScan], out: &mut Vec<Violation>) {
    if cfg.stats_structs.is_empty() {
        return;
    }
    let corpus = test_corpus(files);
    for name in &cfg.stats_structs {
        let needle = format!("struct {name}");
        let Some((file, def_at)) = files.iter().find_map(|f| {
            let mut search = 0;
            while let Some(pos) = f.scan.masked[search..].find(&needle) {
                let at = search + pos;
                search = at + needle.len();
                // Word boundary after the name (`struct BrokerStatsExt`
                // must not match `BrokerStats`).
                let after = f.scan.masked.as_bytes().get(at + needle.len());
                if after.is_none_or(|&b| !(b.is_ascii_alphanumeric() || b == b'_')) {
                    return Some((f, at));
                }
            }
            None
        }) else {
            out.push(Violation {
                rule: "drift-stats",
                file: "lints.toml".to_owned(),
                line: 0,
                message: format!("configured stats struct `{name}` not found in the workspace"),
                waived: None,
            });
            continue;
        };
        let masked = &file.scan.masked;
        let Some(body_open) = masked[def_at..].find('{').map(|p| def_at + p) else {
            continue;
        };
        let body_end = crate::lexer::matching(masked.as_bytes(), body_open, b'{', b'}')
            .unwrap_or(masked.len());
        let body = &masked[body_open..body_end];
        for (field, field_at) in pub_fields(body) {
            let probe = format!(".{field}");
            if has_token(&corpus, &probe) {
                continue;
            }
            let key = format!("{name}.{field}");
            let line = line_of(&file.src, body_open + field_at);
            out.push(Violation {
                rule: "drift-stats",
                file: file.rel.clone(),
                line,
                message: format!("counter `{key}` is never asserted in any test"),
                waived: waived(&cfg.waive_stats, &key),
            });
        }
    }
}

/// Extracts `(field name, offset in body)` for each `pub <ident>:` field.
fn pub_fields(body: &str) -> Vec<(String, usize)> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut search = 0;
    while let Some(pos) = body[search..].find("pub ") {
        let at = search + pos;
        search = at + 4;
        if at > 0 {
            let prev = bytes[at - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let rest = &body[at + 4..];
        let name: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let after = rest.trim_start()[name.len()..].trim_start();
        if after.starts_with(':') {
            out.push((name, at));
        }
    }
    out
}

/// `drift-state-version`: every `const` definition site of a configured
/// format-version constant must be named by test code, so a version bump
/// cannot land without a migration test noticing.
pub fn state_version(cfg: &Config, files: &[FileScan], out: &mut Vec<Violation>) {
    let corpus = test_corpus(files);
    for name in &cfg.version_consts {
        if has_token(&corpus, name) {
            continue;
        }
        for f in files.iter().filter(|f| !f.is_test_file()) {
            let masked = &f.scan.masked;
            for (at, _) in masked.match_indices(name.as_str()) {
                // Only the definition site: `const <NAME>`.
                let line_start = masked[..at].rfind('\n').map_or(0, |p| p + 1);
                if f.scan.in_test_region(at) || !masked[line_start..at].contains("const ") {
                    continue;
                }
                out.push(Violation {
                    rule: "drift-state-version",
                    file: f.rel.clone(),
                    line: line_of(&f.src, at),
                    message: format!("`{name}` definition has no migration test referencing it"),
                    waived: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn fs(rel: &str, src: &str) -> FileScan {
        FileScan {
            rel: rel.to_owned(),
            src: src.to_owned(),
            scan: scan(src),
        }
    }

    #[test]
    fn unasserted_stats_field_is_flagged() {
        let def = "pub struct FooStats {\n    pub hits: u64,\n    pub misses: u64,\n}\n";
        let test = "#[test]\nfn t() { assert_eq!(s.hits, 1); }\n";
        let files = vec![fs("src/a.rs", def), fs("tests/t.rs", test)];
        let cfg = Config {
            stats_structs: vec!["FooStats".into()],
            ..Config::default()
        };
        let mut out = Vec::new();
        stats(&cfg, &files, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("FooStats.misses"));
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn state_version_needs_a_test_reference() {
        let prod = "pub const STATE_VERSION: u8 = 4;\npub const ENVELOPE_VERSION: u8 = 2;\n";
        let cfg = Config {
            version_consts: vec!["STATE_VERSION".into(), "ENVELOPE_VERSION".into()],
            ..Config::default()
        };
        let mut out = Vec::new();
        state_version(&cfg, &[fs("src/a.rs", prod)], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].rule, "drift-state-version");
        assert_eq!((out[0].line, out[1].line), (1, 2));
        assert!(out[1].message.contains("`ENVELOPE_VERSION`"));
        // A constant the list does not name is nobody's business.
        let unlisted = Config {
            version_consts: vec!["STATE_VERSION".into()],
            ..Config::default()
        };
        let mut out1 = Vec::new();
        state_version(&unlisted, &[fs("src/a.rs", prod)], &mut out1);
        assert_eq!(out1.len(), 1);

        // Each constant needs its own test: naming one covers one.
        let test = "#[test]\nfn migrates() { assert!(STATE_VERSION >= 4); }\n";
        let mut out2 = Vec::new();
        state_version(
            &cfg,
            &[fs("src/a.rs", prod), fs("tests/m.rs", test)],
            &mut out2,
        );
        assert_eq!(out2.len(), 1, "{out2:?}");
        assert!(out2[0].message.contains("`ENVELOPE_VERSION`"));
    }
}
