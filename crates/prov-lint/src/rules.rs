//! The per-file rule families: `no-panic`, `zero-alloc`, `lock-order`,
//! `lock-send`, and the waiver machinery shared by all of them.

use crate::config::Config;
use crate::lexer::{line_of, Scan};

/// One finding, waived or not.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Rule id (`no-panic`, `zero-alloc`, `lock-order`, `lock-send`,
    /// `drift-stats`, `drift-state-version`,
    /// `lint-directive`).
    pub rule: &'static str,
    /// Root-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    pub message: String,
    /// `Some(reason)` when a waiver covered the finding.
    pub waived: Option<String>,
}

/// Forbidden panic idioms in production modules. Tokens starting with `.`
/// are method-shaped and self-anchoring; bare names are macros and must not
/// be the tail of a longer identifier.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    ".unwrap_err()",
    ".expect_err(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Allocation idioms forbidden inside `zero-alloc` regions. The list is
/// textual: `.clone()` on a `Copy` type is a false positive a waiver can
/// document, while a missed allocation behind a helper call is what the
/// counting-allocator tests exist for — the two gates are complementary.
const ALLOC_TOKENS: &[&str] = &[
    "Vec::new",
    "vec![",
    ".to_vec(",
    "format!",
    "String::new",
    "String::from",
    ".to_string(",
    ".to_owned(",
    "Box::new",
    ".clone()",
    "with_capacity(",
    ".collect(",
    "HashMap::new",
    "BTreeMap::new",
    "VecDeque::new",
];

/// A `lint:allow(rule): reason` comment waiver, covering its own line and
/// the following one.
struct Waiver {
    rule: String,
    line: usize,
    reason: String,
}

/// Parses the well-formed waivers out of a scan's directives. Malformed
/// `allow` directives are reported by [`directive_lint`] — every rule
/// family calls this accessor, so it must not push diagnostics itself or
/// each finding would be duplicated per family.
fn waivers(scan: &Scan) -> Vec<Waiver> {
    let mut list = Vec::new();
    for d in &scan.directives {
        let Some(rest) = d.text.strip_prefix("allow(") else {
            continue;
        };
        let Some((rule, tail)) = rest.split_once(')') else {
            continue;
        };
        let reason = tail.trim_start_matches(':').trim();
        if reason.is_empty() {
            continue;
        }
        list.push(Waiver {
            rule: rule.trim().to_owned(),
            line: d.line,
            reason: reason.to_owned(),
        });
    }
    list
}

/// `lint-directive`: malformed `allow` waivers, reported once per file.
pub fn directive_lint(scan: &Scan, file: &str, out: &mut Vec<Violation>) {
    for d in &scan.directives {
        let Some(rest) = d.text.strip_prefix("allow(") else {
            continue;
        };
        let Some((rule, tail)) = rest.split_once(')') else {
            out.push(Violation {
                rule: "lint-directive",
                file: file.to_owned(),
                line: d.line,
                message: format!("malformed waiver `lint:{}`", d.text),
                waived: None,
            });
            continue;
        };
        let reason = tail.trim_start_matches(':').trim();
        if reason.is_empty() {
            out.push(Violation {
                rule: "lint-directive",
                file: file.to_owned(),
                line: d.line,
                message: format!(
                    "waiver `lint:allow({rule})` needs a reason: `lint:allow({rule}): <why the invariant holds>`"
                ),
                waived: None,
            });
        }
    }
}

/// Applies waivers to a raw finding: a waiver for the same rule on the same
/// line (trailing comment) or the preceding line (standalone comment).
fn apply_waiver(waivers: &[Waiver], rule: &str, line: usize) -> Option<String> {
    waivers
        .iter()
        .find(|w| w.rule == rule && (w.line == line || w.line + 1 == line))
        .map(|w| w.reason.clone())
}

/// Byte offsets of `token` occurrences in `masked`, boundary-checked.
fn token_hits(masked: &str, token: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let anchored = token.starts_with('.') || token.starts_with('[');
    let mut search = 0;
    while let Some(pos) = masked[search..].find(token) {
        let at = search + pos;
        search = at + token.len();
        if !anchored {
            // Macros and type paths: reject matches that are the tail of a
            // longer identifier (`dont_panic!`, `MyVec::new`).
            if at > 0 {
                let prev = masked.as_bytes()[at - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
        }
        hits.push(at);
    }
    hits
}

/// Runs `no-panic` over one production-module file.
pub fn no_panic(scan: &Scan, src: &str, file: &str, out: &mut Vec<Violation>) {
    let ws = waivers(scan);
    for &token in PANIC_TOKENS {
        for at in token_hits(&scan.masked, token) {
            if scan.in_test_region(at) {
                continue;
            }
            let line = line_of(src, at);
            out.push(Violation {
                rule: "no-panic",
                file: file.to_owned(),
                line,
                message: format!("`{}` in a production module", token.trim_end_matches('(')),
                waived: apply_waiver(&ws, "no-panic", line),
            });
        }
    }
}

/// Runs `zero-alloc` over one file's annotated regions.
pub fn zero_alloc(scan: &Scan, src: &str, file: &str, out: &mut Vec<Violation>) {
    let ws = waivers(scan);
    // Pair up begin/end directives into regions.
    let mut regions: Vec<(usize, usize)> = Vec::new();
    let mut open: Option<(usize, usize)> = None; // (offset, line)
    for d in &scan.directives {
        match d.text.as_str() {
            "zero-alloc-begin" => {
                if let Some((_, line)) = open {
                    out.push(Violation {
                        rule: "lint-directive",
                        file: file.to_owned(),
                        line: d.line,
                        message: format!(
                            "nested `zero-alloc-begin` (previous opened on line {line})"
                        ),
                        waived: None,
                    });
                }
                open = Some((d.offset, d.line));
            }
            "zero-alloc-end" => match open.take() {
                Some((start, _)) => regions.push((start, d.offset)),
                None => out.push(Violation {
                    rule: "lint-directive",
                    file: file.to_owned(),
                    line: d.line,
                    message: "`zero-alloc-end` without a matching begin".to_owned(),
                    waived: None,
                }),
            },
            _ => {}
        }
    }
    if let Some((_, line)) = open {
        out.push(Violation {
            rule: "lint-directive",
            file: file.to_owned(),
            line,
            message: "`zero-alloc-begin` never closed".to_owned(),
            waived: None,
        });
    }
    if regions.is_empty() {
        return;
    }
    let mut finding = |at: usize, message: String| {
        if regions.iter().any(|&(s, e)| at > s && at < e) {
            let line = line_of(src, at);
            out.push(Violation {
                rule: "zero-alloc",
                file: file.to_owned(),
                line,
                message,
                waived: apply_waiver(&ws, "zero-alloc", line),
            });
        }
    };
    for &token in ALLOC_TOKENS {
        for at in token_hits(&scan.masked, token) {
            let idiom = token.trim_end_matches('(');
            finding(
                at,
                format!("allocation idiom `{idiom}` inside a zero-alloc region"),
            );
        }
    }
    // A hashed table grows when an insert finds it full, and the tombstones
    // its removals leave can fill it long after warm-up, at a moment its
    // hash seed picks: the counting tests see that in a few runs of a
    // hundred, this rule in every one.
    for name in hashed_names(&scan.masked) {
        for method in [".insert(", ".entry("] {
            let call = format!("{name}{method}");
            for at in token_hits(&scan.masked, &call) {
                let call = call.trim_end_matches('(');
                let message = format!("`{call}` on a hashed table inside a zero-alloc region");
                finding(at, message);
            }
        }
    }
}

/// The names this file gives a `HashMap` or `HashSet`, as a field, a typed
/// `let` or a parameter: `name: HashMap<…>`, `name: &mut HashSet<…>`.
fn hashed_names(masked: &str) -> Vec<&str> {
    let bytes = masked.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut names = Vec::new();
    for ty in ["HashMap<", "HashSet<"] {
        for at in token_hits(masked, ty) {
            let mut head = masked[..at].trim_end();
            // The type's path: `std::collections::HashMap<`.
            while let Some(path) = head.strip_suffix("::") {
                head = path.trim_end_matches(|c: char| c.is_ascii_alphanumeric() || c == '_');
            }
            for prefix in ["mut", "&"] {
                head = head.strip_suffix(prefix).unwrap_or(head).trim_end();
            }
            let Some(head) = head.strip_suffix(':').filter(|h| !h.ends_with(':')) else {
                continue;
            };
            let head = head.trim_end();
            let start = head
                .bytes()
                .rposition(|b| !is_ident(b))
                .map_or(0, |i| i + 1);
            if start < head.len() && !bytes[start].is_ascii_digit() {
                names.push(&head[start..]);
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// How long an acquired guard lives.
#[derive(Clone, Copy, Debug, PartialEq)]
enum GuardScope {
    /// `let g = x.lock();` — until the enclosing block closes.
    Block,
    /// A temporary (`x.lock().do()`) — until the statement's `;`.
    Statement,
}

#[derive(Debug)]
struct Guard {
    /// Receiver identifier, e.g. `broker`.
    name: String,
    /// Index in the configured hierarchy.
    rank: usize,
    /// Bound variable, for `drop(var)` tracking.
    var: Option<String>,
    /// Brace depth at acquisition.
    depth: usize,
    scope: GuardScope,
}

/// Runs `lock-order` + `lock-send` over one file.
pub fn lock_order(scan: &Scan, src: &str, file: &str, cfg: &Config, out: &mut Vec<Violation>) {
    if cfg.lock_hierarchy.is_empty() {
        return;
    }
    let ws = waivers(scan);
    let masked = &scan.masked;
    let bytes = masked.as_bytes();

    // Collect interesting events in offset order: acquisitions, sends,
    // drops. Then replay them against a brace walk.
    #[derive(Debug)]
    enum Event {
        Acquire {
            at: usize,
            name: String,
            rank: usize,
            var: Option<String>,
            scope: GuardScope,
        },
        Send {
            at: usize,
            token: String,
        },
        Drop {
            at: usize,
            var: String,
        },
    }
    let mut events: Vec<Event> = Vec::new();
    for token in [".lock()", ".read()", ".write()"] {
        for at in token_hits(masked, token) {
            if scan.in_test_region(at) {
                continue;
            }
            let Some(name) = receiver_name(bytes, at) else {
                continue;
            };
            let Some(rank) = cfg.lock_hierarchy.iter().position(|h| h == &name) else {
                continue;
            };
            let stmt = statement_start(bytes, at);
            let (is_let, var) = let_binding(masked, stmt, at);
            let after = at + token.len();
            let ends_stmt = masked[after..]
                .bytes()
                .find(|b| !b.is_ascii_whitespace())
                .is_none_or(|b| b == b';');
            let scope = if is_let && ends_stmt {
                GuardScope::Block
            } else {
                GuardScope::Statement
            };
            events.push(Event::Acquire {
                at,
                name,
                rank,
                var,
                scope,
            });
        }
    }
    for token in &cfg.send_tokens {
        for at in token_hits(masked, token) {
            if scan.in_test_region(at) {
                continue;
            }
            events.push(Event::Send {
                at,
                token: token.clone(),
            });
        }
    }
    for at in token_hits(masked, "drop(") {
        if scan.in_test_region(at) {
            continue;
        }
        let inner = &masked[at + "drop(".len()..];
        let var: String = inner
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !var.is_empty() {
            events.push(Event::Drop { at, var });
        }
    }
    events.sort_by_key(|e| match e {
        Event::Acquire { at, .. } | Event::Send { at, .. } | Event::Drop { at, .. } => *at,
    });

    // Replay: walk braces and statement ends, expiring guards as scopes
    // close, checking each acquisition/send against the held set.
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut ev = events.iter().peekable();
    for (i, &b) in bytes.iter().enumerate() {
        while let Some(e) = ev.peek() {
            let at = match e {
                Event::Acquire { at, .. } | Event::Send { at, .. } | Event::Drop { at, .. } => *at,
            };
            if at > i {
                break;
            }
            match ev.next().expect("peeked") {
                Event::Acquire {
                    at,
                    name,
                    rank,
                    var,
                    scope,
                } => {
                    let line = line_of(src, *at);
                    for held in &guards {
                        if held.rank >= *rank {
                            out.push(Violation {
                                rule: "lock-order",
                                file: file.to_owned(),
                                line,
                                message: format!(
                                    "`{name}` (rank {rank}) acquired while holding `{}` (rank {}): \
                                     declared order is {:?}",
                                    held.name, held.rank, cfg.lock_hierarchy
                                ),
                                waived: apply_waiver(&ws, "lock-order", line),
                            });
                        }
                    }
                    guards.push(Guard {
                        name: name.clone(),
                        rank: *rank,
                        var: var.clone(),
                        depth,
                        scope: *scope,
                    });
                }
                Event::Send { at, token } => {
                    let line = line_of(src, *at);
                    for held in &guards {
                        if cfg.no_send_while_holding.contains(&held.name) {
                            out.push(Violation {
                                rule: "lock-send",
                                file: file.to_owned(),
                                line,
                                message: format!(
                                    "blocking send `{}` while holding `{}` lock — drain under the \
                                     lock, flush after unlock",
                                    token.trim_end_matches('('),
                                    held.name
                                ),
                                waived: apply_waiver(&ws, "lock-send", line),
                            });
                        }
                    }
                }
                Event::Drop { var, .. } => {
                    guards.retain(|g| g.var.as_deref() != Some(var.as_str()));
                }
            }
        }
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            b';' => guards.retain(|g| !(g.scope == GuardScope::Statement && g.depth == depth)),
            _ => {}
        }
    }
}

/// The receiver identifier of a method call whose `.` sits at `dot`:
/// `self.broker.lock()` → `broker`; `locks[i].read()` → `locks`;
/// `sessions.get(s).write()` → `get`.
fn receiver_name(bytes: &[u8], dot: usize) -> Option<String> {
    let mut i = dot; // index one past the component we are examining
    loop {
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        match bytes[i - 1] {
            b']' => i = matching_back(bytes, i - 1, b'[', b']')?,
            b')' => {
                // A call: the identifier before the `(` names it.
                let open = matching_back(bytes, i - 1, b'(', b')')?;
                let end = open;
                let start = ident_start(bytes, end);
                if start < end {
                    return Some(String::from_utf8_lossy(&bytes[start..end]).into_owned());
                }
                i = open;
            }
            c if c.is_ascii_alphanumeric() || c == b'_' => {
                let start = ident_start(bytes, i);
                return Some(String::from_utf8_lossy(&bytes[start..i]).into_owned());
            }
            _ => return None,
        }
    }
}

/// Index of the opening bracket matching the closer at `close`.
fn matching_back(bytes: &[u8], close: usize, open_b: u8, close_b: u8) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = close;
    loop {
        if bytes[i] == close_b {
            depth += 1;
        } else if bytes[i] == open_b {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}

fn ident_start(bytes: &[u8], end: usize) -> usize {
    let mut start = end;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    start
}

/// Offset just past the previous statement boundary (`;`, `{`, `}`).
fn statement_start(bytes: &[u8], at: usize) -> usize {
    let mut i = at;
    while i > 0 {
        match bytes[i - 1] {
            b';' | b'{' | b'}' => return i,
            _ => i -= 1,
        }
    }
    0
}

/// Whether the statement holding `at` is a `let`, and the bound identifier
/// when the pattern is a plain (possibly `mut`) name.
fn let_binding(masked: &str, stmt_start: usize, at: usize) -> (bool, Option<String>) {
    let stmt = masked[stmt_start..at].trim_start();
    let Some(rest) = stmt.strip_prefix("let ") else {
        return (false, None);
    };
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let var: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (true, (!var.is_empty()).then_some(var))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn cfg() -> Config {
        Config {
            lock_hierarchy: vec!["broker".into(), "store".into(), "pool".into()],
            no_send_while_holding: vec!["broker".into()],
            send_tokens: vec!["socket.send_to(".into(), "socket.send(".into()],
            ..Config::default()
        }
    }

    #[test]
    fn no_panic_flags_and_waives() {
        let src = "fn f() {\n    x.unwrap();\n    // lint:allow(no-panic): length checked above\n    y.unwrap();\n}\n";
        let s = scan(src);
        let mut out = Vec::new();
        no_panic(&s, src, "f.rs", &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].line, out[0].waived.is_none()), (2, true));
        assert_eq!(out[1].line, 4);
        assert_eq!(out[1].waived.as_deref(), Some("length checked above"));
    }

    #[test]
    fn zero_alloc_region_flags_inside_only() {
        let src = "fn a() { let v = Vec::new(); }\n// lint: zero-alloc-begin\nfn hot() { let v = vec![1]; }\n// lint: zero-alloc-end\nfn b() { format!(\"x\"); }\n";
        let s = scan(src);
        let mut out = Vec::new();
        zero_alloc(&s, src, "f.rs", &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "zero-alloc");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn zero_alloc_region_flags_hashed_inserts() {
        let src = "struct S {\n    seen: HashSet<u16>,\n    by: std::collections::HashMap<u8, u8>,\n    list: Vec<u16>,\n}\n// lint: zero-alloc-begin\nfn hot(s: &mut S, m: &mut HashMap<u8, u8>) {\n    s.seen.insert(1);\n    s.by.entry(2).or_default();\n    m.insert(3, 3);\n    s.list.insert(0, 4);\n    // lint:allow(zero-alloc): one entry per device\n    s.by.insert(5, 5);\n}\n// lint: zero-alloc-end\nfn cold(s: &mut S) { s.seen.insert(6); }\n";
        let s = scan(src);
        assert_eq!(hashed_names(&s.masked), ["by", "m", "seen"]);
        let mut out = Vec::new();
        zero_alloc(&s, src, "f.rs", &mut out);
        let lines: Vec<(usize, bool)> = out.iter().map(|v| (v.line, v.waived.is_some())).collect();
        assert_eq!(lines.len(), 4, "{out:?}");
        for line in [(8, false), (9, false), (10, false), (13, true)] {
            assert!(lines.contains(&line), "{line:?} in {out:?}");
        }
        assert!(out.iter().all(|v| v.rule == "zero-alloc"));
    }

    #[test]
    fn lock_order_inversion_is_flagged() {
        let src = "fn f(a: L, b: L) {\n    let g = pool.lock();\n    let h = broker.lock();\n}\n";
        let s = scan(src);
        let mut out = Vec::new();
        lock_order(&s, src, "f.rs", &cfg(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lock-order");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn correct_order_and_scope_expiry_pass() {
        let src = "fn f() {\n    {\n        let g = broker.lock();\n        let h = pool.lock();\n    }\n    let p = pool.lock();\n    drop(p);\n    let q = broker.lock();\n    socket.send_to(b, a);\n}\n";
        // The final send happens while `q` (broker) is held → lock-send;
        // everything before is ordered or expired.
        let s = scan(src);
        let mut out = Vec::new();
        lock_order(&s, src, "f.rs", &cfg(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lock-send");
        assert_eq!(out[0].line, 9);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn f() {\n    let x = broker.lock().stats();\n    socket.send_to(b, a);\n}\n";
        let s = scan(src);
        let mut out = Vec::new();
        lock_order(&s, src, "f.rs", &cfg(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn send_under_block_guard_is_flagged() {
        let src = "fn f() {\n    let b = broker.lock();\n    socket.send(x);\n}\n";
        let s = scan(src);
        let mut out = Vec::new();
        lock_order(&s, src, "f.rs", &cfg(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lock-send");
    }

    /// The workspace's own `send_tokens` name every way `mqtt-sn::net`
    /// sends — straight on a socket, or through its endpoint — and a send
    /// spelt any way they list, under a `broker` guard, is a finding.
    #[test]
    fn every_configured_send_spelling_under_a_broker_guard_is_a_finding() {
        let cfg = crate::config::parse(include_str!("../../../lints.toml")).expect("lints.toml");
        for spelling in [
            "socket.send_to(",
            "socket.send(",
            "endpoint.send(",
            "endpoint.flush(",
        ] {
            assert!(cfg.send_tokens.iter().any(|t| t == spelling), "{spelling}");
        }
        for token in &cfg.send_tokens {
            let src = format!("fn f() {{\n    let b = broker.lock();\n    {token}x);\n}}\n");
            let s = scan(&src);
            let mut out = Vec::new();
            lock_order(&s, &src, "f.rs", &cfg, &mut out);
            assert_eq!(out.len(), 1, "{token}: {out:?}");
            assert_eq!((out[0].rule, out[0].line), ("lock-send", 3), "{token}");
        }
    }

    #[test]
    fn receiver_names_resolve_through_chains() {
        let b = b"self.locks[self.index_of(w)].read()";
        let dot = b.len() - ".read()".len();
        assert_eq!(receiver_name(b, dot).as_deref(), Some("locks"));
        let b2 = b"sessions.get(s).write()";
        let dot2 = b2.len() - ".write()".len();
        assert_eq!(receiver_name(b2, dot2).as_deref(), Some("get"));
    }
}
