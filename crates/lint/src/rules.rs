//! The per-file (pass 1) rule check and the audited-suppression
//! machinery.
//!
//! Two entry points:
//!
//! * [`analyze_source`] is the pass-1 half: lex, run the token rule
//!   if its scope covers the file, parse the suppression comments and
//!   build the file's [`FileModel`] — *without* resolving suppressions,
//!   because the workspace semantic pass may still add findings that the
//!   same allows must be able to cover.
//! * [`resolve_file`] applies the allows to the combined finding list
//!   (token + semantic), flagging unused allows.
//!
//! [`lint_source`] composes the two for single-file use (tests, fixture
//! checks); the engine interleaves the semantic pass between them.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::model::FileModel;

/// Keywords that open an item, so a `#[cfg(test)]` before them gates the
/// whole item body rather than one field or statement.
const ITEM_KEYWORDS: [&str; 14] = [
    "pub",
    "fn",
    "mod",
    "impl",
    "struct",
    "enum",
    "trait",
    "const",
    "static",
    "type",
    "use",
    "unsafe",
    "extern",
    "macro_rules",
];

/// Function-name markers for the simulator's per-cycle entry points in
/// `crates/core`/`crates/mem`: a `for`/`while`/`loop` body inside a
/// function whose name contains one of these is a hot loop, where a
/// per-iteration allocation multiplies every sweep's wall clock.
const HOT_FN_MARKERS: [&str; 7] = [
    "tick", "advance", "step", "issue", "probe", "install", "progress",
];

/// A parsed `nvr-lint: allow(rule) reason="..."` comment — the
/// serializable half (the runtime `used` flag lives in [`resolve_file`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllowData {
    /// The rule being suppressed.
    pub rule: Rule,
    /// Line of the comment itself.
    pub line: u32,
    /// Whether the comment stands alone above the code it annotates (in
    /// which case it also covers the following line).
    pub standalone: bool,
}

impl AllowData {
    fn covers(self, rule: Rule, line: u32) -> bool {
        self.rule == rule && (line == self.line || (self.standalone && line == self.line + 1))
    }
}

/// Everything pass 1 learns about one file — pure in the file contents.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Token-rule findings, *before* suppression resolution.
    pub findings: Vec<Diagnostic>,
    /// Well-formed suppression comments.
    pub allows: Vec<AllowData>,
    /// Malformed-allow diagnostics (never suppressible).
    pub malformed: Vec<Diagnostic>,
    /// The file's slice of the workspace model.
    pub model: FileModel,
}

/// Pass 1 for one file: token rule + suppression comments + file model.
/// `rel` is the workspace-relative path with forward slashes — rule
/// scoping keys off it.
#[must_use]
pub fn analyze_source(rel: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let test_lines = cfg_test_lines(&lexed);
    let mut findings: Vec<Diagnostic> = Vec::new();

    check_hot_loop_alloc(rel, &lexed, &test_lines, &mut findings);

    let (allows, malformed) = parse_allows(rel, &lexed);
    FileAnalysis {
        findings,
        allows,
        malformed,
        model: crate::parser::parse_file(rel, &lexed),
    }
}

/// Resolves suppressions over the combined finding list of one file: a
/// finding covered by an allow is dropped and marks the allow used;
/// unused allows become findings themselves. Returns the surviving
/// diagnostics in (line, rule) order.
#[must_use]
pub fn resolve_file(
    rel: &str,
    findings: Vec<Diagnostic>,
    allows: &[AllowData],
    malformed: Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    let mut used = vec![false; allows.len()];
    let mut diags = malformed;
    for d in findings {
        match allows.iter().position(|a| a.covers(d.rule, d.line)) {
            Some(i) => used[i] = true,
            None => diags.push(d),
        }
    }
    for (allow, used) in allows.iter().zip(used) {
        if !used {
            diags.push(Diagnostic {
                rule: Rule::UnusedAllow,
                file: rel.into(),
                line: allow.line,
                message: format!(
                    "allow({}) suppresses nothing — remove it so the audit trail stays honest",
                    allow.rule
                ),
            });
        }
    }
    diags.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.name().cmp(b.rule.name())));
    diags
}

/// Lints one file's source with the per-file rule only (no workspace
/// semantic pass): pass 1 plus suppression resolution.
#[must_use]
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let analysis = analyze_source(rel, src);
    resolve_file(rel, analysis.findings, &analysis.allows, analysis.malformed)
}

/// Parses every suppression comment; returns well-formed allows plus
/// diagnostics for malformed ones.
fn parse_allows(rel: &str, lexed: &Lexed) -> (Vec<AllowData>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for comment in &lexed.comments {
        // Suppressions live in plain comments only: doc comments merely
        // *describe* the syntax (rustdoc, this file) and never suppress.
        let is_doc = ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| comment.text.starts_with(p));
        if is_doc {
            continue;
        }
        let Some(idx) = comment.text.find("nvr-lint:") else {
            continue;
        };
        let body = &comment.text[idx + "nvr-lint:".len()..];
        let mut malformed = |msg: String| {
            diags.push(Diagnostic {
                rule: Rule::MalformedAllow,
                file: rel.into(),
                line: comment.line,
                message: msg,
            });
        };
        let Some(open) = body.find("allow(") else {
            malformed("expected `allow(rule)` after `nvr-lint:`".into());
            continue;
        };
        let after = &body[open + "allow(".len()..];
        let Some(close) = after.find(')') else {
            malformed("unclosed `allow(` — expected `allow(rule)`".into());
            continue;
        };
        let rule_name = after[..close].trim();
        let Some(rule) = Rule::from_name(rule_name) else {
            malformed(format!(
                "unknown rule `{rule_name}` (run `nvr-lint --list-rules` for the catalogue)"
            ));
            continue;
        };
        let rest = &after[close + 1..];
        let reason = rest
            .find("reason=\"")
            .map(|r| &rest[r + "reason=\"".len()..])
            .and_then(|tail| tail.find('"').map(|end| tail[..end].trim()));
        match reason {
            Some(r) if !r.is_empty() => allows.push(AllowData {
                rule,
                line: comment.line,
                standalone: !lexed.has_code_on_line(comment.line),
            }),
            _ => malformed(format!(
                "allow({rule}) needs a non-empty reason=\"...\" — suppressions are audited"
            )),
        }
    }
    (allows, diags)
}

/// Lines covered by `#[cfg(test)]` items: rules that police production
/// tick paths skip these (tests allocate freely, by design). The parser
/// reuses it to stamp [`crate::model::FileModel::test_ranges`].
pub(crate) fn cfg_test_lines(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = tok_is(&toks[i], "#")
            && tok_is(&toks[i + 1], "[")
            && ident_is(&toks[i + 2], "cfg")
            && tok_is(&toks[i + 3], "(")
            && ident_is(&toks[i + 4], "test")
            && tok_is(&toks[i + 5], ")")
            && tok_is(&toks[i + 6], "]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // A gated field, struct-literal field or statement (anything that
        // is not an item) ends at its first `,` or `;` outside brackets, or
        // at the close of the enclosing block.
        let is_item = toks.get(i + 7).is_some_and(|t| {
            tok_is(t, "#") || (t.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()))
        });
        if !is_item {
            let mut j = i + 7;
            let mut depth = 0i64;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('(' | '[' | '{') => depth += 1,
                    TokKind::Punct(')' | ']' | '}') if depth == 0 => break,
                    TokKind::Punct(')' | ']' | '}') => depth -= 1,
                    TokKind::Punct(',' | ';') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let end = toks.get(j).map_or(u32::MAX, |t| t.line);
            ranges.push((toks[i].line, end));
            i = j;
            continue;
        }
        // Find the body's opening brace, then its matching close.
        let mut j = i + 7;
        while j < toks.len() && !tok_is(&toks[j], "{") {
            // A `;` first means a braceless item (e.g. `mod tests;`).
            if tok_is(&toks[j], ";") {
                break;
            }
            j += 1;
        }
        if j >= toks.len() || !tok_is(&toks[j], "{") {
            i = j;
            continue;
        }
        let start = toks[i].line;
        let mut depth = 0i64;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let end = toks.get(j).map_or(u32::MAX, |t| t.line);
        ranges.push((start, end));
        i = j + 1;
    }
    ranges
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

fn tok_is(tok: &Tok, text: &str) -> bool {
    match tok.kind {
        TokKind::Punct(c) => text.len() == 1 && text.starts_with(c),
        _ => false,
    }
}

fn ident_is(tok: &Tok, text: &str) -> bool {
    tok.kind == TokKind::Ident && tok.text == text
}

fn push(diags: &mut Vec<Diagnostic>, rule: Rule, rel: &str, line: u32, message: String) {
    diags.push(Diagnostic {
        rule,
        file: rel.into(),
        line,
        message,
    });
}

/// The first `{` at or after `from` together with its matching `}`, as
/// token indices. Returns `None` when a `;` arrives first (no block — a
/// trait-method signature) or the braces never balance.
fn brace_block(toks: &[Tok], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    while i < toks.len() && !tok_is(&toks[i], "{") {
        if tok_is(&toks[i], ";") {
            return None;
        }
        i += 1;
    }
    let open = i;
    let mut depth = 0i64;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Flags per-iteration `Vec`/`String`/`Box` allocation (constructors,
/// `vec!`/`format!`, `.to_vec()`/`.to_string()`/`.to_owned()`/
/// `.collect()`) inside `for`/`while`/`loop` bodies of the named hot
/// functions of `crates/core`/`crates/mem`.
fn check_hot_loop_alloc(
    rel: &str,
    lexed: &Lexed,
    test_lines: &[(u32, u32)],
    diags: &mut Vec<Diagnostic>,
) {
    if !(rel.starts_with("crates/core/") || rel.starts_with("crates/mem/")) {
        return;
    }
    let toks = &lexed.toks;
    // Body spans of the hot functions (token index ranges).
    let mut hot_spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_hot_fn = ident_is(&toks[i], "fn")
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && HOT_FN_MARKERS.iter().any(|m| t.text.contains(m))
            })
            && !in_ranges(test_lines, toks[i].line);
        if is_hot_fn {
            if let Some(span) = brace_block(toks, i + 2) {
                hot_spans.push(span);
            }
        }
        i += 1;
    }
    // Loop bodies inside those functions.
    let mut loop_spans: Vec<(usize, usize)> = Vec::new();
    for &(fs, fe) in &hot_spans {
        for j in fs..=fe {
            let is_loop = toks[j].kind == TokKind::Ident
                && matches!(toks[j].text.as_str(), "for" | "while" | "loop");
            if is_loop {
                if let Some((open, close)) = brace_block(toks, j + 1) {
                    if close <= fe {
                        loop_spans.push((open, close));
                    }
                }
            }
        }
    }
    // Allocation sites, deduplicated by token index (nested loops overlap).
    let mut flagged: Vec<usize> = Vec::new();
    for &(ls, le) in &loop_spans {
        for k in ls..=le {
            let Some(what) = alloc_site(toks, k) else {
                continue;
            };
            if flagged.contains(&k) {
                continue;
            }
            flagged.push(k);
            push(
                diags,
                Rule::HotLoopAlloc,
                rel,
                toks[k].line,
                format!(
                    "{what} allocates on every iteration of a hot tick/advance loop; \
                     hoist the buffer out of the loop and reuse it, or justify a \
                     genuinely cold path with an allow"
                ),
            );
        }
    }
}

/// `Some(description)` when the token at `k` starts an allocating
/// expression: a `Vec`/`String`/`Box` constructor, a `vec!`/`format!`
/// invocation, or an allocating method call.
fn alloc_site(toks: &[Tok], k: usize) -> Option<String> {
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text.as_str() {
        "Vec" | "String" | "Box" => {
            let path = tok_is(toks.get(k + 1)?, ":") && tok_is(toks.get(k + 2)?, ":");
            let m = toks.get(k + 3)?;
            let ctor = m.kind == TokKind::Ident
                && matches!(m.text.as_str(), "new" | "from" | "with_capacity");
            (path && ctor).then(|| format!("`{}::{}`", t.text, m.text))
        }
        "vec" | "format" if tok_is(toks.get(k + 1)?, "!") => Some(format!("`{}!`", t.text)),
        "to_string" | "to_owned" | "to_vec" | "collect" => {
            let method_call = k > 0
                && tok_is(&toks[k - 1], ".")
                && toks
                    .get(k + 1)
                    .is_some_and(|n| tok_is(n, "(") || tok_is(n, ":"));
            method_call.then(|| format!("`.{}()`", t.text))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(rel: &str, src: &str) -> Vec<Rule> {
        lint_source(rel, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn suppression_consumes_finding() {
        let src = "fn tick() {\n    loop {\n        let v: Vec<u64> = Vec::new(); \
                   // nvr-lint: allow(perf/hot-loop-alloc) reason=\"fixture\"\n    }\n}\n";
        assert!(rules_fired("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn standalone_allow_covers_next_line() {
        let src = "fn tick() {\n    loop {\n        \
                   // nvr-lint: allow(perf/hot-loop-alloc) reason=\"fixture\"\n        \
                   let v: Vec<u64> = Vec::new();\n    }\n}\n";
        assert!(rules_fired("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let src = "// nvr-lint: allow(perf/hot-loop-alloc)\nlet x = 1;\n";
        assert_eq!(
            rules_fired("crates/llm/src/x.rs", src),
            [Rule::MalformedAllow]
        );
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = "// nvr-lint: allow(units/suffix-mix) reason=\"stale\"\nlet x = 1;\n";
        assert_eq!(rules_fired("crates/llm/src/x.rs", src), [Rule::UnusedAllow]);
    }

    #[test]
    fn cfg_test_field_and_statement_cover_only_themselves() {
        // A test-only field and statement must not exempt the code after
        // them: the hot function below is still checked.
        let src = "struct C {\n    a: u64,\n    #[cfg(test)]\n    n: std::cell::Cell<u64>,\n}\n\
                   fn tick(c: &C) {\n    #[cfg(test)]\n    let _ = c.n.get();\n    \
                   for _ in 0..c.a {\n        let v: Vec<u64> = Vec::new();\n    }\n}\n";
        assert_eq!(cfg_test_lines(&lex(src)), [(3, 4), (7, 8)]);
        let fired = rules_fired("crates/mem/src/dram.rs", src);
        assert_eq!(fired, [Rule::HotLoopAlloc]); // the allocation in the loop
    }
}
