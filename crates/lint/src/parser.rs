//! The file-level parser: one linear scan over a file's token stream
//! producing a [`FileModel`].
//!
//! This is deliberately not a Rust parser. It records exactly what the
//! semantic rule queries — `lhs ± rhs` sites between unit-suffixed
//! identifiers — and the file's `#[cfg(test)]` ranges, and skips
//! everything else. The lexer guarantees comments/strings/raw
//! identifiers can never fake an operand to this pass.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::model::{FileModel, UnitOpSite};

/// The unit vocabulary of the `units/suffix-mix` rule.
const UNIT_SUFFIXES: [&str; 4] = ["_cycles", "_ns", "_bytes", "_lines"];

/// The unit suffix an identifier carries, if any.
#[must_use]
pub fn unit_suffix(name: &str) -> Option<&'static str> {
    UNIT_SUFFIXES.iter().copied().find(|s| name.ends_with(s))
}

/// Parses one lexed file into its [`FileModel`]. Never fails: malformed
/// shapes are skipped, not reported — the compiler owns syntax errors.
#[must_use]
pub fn parse_file(rel: &str, lexed: &Lexed) -> FileModel {
    let toks = &lexed.toks;
    let mut model = FileModel {
        path: rel.to_string(),
        test_ranges: crate::rules::cfg_test_lines(lexed),
        ..FileModel::default()
    };

    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        // `lhs ± rhs` between identifiers. `->`, `+=`, `-=` and unary
        // minus all fail the Ident-operator-Ident shape on their own.
        let Some(op) = toks.get(i + 1) else { continue };
        if matches!(op.kind, TokKind::Punct('+') | TokKind::Punct('-'))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
        {
            // The right operand may be a dotted chain
            // (`self.cfg.latency_ns`); its unit lives on the last
            // segment. The left operand's last segment is `tok`
            // already — the lexer hands segments one at a time.
            let mut j = i + 2;
            while is_punct(toks.get(j + 1), '.')
                && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                j += 2;
            }
            if unit_suffix(&tok.text).is_some() && unit_suffix(&toks[j].text).is_some() {
                model.unit_ops.push(UnitOpSite {
                    line: op.line,
                    lhs: tok.text.clone(),
                    rhs: toks[j].text.clone(),
                });
            }
        }
    }
    model
}

fn is_punct(tok: Option<&Tok>, c: char) -> bool {
    tok.is_some_and(|t| t.kind == TokKind::Punct(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileModel {
        parse_file("crates/core/src/x.rs", &lex(src))
    }

    #[test]
    fn unit_ops_recorded() {
        let m = parse(
            "fn f() {\n  let h = \"tile,cycles\\n\";\n  let not = \"a b c\";\n  \
             let x = total_cycles + row_bytes;\n  let y = a_cycles - b_cycles;\n  \
             let z = lat_ns + self.cfg.dram_cycles;\n}\n",
        );
        let pairs: Vec<(&str, &str)> = m
            .unit_ops
            .iter()
            .map(|u| (u.lhs.as_str(), u.rhs.as_str()))
            .collect();
        assert_eq!(
            pairs,
            [
                ("total_cycles", "row_bytes"),
                ("a_cycles", "b_cycles"),
                ("lat_ns", "dram_cycles")
            ]
        );
    }

    #[test]
    fn cfg_test_ranges_recorded() {
        let m = parse("fn f() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\n");
        assert_eq!(m.test_ranges.len(), 1);
        assert!(m.in_test_code(4));
        assert!(!m.in_test_code(1));
    }
}
