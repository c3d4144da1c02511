//! Pass 2: the cross-file semantic rule over the [`WorkspaceModel`].
//!
//! Everything here is a pure query against the model built by pass 1 —
//! no file IO, no lexing. The engine resolves `allow(...)` suppressions
//! *after* this pass, so a semantic finding is suppressible exactly like
//! a token-rule finding.

use crate::diag::{Diagnostic, Rule};
use crate::model::WorkspaceModel;
use crate::parser::unit_suffix;

/// Runs every semantic rule.
#[must_use]
pub fn run(model: &WorkspaceModel) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_suffix_mix(model, &mut diags);
    diags
}

/// `units/suffix-mix`: `a_cycles + b_bytes` style arithmetic, unless a
/// named conversion (`*_per_*`, `to_*`, `from_*`) sits on either side.
fn check_suffix_mix(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    let is_conversion = |name: &str| {
        name.contains("per_")
            || name.starts_with("to_")
            || name.starts_with("from_")
            || name.contains("_to_")
            || name.contains("_from_")
    };
    for file in &model.files {
        for op in &file.unit_ops {
            let (Some(lu), Some(ru)) = (unit_suffix(&op.lhs), unit_suffix(&op.rhs)) else {
                continue;
            };
            if lu == ru || is_conversion(&op.lhs) || is_conversion(&op.rhs) {
                continue;
            }
            if file.in_test_code(op.line) {
                continue;
            }
            diags.push(Diagnostic {
                rule: Rule::SuffixMix,
                file: file.path.clone(),
                line: op.line,
                message: format!(
                    "`{}` ({}) and `{}` ({}) are added/subtracted across units; \
                     route the conversion through a named *_per_*/to_*/from_* \
                     identifier",
                    op.lhs, lu, op.rhs, ru
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn model(files: &[(&str, &str)]) -> WorkspaceModel {
        WorkspaceModel {
            files: files
                .iter()
                .map(|(rel, src)| parse_file(rel, &lex(src)))
                .collect(),
        }
    }

    #[test]
    fn suffix_mix_fires_across_units_only() {
        let src = "fn f(a_cycles: u64, b_bytes: u64, c_cycles: u64, bytes_per_line: u64) {\n\
                   let x = a_cycles + b_bytes;\n\
                   let y = a_cycles + c_cycles;\n\
                   let z = b_bytes - bytes_per_line;\n}\n";
        let m = model(&[("crates/core/src/x.rs", src)]);
        let diags = run(&m);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::SuffixMix);
        assert_eq!(diags[0].line, 2);
    }
}
