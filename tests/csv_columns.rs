//! The CSV writers' schemas: every row has one field per header column,
//! and every column list the docs quote names columns a writer emits.

use nvr::prelude::*;
use nvr::sim::figures::fig9;

/// The library's CSV writers, by name, with their output on `results` and
/// `policy`.
fn writers(results: &SweepResults, policy: &[fig9::PolicyCell]) -> [(&'static str, String); 3] {
    [
        ("SweepResults::to_csv", results.to_csv()),
        ("SweepResults::timing_csv", results.timing_csv()),
        ("fig9::policy_csv", fig9::policy_csv(policy)),
    ]
}

/// The header and data rows of `csv`, skipping `#` comment lines.
fn header_and_rows(csv: &str) -> (Vec<&str>, Vec<Vec<&str>>) {
    let mut lines = csv.lines().filter(|l| !l.starts_with('#'));
    let header = lines.next().expect("a header line").split(',').collect();
    (header, lines.map(|l| l.split(',').collect()).collect())
}

#[test]
fn every_row_has_one_field_per_column() {
    let spec = SweepSpec {
        workloads: vec![WorkloadId::Ds, WorkloadId::Gcn],
        systems: vec![SystemKind::InOrder, SystemKind::Nvr],
        scales: vec![Scale::Tiny],
        seeds: vec![1, 2],
        ..SweepSpec::default()
    };
    let results = run_sweep(&spec, 2);
    let policy = fig9::policy_sweep(&mut Lab::new(2), Scale::Tiny, 2025);
    for (writer, csv) in writers(&results, &policy) {
        let (header, rows) = header_and_rows(&csv);
        assert!(!rows.is_empty(), "{writer} wrote no rows");
        for row in rows {
            assert_eq!(
                row.len(),
                header.len(),
                "{writer}: {row:?} against {header:?}"
            );
        }
    }
}

#[test]
fn documented_column_lists_name_emitted_columns() {
    let empty = run_sweep(
        &SweepSpec {
            workloads: Vec::new(),
            ..SweepSpec::default()
        },
        1,
    );
    let columns: Vec<String> = writers(&empty, &[])
        .iter()
        .flat_map(|(_, csv)| header_and_rows(csv).0)
        .map(String::from)
        .collect();
    let docs = [
        ("README.md", include_str!("../README.md")),
        (
            "docs/ARCHITECTURE.md",
            include_str!("../docs/ARCHITECTURE.md"),
        ),
    ];
    let mut lists = 0;
    for (doc, text) in docs {
        let mut fenced = false;
        for line in text.lines() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            // Odd pieces between backticks are inline code spans; a
            // comma-separated run of snake_case names is a column list.
            for span in line.split('`').skip(1).step_by(2) {
                let names: Vec<&str> = span.split(',').collect();
                let is_list = names.len() > 1
                    && names.iter().all(|n| {
                        n.starts_with(|c: char| c.is_ascii_lowercase())
                            && n.chars()
                                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                    });
                if !is_list {
                    continue;
                }
                lists += 1;
                for name in names {
                    assert!(
                        columns.iter().any(|c| c == name),
                        "{doc}: `{span}` names `{name}`, which no CSV writer emits"
                    );
                }
            }
        }
    }
    assert!(lists > 0, "the docs quote no column list");
}
