//! Smoke tests of the figure drivers at test scale: each produces data of
//! the right shape and renders without panicking.

use nvr::sim::figures::{self, FigureId};
use nvr::sim::Lab;
use nvr::workloads::{Scale, WorkloadId};

#[test]
fn fig1b_renders() {
    let data = figures::fig1b::run(&mut Lab::new(1), Scale::Tiny, 1);
    assert_eq!(data.points.len(), 5);
    let text = data.to_string();
    assert!(text.contains("16x"));
    assert!(text.contains("speedup"));
}

#[test]
fn fig6_subset_renders() {
    let data = figures::fig6::run(&mut Lab::new(1), Scale::Tiny, 2, &[WorkloadId::H2o]);
    assert_eq!(data.cells.len(), 5); // one workload x five prefetchers
    assert_eq!(data.movement.len(), 3);
    let text = data.to_string();
    assert!(text.contains("accuracy"));
    assert!(text.contains("NVR+NSB"));
    assert!(text.contains("channel_util"));
}

#[test]
fn fig7b_subset_renders() {
    let data = figures::fig7b::run(&mut Lab::new(2), Scale::Tiny, 2, &[WorkloadId::Ds]);
    assert_eq!(data.cells.len(), 9); // 3 channel counts x 3 systems
    let text = data.to_string();
    assert!(text.contains("channel scaling"));
    assert!(text.contains("qd p95"));
}

#[test]
fn fig9_subset_renders() {
    let data = figures::fig9::run_subset(&mut Lab::new(1), Scale::Tiny, 3, &[4, 16], &[64, 256]);
    assert_eq!(data.cells.len(), 4);
    let text = data.to_string();
    assert!(text.contains("NSB"));
}

#[test]
fn table1_matches_paper_fields() {
    let data = figures::table1::run();
    let text = data.to_string();
    for name in ["SD", "SCD", "LBD", "VMIG", "Snooper"] {
        assert!(text.contains(name), "missing {name}");
    }
    assert_eq!(data.report.sd_bits, 1808);
}

#[test]
fn table2_lists_all_workloads() {
    let text = figures::table2::run().to_string();
    for w in WorkloadId::ALL {
        assert!(text.contains(w.name()), "missing {}", w.name());
    }
}

#[test]
fn headline_subset_is_positive() {
    let h = figures::headline::run(&mut Lab::new(1), Scale::Tiny, 4, &[WorkloadId::Ds]);
    assert!(h.speedup_vs_no_prefetch > 1.0);
    assert!(h.to_string().contains("speedup"));
}

#[test]
fn ablations_renders() {
    use figures::ablations::{run, NSB_WAYS, WORKLOADS};
    let data = run(&mut Lab::new(1), Scale::Tiny, 6);
    assert_eq!(data.assoc.len(), NSB_WAYS.len());
    assert_eq!(data.variants.len(), 9 * WORKLOADS.len());
    let text = data.to_string();
    assert!(text.starts_with("NVR design ablations"));
    assert!(text.contains("NSB associativity ablation"));
    let rows = |marker: &str| text.lines().filter(|l| l.contains(marker)).count();
    assert_eq!(rows("-way: "), data.assoc.len(), "{text}");
    assert_eq!(rows(" cycles, speedup "), data.variants.len(), "{text}");
    assert_eq!(
        text,
        FigureId::Ablations.regenerate(&mut Lab::new(4), Scale::Tiny, 6),
        "worker count changed the rendition"
    );
}
