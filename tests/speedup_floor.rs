//! Speedup-regression floors: the tiny-scale 8-workload x {InO, NVR,
//! NVR+NSB} grid must never drop below the committed per-workload
//! speedups in [`FLOORS`].
//!
//! The floors are measured values minus a ~5% tolerance, so a retention
//! or scheduling change that silently trades one workload's speedup for
//! another's fails here with the exact workload and number. Floors only
//! move with a justified commit, never to make a red run green.

use nvr::prelude::*;
use nvr::sim::speedup;
use nvr::sim::sweep::DEFAULT_SEED;

/// Per-workload `(workload, NVR floor, NVR+NSB floor)`, in
/// [`WorkloadId::ALL`] order. Each floor is the measured NVR or NVR+NSB
/// speedup over the in-order no-prefetch baseline (same program, natural
/// tile order, FP16, seed 2025, `Scale::Tiny`) minus a ~5% tolerance, so
/// retention-policy or scheduling changes can never silently regress a
/// workload while benign churn stays under the bar.
///
/// Update procedure (only when a change *intentionally* moves a number):
/// 1. `cargo run --release -p nvr_sim --bin sweep -- --grid --system InO
///    --system NVR --system NVR+NSB --scale tiny --order natural --csv -`
/// 2. Copy each workload's `speedup` column for NVR and NVR+NSB.
/// 3. Set the floor to measured x 0.95, rounded DOWN to 2 decimals.
/// 4. Say why in the commit message; a floor may only move down with a
///    written justification (a deliberate trade accepted for a larger win
///    elsewhere).
const FLOORS: [(WorkloadId, f64, f64); 8] = [
    (WorkloadId::Ds, 2.60, 2.57),
    (WorkloadId::Gat, 2.82, 2.86),
    (WorkloadId::Gcn, 1.63, 1.65),
    (WorkloadId::Gsabt, 1.78, 1.80),
    (WorkloadId::H2o, 2.72, 2.70),
    (WorkloadId::Mk, 1.89, 1.90),
    (WorkloadId::Scn, 2.46, 2.37),
    (WorkloadId::St, 2.24, 2.20),
];

#[test]
fn floors_file_covers_every_workload_exactly_once() {
    let listed: Vec<WorkloadId> = FLOORS.iter().map(|&(w, _, _)| w).collect();
    assert_eq!(
        listed,
        WorkloadId::ALL,
        "FLOORS must list every workload once, in WorkloadId::ALL order"
    );
    for (w, nvr, nsb) in FLOORS {
        let wl = w.short();
        assert!(nvr > 1.0, "[{wl}] nvr floor {nvr} not a speedup");
        assert!(nsb > 1.0, "[{wl}] nvr_nsb floor {nsb} not a speedup");
    }
}

#[test]
fn tiny_grid_meets_committed_floors() {
    let mut failures = Vec::new();
    for (workload, nvr_floor, nsb_floor) in FLOORS {
        let spec = WorkloadSpec {
            width: DataWidth::Fp16,
            seed: DEFAULT_SEED,
            scale: Scale::Tiny,
            order: TileOrder::Natural,
        };
        let program = workload.build(&spec);
        let cfg = MemoryConfig::default();
        let ino = run_system(&program, &cfg, SystemKind::InOrder)
            .result
            .total_cycles;
        for (system, floor) in [
            (SystemKind::Nvr, nvr_floor),
            (SystemKind::NvrNsb, nsb_floor),
        ] {
            let cycles = run_system(&program, &cfg, system).result.total_cycles;
            let measured = speedup(ino, cycles);
            if measured < floor {
                failures.push(format!(
                    "{} {}: speedup {measured:.3} below floor {floor} \
                     (InO {ino}, {} {cycles})",
                    workload.short(),
                    system.label(),
                    system.label(),
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "speedup floors violated:\n{}\nSee FLOORS in tests/speedup_floor.rs for the update procedure.",
        failures.join("\n")
    );
}
