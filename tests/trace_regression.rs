//! Regressions for the dense-load statdir divergence family and for the
//! recovery-replay trace events.
//!
//! At 400 ops per client, chaos runs used to trip the structural checker
//! with `statdir size N != M listed entries`: the directory size was a
//! counter kept beside the entry list and updated by four code paths with
//! three meanings, and crashes replayed the two asymmetrically. The size is
//! now derived from the entry list at read time, so those runs pass; the
//! table below pins every triple that flipped green.

use switchfs::chaos::{run_chaos, ChaosConfig, PlanKind};
use switchfs::core::SystemKind;
use switchfs::obs::EventKind;

/// (system, plan kind, seed) triples that failed the checker at 400 ops
/// per client while the directory size was a stored counter.
const DENSE_SIZE_ROWS: &[(SystemKind, PlanKind, u64)] = &[
    (SystemKind::CephFsLike, PlanKind::Crash, 4),
    (SystemKind::CephFsLike, PlanKind::Combined, 1),
    (SystemKind::IndexFsLike, PlanKind::Crash, 3),
    (SystemKind::IndexFsLike, PlanKind::Crash, 13),
    (SystemKind::SwitchFs, PlanKind::Crash, 0),
    (SystemKind::SwitchFs, PlanKind::Crash, 3),
    (SystemKind::SwitchFs, PlanKind::Crash, 12),
    (SystemKind::SwitchFs, PlanKind::Combined, 8),
    (SystemKind::SwitchFs, PlanKind::Combined, 12),
    (SystemKind::SwitchFs, PlanKind::Decommission, 4),
    (SystemKind::SwitchFs, PlanKind::DiskChaos, 6),
    (SystemKind::SwitchFs, PlanKind::DiskChaos, 19),
];

#[test]
fn dense_load_statdir_size_rows_pass() {
    let mut failed = Vec::new();
    for &(system, kind, seed) in DENSE_SIZE_ROWS {
        let mut cfg = ChaosConfig::new(system, kind, seed);
        cfg.ops_per_client = 400;
        let report = run_chaos(cfg);
        if !report.passed() {
            failed.push(format!(
                "{system} {}/{seed}: {:?}",
                kind.label(),
                report.violations
            ));
        }
    }
    assert!(
        failed.is_empty(),
        "dense-load rows tripped the checker: {failed:#?}"
    );
}

/// Green-path regression for the recovery instrumentation itself: a small
/// crash run must leave per-effect `RecoveryEntryApply` events in the
/// recorder, and replay detail only appears alongside an aggregate
/// `RecoveryReplay` summary that accounts for at least one record.
#[test]
fn recovery_replay_emits_per_effect_events() {
    let mut found_detail = false;
    for seed in [1u64, 2, 4] {
        let cfg = ChaosConfig::new(SystemKind::SwitchFs, PlanKind::Crash, seed);
        let report = run_chaos(cfg);
        assert!(
            report.passed(),
            "crash/{} tripped the checker: {:?}",
            seed,
            report.violations
        );
        let mut replayed_records = 0u64;
        let mut detail = 0usize;
        for e in &report.flight_recorder {
            match e.kind {
                EventKind::RecoveryReplay { records, .. } => replayed_records += records,
                EventKind::RecoveryEntryApply { .. } => detail += 1,
                _ => {}
            }
        }
        if detail > 0 {
            assert!(
                replayed_records > 0,
                "crash/{seed}: replay detail without an aggregate RecoveryReplay summary"
            );
            found_detail = true;
        }
    }
    assert!(
        found_detail,
        "no crash seed produced per-effect replay events; the instrumentation \
         (or the plan generator's crash coverage) regressed"
    );
}
