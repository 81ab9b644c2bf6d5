//! Run-length regression for the WAL's host-side cost.
//!
//! Every create appends a WAL record, flushes it and later marks it applied
//! when the parent directory's owner acknowledges the deferred update. If
//! any of those calls walks the whole log, the records the WAL visits per
//! append grow with the length of the run (a quadratic simulator). The
//! visit count is deterministic, so the same scenario run at 1× and 4× the
//! op count must visit exactly the same number of records per append.

use switchfs::core::{Cluster, ClusterConfig, SystemKind};
use switchfs::obs::MetricValue;
use switchfs::simnet::SimDuration;
use switchfs::workloads::{NamespaceSpec, OpKind, WorkItem};

/// Runs `rounds` identical rounds on a small SwitchFS deployment: create
/// 400 files spread over 16 directories, then delete them, letting the
/// deferred parent updates drain after each phase. Returns
/// `(wal.records_visited, wal.appends)`.
fn wal_work(rounds: usize) -> (u64, u64) {
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 2;
    let mut cluster = Cluster::new(cfg);
    let ns = NamespaceSpec::multi_dir(16, 0);
    for d in ns.all_dirs() {
        cluster.preload_dir(&d);
    }
    let files: Vec<String> = (0..400)
        .map(|i| format!("{}/f{i}", ns.dir_path(i % 16)))
        .collect();
    for _ in 0..rounds {
        for kind in [OpKind::Create, OpKind::Delete] {
            let items = files
                .iter()
                .map(|f| WorkItem::new(kind, f.clone()))
                .collect();
            let report = cluster.run_workload(items, 64, None);
            assert_eq!((report.ops, report.errors), (400, 0));
            cluster.settle(SimDuration::millis(50));
        }
    }
    let metrics = cluster.metrics_snapshot();
    let counter = |name: &str| match metrics.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{name} is not a counter: {other:?}"),
    };
    (counter("wal.records_visited"), counter("wal.appends"))
}

#[test]
fn wal_records_visited_per_append_is_flat_in_run_length() {
    let (visited_1x, appends_1x) = wal_work(1);
    let (visited_4x, appends_4x) = wal_work(4);
    assert!(appends_4x > 3 * appends_1x, "{appends_1x} vs {appends_4x}");
    // Cross-multiplied: the ratios are equal exactly.
    assert_eq!(
        visited_1x * appends_4x,
        visited_4x * appends_1x,
        "records visited per append: {visited_1x}/{appends_1x} at 1x vs \
         {visited_4x}/{appends_4x} at 4x"
    );
}
