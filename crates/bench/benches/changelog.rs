//! Microbenchmark: change-log compaction (§5.3) — how quickly deferred
//! directory updates are folded before application.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use switchfs_proto::changelog::{ChangeLogEntry, ChangeOp, CompactedChanges};
use switchfs_proto::{ClientId, DirId, FileType, OpId};

fn entries(n: usize) -> Vec<ChangeLogEntry> {
    (0..n)
        .map(|i| ChangeLogEntry {
            entry_id: OpId {
                client: ClientId(0),
                seq: i as u64,
            },
            dir: DirId::ROOT,
            name: format!("f{}", i % (n / 4).max(1)),
            op: if i % 3 == 2 {
                ChangeOp::Remove
            } else {
                ChangeOp::Insert {
                    file_type: FileType::File,
                    mode: 0o644,
                }
            },
            timestamp: i as u64,
        })
        .collect()
}

fn bench_compaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("changelog_compaction");
    for n in [64usize, 512, 4096] {
        let e = entries(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &e, |b, e| {
            b.iter(|| CompactedChanges::from_entries(e))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compaction);
criterion_main!(benches);
