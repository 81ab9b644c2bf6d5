//! Host cost of single layers, timed alone through their public functions at
//! the sizes and counts a workload run produced.

use std::time::Instant;

use switchfs_kvstore::{KvStore, Wal};
use switchfs_proto::{DirId, Fingerprint, InodeAttrs, MetaKey, Permissions, ServerId};
use switchfs_switch::{DirtySet, DirtySetConfig};

use crate::workload::Rng;

/// Operations timed per KV and dirty-set measurement.
const SAMPLE_OPS: usize = 200_000;

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `Wal::append_sized` followed by `flush`, once per record, for `records`
/// records and no checkpoint: host ns per record. A flush that rescans the
/// log makes this grow with `records`.
pub fn wal_ns_per_record(records: usize) -> f64 {
    let mut wal: Wal<[u64; 8]> = Wal::new();
    let start = Instant::now();
    for i in 0..records {
        wal.append_sized([i as u64; 8], 64);
        wal.flush();
    }
    let ns = ns_per(start, records);
    assert_eq!(wal.flushed(), records as u64);
    ns
}

/// `KvStore::get` and `put` on an inode store holding `size` keys: host ns
/// per get and per put, over random existing keys.
pub fn kv_ns_per_get_put(size: usize, rng: &mut Rng) -> (f64, f64) {
    let size = size.max(1);
    let dir = DirId::generate(ServerId(0), 1);
    let keys: Vec<MetaKey> = (0..size)
        .map(|i| MetaKey::new(dir, format!("f{i}")))
        .collect();
    let attrs = InodeAttrs::new_file(dir, 0, Permissions::default());
    let mut store = KvStore::new();
    for k in &keys {
        store.put(k.clone(), attrs.clone());
    }
    let picks: Vec<usize> = (0..SAMPLE_OPS).map(|_| rng.below(size)).collect();
    let start = Instant::now();
    let mut found = 0usize;
    for &i in &picks {
        found += store.get(&keys[i]).is_some() as usize;
    }
    let get = ns_per(start, SAMPLE_OPS);
    assert_eq!(found, SAMPLE_OPS);
    let updates: Vec<(MetaKey, InodeAttrs)> = picks
        .iter()
        .map(|&i| (keys[i].clone(), attrs.clone()))
        .collect();
    let start = Instant::now();
    for (k, v) in updates {
        store.put(k, v);
    }
    (get, ns_per(start, SAMPLE_OPS))
}

/// `DirtySet::insert`/`query`/`remove` mixed in the proportions of the
/// run's switch counters, over the fingerprints of the run's directories:
/// host ns per dirty-set op, or 0 when the run used no dirty set.
pub fn dirty_ns_per_op(
    inserts: u64,
    queries: u64,
    removes: u64,
    fps: &[Fingerprint],
    rng: &mut Rng,
) -> f64 {
    let total = inserts + queries + removes;
    if total == 0 || fps.is_empty() {
        return 0.0;
    }
    let ops: Vec<(u64, Fingerprint)> = (0..SAMPLE_OPS)
        .map(|_| (rng.next_u64() % total, fps[rng.below(fps.len())]))
        .collect();
    let mut set = DirtySet::new(DirtySetConfig::default());
    let start = Instant::now();
    let mut hits = 0usize;
    for &(x, fp) in &ops {
        if x < inserts {
            set.insert(fp);
        } else if x < inserts + queries {
            hits += set.query(fp) as usize;
        } else {
            set.remove(fp);
        }
    }
    let ns = ns_per(start, SAMPLE_OPS);
    std::hint::black_box(hits);
    ns
}
