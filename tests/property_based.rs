//! Property-based tests on core data structures and invariants.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

use switchfs::kvstore::KvStore;
use switchfs::proto::changelog::{ChangeLogEntry, ChangeOp, CompactedChanges};
use switchfs::proto::{ClientId, DirId, FileType, Fingerprint, OpId, ServerId};
use switchfs::switch::{DirtySet, DirtySetConfig};

#[derive(Debug, Clone)]
enum KvOp {
    Put(u8, u32),
    Delete(u8),
    Get(u8),
}

fn kv_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| KvOp::Put(k, v)),
        any::<u8>().prop_map(KvOp::Delete),
        any::<u8>().prop_map(KvOp::Get),
    ]
}

proptest! {
    /// The ordered KV store behaves exactly like a reference BTreeMap under
    /// arbitrary sequences of puts, deletes and gets.
    #[test]
    fn kvstore_matches_btreemap_model(ops in proptest::collection::vec(kv_op(), 1..200)) {
        let mut kv = KvStore::new();
        let mut model = BTreeMap::new();
        for op in ops {
            match op {
                KvOp::Put(k, v) => {
                    prop_assert_eq!(kv.put(k, v), model.insert(k, v));
                }
                KvOp::Delete(k) => {
                    prop_assert_eq!(kv.delete(&k), model.remove(&k));
                }
                KvOp::Get(k) => {
                    prop_assert_eq!(kv.get(&k), model.get(&k).copied());
                }
            }
            prop_assert_eq!(kv.len(), model.len());
        }
    }

    /// The in-network dirty set agrees with a reference HashSet as long as it
    /// does not overflow: after any interleaving of inserts and removes, the
    /// same fingerprints are reported present.
    #[test]
    fn dirty_set_matches_set_model(ops in proptest::collection::vec((any::<bool>(), 0u64..64), 1..300)) {
        let mut ds = DirtySet::new(DirtySetConfig::tiny(10, 6));
        let mut model: HashSet<u64> = HashSet::new();
        let fps: Vec<Fingerprint> = (0..64u64)
            .map(|i| Fingerprint::of_dir(&DirId::generate(ServerId(1), i), "dir"))
            .collect();
        for (insert, idx) in ops {
            let fp = fps[idx as usize];
            if insert {
                // With 10-way associativity and 64 keys over 64 sets the set
                // must not overflow.
                prop_assert_eq!(ds.insert(fp), switchfs::switch::InsertOutcome::Inserted);
                model.insert(fp.raw());
            } else {
                ds.remove(fp);
                model.remove(&fp.raw());
            }
        }
        for fp in &fps {
            prop_assert_eq!(ds.query(*fp), model.contains(&fp.raw()));
        }
        prop_assert_eq!(ds.occupancy(), model.len());
    }

    /// Change-log compaction preserves the aggregate directory state: the
    /// maximum timestamp, the final per-name effect and the derived size
    /// (the number of listed names) all match an entry-by-entry replay.
    #[test]
    fn compaction_is_equivalent_to_replay(
        names in proptest::collection::vec(0u8..6, 1..60),
        inserts in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let n = names.len().min(inserts.len());
        let entries: Vec<ChangeLogEntry> = (0..n)
            .map(|i| ChangeLogEntry {
                entry_id: OpId { client: ClientId(0), seq: i as u64 },
                dir: DirId::ROOT,
                name: format!("n{}", names[i]),
                op: if inserts[i] {
                    ChangeOp::Insert { file_type: FileType::File, mode: 0o644 }
                } else {
                    ChangeOp::Remove
                },
                timestamp: (i as u64) * 10,
            })
            .collect();
        let compacted = CompactedChanges::from_entries(&entries);

        // Replay model: apply entries one by one.
        let mut max_ts = 0u64;
        let mut present: BTreeMap<String, bool> = BTreeMap::new();
        for e in &entries {
            max_ts = max_ts.max(e.timestamp);
            present.insert(e.name.clone(), matches!(e.op, ChangeOp::Insert { .. }));
        }
        prop_assert_eq!(compacted.max_timestamp, max_ts);
        // Applying the compacted entry ops to an empty listing produces the
        // same final membership for every name that ends up present.
        let mut listing: BTreeMap<String, bool> = BTreeMap::new();
        for (name, op) in &compacted.entry_ops {
            listing.insert(name.clone(), matches!(op, ChangeOp::Insert { .. }));
        }
        prop_assert_eq!(
            listing.values().filter(|p| **p).count(),
            present.values().filter(|p| **p).count()
        );
        for (name, is_present) in present {
            if is_present {
                prop_assert_eq!(listing.get(&name), Some(&true), "name {} must survive", name);
            } else {
                // Either explicitly removed or cancelled out entirely.
                prop_assert_ne!(listing.get(&name), Some(&true));
            }
        }
    }

    /// Fingerprints always fit in 49 bits and index/tag decomposition is
    /// loss-free with respect to placement: equal fingerprints yield equal
    /// (index, tag) pairs and distinct pairs imply distinct fingerprints.
    #[test]
    fn fingerprint_decomposition_is_consistent(a in any::<u64>(), b in any::<u64>()) {
        let fa = Fingerprint::of_dir(&DirId::generate(ServerId(0), a), "x");
        let fb = Fingerprint::of_dir(&DirId::generate(ServerId(0), b), "x");
        prop_assert!(fa.raw() <= Fingerprint::MASK);
        if fa == fb {
            prop_assert_eq!((fa.index(), fa.tag()), (fb.index(), fb.tag()));
        }
        if (fa.index(), fa.tag()) != (fb.index(), fb.tag()) {
            prop_assert_ne!(fa, fb);
        }
    }

    /// Rc-shared directory listings are copy-on-write: a listing handed to a
    /// reader is never observably mutated by later inserts/removes, and the
    /// store's own view always matches a reference model. Readers taken
    /// between the same two mutations share one allocation.
    #[test]
    fn dir_content_listing_is_never_shared_across_mutation(
        ops in proptest::collection::vec((any::<bool>(), 0u8..12), 1..80),
    ) {
        use std::rc::Rc;
        use switchfs::proto::DirEntry;
        use switchfs::server::DirContent;

        let mut content = DirContent::default();
        let mut model: BTreeMap<String, u16> = BTreeMap::new();
        // Snapshots handed out to "readers", with the model state they saw.
        type Snapshot = (Rc<Vec<DirEntry>>, Vec<(String, u16)>);
        let mut snapshots: Vec<Snapshot> = Vec::new();
        for (i, (insert, name)) in ops.iter().enumerate() {
            let name = format!("f{name}");
            if *insert {
                let mode = i as u16;
                content.insert(DirEntry {
                    name: name.clone(),
                    file_type: FileType::File,
                    mode,
                });
                model.insert(name, mode);
            } else {
                content.remove(&name);
                model.remove(&name);
            }
            let listing = content.listing();
            // Two readers between the same mutations share one allocation.
            prop_assert!(Rc::ptr_eq(&listing, &content.listing()));
            snapshots.push((
                listing,
                model.iter().map(|(n, m)| (n.clone(), *m)).collect(),
            ));
        }
        // No snapshot was retroactively mutated: each still shows exactly
        // the state the reader observed when it was taken.
        for (listing, expected) in &snapshots {
            let got: Vec<(String, u16)> =
                listing.iter().map(|e| (e.name.clone(), e.mode)).collect();
            prop_assert_eq!(&got, expected);
        }
        // And the store's final view matches the model.
        let final_view: Vec<String> = content.iter().map(|e| e.name.clone()).collect();
        let model_view: Vec<String> = model.keys().cloned().collect();
        prop_assert_eq!(final_view, model_view);
    }
}

// ---------------------------------------------------------------------------
// Torn-write crash consistency of the WAL (PR 6)
// ---------------------------------------------------------------------------

proptest! {
    /// Any interleaving of appends and flushes, crashed at any point with
    /// any tear seed, recovers to a checksum-clean LSN-contiguous log that
    /// (a) still contains every flushed record, (b) never resurrects a torn
    /// record, and (c) never reissues a truncated LSN.
    #[test]
    fn torn_tails_always_recover_to_a_clean_flushed_prefix(
        // true = append (with a pseudo-size), false = flush.
        script in proptest::collection::vec(any::<bool>(), 1..120),
        tear_seed in any::<u64>(),
        post_appends in 0usize..8,
    ) {
        use switchfs::kvstore::Wal;

        let mut wal: Wal<u64> = Wal::new();
        for (i, append) in script.iter().enumerate() {
            if *append {
                wal.append_sized(i as u64, 8 + (i as u64 % 64));
            } else {
                wal.flush();
            }
        }
        let flushed = wal.flushed();
        let pre_crash_next = wal.next_lsn();
        let tail = wal.crash_apply(tear_seed);
        prop_assert_eq!(
            tail.kept + tail.torn + tail.dropped,
            wal.records().iter().filter(|r| r.lsn > flushed).count()
                + tail.dropped,
            "every unflushed record drew exactly one fate"
        );
        let report = wal.recover_truncate();
        prop_assert_eq!(report.torn, tail.torn, "every torn record was found and cut");

        // (a) The flushed prefix survived in full, in order.
        let lsns: Vec<u64> = wal.records().iter().map(|r| r.lsn).collect();
        let expect_flushed: Vec<u64> = (1..=flushed).collect();
        prop_assert_eq!(&lsns[..flushed as usize], &expect_flushed[..]);
        // (b) Everything retained verifies and is contiguous.
        prop_assert!(wal.records().iter().all(|r| r.is_intact()));
        prop_assert!(lsns.windows(2).all(|w| w[1] == w[0] + 1));
        // The watermark never points past the retained records.
        prop_assert!(wal.flushed() <= lsns.last().copied().unwrap_or(0).max(flushed));
        // (c) Post-recovery appends never collide with any pre-crash LSN,
        // surviving or truncated, and carry the bumped generation.
        let gen = wal.generation();
        for j in 0..post_appends {
            let lsn = wal.append_sized(1_000 + j as u64, 8);
            prop_assert!(lsn >= pre_crash_next, "LSN {} reused from a torn tail", lsn);
            prop_assert_eq!(wal.records().last().unwrap().generation, gen);
        }
    }
}

// ---------------------------------------------------------------------------
// Epoch-versioned shard map ≡ modulo placement at epoch 0 (PR 4)
// ---------------------------------------------------------------------------

proptest! {
    /// The epoch-0 shard map must be extensionally equal to the historic
    /// `hash % n` placement for every policy, every trait entry point and
    /// every server count — this is what keeps all simulated results
    /// bit-identical after the placement refactor.
    #[test]
    fn epoch0_shard_map_is_extensionally_equal_to_hash_placement(
        servers in 1usize..24,
        raw_hashes in proptest::collection::vec(any::<u64>(), 1..32),
        names in proptest::collection::vec(any::<u16>(), 1..16),
    ) {
        use switchfs::proto::{HashPlacement, MetaKey, PartitionPolicy, Placement, ShardMap};

        for policy in [
            PartitionPolicy::PerFileHash,
            PartitionPolicy::PerDirectoryHash,
            PartitionPolicy::Subtree,
        ] {
            let old = HashPlacement::new(policy, servers);
            let new = ShardMap::initial(policy, servers);
            prop_assert_eq!(new.epoch(), 0);
            prop_assert_eq!(new.num_servers(), old.num_servers());
            for &h in &raw_hashes {
                prop_assert_eq!(new.owner_of_hash(h), old.owner_of_hash(h));
                let id = DirId::generate(ServerId((h % 7) as u32), h);
                prop_assert_eq!(new.dir_owner_by_id(&id), old.dir_owner_by_id(&id));
                let fp = Fingerprint::from_raw(h);
                prop_assert_eq!(new.dir_owner_by_fp(fp), old.dir_owner_by_fp(fp));
            }
            for &n in &names {
                let key = MetaKey::new(DirId::ROOT, format!("f{n}"));
                prop_assert_eq!(new.file_owner(&key), old.file_owner(&key));
                let nested = MetaKey::new(DirId::generate(ServerId(2), n as u64), format!("g{n}"));
                prop_assert_eq!(new.file_owner(&nested), old.file_owner(&nested));
            }
        }
    }

    /// Rebalancing after a server addition moves at most the newcomer's
    /// fair share (±1) and leaves the map balanced, for any starting size.
    #[test]
    fn rebalance_moves_only_a_fair_share(servers in 1usize..24) {
        use switchfs::proto::{PartitionPolicy, ShardMap};

        let mut map = ShardMap::initial(PartitionPolicy::PerFileHash, servers);
        let newcomer = map.add_server();
        let moves = map.plan_rebalance();
        let shards = map.num_shards();
        let fair = shards / (servers + 1);
        prop_assert!(moves.len() <= fair + 1, "{} moves > fair share {}", moves.len(), fair);
        prop_assert!(moves.iter().all(|(_, _, to)| *to == newcomer));
        for (shard, from, to) in moves {
            prop_assert_eq!(map.owner_of_shard(shard), from);
            map.assign(shard, to);
        }
        for s in 0..=servers {
            let owned = map.shards_owned(ServerId(s as u32));
            prop_assert!(owned >= fair && owned <= fair + 1,
                "server {} owns {} of {} (fair {})", s, owned, shards, fair);
        }
    }
}
