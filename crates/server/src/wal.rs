//! Durable server state: the WAL record format and the crash-surviving
//! state bundle.
//!
//! §5.4.2: a server keeps its key-value store, change-logs and invalidation
//! list in DRAM and recovers them from the write-ahead log after a crash.
//! [`DurableState`] is the part the cluster harness keeps alive across a
//! simulated crash; everything else is rebuilt by
//! [`crate::server::Server::recover`].

use switchfs_kvstore::{Checkpoint, Wal};
use switchfs_proto::message::{ClientResponse, TxnOp};
use switchfs_proto::{ChangeLogEntry, DirEntry, DirId, InodeAttrs, MetaKey, OpId, ServerId};

/// One mutation against the volatile key-value stores, replayable during
/// recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvEffect {
    /// Insert or overwrite an inode.
    PutInode(MetaKey, InodeAttrs),
    /// Remove an inode.
    DeleteInode(MetaKey),
    /// Insert or overwrite a directory entry.
    PutEntry(DirId, DirEntry),
    /// Remove a directory entry.
    DeleteEntry(DirId, String),
    /// Register a directory this server owns (id → key index).
    IndexDir(DirId, MetaKey),
    /// Remove a directory from the owner index.
    UnindexDir(DirId),
    /// Append a directory to the invalidation list (§5.2.3).
    Invalidate(DirId, MetaKey),
}

impl KvEffect {
    /// For an entry-list effect, the trace fields of its apply: the
    /// directory's hash and whether it inserts.
    pub fn entry_target(&self) -> Option<(u64, bool)> {
        match self {
            KvEffect::PutEntry(dir, _) => Some((dir.hash64(), true)),
            KvEffect::DeleteEntry(dir, _) => Some((dir.hash64(), false)),
            _ => None,
        }
    }
}

/// A durable two-phase-commit marker (§5.4.2): the record that makes a
/// participant's prepared state and a coordinator's commit decision survive
/// a crash, so recovery can resolve in-doubt transactions instead of
/// silently dropping them (the volatile-prepare hole the chaos checker
/// exposes as namespace divergence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnMarker {
    /// This server staged a transaction's mutations: a participant logs it
    /// before voting yes, and the coordinator logs its own local half just
    /// before the commit decision. A `Prepared` with no later [`TxnMarker::Resolved`]
    /// is an in-doubt transaction that recovery must resolve — by the
    /// durable decision for self-coordinated transactions, or by a
    /// [`switchfs_proto::message::ServerMsg::TxnDecisionQuery`] to the
    /// coordinator otherwise.
    Prepared {
        /// Transaction id.
        txn_id: u64,
        /// The coordinating server to query after a crash.
        coordinator: ServerId,
        /// The staged mutations, replayed into the prepared-transaction
        /// table.
        ops: Vec<TxnOp>,
    },
    /// The coordinator's durable commit/abort decision, logged *before* the
    /// local apply and the decision broadcast — the transaction's commit
    /// point. Rebuilt into the decision table so the coordinator answers
    /// recovery-time decision queries authoritatively (a transaction with no
    /// `Decided { commit: true }` record is presumed aborted).
    Decided {
        /// Transaction id.
        txn_id: u64,
        /// True for commit.
        commit: bool,
    },
    /// The staged mutations of `txn_id` were fully applied (commit) or
    /// dropped (abort) on this server; clears the matching
    /// [`TxnMarker::Prepared`] so recovery does not re-resolve it.
    Resolved {
        /// Transaction id.
        txn_id: u64,
    },
    /// Every participant acknowledged the decision of `txn_id`: nobody can
    /// ever query it again, so the coordinator drops its decision-table
    /// entry (bounding the table — and with it checkpoint size — by the
    /// in-flight window instead of the server's lifetime). A transaction
    /// with an unacknowledged participant is retained forever: that
    /// participant may still recover and ask.
    Forgotten {
        /// Transaction id.
        txn_id: u64,
    },
}

/// A durable shard-migration transition, following the [`TxnMarker`]
/// pattern: a `Started` with no later `Completed` is an interrupted
/// migration that recovery resolves against the cluster's current shard map
/// — if the shard already flipped to the target, the replayed local copy is
/// stale and must be dropped; if not, the source still owns the shard and
/// the cluster re-drives the migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationMarker {
    /// The source froze `shard` and began streaming it to `target`.
    Started {
        /// The migrating shard.
        shard: u32,
        /// The receiving server.
        target: ServerId,
    },
    /// The shard's state was installed at the target, the map flipped, and
    /// the source deleted its copy.
    Completed {
        /// The migrated shard.
        shard: u32,
    },
}

/// One WAL record: the committed effects of an operation plus, for
/// double-inode operations, the change-log entry that still has to reach the
/// parent directory's owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalOp {
    /// Id of the client operation (if the record stems from one).
    pub op_id: Option<OpId>,
    /// Mutations applied to this server's volatile stores.
    pub effects: Vec<KvEffect>,
    /// A deferred update to a (usually remote) parent directory:
    /// `(parent directory id, parent directory key, entry)`. The WAL record
    /// is marked *applied* once the entry has been applied by the directory
    /// owner, so recovery knows whether to rebuild it into the change-log.
    pub pending_entry: Option<(DirId, MetaKey, ChangeLogEntry)>,
    /// Ids of remote change-log entries this record applied (aggregation /
    /// push on the directory-owner side); used to rebuild the duplicate
    /// suppression set during recovery.
    pub applied_entry_ids: Vec<OpId>,
    /// Durable 2PC state transition carried by this record, if any.
    pub txn_marker: Option<TxnMarker>,
    /// A mutating operation's response, persisted so the duplicate-
    /// suppression cache survives a crash: a client that never received the
    /// reply retransmits after recovery and must get the original result
    /// back, not a re-execution (which would answer its own `create` with
    /// `Exists`). Modeled as piggybacked on the operation's WAL append
    /// (group commit), so it adds no extra simulated latency.
    pub completed: Option<ClientResponse>,
    /// Durable shard-migration transition carried by this record, if any.
    pub migration: Option<MigrationMarker>,
}

impl WalOp {
    /// A record with only local effects.
    pub fn local(op_id: Option<OpId>, effects: Vec<KvEffect>) -> Self {
        WalOp {
            op_id,
            effects,
            pending_entry: None,
            applied_entry_ids: Vec::new(),
            txn_marker: None,
            completed: None,
            migration: None,
        }
    }

    /// A record carrying only a 2PC marker.
    pub fn txn(marker: TxnMarker) -> Self {
        WalOp {
            op_id: None,
            effects: Vec::new(),
            pending_entry: None,
            applied_entry_ids: Vec::new(),
            txn_marker: Some(marker),
            completed: None,
            migration: None,
        }
    }

    /// A record carrying only a completed operation's cached response.
    pub fn completion(response: ClientResponse) -> Self {
        WalOp {
            op_id: None,
            effects: Vec::new(),
            pending_entry: None,
            applied_entry_ids: Vec::new(),
            txn_marker: None,
            completed: Some(response),
            migration: None,
        }
    }

    /// A record carrying only a shard-migration marker.
    pub fn migration(marker: MigrationMarker) -> Self {
        WalOp {
            op_id: None,
            effects: Vec::new(),
            pending_entry: None,
            applied_entry_ids: Vec::new(),
            txn_marker: None,
            completed: None,
            migration: Some(marker),
        }
    }

    /// Estimated persistent size, used for WAL byte accounting.
    pub fn wire_size(&self) -> u64 {
        64 + self.effects.len() as u64 * 96
            + self
                .pending_entry
                .as_ref()
                .map(|(_, _, e)| e.wire_size() as u64)
                .unwrap_or(0)
            + self.applied_entry_ids.len() as u64 * 12
            + match &self.txn_marker {
                Some(TxnMarker::Prepared { ops, .. }) => 24 + ops.len() as u64 * 96,
                Some(
                    TxnMarker::Decided { .. }
                    | TxnMarker::Resolved { .. }
                    | TxnMarker::Forgotten { .. },
                ) => 16,
                None => 0,
            }
            + if self.completed.is_some() { 48 } else { 0 }
            + if self.migration.is_some() { 16 } else { 0 }
    }
}

/// The state that survives a simulated server crash.
#[derive(Debug, Clone, Default)]
pub struct DurableState {
    /// The write-ahead log.
    pub wal: Wal<WalOp>,
    /// Optional checkpoint bounding replay (extension discussed in §7.7).
    pub checkpoint: Checkpoint<CheckpointData>,
}

/// Snapshot stored by a checkpoint: the fully materialized volatile state as
/// of a WAL LSN.
#[derive(Debug, Clone, Default)]
pub struct CheckpointData {
    /// All inodes.
    pub inodes: Vec<(MetaKey, InodeAttrs)>,
    /// All directory entries.
    pub entries: Vec<(DirId, DirEntry)>,
    /// The directory owner index.
    pub dir_index: Vec<(DirId, MetaKey)>,
    /// The invalidation list.
    pub invalidation: Vec<(DirId, MetaKey)>,
    /// Change-log entries still pending, with their directory key.
    pub pending: Vec<(DirId, MetaKey, ChangeLogEntry)>,
    /// Ids of remote entries applied but not yet confirmed discarded by
    /// their holders (bounded by the in-flight confirmation window).
    pub applied_entry_ids: Vec<OpId>,
    /// The bounded FIFO of retired (holder-confirmed) entry ids, in
    /// insertion order so a reload preserves the eviction order.
    pub retired_entry_ids: Vec<OpId>,
    /// In-doubt prepared transactions (`txn_id`, coordinator, staged ops):
    /// prepared state is durable (§5.4.2), so a checkpoint must carry it
    /// across WAL truncation.
    pub prepared_txns: Vec<(u64, ServerId, Vec<TxnOp>)>,
    /// Durable commit decisions this server made as a rename coordinator.
    pub decided_txns: Vec<(u64, bool)>,
    /// Cached responses of completed mutating operations (the duplicate-
    /// suppression cache): bounded by the per-client acked watermark, so the
    /// snapshot stays small, and carried across WAL truncation so a
    /// retransmission spanning a crash still gets the original result.
    pub completed_ops: Vec<ClientResponse>,
}

impl DurableState {
    /// Creates an empty durable state.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{ChangeOp, ClientId, FileType, Permissions};

    fn sample_entry() -> ChangeLogEntry {
        ChangeLogEntry {
            entry_id: OpId {
                client: ClientId(1),
                seq: 1,
            },
            dir: DirId::ROOT,
            name: "f".into(),
            op: ChangeOp::Insert {
                file_type: FileType::File,
                mode: 0o644,
            },
            timestamp: 1,
        }
    }

    #[test]
    fn wal_records_survive_and_mark_applied() {
        let mut durable = DurableState::new();
        let key = MetaKey::new(DirId::ROOT, "f");
        let attrs = InodeAttrs::new_file(DirId::ROOT, 0, Permissions::default());
        let record = WalOp {
            op_id: Some(OpId {
                client: ClientId(1),
                seq: 1,
            }),
            effects: vec![KvEffect::PutInode(key.clone(), attrs)],
            pending_entry: Some((DirId::ROOT, MetaKey::new(DirId::ROOT, ""), sample_entry())),
            applied_entry_ids: vec![],
            txn_marker: None,
            completed: None,
            migration: None,
        };
        let size = record.wire_size();
        let lsn = durable.wal.append_sized(record, size);
        assert_eq!(durable.wal.unapplied().count(), 1);
        durable.wal.mark_applied(lsn);
        assert_eq!(durable.wal.unapplied().count(), 0);
    }

    #[test]
    fn wire_size_scales_with_contents() {
        let small = WalOp::local(None, vec![]);
        let big = WalOp {
            op_id: None,
            effects: vec![KvEffect::DeleteInode(MetaKey::new(DirId::ROOT, "x")); 4],
            pending_entry: Some((DirId::ROOT, MetaKey::new(DirId::ROOT, ""), sample_entry())),
            applied_entry_ids: vec![OpId::default(); 3],
            txn_marker: None,
            completed: None,
            migration: None,
        };
        assert!(big.wire_size() > small.wire_size());
        let prepared = WalOp::txn(TxnMarker::Prepared {
            txn_id: 1,
            coordinator: switchfs_proto::ServerId(0),
            ops: vec![
                switchfs_proto::message::TxnOp::DeleteInode {
                    key: MetaKey::new(DirId::ROOT, "x")
                };
                2
            ],
        });
        let decided = WalOp::txn(TxnMarker::Decided {
            txn_id: 1,
            commit: true,
        });
        assert!(prepared.wire_size() > decided.wire_size());
    }

    #[test]
    fn checkpoint_stores_snapshot() {
        let mut durable = DurableState::new();
        let record = WalOp::local(None, vec![]);
        let size = record.wire_size();
        durable.wal.append_sized(record, size);
        durable.checkpoint.store(1, CheckpointData::default());
        assert!(durable.checkpoint.is_present());
        assert_eq!(durable.checkpoint.lsn(), Some(1));
    }
}
