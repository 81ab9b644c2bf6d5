//! Server-side change-log storage (§5.3, Fig. 7).
//!
//! Each server keeps one [`ChangeLog`] per *scattered* directory it has
//! deferred updates for. The log is a FIFO of [`ChangeLogEntry`] records; it
//! also tracks the marshalled byte size of its pending entries (for the
//! MTU-based proactive push) and the time of the last append (for the
//! idle-push timer).

use std::collections::VecDeque;

use switchfs_proto::{ChangeLogEntry, DirId, Fingerprint, MetaKey, OpId};
use switchfs_simnet::{FxHashMap, FxHashSet, SimTime};

/// The change-log of one directory on one server.
#[derive(Debug, Clone)]
pub struct ChangeLog {
    /// Key of the directory these entries update.
    pub dir_key: MetaKey,
    /// Fingerprint of the directory.
    pub fp: Fingerprint,
    entries: VecDeque<ChangeLogEntry>,
    pending_bytes: usize,
    last_append: SimTime,
}

impl ChangeLog {
    /// Creates an empty change-log for a directory.
    pub fn new(dir_key: MetaKey, fp: Fingerprint, now: SimTime) -> Self {
        ChangeLog {
            dir_key,
            fp,
            entries: VecDeque::new(),
            pending_bytes: 0,
            last_append: now,
        }
    }

    /// Appends an entry (FIFO order preserves same-name commit order).
    pub fn append(&mut self, entry: ChangeLogEntry, now: SimTime) {
        self.pending_bytes += entry.wire_size();
        self.entries.push_back(entry);
        self.last_append = now;
    }

    /// All pending entries in FIFO order.
    pub fn entries(&self) -> impl Iterator<Item = &ChangeLogEntry> {
        self.entries.iter()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entry is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Marshalled size of the pending entries in bytes.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Virtual time of the most recent append.
    pub fn last_append(&self) -> SimTime {
        self.last_append
    }

    /// Takes a snapshot of the pending entries (e.g. to transmit during an
    /// aggregation) without removing them; removal happens when the
    /// aggregation acknowledgment arrives.
    pub fn snapshot(&self) -> Vec<ChangeLogEntry> {
        self.entries.iter().cloned().collect()
    }

    /// Removes the entries whose ids appear in `applied` (after an
    /// aggregation ack or a push ack) and returns how many were removed.
    pub fn discard_applied(&mut self, applied: &FxHashSet<OpId>) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !applied.contains(&e.entry_id));
        self.pending_bytes = self.entries.iter().map(|e| e.wire_size()).sum();
        before - self.entries.len()
    }

    /// Removes one entry by id (used when an overflowed insert fell back to a
    /// synchronous update that already applied the entry).
    pub fn discard_one(&mut self, id: OpId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.entry_id != id);
        self.pending_bytes = self.entries.iter().map(|e| e.wire_size()).sum();
        before != self.entries.len()
    }
}

/// All change-logs of one server, indexed by directory id with a secondary
/// index by fingerprint (aggregations address a whole fingerprint group).
#[derive(Debug, Clone, Default)]
pub struct ChangeLogStore {
    logs: FxHashMap<DirId, ChangeLog>,
    // The per-group sets are iterated (snapshots, aggregation fan-out), so
    // they use the deterministic hasher: iteration order must not vary
    // across processes, or same-seed runs stop being reproducible.
    by_fp: FxHashMap<u64, switchfs_simnet::FxHashSet<DirId>>,
}

impl ChangeLogStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry to the directory's change-log, creating the log on
    /// first use.
    pub fn append(
        &mut self,
        dir_id: DirId,
        dir_key: &MetaKey,
        fp: Fingerprint,
        entry: ChangeLogEntry,
        now: SimTime,
    ) {
        let log = self
            .logs
            .entry(dir_id)
            .or_insert_with(|| ChangeLog::new(dir_key.clone(), fp, now));
        log.append(entry, now);
        self.by_fp.entry(fp.raw()).or_default().insert(dir_id);
    }

    /// The change-log of a directory, if any.
    pub fn get(&self, dir: &DirId) -> Option<&ChangeLog> {
        self.logs.get(dir)
    }

    /// Mutable access to the change-log of a directory, if any.
    pub fn get_mut(&mut self, dir: &DirId) -> Option<&mut ChangeLog> {
        self.logs.get_mut(dir)
    }

    /// Directory ids that currently have a change-log in the given
    /// fingerprint group.
    pub fn dirs_in_group(&self, fp: Fingerprint) -> Vec<DirId> {
        self.by_fp
            .get(&fp.raw())
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Snapshot of every pending entry in a fingerprint group, across all of
    /// the group's directories, in per-directory FIFO order.
    pub fn snapshot_group(&self, fp: Fingerprint) -> Vec<ChangeLogEntry> {
        let mut out = Vec::new();
        for dir in self.dirs_in_group(fp) {
            if let Some(log) = self.logs.get(&dir) {
                out.extend(log.snapshot());
            }
        }
        out
    }

    /// Removes applied entries from every log in the group and drops logs
    /// that became empty. Returns the number of removed entries.
    pub fn discard_applied_in_group(
        &mut self,
        fp: Fingerprint,
        applied: &FxHashSet<OpId>,
    ) -> usize {
        let mut removed = 0;
        let dirs = self.dirs_in_group(fp);
        for dir in dirs {
            if let Some(log) = self.logs.get_mut(&dir) {
                removed += log.discard_applied(applied);
                if log.is_empty() {
                    self.logs.remove(&dir);
                    if let Some(set) = self.by_fp.get_mut(&fp.raw()) {
                        set.remove(&dir);
                        if set.is_empty() {
                            self.by_fp.remove(&fp.raw());
                        }
                    }
                }
            }
        }
        removed
    }

    /// Every directory that currently has pending entries.
    pub fn dirty_dirs(&self) -> Vec<(DirId, Fingerprint)> {
        self.logs.iter().map(|(d, l)| (*d, l.fp)).collect()
    }

    /// Total number of pending entries across all logs.
    pub fn total_pending(&self) -> usize {
        self.logs.values().map(|l| l.len()).sum()
    }

    /// True when no directory has pending entries.
    pub fn is_empty(&self) -> bool {
        self.logs.is_empty()
    }

    /// Drops one directory's log entirely (its pending entries migrated to
    /// another server with their shard). Returns the dropped entry count.
    pub fn remove(&mut self, dir: &DirId) -> usize {
        let Some(log) = self.logs.remove(dir) else {
            return 0;
        };
        if let Some(set) = self.by_fp.get_mut(&log.fp.raw()) {
            set.remove(dir);
            if set.is_empty() {
                self.by_fp.remove(&log.fp.raw());
            }
        }
        log.len()
    }

    /// Drops every log (volatile state lost in a crash).
    pub fn clear(&mut self) {
        self.logs.clear();
        self.by_fp.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{ChangeOp, ClientId, FileType, ServerId};

    fn entry(name: &str, seq: u64) -> ChangeLogEntry {
        ChangeLogEntry {
            entry_id: OpId {
                client: ClientId(1),
                seq,
            },
            dir: DirId::ROOT,
            name: name.to_string(),
            op: ChangeOp::Insert {
                file_type: FileType::File,
                mode: 0o644,
            },
            timestamp: seq,
        }
    }

    fn dir(i: u64) -> DirId {
        DirId::generate(ServerId(0), i)
    }

    #[test]
    fn append_tracks_bytes_and_time() {
        let mut log = ChangeLog::new(
            MetaKey::new(DirId::ROOT, "d"),
            Fingerprint::from_raw(1),
            SimTime::ZERO,
        );
        log.append(entry("a", 1), SimTime::from_micros(5));
        log.append(entry("bb", 2), SimTime::from_micros(9));
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.pending_bytes(),
            entry("a", 1).wire_size() + entry("bb", 2).wire_size()
        );
        assert_eq!(log.last_append(), SimTime::from_micros(9));
    }

    #[test]
    fn discard_applied_removes_only_matching_entries() {
        let mut log = ChangeLog::new(
            MetaKey::new(DirId::ROOT, "d"),
            Fingerprint::from_raw(1),
            SimTime::ZERO,
        );
        for i in 0..5 {
            log.append(entry(&format!("f{i}"), i), SimTime::ZERO);
        }
        let applied: FxHashSet<OpId> = [1u64, 3]
            .iter()
            .map(|&s| OpId {
                client: ClientId(1),
                seq: s,
            })
            .collect();
        assert_eq!(log.discard_applied(&applied), 2);
        assert_eq!(log.len(), 3);
        assert!(log.discard_one(OpId {
            client: ClientId(1),
            seq: 0
        }));
        assert!(!log.discard_one(OpId {
            client: ClientId(1),
            seq: 0
        }));
    }

    #[test]
    fn store_groups_by_fingerprint() {
        let mut store = ChangeLogStore::new();
        let fp_a = Fingerprint::from_raw(10);
        let fp_b = Fingerprint::from_raw(20);
        let (d1, d2, d3) = (dir(1), dir(2), dir(3));
        store.append(
            d1,
            &MetaKey::new(DirId::ROOT, "a"),
            fp_a,
            entry("x", 1),
            SimTime::ZERO,
        );
        store.append(
            d2,
            &MetaKey::new(DirId::ROOT, "b"),
            fp_a,
            entry("y", 2),
            SimTime::ZERO,
        );
        store.append(
            d3,
            &MetaKey::new(DirId::ROOT, "c"),
            fp_b,
            entry("z", 3),
            SimTime::ZERO,
        );
        assert_eq!(store.total_pending(), 3);
        let mut group_a = store.dirs_in_group(fp_a);
        group_a.sort();
        let mut expect = vec![d1, d2];
        expect.sort();
        assert_eq!(group_a, expect);
        assert_eq!(store.snapshot_group(fp_a).len(), 2);
        assert_eq!(store.snapshot_group(fp_b).len(), 1);
    }

    #[test]
    fn discard_in_group_drops_empty_logs() {
        let mut store = ChangeLogStore::new();
        let fp = Fingerprint::from_raw(10);
        let d1 = dir(1);
        store.append(
            d1,
            &MetaKey::new(DirId::ROOT, "a"),
            fp,
            entry("x", 1),
            SimTime::ZERO,
        );
        let applied: FxHashSet<OpId> = [OpId {
            client: ClientId(1),
            seq: 1,
        }]
        .into_iter()
        .collect();
        assert_eq!(store.discard_applied_in_group(fp, &applied), 1);
        assert!(store.is_empty());
        assert!(store.dirs_in_group(fp).is_empty());
    }

    #[test]
    fn clear_drops_everything() {
        let mut store = ChangeLogStore::new();
        store.append(
            dir(1),
            &MetaKey::new(DirId::ROOT, "a"),
            Fingerprint::from_raw(1),
            entry("x", 1),
            SimTime::ZERO,
        );
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.dirty_dirs().len(), 0);
    }
}
