//! Crash recovery (§5.4.2, §A.1).
//!
//! A crashed server loses every volatile structure (key-value store,
//! change-logs, invalidation list); only the WAL and the optional checkpoint
//! survive. Recovery proceeds in four steps:
//!
//! 1. replay the WAL (starting from the checkpoint, if present) to rebuild
//!    the key-value store and the change-log entries not yet marked
//!    "applied";
//! 2. proactively aggregate every directory this server owns, so that any
//!    aggregation it had issued before the crash runs to completion and the
//!    on-switch dirty set again reflects the true directory states;
//! 3. clone the invalidation list from another server;
//! 4. resume serving requests.
//!
//! A switch reboot is handled by the cluster harness: it clears the switch
//! state and calls [`Server::aggregate_all_owned`] on every server, after
//! which every directory is back in *normal* state, consistent with the
//! empty dirty set.

use switchfs_obs::EventKind;
use switchfs_proto::message::{Body, ServerMsg};
use switchfs_proto::{Fingerprint, TraceId};

use crate::server::rename::PreparedTxn;
use crate::server::Server;
use crate::wal::{CheckpointData, TxnMarker};

/// Summary of one recovery run, reported to the harness (used by the §7.7
/// experiment and asserted by the chaos checker).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records replayed.
    pub wal_records_replayed: usize,
    /// Inodes restored into the key-value store.
    pub inodes_recovered: usize,
    /// Not-yet-applied change-log entries rebuilt.
    pub changelog_entries_recovered: usize,
    /// Directories re-aggregated after the replay.
    pub directories_aggregated: usize,
    /// In-doubt prepared transactions found after the replay (crashed
    /// between prepare and decision).
    pub prepared_txns_recovered: usize,
    /// In-doubt transactions the decision query resolved to commit.
    pub txn_commits_recovered: usize,
    /// In-doubt transactions the decision query resolved to abort.
    pub txn_aborts_recovered: usize,
    /// In-doubt transactions left unresolved (coordinator unreachable); the
    /// background sweep keeps retrying them.
    pub txn_unresolved: usize,
    /// Cached responses rebuilt into the duplicate-suppression cache, so a
    /// retransmission spanning the crash still gets its original result.
    pub completed_ops_recovered: usize,
    /// Interrupted shard migrations whose flip had already happened; the
    /// replayed local copy was dropped in favor of the new owner's.
    pub migrations_resolved: usize,
    /// Records in the crashed log that failed their checksum (torn writes).
    pub wal_torn_records: usize,
    /// Records truncated from the tail before replay: torn ones plus intact
    /// records stranded past a gap a dropped write left.
    pub wal_truncated_records: usize,
    /// On-media bytes of the replayed records — with the record count, the
    /// recovery-work measure of the §7.7 experiment.
    pub wal_bytes_replayed: u64,
    /// `Resolved` markers replayed with no matching `Prepared` in sight
    /// (neither checkpointed nor replayed). Benign — a `Resolved` is only
    /// written after the decision was applied, and the decision's effects
    /// replay from their own records — but counted rather than assumed
    /// impossible, so a torn tail can never turn the pairing assumption
    /// into a panic or a silent drop.
    pub orphan_resolved_markers: usize,
    /// Virtual time the recovery took, in nanoseconds.
    pub duration_ns: u64,
}

impl Server {
    /// Recovers this server after a crash. The caller must have brought the
    /// node back up in the network before calling this.
    pub async fn recover(&self) -> RecoveryReport {
        let start = self.handle.now();
        let costs = self.cfg.costs;
        let mut report = RecoveryReport::default();

        // Volatile state starts from scratch.
        {
            let mut inner = self.inner.borrow_mut();
            inner.crashed = false;
            inner.unavailable = true;
            inner.inodes.clear();
            inner.entries.clear();
            inner.dir_index.clear();
            inner.changelogs.clear();
            inner.invalidation.clear();
            inner.applied_entry_ids.clear();
            inner.retired_entry_ids.clear();
            inner.retired_entry_order.clear();
            inner.pending_discard_confirms.clear();
            inner.completed_ops.clear();
            inner.push_timers.clear();
            inner.pending_commits.clear();
            inner.pending_tokens.clear();
            inner.pending_aggs.clear();
            inner.active_aggs.clear();
            inner.pending_agg_acks.clear();
            inner.prepared_txns.clear();
            inner.decided_txns.clear();
            inner.active_txns.clear();
            inner.resolving_txns.clear();
            inner.txn_vote_tokens.clear();
            inner.txn_ack_tokens.clear();
            inner.committed_txns.clear();
            inner.committed_txn_order.clear();
            inner.in_flight_ops.clear();
            inner.seen_request_pkts.clear();
            inner.migrating_shards.clear();
            inner.applied_installs.clear();
            inner.in_progress_installs.clear();
        }
        // Drop packets addressed to the previous incarnation.
        self.endpoint.drain();

        // Step 0a: verify the log before trusting it. A torn-write crash may
        // have corrupted or dropped records past the durable watermark;
        // recovery keeps the longest checksum-clean contiguous prefix and
        // truncates the rest. Truncated LSNs are never reissued, so they
        // cannot collide with id-based duplicate suppression rebuilt below.
        let torn = self.durable.borrow_mut().wal.recover_truncate();
        report.wal_torn_records = torn.torn;
        report.wal_truncated_records = torn.truncated;

        // Step 0b: load the checkpoint, if one exists.
        let checkpoint = self.durable.borrow().checkpoint.load();
        let replay_from = if let Some((lsn, data)) = checkpoint {
            self.load_checkpoint(&data);
            lsn
        } else {
            0
        };

        // Step 1: replay the WAL.
        let records: Vec<(u64, crate::wal::WalOp, bool, u64)> = self
            .durable
            .borrow()
            .wal
            .records()
            .iter()
            .filter(|r| r.lsn > replay_from)
            .map(|r| (r.lsn, r.payload.clone(), r.applied, r.size))
            .collect();
        let mut started_migrations: std::collections::BTreeMap<u32, switchfs_proto::ServerId> =
            std::collections::BTreeMap::new();
        let obs_on = self.obs_on();
        for (lsn, op, applied, size) in &records {
            // Each replayed record costs one KV write's worth of CPU; this is
            // what makes the §7.7 recovery time proportional to the number of
            // operations to recover.
            self.cpu.run(costs.kv_put).await;
            {
                // Causal identity mirrors the live path: the client op the
                // record was logged for, else the single change-log entry it
                // applied.
                let trace = if obs_on {
                    op.op_id
                        .or(match op.applied_entry_ids[..] {
                            [only] => Some(only),
                            _ => None,
                        })
                        .map(TraceId::of_op)
                } else {
                    None
                };
                let mut inner = self.inner.borrow_mut();
                for e in &op.effects {
                    // Per-effect replay events, like the live path in
                    // `apply_and_log`: recorder-only state, invisible to the
                    // replay digest.
                    if let Some((dir, insert)) = e.entry_target().filter(|_| obs_on) {
                        let kind = EventKind::RecoveryEntryApply {
                            lsn: *lsn,
                            dir,
                            insert,
                        };
                        self.trace_event(trace, kind);
                    }
                    inner.apply_effect(e);
                }
                for id in &op.applied_entry_ids {
                    inner.applied_entry_ids.insert(*id);
                }
            }
            if let Some((dir_id, dir_key, entry)) = &op.pending_entry {
                if !applied {
                    // The deferred update never reached the directory owner:
                    // rebuild it into the change-log.
                    let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
                    let now = self.handle.now();
                    self.inner.borrow_mut().changelogs.append(
                        *dir_id,
                        dir_key,
                        fp,
                        entry.clone(),
                        now,
                    );
                    report.changelog_entries_recovered += 1;
                }
            }
            if let Some(marker) = &op.txn_marker {
                let now = self.handle.now();
                let mut inner = self.inner.borrow_mut();
                match marker {
                    TxnMarker::Prepared {
                        txn_id,
                        coordinator,
                        ops,
                    } => {
                        inner.prepared_txns.insert(
                            *txn_id,
                            PreparedTxn {
                                ops: ops.clone(),
                                coordinator: *coordinator,
                                prepared_at: now,
                            },
                        );
                    }
                    TxnMarker::Decided { txn_id, commit } => {
                        inner.decided_txns.insert(*txn_id, *commit);
                    }
                    TxnMarker::Resolved { txn_id } => {
                        if inner.prepared_txns.remove(txn_id).is_none() {
                            // No matching `Prepared` anywhere (checkpoint or
                            // replay): tolerated, not assumed away. The
                            // decision this marker witnessed was applied
                            // before it was written, and its effects replay
                            // from their own records; any txn genuinely
                            // still in doubt stays in `prepared_txns` and is
                            // resolved by coordinator query below.
                            report.orphan_resolved_markers += 1;
                        }
                    }
                    TxnMarker::Forgotten { txn_id } => {
                        inner.decided_txns.remove(txn_id);
                    }
                }
            }
            if let Some(response) = &op.completed {
                self.inner.borrow_mut().cache_response(response.clone());
                report.completed_ops_recovered += 1;
            }
            if let Some(marker) = &op.migration {
                match marker {
                    crate::wal::MigrationMarker::Started { shard, target } => {
                        started_migrations.insert(*shard, *target);
                    }
                    crate::wal::MigrationMarker::Completed { shard } => {
                        started_migrations.remove(shard);
                    }
                }
            }
            report.wal_records_replayed += 1;
            report.wal_bytes_replayed += size;
        }
        self.trace_event(
            None,
            switchfs_obs::EventKind::RecoveryReplay {
                records: report.wal_records_replayed as u64,
                bytes: report.wal_bytes_replayed,
            },
        );
        // Resolve interrupted migrations against the shared shard map: a
        // `Started` with no `Completed` whose shard no longer maps here means
        // the flip happened before the crash — the replayed copy is stale
        // and the new owner is authoritative, so drop it. A shard still
        // mapping here never left this server's ownership; the cluster
        // re-drives the migration.
        for (shard, _target) in started_migrations {
            if self.cfg.placement.owner_of_shard(shard) != self.cfg.id {
                self.drop_shard_state(shard);
                report.migrations_resolved += 1;
            }
        }
        report.inodes_recovered = self.inner.borrow().inodes.len();

        // Step 1b: resolve in-doubt transactions (§5.4.2) — prepared records
        // with no durable decision. Self-coordinated ones (this server
        // crashed mid-commit) resolve from the replayed decision table;
        // everything else re-asks its coordinator. Runs before the
        // re-aggregation so a committed rename's migrated content is in
        // place when the owned directories aggregate.
        let in_doubt: Vec<u64> = {
            let inner = self.inner.borrow();
            let mut ids: Vec<u64> = inner.prepared_txns.keys().copied().collect();
            // Deterministic resolution order: the decision queries below are
            // part of the replayable packet schedule.
            ids.sort_unstable();
            ids
        };
        report.prepared_txns_recovered = in_doubt.len();
        for txn_id in in_doubt {
            match self.resolve_prepared_txn(txn_id).await {
                Some(true) => report.txn_commits_recovered += 1,
                Some(false) => report.txn_aborts_recovered += 1,
                None => report.txn_unresolved += 1,
            }
        }

        // Step 2: proactively aggregate every directory this server owns so
        // interrupted aggregations complete and the dirty set converges.
        report.directories_aggregated = self.aggregate_all_owned().await;

        // Step 3: clone the invalidation list from another server.
        if let Some(other) = self.cfg.other_servers().first() {
            self.send_plain(
                self.cfg.node_of(*other),
                Body::Server(ServerMsg::RecoveryCloneInvalidation { from: self.cfg.id }),
            );
            // The reply is handled by the dispatcher; give it a bounded wait.
            self.handle.sleep(costs.request_timeout).await;
        }

        // Step 4: resume serving.
        {
            let mut inner = self.inner.borrow_mut();
            inner.unavailable = false;
            inner.stats.recoveries += 1;
        }
        report.duration_ns = self.handle.now().duration_since(start).as_nanos();
        report
    }

    /// Aggregates every fingerprint group that owns at least one directory on
    /// this server. Used by server recovery, switch recovery and
    /// stop-the-world reconfiguration (§5.5). Returns how many groups were
    /// aggregated.
    pub async fn aggregate_all_owned(&self) -> usize {
        // Deterministic iteration: the aggregation order below is part of
        // the replayable schedule.
        let fps: switchfs_simnet::FxHashSet<u64> = {
            let inner = self.inner.borrow();
            inner
                .dir_index
                .values()
                .map(|key| Fingerprint::of_dir(&key.pid, &key.name).raw())
                .collect()
        };
        let mut aggregated = 0;
        for raw in fps {
            let fp = Fingerprint::from_raw(raw);
            // Only aggregate groups this server actually owns (preloaded
            // namespaces can index foreign directories defensively).
            if self.cfg.placement.dir_owner_by_fp(fp) != self.cfg.id {
                continue;
            }
            let fpg = self.locks.fp_group(fp);
            let _w = fpg.write().await;
            self.aggregate_group(fp, None).await;
            aggregated += 1;
        }
        aggregated
    }

    /// Writes a checkpoint of the current volatile state, allowing the WAL
    /// prefix to be truncated (the recovery-time optimization §7.7 mentions).
    pub fn checkpoint(&self) {
        let data = {
            let inner = self.inner.borrow();
            CheckpointData {
                inodes: inner
                    .inodes
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
                entries: inner
                    .entries
                    .iter()
                    .flat_map(|(d, c)| c.iter().map(move |e| (*d, e.clone())))
                    .collect(),
                dir_index: inner
                    .dir_index
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect(),
                invalidation: inner
                    .invalidation
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect(),
                pending: {
                    let mut out = Vec::new();
                    for (dir, fp) in inner.changelogs.dirty_dirs() {
                        if let Some(log) = inner.changelogs.get(&dir) {
                            for e in log.entries() {
                                out.push((dir, log.dir_key.clone(), e.clone()));
                            }
                        }
                        let _ = fp;
                    }
                    out
                },
                applied_entry_ids: inner.applied_entry_ids.iter().copied().collect(),
                retired_entry_ids: inner
                    .retired_entry_order
                    .iter()
                    .map(|(_, id)| *id)
                    .collect(),
                prepared_txns: inner
                    .prepared_txns
                    .iter()
                    .map(|(id, p)| (*id, p.coordinator, p.ops.clone()))
                    .collect(),
                decided_txns: inner.decided_txns.iter().map(|(k, v)| (*k, *v)).collect(),
                completed_ops: {
                    let mut v: Vec<_> = inner
                        .completed_ops
                        .values()
                        .flat_map(|m| m.values().cloned())
                        .collect();
                    v.sort_by_key(|r| r.op_id);
                    v
                },
            }
        };
        let mut durable = self.durable.borrow_mut();
        // Checkpoint at the durable watermark, never past it: a record still
        // in the volatile tail may not survive the next crash, and
        // truncating it here would lose it even though the checkpointed
        // snapshot (taken at a quiesce point, after every append's flush
        // barrier has run) does reflect it. Cutting at `flushed` keeps the
        // unflushed suffix replayable either way.
        let lsn = durable.wal.flushed();
        durable.checkpoint.store(lsn, data);
        durable.wal.truncate_through(lsn);
    }

    fn load_checkpoint(&self, data: &CheckpointData) {
        let mut inner = self.inner.borrow_mut();
        for (k, v) in &data.inodes {
            inner.inodes.put(k.clone(), v.clone());
        }
        for (d, e) in &data.entries {
            inner.put_entry(*d, e.clone());
        }
        for (id, key) in &data.dir_index {
            inner.dir_index.insert(*id, key.clone());
        }
        for (id, key) in &data.invalidation {
            inner.invalidation.insert(*id, key.clone());
        }
        for id in &data.applied_entry_ids {
            inner.applied_entry_ids.insert(*id);
        }
        let now = self.handle.now();
        for id in &data.retired_entry_ids {
            inner.retire_entry_id(*id, now);
        }
        for (dir, key, entry) in &data.pending {
            let fp = Fingerprint::of_dir(&key.pid, &key.name);
            inner.changelogs.append(*dir, key, fp, entry.clone(), now);
        }
        for (txn_id, coordinator, ops) in &data.prepared_txns {
            inner.prepared_txns.insert(
                *txn_id,
                PreparedTxn {
                    ops: ops.clone(),
                    coordinator: *coordinator,
                    prepared_at: now,
                },
            );
        }
        for (txn_id, commit) in &data.decided_txns {
            inner.decided_txns.insert(*txn_id, *commit);
        }
        for response in &data.completed_ops {
            inner.cache_response(response.clone());
        }
    }
}
