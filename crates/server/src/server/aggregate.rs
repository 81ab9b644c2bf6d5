//! Directory reads, metadata aggregation, change-log compaction and the
//! proactive push / aggregation machinery (§5.2.2, §5.3).
//!
//! Every set/map on this path uses the deterministic FxHash hasher: the
//! aggregation schedule is part of the replayable simulation, so no
//! std-`RandomState` structure — even a lookup-only one — is allowed here
//! (cross-process same-seed runs must be bit-identical; asserted by
//! `tests/conformance.rs`).

use switchfs_simnet::FxHashSet;

use switchfs_proto::message::{AggregationPayload, Body, ClientRequest, ServerMsg};
use switchfs_proto::message::{CoordMsg, MetaOp};
use switchfs_proto::{
    changelog::CompactedChanges, ChangeLogEntry, ChangeOp, DirEntry, DirId, DirtyRet,
    DirtySetHeader, DirtySetOp, DirtyState, Fingerprint, FsError, MetaKey, OpId, OpResult,
    ServerId, Timestamps,
};
use switchfs_simnet::timeout;

use crate::config::{TrackingMode, UpdateMode};
use crate::server::{AggCollector, Server};
use crate::wal::KvEffect;

impl Server {
    /// Handles `statdir` and `readdir` (§5.2.2). The dirty-set query result
    /// attached by the switch decides whether an aggregation is needed.
    pub(crate) async fn handle_dir_read(
        &self,
        req: &ClientRequest,
        dirty_ret: Option<DirtyRet>,
    ) -> OpResult {
        let costs = self.cfg.costs;
        self.cpu.run(costs.request_overhead()).await;
        if self.is_stale(&req.ancestors) {
            return OpResult::Err(FsError::StaleCache);
        }
        let key = req.op.primary_key().clone();
        let want_listing = matches!(req.op, MetaOp::Readdir { .. });
        if self.cfg.update_mode == UpdateMode::Synchronous {
            // Baseline systems read directories in place: the inode is always
            // up to date, no dirty-set involvement.
            let lock = self.locks.inode(&key);
            let _g = lock.read().await;
            self.cpu.run(costs.lock_op + costs.kv_get).await;
            return self.finish_dir_read(&key, want_listing).await;
        }
        let fp = Fingerprint::of_dir(&key.pid, &key.name);
        let state = self.dirty_state_for_read(fp, dirty_ret).await;

        if state == DirtyState::Scattered {
            // Aggregation path: block every directory read of the fingerprint
            // group, pull the change-logs, apply them, then serve the read.
            let fpg = self.locks.fp_group(fp);
            let _w = fpg.write().await;
            self.cpu.run(costs.lock_op).await;
            // The directory may have been removed concurrently.
            if self.inner.borrow().inodes.peek(&key).is_none() {
                return OpResult::Err(FsError::NotFound);
            }
            // Boxed: the aggregation machinery dominates this future's size
            // but runs only on the scattered path.
            Box::pin(self.aggregate_group(fp, None)).await;
            self.finish_dir_read(&key, want_listing).await
        } else {
            // Normal state: a plain read, serialized after any in-flight
            // aggregation of the same group.
            let fpg = self.locks.fp_group(fp);
            let _r = fpg.read().await;
            let lock = self.locks.inode(&key);
            let _g = lock.read().await;
            self.cpu.run(costs.lock_op + costs.kv_get).await;
            self.finish_dir_read(&key, want_listing).await
        }
    }

    async fn finish_dir_read(&self, key: &MetaKey, want_listing: bool) -> OpResult {
        if want_listing {
            match self.read_listing(key).await {
                Some((attrs, entries)) => OpResult::Listing { attrs, entries },
                None => OpResult::Err(FsError::NotFound),
            }
        } else {
            let mut inner = self.inner.borrow_mut();
            match inner.inodes.get(key) {
                Some(mut attrs) if attrs.is_dir() => {
                    // The size is derived from the entry list; the peek
                    // keeps the read billed as the single inode get.
                    attrs.size = inner.entries.peek(&attrs.id).map_or(0, |c| c.len()) as u64;
                    OpResult::Attrs(attrs)
                }
                Some(_) => OpResult::Err(FsError::NotADirectory),
                None => OpResult::Err(FsError::NotFound),
            }
        }
    }

    /// Runs one aggregation for a fingerprint group this server owns.
    ///
    /// The caller must hold the fingerprint-group write lock.
    pub(crate) async fn aggregate_group(
        &self,
        fp: Fingerprint,
        invalidate: Option<(DirId, MetaKey)>,
    ) {
        // Counted for the whole call — including the apply phase after the
        // collection completes — so a shard migration's drain barrier can
        // wait for every in-progress aggregation of the shard, not just
        // the ones still collecting (`pending_aggs` empties earlier).
        {
            let mut inner = self.inner.borrow_mut();
            *inner.active_aggs.entry(fp.raw()).or_insert(0) += 1;
        }
        self.aggregate_group_counted(fp, invalidate).await;
        {
            let mut inner = self.inner.borrow_mut();
            if let Some(c) = inner.active_aggs.get_mut(&fp.raw()) {
                *c -= 1;
                if *c == 0 {
                    inner.active_aggs.remove(&fp.raw());
                }
            }
        }
    }

    async fn aggregate_group_counted(&self, fp: Fingerprint, invalidate: Option<(DirId, MetaKey)>) {
        let costs = self.cfg.costs;
        let others = self.cfg.other_servers();
        let agg_id = self.next_token();
        let payload = AggregationPayload {
            fp,
            agg_id,
            owner: self.cfg.id,
        };
        self.trace_event(
            None,
            switchfs_obs::EventKind::AggregationFanout {
                fp: fp.raw(),
                peers: others.len() as u32,
            },
        );

        // Locally-held entries for directories in this group (the file owner
        // and the directory owner can be the same server).
        let local_entries: Vec<ChangeLogEntry> = {
            let inner = self.inner.borrow();
            inner.changelogs.snapshot_group(fp)
        };

        // Collect remote change-logs, retrying lost requests (§5.4.1).
        // Entries are *accumulated* across attempts (deduplicated by entry
        // id): a server that responded to attempt 1 is acknowledged below,
        // so its attempt-1 entries must survive even if a later attempt's
        // partial collection no longer contains them (the responder may lose
        // its re-sent copy to the same faults that forced the retry).
        let mut remote_entries: Vec<ChangeLogEntry> = Vec::new();
        let mut collected_ids: FxHashSet<OpId> = FxHashSet::default();
        let collect = |remote_entries: &mut Vec<ChangeLogEntry>,
                       collected_ids: &mut FxHashSet<OpId>,
                       entries: Vec<ChangeLogEntry>| {
            for e in entries {
                if collected_ids.insert(e.entry_id) {
                    remote_entries.push(e);
                }
            }
        };
        // Iterated below to send acknowledgments: must have a
        // process-independent iteration order, or the ack packet order (and
        // with it the whole downstream schedule) varies run to run.
        let mut responders: FxHashSet<ServerId> = FxHashSet::default();
        if !others.is_empty() {
            let mut attempt = 0;
            loop {
                let (tx, rx) = switchfs_simnet::sync::oneshot::channel();
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.pending_aggs.insert(
                        agg_id,
                        AggCollector {
                            fp,
                            expected: others.iter().copied().collect(),
                            entries: Vec::new(),
                            done: Some(tx),
                        },
                    );
                }
                self.send_aggregation_request(&payload, invalidate.clone());
                let wait = timeout(
                    &self.handle,
                    costs.request_timeout * (attempt as u64 + 2),
                    rx.recv(),
                )
                .await;
                match wait {
                    Some(Ok(entries)) => {
                        self.inner.borrow_mut().pending_aggs.remove(&agg_id);
                        responders = others.iter().copied().collect();
                        collect(&mut remote_entries, &mut collected_ids, entries);
                        break;
                    }
                    _ => {
                        // Timeout: collect whatever arrived so far, then
                        // retry with a fresh multicast.
                        let collector = self.inner.borrow_mut().pending_aggs.remove(&agg_id);
                        if let Some(mut c) = collector {
                            responders
                                .extend(others.iter().copied().filter(|s| !c.expected.contains(s)));
                            collect(
                                &mut remote_entries,
                                &mut collected_ids,
                                std::mem::take(&mut c.entries),
                            );
                        }
                        attempt += 1;
                        self.inner.borrow_mut().stats.retransmissions += 1;
                        if attempt > costs.max_retries {
                            break;
                        }
                    }
                }
            }
        }

        // The gate drops anything already applied (duplicate aggregations,
        // re-sent entries).
        let local_ids: Vec<OpId> = local_entries.iter().map(|e| e.entry_id).collect();
        let mut entries = local_entries;
        entries.extend(remote_entries);
        let applied_ids = self
            .apply_dir_updates(DirUpdates::Deferred(entries))
            .await
            .unwrap_or_default();

        // Acknowledge the responders so they can mark their entries applied
        // and release their change-log locks (§5.2.2 steps 9a/9b).
        for s in &responders {
            self.send_plain(
                self.cfg.node_of(*s),
                Body::Server(ServerMsg::AggregationAck { agg: payload }),
            );
        }
        // The owner's own deferred entries for this group are now applied.
        let own_ids: FxHashSet<OpId> = applied_ids.into_iter().collect();
        {
            let mut inner = self.inner.borrow_mut();
            inner.changelogs.discard_applied_in_group(fp, &own_ids);
            inner.push_timers.remove(&fp.raw());
            inner.stats.aggregations += 1;
        }
        self.durable.borrow_mut().wal.mark_applied_where(|rec| {
            rec.pending_entry
                .as_ref()
                .map(|(_, _, e)| own_ids.contains(&e.entry_id))
                .unwrap_or(false)
        });
        // The owner held (and just durably discarded) its own local entries:
        // holder and applier are the same server, so the discard confirms
        // itself and those ids retire into the bounded FIFO immediately.
        {
            let me = self.cfg.id;
            let now = self.handle.now();
            let mut inner = self.inner.borrow_mut();
            inner.queue_discard_confirm(me, me, now, local_ids);
        }
    }

    /// Sends the aggregation request according to the tracking mode: through
    /// the switch (which removes the fingerprint and multicasts), or by
    /// removing the state locally / at the coordinator and unicasting.
    fn send_aggregation_request(
        &self,
        payload: &AggregationPayload,
        invalidate: Option<(DirId, MetaKey)>,
    ) {
        let body = Body::Server(ServerMsg::AggregationRequest {
            agg: *payload,
            invalidate,
        });
        match self.cfg.tracking {
            TrackingMode::InNetwork => {
                let seq = self.next_remove_seq();
                let hdr = DirtySetHeader::remove(payload.fp, seq);
                // Destination is nominally this server; the switch replaces it
                // with a multicast to every other metadata server.
                self.send_dirty(self.cfg.node, hdr, body);
            }
            TrackingMode::DedicatedServer(coord) => {
                let token = self.next_token();
                self.send_plain(
                    coord,
                    Body::Coord(CoordMsg::Request {
                        token,
                        op: DirtySetOp::Remove,
                        fp: payload.fp,
                        seq: self.next_remove_seq(),
                    }),
                );
                self.multicast_plain(&self.cfg.other_servers(), body);
            }
            TrackingMode::OwnerServer => {
                self.inner.borrow_mut().local_dirty.remove(payload.fp);
                self.multicast_plain(&self.cfg.other_servers(), body);
            }
        }
    }

    /// The one place a directory update is applied.
    ///
    /// The caller holds the write lock of the directory's fingerprint group
    /// (`self.locks.fp_group`). That lock is exclusive, so the duplicate
    /// filter, the translation into KV effects and the logged apply all run
    /// without a check-then-act window: a second copy of an entry waiting
    /// on the lock finds the first one already recorded and is skipped,
    /// along with its CPU charge.
    ///
    /// Returns the ids applied by this call (duplicates excluded; deferred
    /// entries of a removed directory count as applied). A single update
    /// whose directory inode is missing fails with `NotFound` and is not
    /// recorded.
    pub(crate) async fn apply_dir_updates(
        &self,
        update: DirUpdates<'_>,
    ) -> Result<Vec<OpId>, FsError> {
        let (dir_key, entries) = match update {
            DirUpdates::Single { dir_key, entry } => (Some(dir_key), vec![entry.clone()]),
            DirUpdates::Deferred(entries) => (None, entries),
        };
        let inode_lock = dir_key.map(|key| self.locks.inode(key));
        let _inode_guard = match &inode_lock {
            Some(lock) => Some(lock.write().await),
            None => None,
        };
        let fresh: Vec<ChangeLogEntry> = {
            let inner = self.inner.borrow();
            entries
                .into_iter()
                .filter(|e| !inner.entry_already_applied(&e.entry_id))
                .collect()
        };
        let Some(dir_key) = dir_key else {
            self.apply_deferred(&fresh).await;
            return Ok(fresh.iter().map(|e| e.entry_id).collect());
        };
        let Some(entry) = fresh.first() else {
            return Ok(Vec::new());
        };
        let costs = self.cfg.costs;
        self.cpu
            .run(costs.lock_op + costs.kv_get + costs.kv_put + costs.wal_append)
            .await;
        if self.inner.borrow().inodes.peek(dir_key).is_none() {
            return Err(FsError::NotFound);
        }
        let ops = [(&entry.name, entry.op)];
        let effects = self.dir_effects(dir_key, entry.dir, entry.timestamp, ops);
        self.apply_and_log(None, effects, None, vec![entry.entry_id])
            .await;
        Ok(vec![entry.entry_id])
    }

    /// Applies deduplicated change-log entries to the directories of a
    /// fingerprint group owned by this server, with or without compaction
    /// depending on the update mode (Fig. 14's "+Async" vs "+Compaction").
    /// Only [`Server::apply_dir_updates`] calls this.
    async fn apply_deferred(&self, entries: &[ChangeLogEntry]) {
        let costs = self.cfg.costs;
        // Group entries per directory by reference, preserving FIFO order
        // within each — nothing is cloned just to be regrouped.
        let mut per_dir: Vec<(DirId, Vec<&ChangeLogEntry>)> = Vec::new();
        for e in entries {
            match per_dir.iter_mut().find(|(d, _)| *d == e.dir) {
                Some((_, v)) => v.push(e),
                None => per_dir.push((e.dir, vec![e])),
            }
        }
        for (dir, dir_entries) in per_dir {
            let dir_key = {
                let inner = self.inner.borrow();
                inner.dir_index.get(&dir).cloned()
            };
            let Some(dir_key) = dir_key else {
                // The directory was removed; its deferred updates are moot,
                // but they still count as consumed.
                continue;
            };
            match self.cfg.update_mode {
                UpdateMode::AsyncCompacted => {
                    let compacted = CompactedChanges::from_entry_refs(dir_entries.iter().copied());
                    {
                        let mut inner = self.inner.borrow_mut();
                        inner.stats.entries_compacted_away += compacted.merged_entries as u64;
                    }
                    // One attribute update for the whole batch.
                    let ops = compacted.entry_ops.iter().map(|(name, op)| (name, *op));
                    let effects = self.dir_effects(&dir_key, dir, compacted.max_timestamp, ops);
                    // Entry-list mutations are spread across cores: different
                    // keys do not conflict, which is what restores
                    // intra-server parallelism (Fig. 14).
                    let per_core = entries_chunk_cost(
                        compacted.entry_ops.len(),
                        self.cpu.num_cores(),
                        costs.entry_apply,
                    );
                    let mut joins = Vec::new();
                    for chunk_cost in per_core {
                        let cpu = self.cpu.clone();
                        joins.push(self.handle.spawn_with_result(async move {
                            cpu.run(chunk_cost).await;
                        }));
                    }
                    for j in joins {
                        j.join().await;
                    }
                    let ids: Vec<OpId> = dir_entries.iter().map(|e| e.entry_id).collect();
                    self.apply_and_log(None, effects, None, ids).await;
                }
                UpdateMode::AsyncNoCompaction | UpdateMode::Synchronous => {
                    // Apply every entry individually and serially: one
                    // attribute read-modify-write plus one entry mutation per
                    // deferred update, all under the key-value store's
                    // serialization (the "+Async" bar of Fig. 14).
                    for e in &dir_entries {
                        self.cpu.run(costs.entry_apply + costs.kv_get).await;
                        let effects =
                            self.dir_effects(&dir_key, dir, e.timestamp, [(&e.name, e.op)]);
                        self.apply_and_log(None, effects, None, vec![e.entry_id])
                            .await;
                    }
                }
            }
        }
        self.inner.borrow_mut().stats.entries_applied += entries.len() as u64;
    }

    /// The KV effects of entry-list ops on a locally-owned directory: one
    /// timestamp bump of the directory inode (when present) plus one
    /// mutation per op. The size is not touched — it is derived from the
    /// entry list at read time.
    fn dir_effects<'e>(
        &self,
        dir_key: &MetaKey,
        dir: DirId,
        timestamp: u64,
        ops: impl IntoIterator<Item = (&'e String, ChangeOp)>,
    ) -> Vec<KvEffect> {
        let attrs = self.inner.borrow().inodes.peek(dir_key).cloned();
        let bump = attrs.map(|mut attrs| {
            let mut t = Timestamps::at(timestamp);
            t.atime = attrs.times.atime;
            attrs.times.merge_max(&t);
            KvEffect::PutInode(dir_key.clone(), attrs)
        });
        let list = ops.into_iter().map(|(name, op)| match op {
            ChangeOp::Insert { file_type, mode } => KvEffect::PutEntry(
                dir,
                DirEntry {
                    name: name.clone(),
                    file_type,
                    mode,
                },
            ),
            ChangeOp::Remove => KvEffect::DeleteEntry(dir, name.clone()),
        });
        bump.into_iter().chain(list).collect()
    }

    // ------------------------------------------------------------------
    // Remote-side aggregation handling.
    // ------------------------------------------------------------------

    /// Handles an aggregation request multicast by the switch (or unicast by
    /// the owner in the server-tracking modes): send the matching change-log
    /// entries to the owner, then hold the change-log read locks until the
    /// owner's acknowledgment arrives (§5.2.2 step 6 / 9a).
    pub(crate) async fn handle_aggregation_request(
        &self,
        agg: AggregationPayload,
        invalidate: Option<(DirId, MetaKey)>,
    ) {
        let costs = self.cfg.costs;
        self.cpu.run(costs.software_path).await;
        if agg.owner == self.cfg.id {
            // Our own multicast reflected back (possible in the unicast
            // modes); nothing to do.
            return;
        }
        if let Some((dir_id, dir_key)) = invalidate {
            self.apply_and_log(
                None,
                vec![KvEffect::Invalidate(dir_id, dir_key)],
                None,
                Vec::new(),
            )
            .await;
        }
        // Read-lock every change-log in the fingerprint group while its
        // entries are in flight.
        let dirs = {
            let inner = self.inner.borrow();
            inner.changelogs.dirs_in_group(agg.fp)
        };
        let mut guards = Vec::new();
        for d in &dirs {
            let lock = self.locks.changelog(d);
            guards.push(lock.read().await);
        }
        self.cpu.run(costs.lock_op * dirs.len().max(1) as u64).await;
        let entries = {
            let inner = self.inner.borrow();
            inner.changelogs.snapshot_group(agg.fp)
        };
        let sent_ids: FxHashSet<OpId> = entries.iter().map(|e| e.entry_id).collect();
        let owner_node = self.cfg.node_of(agg.owner);
        let discard_confirm = self.inner.borrow_mut().take_discard_confirms(agg.owner);
        self.send_plain(
            owner_node,
            Body::Server(ServerMsg::AggregationEntries {
                agg,
                from: self.cfg.id,
                entries,
                discard_confirm,
            }),
        );
        // Wait for the owner's ack (bounded), then mark the entries applied.
        // Only a real ack counts: when a retried aggregation request spawns a
        // second handler for the same agg id, its sender registration drops
        // ours — `recv` then completes with `Err(RecvError)`, which must NOT
        // be mistaken for an acknowledgment (discarding un-applied entries
        // here silently loses deferred directory updates; found by the chaos
        // checker as a listing/inode divergence).
        let (tx, rx) = switchfs_simnet::sync::oneshot::channel();
        self.inner
            .borrow_mut()
            .pending_agg_acks
            .insert(agg.agg_id, tx);
        let acked = matches!(
            timeout(
                &self.handle,
                costs.request_timeout * (costs.max_retries as u64 + 2),
                rx.recv(),
            )
            .await,
            Some(Ok(()))
        );
        self.inner.borrow_mut().pending_agg_acks.remove(&agg.agg_id);
        if acked && !sent_ids.is_empty() {
            {
                let mut inner = self.inner.borrow_mut();
                inner.changelogs.discard_applied_in_group(agg.fp, &sent_ids);
            }
            self.durable.borrow_mut().wal.mark_applied_where(|rec| {
                rec.pending_entry
                    .as_ref()
                    .map(|(_, _, e)| sent_ids.contains(&e.entry_id))
                    .unwrap_or(false)
            });
            // The discard is durable (WAL records marked applied): this
            // holder can never re-send these entries, so tell the owner —
            // on the next message that flows there — to retire them from
            // its duplicate-suppression set.
            let me = self.cfg.id;
            let now = self.handle.now();
            self.inner.borrow_mut().queue_discard_confirm(
                me,
                agg.owner,
                now,
                sent_ids.iter().copied(),
            );
        }
        drop(guards);
    }

    /// Owner side: a server's change-log entries arrived.
    pub(crate) fn handle_aggregation_entries(
        &self,
        agg: AggregationPayload,
        from: ServerId,
        entries: Vec<ChangeLogEntry>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let Some(collector) = inner.pending_aggs.get_mut(&agg.agg_id) else {
            return;
        };
        if collector.expected.remove(&from) {
            collector.entries.extend(entries);
        }
        if collector.expected.is_empty() {
            let all = std::mem::take(&mut collector.entries);
            if let Some(tx) = collector.done.take() {
                let _ = tx.send(all);
            }
        }
    }

    /// Remote side: the owner acknowledged our entries.
    pub(crate) fn handle_aggregation_ack(&self, agg: AggregationPayload) {
        let tx = self.inner.borrow_mut().pending_agg_acks.remove(&agg.agg_id);
        if let Some(tx) = tx {
            let _ = tx.send(());
        }
    }

    // ------------------------------------------------------------------
    // Proactive pushing and proactive aggregation (§5.3).
    // ------------------------------------------------------------------

    /// Owner side: a holder proactively pushed change-log entries.
    pub(crate) async fn handle_changelog_push(
        &self,
        dir_key: MetaKey,
        fp: Fingerprint,
        from: ServerId,
        entries: Vec<ChangeLogEntry>,
    ) {
        let costs = self.cfg.costs;
        self.cpu.run(costs.software_path).await;
        if let Some(first) = entries.first() {
            if self.dir_update_frozen(fp, &first.dir) {
                // The target directory's shard is frozen by an outbound
                // migration: applying now would strand the entries at the
                // old owner after the flip. No ack — the pusher retries,
                // and its placement lookup then routes to the new owner.
                return;
            }
            if !self.owns_dir_updates(fp, &first.dir) {
                // A push that was in flight across a flip: this server no
                // longer owns the directory and already deleted its copy —
                // acknowledging would let the holder discard an entry the
                // new owner never saw. Drop without ack; the holder's next
                // push round routes to the new owner.
                return;
            }
        }
        let fpg = self.locks.fp_group(fp);
        let _w = fpg.write().await;
        let applied_ids: Vec<OpId> = entries.iter().map(|e| e.entry_id).collect();
        // Duplicates are acknowledged too: the holder may discard them.
        let _ = self.apply_dir_updates(DirUpdates::Deferred(entries)).await;
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.pushes_received += 1;
            let now = self.handle.now();
            inner.push_timers.insert(fp.raw(), now);
        }
        self.send_plain(
            self.cfg.node_of(from),
            Body::Server(ServerMsg::ChangeLogPushAck {
                dir_key,
                applied: applied_ids,
            }),
        );
    }

    /// Pusher side: the owner applied our pushed entries.
    pub(crate) fn handle_push_ack(
        &self,
        src: switchfs_simnet::NodeId,
        _dir_key: MetaKey,
        applied: Vec<OpId>,
    ) {
        let ids: FxHashSet<OpId> = applied.iter().copied().collect();
        {
            let mut inner = self.inner.borrow_mut();
            let dirty: Vec<(DirId, Fingerprint)> = inner.changelogs.dirty_dirs();
            for (_, fp) in dirty {
                inner.changelogs.discard_applied_in_group(fp, &ids);
            }
        }
        self.durable.borrow_mut().wal.mark_applied_where(|rec| {
            rec.pending_entry
                .as_ref()
                .map(|(_, _, e)| ids.contains(&e.entry_id))
                .unwrap_or(false)
        });
        // The discard is durable: confirm it — on the next outgoing message
        // — to the server that *sent this ack* (the one actually holding
        // the ids in its suppression set), not to the directory's current
        // map owner: across a shard flip the two differ, and the confirm
        // would otherwise never reach the real applier.
        if let Some(applier) = self.server_id_of(src) {
            let me = self.cfg.id;
            let now = self.handle.now();
            self.inner
                .borrow_mut()
                .queue_discard_confirm(me, applier, now, applied);
        }
    }

    /// The background loop driving MTU/idle-based pushes (holder side) and
    /// idle-triggered aggregations (owner side).
    pub(crate) async fn proactive_loop(&self) {
        let cfg = self.cfg.proactive;
        loop {
            self.handle.sleep(cfg.scan_interval).await;
            // Shutdown first: a *crashed* server's loop must still terminate
            // when the harness quiesces the simulation, or a run with an
            // unrecovered server never reaches quiescence (the crashed
            // `continue` would re-arm the timer forever).
            if self.shutdown_requested() {
                return;
            }
            if self.inner.borrow().crashed {
                continue;
            }
            self.proactive_push_round().await;
            self.proactive_aggregate_round().await;
            // Resolve prepared transactions whose decision never arrived
            // (§5.4.2): without this, a coordinator crash mid-broadcast
            // would strand staged rename halves forever.
            self.sweep_prepared_txns().await;
        }
    }

    /// One round of holder-side pushes.
    pub(crate) async fn proactive_push_round(&self) {
        let cfg = self.cfg.proactive;
        let now = self.handle.now();
        let mut to_push: Vec<(DirId, MetaKey, Fingerprint, Vec<ChangeLogEntry>)> = Vec::new();
        {
            let inner = self.inner.borrow();
            for (dir, fp) in inner.changelogs.dirty_dirs() {
                if let Some(log) = inner.changelogs.get(&dir) {
                    let idle = now.duration_since(log.last_append()) >= cfg.idle_push_after;
                    if log.pending_bytes() >= cfg.mtu_bytes || (idle && !log.is_empty()) {
                        to_push.push((dir, log.dir_key.clone(), fp, log.snapshot()));
                    }
                }
            }
        }
        for (_dir, dir_key, fp, entries) in to_push {
            self.send_changelog_push(dir_key, fp, entries);
        }
    }

    /// Sends one directory's change-log snapshot to the directory's current
    /// owner, draining any queued discard confirmations addressed to it.
    /// Shared by the steady-state proactive rounds and the decommission
    /// flush so the holder-side push protocol exists exactly once.
    pub(crate) fn send_changelog_push(
        &self,
        dir_key: MetaKey,
        fp: Fingerprint,
        entries: Vec<ChangeLogEntry>,
    ) {
        let owner = self.cfg.placement.dir_owner_by_fp(fp);
        let discard_confirm = self.inner.borrow_mut().take_discard_confirms(owner);
        self.inner.borrow_mut().stats.pushes_sent += 1;
        if self.obs_on() {
            let trace = match entries[..] {
                [ref only] => Some(switchfs_proto::TraceId::of_op(only.entry_id)),
                _ => None,
            };
            self.trace_event(
                trace,
                switchfs_obs::EventKind::ChangeLogPush {
                    dir: entries.first().map_or(0, |e| e.dir.hash64()),
                    entries: entries.len() as u32,
                },
            );
        }
        self.send_plain(
            self.cfg.node_of(owner),
            Body::Server(ServerMsg::ChangeLogPush {
                dir_key,
                fp,
                from: self.cfg.id,
                entries,
                discard_confirm,
            }),
        );
    }

    /// One round of owner-side proactive aggregations.
    pub(crate) async fn proactive_aggregate_round(&self) {
        let cfg = self.cfg.proactive;
        let now = self.handle.now();
        let due: Vec<u64> = {
            let inner = self.inner.borrow();
            inner
                .push_timers
                .iter()
                .filter(|(_, last)| now.duration_since(**last) >= cfg.owner_aggregate_after)
                .map(|(fp, _)| *fp)
                .collect()
        };
        for raw in due {
            let fp = Fingerprint::from_raw(raw);
            // Never start an owner-side aggregation for a group in a shard
            // that is mid-migration: entries pulled and applied after the
            // shard snapshot would be stranded at the old owner when the
            // shard flips. The new owner aggregates after the flip. The
            // fingerprint covers the per-file-hash policy; the group's
            // directory ids cover the (id-hashed) grouping policies.
            let dirs = self.inner.borrow().changelogs.dirs_in_group(fp);
            if self.dir_update_frozen(fp, &DirId::ROOT)
                || dirs.iter().any(|d| self.dir_update_frozen(fp, d))
            {
                continue;
            }
            // Nor for a group whose shard already flipped away: this server
            // would pull remote entries, find no owner-index record, count
            // them "applied" as moot and acknowledge — silently losing
            // updates the new owner never saw. The new owner aggregates.
            if self.cfg.placement.dir_owner_by_fp(fp) != self.cfg.id {
                self.inner.borrow_mut().push_timers.remove(&raw);
                continue;
            }
            let fpg = self.locks.fp_group(fp);
            let _w = fpg.write().await;
            self.aggregate_group(fp, None).await;
        }
    }

    fn shutdown_requested(&self) -> bool {
        self.inner.borrow().shutdown
    }
}

/// One call of [`Server::apply_dir_updates`].
pub(crate) enum DirUpdates<'a> {
    /// One synchronous update of the directory inode at `dir_key` (overflow
    /// fallback, remote update, local sync parent update, rename). Takes
    /// the directory's inode lock and charges one lock + KV read/write +
    /// WAL append before applying.
    Single {
        dir_key: &'a MetaKey,
        entry: &'a ChangeLogEntry,
    },
    /// Deferred change-log entries of one fingerprint group (push and
    /// aggregation), charged by the update mode's per-entry cost model
    /// (Fig. 14). Takes no inode lock: `handle_rmdir` holds the target's
    /// inode lock while it aggregates that directory.
    Deferred(Vec<ChangeLogEntry>),
}

/// Splits `n` entry applications across `cores` chunks and returns the CPU
/// cost of each chunk.
fn entries_chunk_cost(
    n: usize,
    cores: usize,
    unit: switchfs_simnet::SimDuration,
) -> Vec<switchfs_simnet::SimDuration> {
    if n == 0 {
        return Vec::new();
    }
    let cores = cores.max(1);
    let chunks = cores.min(n);
    let base = n / chunks;
    let extra = n % chunks;
    (0..chunks)
        .map(|i| {
            let count = base + usize::from(i < extra);
            unit * count as u64
        })
        .collect()
}
