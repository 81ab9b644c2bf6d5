//! Double-inode operations: `create`, `delete`, `mkdir`, `rmdir` (§5.2.1,
//! §5.2.3) and the asynchronous-commit machinery they share.
//!
//! The *local half* of a double-inode operation runs entirely on this server:
//! it updates the target inode, persists the deferred parent-directory update
//! in the change-log and in the WAL, then marks the parent directory
//! *scattered*. Depending on the tracking mode the scatter marking is an
//! in-network dirty-set insert (the switch then multicasts the completion to
//! the client and mirrors it back so this server can release its locks), an
//! RPC to a dedicated coordinator, or an RPC to the directory's owner server.

use switchfs_proto::message::{
    Body, ClientRequest, ClientResponse, CoordMsg, MetaOp, ParentRef, ServerMsg, SyncFallback,
};
use switchfs_proto::{
    ChangeLogEntry, ChangeOp, DirtyRet, DirtySetHeader, DirtySetOp, FileType, Fingerprint, FsError,
    InodeAttrs, OpId, OpResult,
};
use switchfs_simnet::{timeout, NodeId};

use crate::config::TrackingMode;
use crate::server::aggregate::DirUpdates;
use crate::server::{CommitSignal, Server};
use crate::wal::KvEffect;

/// How an asynchronous commit finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommitOutcome {
    /// The switch delivered the response to the client by multicast.
    DeliveredBySwitch,
    /// The response still has to be sent by this server.
    NeedDirectReply,
    /// The dirty-set insert overflowed; the parent owner applied the update
    /// synchronously and already replied to the client.
    FallbackHandled,
}

impl Server {
    /// Handles `create`, `delete` and `mkdir`. Returns `Some(result)` when
    /// this server must reply directly, `None` when the reply has already
    /// been delivered (through the switch multicast or the fallback path).
    pub(crate) async fn handle_double_inode(
        &self,
        client_node: NodeId,
        req: &ClientRequest,
    ) -> Option<OpResult> {
        let costs = self.cfg.costs;
        self.cpu.run(costs.request_overhead()).await;
        let key = req.op.primary_key().clone();
        let Some(parent) = req.parent.as_ref() else {
            return Some(OpResult::Err(FsError::NotFound));
        };
        // Locking and checking (§5.2.1): parent change-log write lock, then
        // target inode write lock.
        let cl_lock = self.locks.changelog(&parent.id);
        let _cl_guard = cl_lock.write().await;
        let inode_lock = self.locks.inode(&key);
        let _inode_guard = inode_lock.write().await;
        self.cpu.run(costs.lock_op * 2 + costs.kv_get).await;
        if self.is_stale(&req.ancestors) {
            return Some(OpResult::Err(FsError::StaleCache));
        }
        // Borrowed existence/type check: the attributes themselves are only
        // needed on paths that build new ones.
        let existing_type = self
            .inner
            .borrow_mut()
            .inodes
            .get_ref(&key)
            .map(|a| a.file_type);
        let now = self.now_ns();

        let (effects, entry, result) = match &req.op {
            MetaOp::Create { perm, .. } => {
                if existing_type.is_some() {
                    return Some(OpResult::Err(FsError::AlreadyExists));
                }
                let id = self.fresh_dir_id();
                let attrs = InodeAttrs::new_file(id, now, *perm);
                let entry = self.make_entry(
                    req.op_id,
                    parent.id,
                    &key.name,
                    ChangeOp::Insert {
                        file_type: FileType::File,
                        mode: perm.mode,
                    },
                );
                (
                    vec![KvEffect::PutInode(key.clone(), attrs.clone())],
                    entry,
                    OpResult::Attrs(attrs),
                )
            }
            MetaOp::Delete { .. } => {
                let Some(file_type) = existing_type else {
                    // Not stored here. Under per-file-hash placement a
                    // directory's inode lives with its fingerprint group on a
                    // different server, so distinguish `EISDIR` from `ENOENT`
                    // with a cross-server type probe (the grouping placements
                    // colocate the directory inode and never get here).
                    if self.probe_is_directory(&key).await {
                        return Some(OpResult::Err(FsError::IsADirectory));
                    }
                    return Some(OpResult::Err(FsError::NotFound));
                };
                if file_type == FileType::Directory {
                    return Some(OpResult::Err(FsError::IsADirectory));
                }
                let entry = self.make_entry(req.op_id, parent.id, &key.name, ChangeOp::Remove);
                (
                    vec![KvEffect::DeleteInode(key.clone())],
                    entry,
                    OpResult::Done,
                )
            }
            MetaOp::Mkdir { perm, .. } => {
                if existing_type.is_some() {
                    return Some(OpResult::Err(FsError::AlreadyExists));
                }
                let id = self.fresh_dir_id();
                let attrs = InodeAttrs::new_dir(id, now, *perm);
                let entry = self.make_entry(
                    req.op_id,
                    parent.id,
                    &key.name,
                    ChangeOp::Insert {
                        file_type: FileType::Directory,
                        mode: perm.mode,
                    },
                );
                (
                    vec![
                        KvEffect::PutInode(key.clone(), attrs.clone()),
                        KvEffect::IndexDir(id, key.clone()),
                    ],
                    entry,
                    OpResult::Attrs(attrs),
                )
            }
            _ => return Some(OpResult::Err(FsError::NotFound)),
        };

        if self.cfg.update_mode == crate::config::UpdateMode::Synchronous {
            // Baseline path: commit the local half, then update the parent
            // directory in place (possibly across servers) before replying.
            self.apply_and_log(Some(req.op_id), effects, None, Vec::new())
                .await;
            if let MetaOp::Mkdir { .. } = &req.op {
                if let OpResult::Attrs(attrs) = &result {
                    self.sync_init_dir_content(&key, attrs.clone()).await;
                }
            }
            if let Err(e) = self.sync_parent_update(parent, &entry).await {
                return Some(OpResult::Err(e));
            }
            return Some(result);
        }

        // Commit: WAL append, then execute the local half (§5.2.1 step 4–5).
        self.apply_and_log(
            Some(req.op_id),
            effects,
            Some((parent.id, parent.key.clone(), entry.clone())),
            Vec::new(),
        )
        .await;
        self.cpu.run(costs.changelog_append).await;
        {
            let now_t = self.handle.now();
            let mut inner = self.inner.borrow_mut();
            inner
                .changelogs
                .append(parent.id, &parent.key, parent.fp, entry.clone(), now_t);
        }

        // Dirty-set update, reply and unlocking (§5.2.1 step 6–7).
        let response = self.make_response(req.op_id, result);
        self.persist_completion(&req.op, &response);
        match self
            .async_commit(client_node, response.clone(), parent, &entry)
            .await
        {
            CommitOutcome::DeliveredBySwitch | CommitOutcome::FallbackHandled => None,
            CommitOutcome::NeedDirectReply => {
                self.send_plain(client_node, Body::Response(response));
                None
            }
        }
    }

    /// Asks `owner` what type of inode (if any) it stores under `key`. The
    /// local store answers without a round-trip. Returns `None` on absence
    /// or timeout (conservative: callers treat "unknown" as "absent", which
    /// a retry can correct).
    pub(crate) async fn probe_inode_type(
        &self,
        owner: switchfs_proto::ServerId,
        key: &switchfs_proto::MetaKey,
    ) -> Option<FileType> {
        if owner == self.cfg.id {
            return self
                .inner
                .borrow_mut()
                .inodes
                .get_ref(key)
                .map(|a| a.file_type);
        }
        let token = self.next_token();
        let body = Body::Server(ServerMsg::TypeProbe {
            req_id: token,
            key: key.clone(),
        });
        match self
            .send_with_ack(self.cfg.node_of(owner), token, body)
            .await
        {
            Some(crate::server::TokenReply::Type(t)) => t,
            _ => None,
        }
    }

    /// Asks the fingerprint-group owner of `key` whether it stores a
    /// directory inode under that key. Only meaningful under per-file-hash
    /// placement, where file and directory inodes of the same key live on
    /// different servers; the grouping placements colocate them and answer
    /// locally.
    pub(crate) async fn probe_is_directory(&self, key: &switchfs_proto::MetaKey) -> bool {
        if !matches!(
            self.cfg.placement.policy(),
            switchfs_proto::PartitionPolicy::PerFileHash
        ) {
            return false;
        }
        let dir_owner = self
            .cfg
            .placement
            .dir_owner_by_fp(Fingerprint::of_dir(&key.pid, &key.name));
        self.probe_inode_type(dir_owner, key).await == Some(FileType::Directory)
    }

    /// Baseline-mode parent update: apply the directory update at the
    /// parent's owner, locally when colocated (P/C grouping) or through a
    /// synchronous RPC (P/C separation, and cross-server `mkdir`/`rmdir`).
    ///
    /// Rides through live shard migration: a frozen target rejects with
    /// `Unavailable` and a flipped one with `NotFound` (the old owner
    /// deleted its copy) — both are re-resolved against the current map and
    /// retried here, because the operation's local half is already applied
    /// and surfacing a retryable error to the client would let its retry
    /// observe the half-done operation (`AlreadyExists` on its own create).
    pub(crate) async fn sync_parent_update(
        &self,
        parent: &ParentRef,
        entry: &ChangeLogEntry,
    ) -> Result<(), FsError> {
        let mut attempt = 0u32;
        loop {
            let owner = self.sync_dir_owner(parent);
            match self.sync_parent_update_once(parent, entry).await {
                Err(FsError::NotFound) if attempt < 64 && self.sync_dir_owner(parent) != owner => {
                    // The owner changed under us (the old one already
                    // deleted its migrated copy): re-route immediately. An
                    // unchanged owner's NotFound is genuine (the parent was
                    // removed concurrently) and fails through unchanged.
                    attempt += 1;
                }
                Err(FsError::Unavailable) if attempt < 64 => {
                    // Frozen by an outbound migration: wait out the freeze
                    // window (the flip re-routes the retry via the shared
                    // map) instead of surfacing a retryable error.
                    attempt += 1;
                    if self.sync_dir_owner(parent) == owner {
                        self.handle.sleep(self.cfg.costs.request_timeout).await;
                    }
                }
                other => return other,
            }
        }
    }

    async fn sync_parent_update_once(
        &self,
        parent: &ParentRef,
        entry: &ChangeLogEntry,
    ) -> Result<(), FsError> {
        let owner = self.sync_dir_owner(parent);
        if owner == self.cfg.id {
            // The fp-group lock is the gate's precondition: harmless in the
            // pure-sync baselines (no aggregations run) but keeps every
            // directory update behind the same lock.
            let fpg = self.locks.fp_group(parent.fp);
            let _fpg_g = fpg.write().await;
            // A parent removed concurrently leaves nothing to update; the
            // operation's local half stands.
            let _ = self
                .apply_dir_updates(DirUpdates::Single {
                    dir_key: &parent.key,
                    entry,
                })
                .await;
            // Applier and issuer are the same server and the operation's
            // own duplicate suppression covers re-execution: retire the id
            // into the bounded FIFO immediately.
            let me = self.cfg.id;
            let now = self.handle.now();
            self.inner
                .borrow_mut()
                .queue_discard_confirm(me, me, now, [entry.entry_id]);
            Ok(())
        } else {
            let token = self.next_token();
            let discard_confirm = self.inner.borrow_mut().take_discard_confirms(owner);
            let body = Body::Server(ServerMsg::RemoteDirUpdate {
                req_id: token,
                dir_key: parent.key.clone(),
                entry: entry.clone(),
                discard_confirm,
            });
            match self
                .send_with_ack(self.cfg.node_of(owner), token, body)
                .await
            {
                Some(crate::server::TokenReply::Ack) => {
                    // The update is applied and this server will never
                    // retransmit it: confirm so the owner can retire the id.
                    let me = self.cfg.id;
                    let now = self.handle.now();
                    self.inner
                        .borrow_mut()
                        .queue_discard_confirm(me, owner, now, [entry.entry_id]);
                    Ok(())
                }
                Some(crate::server::TokenReply::Failed(e)) => Err(e),
                _ => Err(FsError::TimedOut),
            }
        }
    }

    /// The server owning a directory's updatable metadata under the
    /// synchronous (baseline) mode.
    pub(crate) fn sync_dir_owner(&self, parent: &ParentRef) -> switchfs_proto::ServerId {
        match self.cfg.placement.policy() {
            switchfs_proto::PartitionPolicy::PerDirectoryHash
            | switchfs_proto::PartitionPolicy::Subtree => {
                self.cfg.placement.dir_owner_by_id(&parent.id)
            }
            switchfs_proto::PartitionPolicy::PerFileHash => {
                self.cfg.placement.dir_owner_by_fp(parent.fp)
            }
        }
    }

    /// Baseline `mkdir` under P/C grouping: register the new directory's
    /// content replica on the server that will hold its children.
    async fn sync_init_dir_content(&self, key: &switchfs_proto::MetaKey, attrs: InodeAttrs) {
        if !matches!(
            self.cfg.placement.policy(),
            switchfs_proto::PartitionPolicy::PerDirectoryHash
                | switchfs_proto::PartitionPolicy::Subtree
        ) {
            return;
        }
        let content_owner = self.cfg.placement.dir_owner_by_id(&attrs.id);
        if content_owner == self.cfg.id {
            self.apply_and_log(
                None,
                vec![
                    KvEffect::PutInode(key.clone(), attrs.clone()),
                    KvEffect::IndexDir(attrs.id, key.clone()),
                ],
                None,
                Vec::new(),
            )
            .await;
            return;
        }
        let token = self.next_token();
        let body = Body::Server(ServerMsg::InitDirContent {
            req_id: token,
            dir_id: attrs.id,
            key: key.clone(),
            attrs,
        });
        let _ = self
            .send_with_ack(self.cfg.node_of(content_owner), token, body)
            .await;
    }

    /// Handles `rmdir` (§5.2.3): aggregate the target directory, check
    /// emptiness, then commit like the other double-inode operations.
    pub(crate) async fn handle_rmdir(
        &self,
        client_node: NodeId,
        req: &ClientRequest,
    ) -> Option<OpResult> {
        let costs = self.cfg.costs;
        self.cpu.run(costs.request_overhead()).await;
        let key = req.op.primary_key().clone();
        let Some(parent) = req.parent.as_ref() else {
            // Removing the root directory is not allowed.
            return Some(OpResult::Err(FsError::NotFound));
        };
        let target_fp = Fingerprint::of_dir(&key.pid, &key.name);
        // Lock order: parent change-log → target fingerprint group → target
        // inode.
        let cl_lock = self.locks.changelog(&parent.id);
        let _cl_guard = cl_lock.write().await;
        let fpg_lock = self.locks.fp_group(target_fp);
        let _fpg_guard = fpg_lock.write().await;
        let inode_lock = self.locks.inode(&key);
        let _inode_guard = inode_lock.write().await;
        self.cpu.run(costs.lock_op * 3 + costs.kv_get).await;
        if self.is_stale(&req.ancestors) {
            return Some(OpResult::Err(FsError::StaleCache));
        }
        let Some(attrs) = self.inner.borrow_mut().inodes.get(&key) else {
            return Some(OpResult::Err(FsError::NotFound));
        };
        if !attrs.is_dir() {
            return Some(OpResult::Err(FsError::NotADirectory));
        }
        let dir_id = attrs.id;

        if self.cfg.update_mode == crate::config::UpdateMode::Synchronous {
            return Some(self.sync_rmdir(req, &key, dir_id, parent).await);
        }

        // Collect the latest updates to the directory and have every other
        // server append it to its invalidation list (§5.2.3 steps 4–7).
        self.aggregate_group(target_fp, Some((dir_id, key.clone())))
            .await;

        // Emptiness check on the aggregated state.
        let entry_count = {
            let mut inner = self.inner.borrow_mut();
            inner.entries.get_ref(&dir_id).map_or(0, |c| c.len())
        };
        self.cpu.run(costs.kv_get).await;
        if entry_count > 0 {
            // The aggregation multicast already announced the removal to the
            // other servers' invalidation lists; retract it, since the
            // directory is staying (otherwise later operations under it would
            // be rejected as stale forever).
            self.multicast_plain(
                &self.cfg.other_servers(),
                Body::Server(ServerMsg::InvalidationRevoke { dir_id }),
            );
            return Some(OpResult::Err(FsError::NotEmpty));
        }

        // Commit the removal.
        let entry = self.make_entry(req.op_id, parent.id, &key.name, ChangeOp::Remove);
        self.apply_and_log(
            Some(req.op_id),
            vec![
                KvEffect::DeleteInode(key.clone()),
                KvEffect::UnindexDir(dir_id),
                KvEffect::Invalidate(dir_id, key.clone()),
            ],
            Some((parent.id, parent.key.clone(), entry.clone())),
            Vec::new(),
        )
        .await;
        self.cpu.run(costs.changelog_append).await;
        {
            let now_t = self.handle.now();
            let mut inner = self.inner.borrow_mut();
            inner
                .changelogs
                .append(parent.id, &parent.key, parent.fp, entry.clone(), now_t);
        }
        let response = self.make_response(req.op_id, OpResult::Done);
        self.persist_completion(&req.op, &response);
        match self
            .async_commit(client_node, response.clone(), parent, &entry)
            .await
        {
            CommitOutcome::DeliveredBySwitch | CommitOutcome::FallbackHandled => None,
            CommitOutcome::NeedDirectReply => {
                self.send_plain(client_node, Body::Response(response));
                None
            }
        }
    }

    /// Baseline-mode `rmdir`: purely synchronous, no aggregation.
    async fn sync_rmdir(
        &self,
        req: &ClientRequest,
        key: &switchfs_proto::MetaKey,
        dir_id: switchfs_proto::DirId,
        parent: &ParentRef,
    ) -> OpResult {
        let costs = self.cfg.costs;
        let entry_count = {
            let mut inner = self.inner.borrow_mut();
            inner.entries.get_ref(&dir_id).map_or(0, |c| c.len())
        };
        self.cpu.run(costs.kv_get).await;
        if entry_count > 0 {
            return OpResult::Err(FsError::NotEmpty);
        }
        self.apply_and_log(
            Some(req.op_id),
            vec![
                KvEffect::DeleteInode(key.clone()),
                KvEffect::UnindexDir(dir_id),
                KvEffect::Invalidate(dir_id, key.clone()),
            ],
            None,
            Vec::new(),
        )
        .await;
        self.broadcast_invalidation(dir_id, key.clone());
        // Remove the access replica when the directory's children live on a
        // different server than its parent's (P/C grouping).
        if matches!(
            self.cfg.placement.policy(),
            switchfs_proto::PartitionPolicy::PerDirectoryHash
                | switchfs_proto::PartitionPolicy::Subtree
        ) {
            let access_owner = self.cfg.placement.file_owner(key);
            if access_owner != self.cfg.id {
                let token = self.next_token();
                let body = Body::Server(ServerMsg::RemoteTxnOp {
                    req_id: token,
                    op: switchfs_proto::message::TxnOp::DeleteInode { key: key.clone() },
                });
                let _ = self
                    .send_with_ack(self.cfg.node_of(access_owner), token, body)
                    .await;
            }
        }
        let entry = self.make_entry(req.op_id, parent.id, &key.name, ChangeOp::Remove);
        match self.sync_parent_update(parent, &entry).await {
            Ok(()) => OpResult::Done,
            Err(e) => OpResult::Err(e),
        }
    }

    /// Marks the parent directory scattered and arranges for the response to
    /// reach the client, according to the tracking mode.
    pub(crate) async fn async_commit(
        &self,
        client_node: NodeId,
        response: ClientResponse,
        parent: &ParentRef,
        entry: &ChangeLogEntry,
    ) -> CommitOutcome {
        match self.cfg.tracking {
            TrackingMode::InNetwork => {
                self.async_commit_in_network(client_node, response, parent, entry)
                    .await
            }
            TrackingMode::DedicatedServer(coord) => {
                self.async_commit_dedicated(coord, parent, entry).await
            }
            TrackingMode::OwnerServer => self.async_commit_owner(parent).await,
        }
    }

    async fn async_commit_in_network(
        &self,
        client_node: NodeId,
        response: ClientResponse,
        parent: &ParentRef,
        entry: &ChangeLogEntry,
    ) -> CommitOutcome {
        let parent_owner = self.cfg.placement.dir_owner_by_fp(parent.fp);
        let parent_owner_node = self.cfg.node_of(parent_owner);
        let op_token = self.next_token();
        let body = Body::Server(ServerMsg::AsyncCommit {
            response,
            origin: self.cfg.id,
            op_token,
            fallback: SyncFallback {
                dir_key: parent.key.clone(),
                entry: entry.clone(),
                client_node: client_node.0,
            },
        });
        let hdr = DirtySetHeader::insert(parent.fp, parent_owner_node.0);
        for attempt in 0..=self.cfg.costs.max_retries {
            if attempt > 0 {
                self.inner.borrow_mut().stats.retransmissions += 1;
            }
            let (tx, rx) = switchfs_simnet::sync::oneshot::channel();
            self.inner.borrow_mut().pending_commits.insert(op_token, tx);
            // The packet is addressed to the client; the switch multicasts a
            // mirror copy back to this server when the insert succeeds.
            self.send_dirty(client_node, hdr, body.clone());
            match timeout(&self.handle, self.cfg.costs.request_timeout, rx.recv()).await {
                Some(Ok(CommitSignal::Mirrored)) => {
                    return CommitOutcome::DeliveredBySwitch;
                }
                Some(Ok(CommitSignal::FallbackDone(applier))) => {
                    // The overflow fallback applied the entry synchronously:
                    // drop it from the local change-log and mark the WAL
                    // record applied. The discard is durable, so confirm it
                    // to the server that actually applied it (the
                    // notification's sender — not the current map owner,
                    // which can differ across a shard flip).
                    self.discard_local_entry(parent, entry.entry_id);
                    if let Some(applier) = applier {
                        let me = self.cfg.id;
                        let now = self.handle.now();
                        self.inner.borrow_mut().queue_discard_confirm(
                            me,
                            applier,
                            now,
                            [entry.entry_id],
                        );
                    }
                    self.inner.borrow_mut().stats.fallback_syncs += 1;
                    return CommitOutcome::FallbackHandled;
                }
                _ => {
                    self.inner.borrow_mut().pending_commits.remove(&op_token);
                }
            }
        }
        CommitOutcome::NeedDirectReply
    }

    async fn async_commit_dedicated(
        &self,
        coord: NodeId,
        parent: &ParentRef,
        entry: &ChangeLogEntry,
    ) -> CommitOutcome {
        let token = self.next_token();
        let rx = self.register_token(token);
        self.send_plain(
            coord,
            Body::Coord(CoordMsg::Request {
                token,
                op: DirtySetOp::Insert,
                fp: parent.fp,
                seq: 0,
            }),
        );
        let reply = timeout(&self.handle, self.cfg.costs.request_timeout, rx.recv()).await;
        match reply {
            Some(Ok(crate::server::TokenReply::Dirty(DirtyRet::Overflowed))) => {
                // Fall back to a synchronous remote update, as the in-network
                // overflow path would.
                self.sync_fallback_update(parent, entry).await;
                CommitOutcome::NeedDirectReply
            }
            _ => CommitOutcome::NeedDirectReply,
        }
    }

    async fn async_commit_owner(&self, parent: &ParentRef) -> CommitOutcome {
        let owner = self.cfg.placement.dir_owner_by_fp(parent.fp);
        if owner == self.cfg.id {
            self.inner.borrow_mut().local_dirty.insert(parent.fp);
            return CommitOutcome::NeedDirectReply;
        }
        let token = self.next_token();
        let body = Body::Server(ServerMsg::MarkDirty {
            req_id: token,
            fp: parent.fp,
        });
        let _ = self
            .send_with_ack(self.cfg.node_of(owner), token, body)
            .await;
        CommitOutcome::NeedDirectReply
    }

    /// Applies a deferred update synchronously at the parent owner when the
    /// dirty-set insert cannot be used (dedicated-coordinator overflow).
    async fn sync_fallback_update(&self, parent: &ParentRef, entry: &ChangeLogEntry) {
        let owner = self.cfg.placement.dir_owner_by_fp(parent.fp);
        let token = self.next_token();
        let discard_confirm = self.inner.borrow_mut().take_discard_confirms(owner);
        let body = Body::Server(ServerMsg::RemoteDirUpdate {
            req_id: token,
            dir_key: parent.key.clone(),
            entry: entry.clone(),
            discard_confirm,
        });
        let acked = matches!(
            self.send_with_ack(self.cfg.node_of(owner), token, body)
                .await,
            Some(crate::server::TokenReply::Ack)
        );
        self.discard_local_entry(parent, entry.entry_id);
        if acked {
            let me = self.cfg.id;
            let now = self.handle.now();
            self.inner
                .borrow_mut()
                .queue_discard_confirm(me, owner, now, [entry.entry_id]);
        }
        self.inner.borrow_mut().stats.fallback_syncs += 1;
    }

    /// Removes one change-log entry that was applied out-of-band and marks
    /// its WAL record applied.
    pub(crate) fn discard_local_entry(&self, parent: &ParentRef, entry_id: OpId) {
        {
            let mut inner = self.inner.borrow_mut();
            if let Some(log) = inner.changelogs.get_mut(&parent.id) {
                log.discard_one(entry_id);
            }
        }
        self.durable.borrow_mut().wal.mark_applied_where(|rec| {
            rec.pending_entry
                .as_ref()
                .map(|(_, _, e)| e.entry_id == entry_id)
                .unwrap_or(false)
        });
    }

    /// Handles an `AsyncCommit` packet. Depending on where it arrives it is
    /// either the mirror copy (back at the origin server) or the overflow
    /// fallback (at the parent directory's owner).
    pub(crate) async fn handle_async_commit_packet(
        &self,
        _src: NodeId,
        response: ClientResponse,
        origin: switchfs_proto::ServerId,
        op_token: u64,
        fallback: SyncFallback,
        dirty_ret: Option<DirtyRet>,
    ) {
        if origin == self.cfg.id && dirty_ret == Some(DirtyRet::Inserted) {
            // Mirror copy: release the waiting handler's locks.
            let tx = self.inner.borrow_mut().pending_commits.remove(&op_token);
            if let Some(tx) = tx {
                let _ = tx.send(CommitSignal::Mirrored);
            }
            return;
        }
        if dirty_ret == Some(DirtyRet::Overflowed) {
            // Address-rewriter fallback: apply the deferred update
            // synchronously, reply to the client, and notify the origin.
            let fb_fp =
                switchfs_proto::Fingerprint::of_dir(&fallback.dir_key.pid, &fallback.dir_key.name);
            if self.dir_update_frozen(fb_fp, &fallback.entry.dir)
                || !self.owns_dir_updates(fb_fp, &fallback.entry.dir)
            {
                // The parent directory's shard is frozen by an outbound
                // migration (or already flipped away): drop the fallback;
                // the origin's commit wait times out and the operation
                // retries against the current owner.
                return;
            }
            let fpg = self.locks.fp_group(fb_fp);
            let applied = {
                let _fpg_g = fpg.write().await;
                self.apply_dir_updates(DirUpdates::Single {
                    dir_key: &fallback.dir_key,
                    entry: &fallback.entry,
                })
                .await
            };
            if applied.is_ok_and(|ids| !ids.is_empty()) {
                self.inner.borrow_mut().stats.remote_updates += 1;
            }
            self.send_plain(NodeId(fallback.client_node), Body::Response(response));
            self.send_plain(
                self.cfg.node_of(origin),
                Body::Server(ServerMsg::FallbackDone {
                    op_token,
                    entry_id: fallback.entry.entry_id,
                }),
            );
        }
    }

    /// Handles the origin-side notification that the overflow fallback
    /// completed.
    pub(crate) fn handle_fallback_done(&self, src: NodeId, op_token: u64, _entry_id: OpId) {
        let applier = self.server_id_of(src);
        let tx = self.inner.borrow_mut().pending_commits.remove(&op_token);
        if let Some(tx) = tx {
            let _ = tx.send(CommitSignal::FallbackDone(applier));
        }
    }

    /// Handles a `MarkDirty` request in owner-server tracking mode.
    pub(crate) async fn handle_mark_dirty(&self, src: NodeId, req_id: u64, fp: Fingerprint) {
        // The extra packet costs CPU on the owner, which is exactly the
        // overhead Fig. 16 quantifies.
        self.cpu.run(self.cfg.costs.software_path).await;
        self.inner.borrow_mut().local_dirty.insert(fp);
        self.send_plain(src, Body::Server(ServerMsg::MarkDirtyAck { req_id }));
    }

    /// Handles a synchronous remote directory update (baseline double-inode
    /// operations and the dedicated-coordinator overflow fallback).
    pub(crate) async fn handle_remote_dir_update(
        &self,
        src: NodeId,
        req_id: u64,
        dir_key: switchfs_proto::MetaKey,
        entry: ChangeLogEntry,
    ) {
        let costs = self.cfg.costs;
        self.cpu.run(costs.software_path).await;
        let upd_fp = switchfs_proto::Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
        if self.dir_update_frozen(upd_fp, &entry.dir) || !self.owns_dir_updates(upd_fp, &entry.dir)
        {
            // The directory's shard is frozen by an outbound migration (or
            // already flipped away): fail the update instead of stranding
            // it at a non-owner. The caller re-resolves the owner against
            // the shared map and retries there.
            self.send_plain(
                src,
                Body::Server(ServerMsg::RemoteDirUpdateAck {
                    req_id,
                    result: Err(FsError::Unavailable),
                }),
            );
            return;
        }
        let fpg = self.locks.fp_group(upd_fp);
        let applied = {
            let _fpg_g = fpg.write().await;
            self.apply_dir_updates(DirUpdates::Single {
                dir_key: &dir_key,
                entry: &entry,
            })
            .await
        };
        let result = applied.map(|ids| {
            if !ids.is_empty() {
                self.inner.borrow_mut().stats.remote_updates += 1;
            }
        });
        self.send_plain(
            src,
            Body::Server(ServerMsg::RemoteDirUpdateAck { req_id, result }),
        );
    }
}
