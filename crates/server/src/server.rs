//! The metadata server runtime: state, packet dispatch, single-inode
//! operations, bulk loading and crash/recovery entry points.
//!
//! The double-inode operation handlers live in [`crate::server::ops`], the
//! directory-read / aggregation machinery in [`crate::server::aggregate`],
//! and `rename` in [`crate::server::rename`]. They are sub-modules so they
//! can share the [`Server`] context.
//!
//! Lock ordering (deadlock freedom): handlers acquire locks in the order
//! *parent change-log lock* → *fingerprint-group lock* → *inode lock*, and
//! never wait for a remote server while holding a lock that a remote
//! handler on this server would need in conflicting mode before replying.

pub mod aggregate;
pub mod migrate;
pub mod ops;
pub mod recovery;
pub mod rename;

use std::cell::RefCell;

use std::rc::Rc;
use switchfs_simnet::{FxHashMap, FxHashSet};

use switchfs_kvstore::KvStore;
use switchfs_obs::{EventKind, TraceEvent};
use switchfs_proto::message::{
    Body, ClientRequest, ClientResponse, CoordMsg, MetaOp, NetMsg, OpResult, PacketSeq, ServerMsg,
};
use switchfs_proto::{
    ChangeLogEntry, ClientId, DirEntry, DirId, DirtyRet, DirtySetOp, DirtyState, FileType,
    Fingerprint, FsError, InodeAttrs, MetaKey, OpId, ServerId, TraceId,
};
use switchfs_simnet::sync::oneshot;
use switchfs_simnet::{timeout, CpuPool, Endpoint, NodeId, SimHandle, SimTime};
use switchfs_switch::SoftwareDirtySet;

use crate::changelog::ChangeLogStore;
use crate::config::{ServerConfig, TrackingMode};
use crate::locks::LockManager;
use crate::wal::{DurableState, KvEffect, WalOp};

/// Counters describing what a server has done; read by tests and by the
/// evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Client operations answered (including errors).
    pub ops_completed: u64,
    /// Client operations that failed.
    pub ops_failed: u64,
    /// Aggregations this server initiated as directory owner.
    pub aggregations: u64,
    /// Change-log entries applied to directories this server owns.
    pub entries_applied: u64,
    /// Entries that change-log compaction merged away before applying.
    pub entries_compacted_away: u64,
    /// Proactive change-log pushes sent.
    pub pushes_sent: u64,
    /// Proactive change-log pushes received and applied.
    pub pushes_received: u64,
    /// Asynchronous commits that overflowed the dirty set and fell back to a
    /// synchronous update.
    pub fallback_syncs: u64,
    /// Synchronous remote directory updates served (baseline path and
    /// overflow fallback).
    pub remote_updates: u64,
    /// Retransmissions performed by this server.
    pub retransmissions: u64,
    /// Crash recoveries completed.
    pub recoveries: u64,
    /// Shards this server migrated away (live scale-out): completed
    /// freeze→stream→flip cycles.
    pub shards_migrated_out: u64,
    /// Shard installs this server applied. Counts install *events*: a
    /// migration retried after a lost acknowledgment (the source never saw
    /// the ack, re-streamed under a fresh token, and the target purged the
    /// stale first copy) applies — and counts — twice, so under faults
    /// this can exceed `shards_migrated_out`.
    pub shards_migrated_in: u64,
    /// Requests rejected because the client routed them with a stale shard
    /// map (answered with the current map for refresh-and-retry).
    pub wrong_owner_rejects: u64,
}

/// Reply delivered to a waiting double-inode handler when its asynchronous
/// commit resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommitSignal {
    /// The switch stored the fingerprint and mirrored the packet back.
    Mirrored,
    /// The insert overflowed; the fallback server applied the update
    /// synchronously and notified us. Carries the applier's identity (from
    /// the notification's source) so the later discard confirmation reaches
    /// the server that actually holds the id — which may differ from the
    /// current map owner if the shard flips in between.
    FallbackDone(Option<ServerId>),
}

/// Reply to a token-matched request (coordinator RPC, remote update, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenReply {
    /// A dirty-set RPC result.
    Dirty(DirtyRet),
    /// A remote update / mark-dirty acknowledgment.
    Ack,
    /// A remote update failed.
    Failed(FsError),
    /// A transaction participant voted no because an inode of this type
    /// occupies the destination key (typed rename reject).
    VoteRejected(Option<FileType>),
    /// A type probe's answer: the type of the inode under the probed key.
    Type(Option<FileType>),
    /// A recovery-time decision query's answer: `Some(commit)` once the
    /// coordinator knows the outcome, `None` while the transaction is still
    /// in its voting phase (ask again later).
    Decision(Option<bool>),
}

/// One directory's entry list: a name-ordered map for O(log n) mutation
/// plus a lazily materialized, `Rc`-shared listing for O(1) reads.
///
/// `readdir`/`statdir`, the duplicate-suppression response cache and every
/// in-flight packet copy all share the one materialized allocation; a
/// mutation drops the memo (copy-on-write at the granularity of the whole
/// listing) and the next reader rebuilds it once. This keeps hot mutate
/// paths free of per-entry memmoves and hot read paths free of deep copies.
#[derive(Debug, Clone, Default)]
pub struct DirContent {
    map: std::collections::BTreeMap<String, DirEntry>,
    listing: Option<Rc<Vec<DirEntry>>>,
}

impl DirContent {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the directory lists nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True when an entry called `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Iterates the entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = &DirEntry> {
        self.map.values()
    }

    /// The shared, name-sorted listing; materialized on first use after a
    /// mutation and shared (`Rc`) by every subsequent reader.
    pub fn listing(&mut self) -> Rc<Vec<DirEntry>> {
        match &self.listing {
            Some(l) => Rc::clone(l),
            None => {
                let l = Rc::new(self.map.values().cloned().collect::<Vec<_>>());
                self.listing = Some(Rc::clone(&l));
                l
            }
        }
    }

    /// Inserts or replaces an entry, invalidating the shared listing memo.
    pub fn insert(&mut self, entry: DirEntry) {
        self.listing = None;
        self.map.insert(entry.name.clone(), entry);
    }

    /// Removes an entry by name, invalidating the shared listing memo.
    pub fn remove(&mut self, name: &str) {
        self.listing = None;
        self.map.remove(name);
    }
}

/// Collector for an aggregation this server owns. The expected set uses the
/// deterministic hasher like every other aggregation-path structure: no
/// std-`RandomState` may influence (even only potentially) the replayable
/// schedule.
pub(crate) struct AggCollector {
    pub fp: Fingerprint,
    pub expected: FxHashSet<ServerId>,
    pub entries: Vec<ChangeLogEntry>,
    pub done: Option<oneshot::Sender<Vec<ChangeLogEntry>>>,
}

/// Cap on cached responses kept per client when the piggybacked acked
/// watermark lags (e.g. a client that stops talking to this server): the
/// fallback eviction drops the oldest (lowest-sequence) entries first, which
/// are exactly the ones the client can no longer retransmit.
pub(crate) const COMPLETED_OPS_PER_CLIENT_CAP: usize = 512;

/// How long a retired entry id stays in the suppression FIFO before
/// eviction. The only copies of an entry that can arrive *after* its
/// holder's discard confirmation are ones sent earlier and still sitting in
/// the fabric or in a handler queue (e.g. a re-pushed batch whose handler
/// is parked behind the fingerprint-group lock while the confirmation is
/// processed at dispatch); those windows are bounded by virtual time, not
/// by a count, so eviction is by retention age. 256 retransmission
/// timeouts (~100 ms of virtual time) dwarfs every retry budget and every
/// observed queueing backlog, while keeping the FIFO bounded by the recent
/// apply *rate* instead of the server's lifetime.
pub(crate) const RETIRED_ENTRY_RETENTION: switchfs_simnet::SimDuration =
    switchfs_simnet::SimDuration::millis(100);

/// The volatile state of a metadata server. Rebuilt from the WAL after a
/// crash.
pub(crate) struct ServerInner {
    /// Inode store: `(pid, name)` → attributes.
    pub inodes: KvStore<MetaKey, InodeAttrs>,
    /// Entry-list store: directory id → entry list with a shareable
    /// materialized listing (see [`DirContent`]). Mutations go through
    /// [`ServerInner::put_entry`] / [`ServerInner::remove_entry`].
    pub entries: KvStore<DirId, DirContent>,
    /// Index of directories this server owns: id → key.
    pub dir_index: FxHashMap<DirId, MetaKey>,
    /// Per-directory change-logs of deferred updates to remote parents.
    pub changelogs: ChangeLogStore,
    /// Invalidation list (§5.2): directories removed/renamed elsewhere whose
    /// client cache entries must be invalidated lazily.
    pub invalidation: FxHashMap<DirId, MetaKey>,
    /// Remote change-log entries applied but not yet confirmed discarded by
    /// their holders (duplicate suppression). Bounded: once a holder's
    /// piggybacked `discard_confirm` arrives — the holder durably dropped
    /// the entry after the acknowledgment round trip and can never re-send
    /// it — the id moves to the [`ServerInner::retired_entry_ids`] FIFO, so
    /// this set tracks the in-flight confirmation window, not the server's
    /// lifetime.
    pub applied_entry_ids: FxHashSet<OpId>,
    /// Recently retired (holder-confirmed) entry ids, still honored for
    /// duplicate suppression. A copy of a confirmed entry can only arrive
    /// within a bounded virtual-time window (fabric reorder + handler
    /// queueing), so ids are evicted once they outlive
    /// [`RETIRED_ENTRY_RETENTION`] — the set is bounded by the recent apply
    /// rate, not by the server's lifetime.
    pub retired_entry_ids: FxHashSet<OpId>,
    /// Retirement times of `retired_entry_ids` in FIFO order, driving the
    /// retention-based eviction.
    pub retired_entry_order: std::collections::VecDeque<(SimTime, OpId)>,
    /// Ids this server discarded (as a change-log holder) after an
    /// acknowledgment round trip, awaiting confirmation to the applying
    /// server. Drained onto the next message that already flows there
    /// (push, aggregation reply, remote update) — no extra packets.
    pub pending_discard_confirms: FxHashMap<ServerId, Vec<OpId>>,
    /// Responses already sent, re-sent verbatim on duplicate requests.
    /// Keyed per client and ordered by sequence so the piggybacked acked
    /// watermark can prune everything the client will never retransmit —
    /// the map is bounded by each client's in-flight window (plus the
    /// [`COMPLETED_OPS_PER_CLIENT_CAP`] fallback), not by uptime.
    pub completed_ops: FxHashMap<ClientId, std::collections::BTreeMap<u64, ClientResponse>>,
    /// Requests currently executing; retransmissions of these are dropped
    /// (the client's timer re-asks until the cached response exists). This
    /// keeps slow multi-round operations like the rename 2PC from running
    /// twice concurrently for one op id, and gives shard migration a
    /// drain-barrier: the freeze waits until every op in flight at freeze
    /// time has finished (new ones are gated per-shard).
    pub in_flight_ops: FxHashSet<OpId>,
    /// Per-sender window of recently seen request packet sequences.
    /// Detects *network-duplicated* request packets (same `PacketSeq`;
    /// deliberate retransmissions carry fresh ones, §5.4.1): a delayed
    /// duplicate of an operation the client already acknowledged would
    /// otherwise re-execute, because its cached response was legitimately
    /// pruned by the acked watermark. Bounded: duplicates only arrive
    /// within the network's reorder window, so a short per-sender FIFO
    /// suffices.
    pub seen_request_pkts: FxHashMap<u32, (FxHashSet<u64>, std::collections::VecDeque<u64>)>,
    /// Shards currently frozen by an outbound live migration: requests
    /// touching them are dropped (clients retransmit; after the flip the
    /// retry is re-routed to the new owner).
    pub migrating_shards: std::collections::BTreeSet<u32>,
    /// `(source node, token)` of shard installs already applied, so a
    /// retransmitted install is acked without double-appending the shard's
    /// pending change-log entries.
    pub applied_installs: FxHashSet<(u32, u64)>,
    /// Shard installs currently being applied; a retransmission racing the
    /// still-running first copy is dropped (the source's retransmission
    /// timer re-asks until the apply finished), exactly like in-flight
    /// client requests.
    pub in_progress_installs: FxHashSet<(u32, u64)>,
    /// Local software dirty set, used in [`TrackingMode::OwnerServer`].
    pub local_dirty: SoftwareDirtySet,
    /// Per-fingerprint time of the last received proactive push, driving
    /// owner-side proactive aggregation.
    pub push_timers: FxHashMap<u64, SimTime>,
    /// Counter used to build fresh directory ids.
    pub dir_counter: u64,
    /// Counter for request tokens, aggregation ids and packet sequences.
    pub next_token: u64,
    /// Monotonic remove-sequence number for dirty-set removes (§5.4.1).
    pub remove_seq: u64,
    /// Pending asynchronous commits: token → waker.
    pub pending_commits: FxHashMap<u64, oneshot::Sender<CommitSignal>>,
    /// Pending token-matched acknowledgments.
    pub pending_tokens: FxHashMap<u64, oneshot::Sender<TokenReply>>,
    /// Aggregations in flight, keyed by aggregation id.
    pub pending_aggs: FxHashMap<u64, AggCollector>,
    /// Owner-side aggregations currently executing (collection *and* apply
    /// phase), counted per raw fingerprint; a shard migration's drain
    /// barrier waits on these.
    pub active_aggs: FxHashMap<u64, usize>,
    /// Remote-side aggregation lock holders waiting for the owner's ack.
    pub pending_agg_acks: FxHashMap<u64, oneshot::Sender<()>>,
    /// Rename transactions prepared on this participant, awaiting a decision.
    /// Durable: every entry has a matching WAL `TxnMarker::Prepared` record
    /// (cleared by `TxnMarker::Resolved`), so a crash between prepare and
    /// decision leaves an in-doubt transaction that recovery resolves by
    /// re-querying the coordinator instead of silently dropping it.
    pub prepared_txns: FxHashMap<u64, crate::server::rename::PreparedTxn>,
    /// Commit decisions this server made as a rename coordinator, rebuilt
    /// from WAL `TxnMarker::Decided` records; answers recovery-time decision
    /// queries (absent = presumed abort).
    pub decided_txns: FxHashMap<u64, bool>,
    /// Transactions this server currently coordinates whose outcome is not
    /// yet decided: a decision query for one of these gets "undecided, ask
    /// again" rather than a premature presumed-abort.
    pub active_txns: FxHashSet<u64>,
    /// Prepared transactions currently being resolved by a decision query
    /// (recovery or the background sweep); prevents duplicate resolutions.
    pub resolving_txns: FxHashSet<u64>,
    /// WAL-append slow-down multiplier (chaos disk-latency spikes; 1 = no
    /// spike).
    pub disk_slowdown: u64,
    /// Coordinator-side routing of transaction votes to waiting tokens,
    /// keyed by `(txn_id, participant)` so a duplicated vote from one
    /// participant cannot be credited to another (§5.4.1).
    pub txn_vote_tokens: FxHashMap<(u64, ServerId), u64>,
    /// Coordinator-side routing of decision acknowledgments, kept separate
    /// from the vote table so a duplicated vote cannot masquerade as a
    /// commit acknowledgment.
    pub txn_ack_tokens: FxHashMap<(u64, ServerId), u64>,
    /// Transactions whose commit this participant fully applied; lets a
    /// retransmitted `TxnCommit` be acked if and only if the first copy
    /// finished applying (a copy racing a still-running apply is dropped).
    /// Bounded FIFO: duplicates only arrive within the coordinator's retry
    /// window, so old ids are evicted once the set outgrows the cap.
    pub committed_txns: FxHashSet<u64>,
    /// Insertion order of `committed_txns`, driving the FIFO eviction.
    pub committed_txn_order: std::collections::VecDeque<u64>,
    /// Whether the server is currently crashed (drops all work).
    pub crashed: bool,
    /// Whether the server was gracefully decommissioned: it owns no shards,
    /// serves no work, and only answers client requests with a `WrongOwner`
    /// redirect carrying the current map — the tombstone that lets clients
    /// holding a pre-shrink map refresh instead of timing out against a
    /// silent node. (A real deployment keeps exactly this thin redirector
    /// until the lease on the old membership expires.)
    pub decommissioned: bool,
    /// Whether the server is recovering or migrating (rejects client work).
    pub unavailable: bool,
    /// Whether background loops should terminate (end of experiment).
    pub shutdown: bool,
    /// Statistics.
    pub stats: ServerStats,
}

impl ServerInner {
    fn new() -> Self {
        ServerInner {
            inodes: KvStore::new(),
            entries: KvStore::new(),
            dir_index: FxHashMap::default(),
            changelogs: ChangeLogStore::new(),
            invalidation: FxHashMap::default(),
            applied_entry_ids: FxHashSet::default(),
            retired_entry_ids: FxHashSet::default(),
            retired_entry_order: std::collections::VecDeque::new(),
            pending_discard_confirms: FxHashMap::default(),
            completed_ops: FxHashMap::default(),
            in_flight_ops: FxHashSet::default(),
            seen_request_pkts: FxHashMap::default(),
            migrating_shards: std::collections::BTreeSet::new(),
            applied_installs: FxHashSet::default(),
            in_progress_installs: FxHashSet::default(),
            local_dirty: SoftwareDirtySet::new(),
            push_timers: FxHashMap::default(),
            dir_counter: 0,
            next_token: 1,
            remove_seq: 0,
            pending_commits: FxHashMap::default(),
            pending_tokens: FxHashMap::default(),
            pending_aggs: FxHashMap::default(),
            active_aggs: FxHashMap::default(),
            pending_agg_acks: FxHashMap::default(),
            prepared_txns: FxHashMap::default(),
            decided_txns: FxHashMap::default(),
            active_txns: FxHashSet::default(),
            resolving_txns: FxHashSet::default(),
            disk_slowdown: 1,
            txn_vote_tokens: FxHashMap::default(),
            txn_ack_tokens: FxHashMap::default(),
            committed_txns: FxHashSet::default(),
            committed_txn_order: std::collections::VecDeque::new(),
            crashed: false,
            decommissioned: false,
            unavailable: false,
            shutdown: false,
            stats: ServerStats::default(),
        }
    }

    /// Applies one replayable effect to the volatile stores.
    pub fn apply_effect(&mut self, effect: &KvEffect) {
        match effect {
            KvEffect::PutInode(k, v) => {
                self.inodes.put(k.clone(), v.clone());
            }
            KvEffect::DeleteInode(k) => {
                self.inodes.delete(k);
            }
            KvEffect::PutEntry(dir, e) => {
                self.put_entry(*dir, e.clone());
            }
            KvEffect::DeleteEntry(dir, name) => {
                self.remove_entry(*dir, name);
            }
            KvEffect::IndexDir(id, key) => {
                self.dir_index.insert(*id, key.clone());
            }
            KvEffect::UnindexDir(id) => {
                self.dir_index.remove(id);
            }
            KvEffect::Invalidate(id, key) => {
                self.invalidation.insert(*id, key.clone());
            }
        }
    }

    /// Inserts or replaces an entry in a directory's list, invalidating the
    /// directory's shared listing memo.
    pub fn put_entry(&mut self, dir: DirId, entry: DirEntry) {
        if let Some(content) = self.entries.get_mut_counted(&dir) {
            content.insert(entry);
        } else {
            let mut content = DirContent::default();
            content.insert(entry);
            self.entries.put(dir, content);
        }
    }

    /// Removes an entry from a directory's list, dropping the list once it
    /// becomes empty.
    pub fn remove_entry(&mut self, dir: DirId, name: &str) {
        let emptied = match self.entries.get_mut_counted(&dir) {
            Some(content) => {
                content.remove(name);
                content.is_empty()
            }
            None => false,
        };
        if emptied {
            self.entries.delete(&dir);
        }
    }

    /// The cached response of a completed operation, if still retained.
    pub fn cached_response(&self, op_id: &OpId) -> Option<&ClientResponse> {
        self.completed_ops.get(&op_id.client)?.get(&op_id.seq)
    }

    /// Caches a response for duplicate suppression, evicting the oldest
    /// entries past the per-client cap (op ids are per-client sequences, so
    /// the lowest sequence is the least likely to be retransmitted).
    pub fn cache_response(&mut self, response: ClientResponse) {
        let per = self.completed_ops.entry(response.op_id.client).or_default();
        per.insert(response.op_id.seq, response);
        while per.len() > COMPLETED_OPS_PER_CLIENT_CAP {
            let oldest = *per.keys().next().expect("cap overflow implies entries");
            per.remove(&oldest);
        }
    }

    /// Prunes every cached response of `client` below its piggybacked acked
    /// watermark: the client confirmed receipt of those responses and will
    /// never retransmit the operations.
    pub fn prune_completed(&mut self, client: ClientId, acked_below: u64) {
        if acked_below == 0 {
            return;
        }
        if let Some(per) = self.completed_ops.get_mut(&client) {
            // Only rebuild the map when there is actually something to
            // drop — this runs on every request.
            if per
                .first_key_value()
                .is_some_and(|(seq, _)| *seq < acked_below)
            {
                *per = per.split_off(&acked_below);
                if per.is_empty() {
                    self.completed_ops.remove(&client);
                }
            }
        }
    }

    /// Total cached responses across all clients (test observability).
    pub fn completed_ops_len(&self) -> usize {
        self.completed_ops.values().map(|m| m.len()).sum()
    }

    /// True when a remote change-log entry was already applied here — still
    /// awaiting its holder's discard confirmation, or recently retired.
    pub fn entry_already_applied(&self, id: &OpId) -> bool {
        self.applied_entry_ids.contains(id) || self.retired_entry_ids.contains(id)
    }

    /// Retires one applied entry id: its holder confirmed the durable
    /// discard, so the only copies that can still arrive were sent earlier
    /// and are bounded in (virtual) time — covered by the retention FIFO
    /// this moves the id into.
    pub fn retire_entry_id(&mut self, id: OpId, now: SimTime) {
        self.applied_entry_ids.remove(&id);
        if self.retired_entry_ids.insert(id) {
            self.retired_entry_order.push_back((now, id));
        }
        while let Some((at, old)) = self.retired_entry_order.front().copied() {
            if now.duration_since(at) <= RETIRED_ENTRY_RETENTION {
                break;
            }
            self.retired_entry_order.pop_front();
            self.retired_entry_ids.remove(&old);
        }
    }

    /// Queues discard confirmations for `applier`, to ride on the next
    /// message that flows there. `applier == self` short-circuits to an
    /// immediate retire (the owner applied its own entries).
    pub fn queue_discard_confirm(
        &mut self,
        me: ServerId,
        applier: ServerId,
        now: SimTime,
        ids: impl IntoIterator<Item = OpId>,
    ) {
        if applier == me {
            for id in ids {
                self.retire_entry_id(id, now);
            }
        } else {
            self.pending_discard_confirms
                .entry(applier)
                .or_default()
                .extend(ids);
        }
    }

    /// Takes the pending discard confirmations addressed to `applier` (to
    /// attach to an outgoing message).
    pub fn take_discard_confirms(&mut self, applier: ServerId) -> Vec<OpId> {
        self.pending_discard_confirms
            .remove(&applier)
            .unwrap_or_default()
    }

    /// Records a request packet's sequence number; returns false when this
    /// exact packet was already seen (a network duplicate to drop). The
    /// per-sender window is FIFO-bounded: duplicates arrive within the
    /// fabric's reorder window, far shorter than 128 packets.
    pub fn note_request_pkt(&mut self, sender: u32, seq: u64) -> bool {
        const PKT_WINDOW: usize = 128;
        let (set, order) = self.seen_request_pkts.entry(sender).or_default();
        if !set.insert(seq) {
            return false;
        }
        order.push_back(seq);
        while order.len() > PKT_WINDOW {
            let old = order.pop_front().expect("window overflow implies entries");
            set.remove(&old);
        }
        true
    }
}

/// One SwitchFS metadata server, bound to a simulated network endpoint.
#[derive(Clone)]
pub struct Server {
    pub(crate) handle: SimHandle,
    pub(crate) cpu: CpuPool,
    pub(crate) endpoint: Rc<Endpoint<NetMsg>>,
    pub(crate) cfg: Rc<ServerConfig>,
    pub(crate) inner: Rc<RefCell<ServerInner>>,
    pub(crate) durable: Rc<RefCell<DurableState>>,
    pub(crate) locks: LockManager,
    /// Snapshot of `cfg.obs.on()` taken at construction. Hot-path
    /// instrumentation guards read this plain immutable bool instead of
    /// the recorder's interior-mutable flag (a `Cell` behind two `Rc`s
    /// that the optimizer must re-read at every site). Recording is
    /// always decided at cluster construction, so the snapshot never
    /// goes stale.
    pub(crate) obs_enabled: bool,
}

impl Server {
    /// Creates a server bound to `endpoint`. `durable` is the crash-surviving
    /// WAL/checkpoint bundle owned by the cluster harness.
    pub fn new(
        handle: SimHandle,
        endpoint: Endpoint<NetMsg>,
        cfg: ServerConfig,
        durable: Rc<RefCell<DurableState>>,
    ) -> Self {
        let cpu = CpuPool::new(handle.clone(), cfg.cores);
        let obs_enabled = cfg.obs.on();
        Server {
            handle,
            cpu,
            endpoint: Rc::new(endpoint),
            cfg: Rc::new(cfg),
            inner: Rc::new(RefCell::new(ServerInner::new())),
            durable,
            locks: LockManager::new(),
            obs_enabled,
        }
    }

    /// This server's identity.
    pub fn id(&self) -> ServerId {
        self.cfg.id
    }

    /// This server's network node.
    pub fn node(&self) -> NodeId {
        self.cfg.node
    }

    /// Snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.borrow().stats
    }

    /// Combined counters of the server's KV stores (inode + entry-list).
    pub fn kv_stats(&self) -> switchfs_kvstore::KvStats {
        let inner = self.inner.borrow();
        let a = inner.inodes.stats();
        let b = inner.entries.stats();
        switchfs_kvstore::KvStats {
            gets: a.gets + b.gets,
            puts: a.puts + b.puts,
            deletes: a.deletes + b.deletes,
            scans: a.scans + b.scans,
        }
    }

    /// Number of change-log entries waiting to be applied remotely.
    pub fn pending_changelog_entries(&self) -> usize {
        self.inner.borrow().changelogs.total_pending()
    }

    /// Number of inodes stored on this server.
    pub fn inode_count(&self) -> usize {
        self.inner.borrow().inodes.len()
    }

    /// Number of prepared-but-undecided transactions staged on this server
    /// (test/chaos observability).
    pub fn prepared_txn_count(&self) -> usize {
        self.inner.borrow().prepared_txns.len()
    }

    /// Total duplicate-suppression cache entries across all clients
    /// (test observability for the bounded-dedup guarantee).
    pub fn completed_op_count(&self) -> usize {
        self.inner.borrow().completed_ops_len()
    }

    /// Applied-but-unconfirmed remote change-log entry ids currently held
    /// (test observability for the bounded `applied_entry_ids` guarantee).
    pub fn applied_entry_id_count(&self) -> usize {
        self.inner.borrow().applied_entry_ids.len()
    }

    /// Retired (holder-confirmed) entry ids currently in the bounded FIFO.
    pub fn retired_entry_id_count(&self) -> usize {
        self.inner.borrow().retired_entry_ids.len()
    }

    /// Number of shards currently frozen by outbound migrations.
    pub fn migrating_shard_count(&self) -> usize {
        self.inner.borrow().migrating_shards.len()
    }

    /// Sets the WAL-append slow-down multiplier (chaos disk-latency spikes;
    /// 1 restores normal speed).
    pub fn set_disk_slowdown(&self, mult: u64) {
        self.inner.borrow_mut().disk_slowdown = mult.max(1);
    }

    /// Looks up an inode directly (test/verification helper; does not charge
    /// simulated cost).
    pub fn peek_inode(&self, key: &MetaKey) -> Option<InodeAttrs> {
        self.inner.borrow().inodes.peek(key).cloned()
    }

    /// Lists a directory's entry names directly (test/verification helper).
    pub fn peek_entries(&self, dir: &DirId) -> Vec<String> {
        let inner = self.inner.borrow();
        inner
            .entries
            .peek(dir)
            .map(|c| c.iter().map(|e| e.name.clone()).collect())
            .unwrap_or_default()
    }

    /// Starts the server: spawns the packet loop and, if enabled, the
    /// proactive push/aggregation loop.
    pub fn start(&self) {
        let me = self.clone();
        self.handle.spawn(async move { me.run_loop().await });
        if self.cfg.proactive.enabled {
            let me = self.clone();
            self.handle.spawn(async move { me.proactive_loop().await });
        }
    }

    async fn run_loop(&self) {
        loop {
            let Some(pkt) = self.endpoint.recv().await else {
                return;
            };
            if self.inner.borrow().crashed {
                continue;
            }
            let me = self.clone();
            self.handle.spawn(async move {
                me.dispatch(pkt.src, pkt.payload).await;
            });
        }
    }

    async fn dispatch(&self, src: NodeId, msg: NetMsg) {
        if self.inner.borrow().crashed {
            return;
        }
        if self.inner.borrow().decommissioned {
            // Redirect tombstone: the server owns nothing and serves
            // nothing, but a client that still routes here with a
            // pre-shrink map gets the current map back instead of a
            // timeout — the ordinary WrongOwner refresh-and-retry path.
            // Everything else (stray server-to-server traffic addressed to
            // the previous incarnation) is dropped.
            if let Body::Request(req) = msg.body {
                self.inner.borrow_mut().stats.wrong_owner_rejects += 1;
                self.trace_event(
                    Some(TraceId::of_op(req.op_id)),
                    EventKind::WrongOwner {
                        op: req.op_id,
                        client_epoch: req.epoch,
                    },
                );
                self.send_plain(
                    src,
                    Body::Response(ClientResponse {
                        op_id: req.op_id,
                        result: OpResult::WrongOwner {
                            map: self.cfg.placement.snapshot(),
                        },
                        server: self.cfg.id,
                    }),
                );
            }
            return;
        }
        let dirty_ret = msg.dirty.map(|h| h.ret);
        let pkt_seq = msg.pkt_seq;
        match msg.body {
            // Boxed: the packet-loop spawns one dispatch future per packet;
            // keeping it at pointer size makes that copy cheap and pays for
            // the handler box only when a request/server message arrives.
            Body::Request(req) => {
                // Network-duplicate suppression below the op-level cache:
                // a delayed duplicate of an already-acknowledged operation
                // must not re-execute after the acked watermark pruned its
                // cached response. Retransmissions carry fresh packet
                // sequences and pass through.
                if !self
                    .inner
                    .borrow_mut()
                    .note_request_pkt(pkt_seq.sender, pkt_seq.seq)
                {
                    return;
                }
                Box::pin(self.handle_client_request(src, req, dirty_ret)).await
            }
            Body::Server(smsg) => Box::pin(self.handle_server_msg(src, smsg, dirty_ret)).await,
            Body::Coord(CoordMsg::Reply { token, ret }) => {
                self.complete_token(token, TokenReply::Dirty(ret));
            }
            Body::Coord(CoordMsg::Request { .. }) => {
                // Metadata servers are not coordinators; ignore.
            }
            Body::Response(_) | Body::Empty => {}
        }
    }

    async fn handle_client_request(
        &self,
        client_node: NodeId,
        req: Rc<ClientRequest>,
        dirty_ret: Option<DirtyRet>,
    ) {
        // Duplicate suppression: a retransmitted request gets the cached
        // response back without re-executing. (Bind the lookup first so the
        // RefCell borrow is released before sending.)
        let cached = self.inner.borrow().cached_response(&req.op_id).cloned();
        if let Some(resp) = cached {
            self.send_plain(client_node, Body::Response(resp));
            return;
        }
        // The piggybacked watermark bounds the dedup cache: everything this
        // client acknowledged receiving can never be retransmitted again.
        self.inner
            .borrow_mut()
            .prune_completed(req.op_id.client, req.acked_below);
        if self.inner.borrow().in_flight_ops.contains(&req.op_id) {
            // Already executing (a retransmission raced a slow operation,
            // e.g. the rename 2PC): drop it; the client keeps re-asking and
            // gets the cached response once the first execution replies.
            // Checked BEFORE the availability gate: a stop-the-world window
            // (switch-reboot re-aggregation, §5.5) does not kill in-flight
            // handlers, and answering their retransmissions with
            // `Unavailable` would tell the client "nothing happened" about
            // an operation that is still happening (the chaos checker flags
            // the resulting phantom mutation).
            return;
        }
        if self.inner.borrow().unavailable {
            self.reply(
                client_node,
                &req.op,
                req.op_id,
                OpResult::Err(FsError::Unavailable),
            );
            return;
        }
        // Both checks below are off the hot path: shard classification runs
        // only while an outbound migration is active, and the ownership
        // re-check only when the client's map epoch is stale.
        if !self.inner.borrow().migrating_shards.is_empty() {
            let shards = self.request_shards(&req.op);
            let inner = self.inner.borrow();
            if shards.iter().any(|s| inner.migrating_shards.contains(s)) {
                // The target shard is frozen by an outbound migration: drop
                // the request; the client's retransmission lands after the
                // flip and is either served here (shard kept) or rejected
                // with the new map (shard moved).
                return;
            }
        }
        if req.epoch != self.cfg.placement.epoch() && !self.may_own(&req.op) {
            // Routed with a stale shard map after the target shard moved
            // away: hand back the current map for refresh-and-retry.
            self.inner.borrow_mut().stats.wrong_owner_rejects += 1;
            self.trace_event(
                Some(TraceId::of_op(req.op_id)),
                EventKind::WrongOwner {
                    op: req.op_id,
                    client_epoch: req.epoch,
                },
            );
            self.send_plain(
                client_node,
                Body::Response(ClientResponse {
                    op_id: req.op_id,
                    result: OpResult::WrongOwner {
                        map: self.cfg.placement.snapshot(),
                    },
                    server: self.cfg.id,
                }),
            );
            return;
        }
        self.inner.borrow_mut().in_flight_ops.insert(req.op_id);
        self.trace_event(
            Some(TraceId::of_op(req.op_id)),
            EventKind::Dispatch { op: req.op_id },
        );
        // The rarely-taken handlers with huge state machines (rename's 2PC,
        // rmdir's aggregation) are boxed so the per-packet dispatch future —
        // whose size is the MAX over these branches and which is copied into
        // a fresh allocation on every spawn — stays small for the hot ops.
        let result = match &req.op {
            MetaOp::Create { .. } | MetaOp::Delete { .. } | MetaOp::Mkdir { .. } => {
                Box::pin(self.handle_double_inode(client_node, &req)).await
            }
            MetaOp::Rmdir { .. } => Box::pin(self.handle_rmdir(client_node, &req)).await,
            MetaOp::Statdir { .. } | MetaOp::Readdir { .. } => {
                Some(Box::pin(self.handle_dir_read(&req, dirty_ret)).await)
            }
            MetaOp::Rename { .. } => Box::pin(self.handle_rename(client_node, &req)).await,
            _ => Some(self.handle_single_inode(&req).await),
        };
        self.inner.borrow_mut().in_flight_ops.remove(&req.op_id);
        // `None` means the operation replies through the switch multicast
        // (asynchronous commit); anything else is replied here.
        if let Some(result) = result {
            self.reply(client_node, &req.op, req.op_id, result);
        }
    }

    /// The placement-hash shards a request's primary key may legitimately
    /// map to under the current policy (its per-file hash, its fingerprint
    /// and its parent-directory hash, plus a locally-known directory id for
    /// grouping policies). Used by the migration freeze gate; computed only
    /// while a migration is active, never on the hot path.
    fn request_shards(&self, op: &MetaOp) -> Vec<u32> {
        let key = op.primary_key();
        let fp = Fingerprint::of_dir(&key.pid, &key.name);
        let placement = &self.cfg.placement;
        let mut shards = vec![
            placement.shard_of_hash(key.hash64()),
            placement.shard_of_hash(switchfs_proto::ids::splitmix64(fp.raw())),
            placement.shard_of_hash(key.pid.hash64()),
        ];
        let dir_id = self.inner.borrow().inodes.peek(key).map(|a| a.id);
        if let Some(id) = dir_id {
            shards.push(placement.shard_of_hash(id.hash64()));
        }
        shards.dedup();
        shards
    }

    /// Ownership check for stale-epoch requests, mirroring the client
    /// router's per-op routing under the *current* map. The check must be
    /// exactly as strict as the router: accepting a non-owner (e.g. the
    /// per-file-hash server for a fingerprint-routed `mkdir`) would let a
    /// stale-routed create materialize state on the wrong server.
    fn may_own(&self, op: &MetaOp) -> bool {
        let key = op.primary_key();
        let placement = &self.cfg.placement;
        let me = self.cfg.id;
        match placement.policy() {
            switchfs_proto::PartitionPolicy::PerFileHash => match op {
                // Fingerprint-routed directory-target operations.
                MetaOp::Mkdir { .. }
                | MetaOp::Rmdir { .. }
                | MetaOp::Statdir { .. }
                | MetaOp::Readdir { .. }
                | MetaOp::Lookup { .. } => {
                    placement.dir_owner_by_fp(Fingerprint::of_dir(&key.pid, &key.name)) == me
                }
                // Rename is legitimately addressed to either the source's
                // fingerprint owner (directory source) or its per-file-hash
                // owner (file source / cold cache, re-routed server-side).
                MetaOp::Rename { src, .. } => {
                    placement.owner_of_hash(src.hash64()) == me
                        || placement.dir_owner_by_fp(Fingerprint::of_dir(&src.pid, &src.name)) == me
                }
                _ => placement.owner_of_hash(key.hash64()) == me,
            },
            // Grouping policies: most operations target the parent's
            // children server; directory reads / rmdir target the content
            // owner, addressed by an id only the client resolved — accept
            // when the replica is locally stored.
            _ => {
                placement.dir_owner_by_id(&key.pid) == me
                    || self.inner.borrow().inodes.contains(key)
            }
        }
    }

    /// Durably records a completed mutating operation's response (piggybacked
    /// on the operation's WAL append, so it costs no extra simulated
    /// latency): a retransmission that spans a crash must get the original
    /// result, not a re-execution.
    pub(crate) fn persist_completion(
        &self,
        op: &MetaOp,
        response: &switchfs_proto::message::ClientResponse,
    ) {
        let mutates =
            op.is_double_inode() || matches!(op, MetaOp::Chmod { .. } | MetaOp::Rename { .. });
        if !mutates {
            return;
        }
        let record = WalOp::completion(response.clone());
        let size = record.wire_size();
        let mut durable = self.durable.borrow_mut();
        let lsn = durable.wal.append_sized(record, size);
        // Flush barrier: the caller is about to release the acknowledgment,
        // and a completion record still sitting in the volatile tail would
        // be exactly the torn-tail casualty that turns a post-crash
        // retransmission into a re-execution. The flush rides the group
        // commit already charged to the operation's own append, so it still
        // costs no extra simulated latency.
        let newly = durable.wal.flush();
        if self.obs_on() {
            let trace = Some(TraceId::of_op(response.op_id));
            self.trace_event(trace, EventKind::WalAppend { lsn, bytes: size });
            self.trace_event(
                trace,
                EventKind::WalFlush {
                    through_lsn: durable.wal.flushed(),
                    records: newly as u64,
                },
            );
        }
    }

    // Handlers with large state machines are boxed: the per-packet dispatch
    // future's size is the max over every arm below, and it is copied into a
    // fresh allocation on every packet spawn — keeping the arms small keeps
    // the per-packet copy small.
    async fn handle_server_msg(&self, src: NodeId, msg: ServerMsg, dirty_ret: Option<DirtyRet>) {
        match msg {
            ServerMsg::AsyncCommit {
                response,
                origin,
                op_token,
                fallback,
            } => {
                Box::pin(self.handle_async_commit_packet(
                    src, response, origin, op_token, fallback, dirty_ret,
                ))
                .await;
            }
            ServerMsg::AggregationRequest { agg, invalidate } => {
                Box::pin(self.handle_aggregation_request(agg, invalidate)).await;
            }
            ServerMsg::AggregationEntries {
                agg,
                from,
                entries,
                discard_confirm,
            } => {
                self.retire_confirmed(discard_confirm);
                self.handle_aggregation_entries(agg, from, entries);
            }
            ServerMsg::AggregationAck { agg } => {
                self.handle_aggregation_ack(agg);
            }
            ServerMsg::ChangeLogPush {
                dir_key,
                fp,
                from,
                entries,
                discard_confirm,
            } => {
                self.retire_confirmed(discard_confirm);
                Box::pin(self.handle_changelog_push(dir_key, fp, from, entries)).await;
            }
            ServerMsg::ChangeLogPushAck { dir_key, applied } => {
                self.handle_push_ack(src, dir_key, applied);
            }
            ServerMsg::RemoteDirUpdate {
                req_id,
                dir_key,
                entry,
                discard_confirm,
            } => {
                self.retire_confirmed(discard_confirm);
                Box::pin(self.handle_remote_dir_update(src, req_id, dir_key, entry)).await;
            }
            ServerMsg::RemoteDirUpdateAck { req_id, result } => {
                let reply = match result {
                    Ok(()) => TokenReply::Ack,
                    Err(e) => TokenReply::Failed(e),
                };
                self.complete_token(req_id, reply);
            }
            ServerMsg::FallbackDone { op_token, entry_id } => {
                self.handle_fallback_done(src, op_token, entry_id);
            }
            ServerMsg::MarkDirty { req_id, fp } => {
                self.handle_mark_dirty(src, req_id, fp).await;
            }
            ServerMsg::MarkDirtyAck { req_id } => {
                self.complete_token(req_id, TokenReply::Ack);
            }
            ServerMsg::InvalidationBroadcast { dir_id, dir_key } => {
                self.apply_and_log(
                    None,
                    vec![KvEffect::Invalidate(dir_id, dir_key)],
                    None,
                    Vec::new(),
                )
                .await;
            }
            ServerMsg::InvalidationRevoke { dir_id } => {
                self.inner.borrow_mut().invalidation.remove(&dir_id);
            }
            ServerMsg::TxnPrepare {
                txn_id,
                coordinator,
                ops,
            } => {
                self.handle_txn_prepare(txn_id, coordinator, ops).await;
            }
            ServerMsg::TxnVote {
                txn_id,
                from,
                ok,
                dst_type,
            } => {
                self.handle_txn_vote(txn_id, from, ok, dst_type);
            }
            ServerMsg::TxnCommit { txn_id } => {
                // Ack once the commit is fully applied — by this copy or a
                // previously completed one. A retransmitted copy racing a
                // still-running apply is dropped; the coordinator's
                // retransmission timer re-asks until the apply finished.
                if Box::pin(self.handle_txn_decision(txn_id, true)).await {
                    self.send_plain(
                        src,
                        Body::Server(ServerMsg::TxnDecisionAck {
                            txn_id,
                            from: self.cfg.id,
                        }),
                    );
                }
            }
            ServerMsg::TxnDecisionAck { txn_id, from } => {
                self.handle_txn_ack(txn_id, from);
            }
            ServerMsg::TxnAbort { txn_id } => {
                Box::pin(self.handle_txn_decision(txn_id, false)).await;
                // Abort is idempotent (nothing is applied): always ack so
                // the coordinator stops retransmitting.
                self.send_plain(
                    src,
                    Body::Server(ServerMsg::TxnDecisionAck {
                        txn_id,
                        from: self.cfg.id,
                    }),
                );
            }
            ServerMsg::TxnDecisionQuery {
                req_id,
                txn_id,
                from,
            } => {
                self.handle_txn_decision_query(req_id, txn_id, from).await;
            }
            ServerMsg::TxnDecisionReply { req_id, commit } => {
                self.complete_token(req_id, TokenReply::Decision(commit));
            }
            ServerMsg::ForwardedRequest { client_node, req } => {
                // A rename re-routed by the source's per-file-hash owner:
                // handle it as if the client had sent it here, replying to
                // the client directly. Duplicate suppression keys on the
                // unchanged op id, so client retransmissions (which are
                // forwarded again) collapse onto one execution.
                Box::pin(self.handle_client_request(NodeId(client_node), req, dirty_ret)).await;
            }
            ServerMsg::RecoveryCloneInvalidation { from } => {
                let list: Vec<(DirId, MetaKey)> = self
                    .inner
                    .borrow()
                    .invalidation
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect();
                self.send_plain(
                    self.cfg.node_of(from),
                    Body::Server(ServerMsg::RecoveryInvalidationList { list }),
                );
            }
            ServerMsg::RecoveryInvalidationList { list } => {
                let mut inner = self.inner.borrow_mut();
                for (id, key) in list {
                    inner.invalidation.insert(id, key);
                }
            }
            ServerMsg::InitDirContent {
                req_id,
                dir_id,
                key,
                attrs,
            } => {
                // Baseline helper: register a directory's content replica on
                // the server that will hold its children.
                self.cpu
                    .run(self.cfg.costs.software_path + self.cfg.costs.kv_put)
                    .await;
                self.apply_and_log(
                    None,
                    vec![
                        KvEffect::PutInode(key.clone(), attrs),
                        KvEffect::IndexDir(dir_id, key),
                    ],
                    None,
                    Vec::new(),
                )
                .await;
                self.send_plain(src, Body::Server(ServerMsg::InitDirContentAck { req_id }));
            }
            ServerMsg::InitDirContentAck { req_id } => {
                self.complete_token(req_id, TokenReply::Ack);
            }
            ServerMsg::RemoteTxnOp { req_id, op } => {
                self.cpu.run(self.cfg.costs.software_path).await;
                Box::pin(self.apply_txn_ops(std::slice::from_ref(&op))).await;
                self.send_plain(
                    src,
                    Body::Server(ServerMsg::RemoteDirUpdateAck {
                        req_id,
                        result: Ok(()),
                    }),
                );
            }
            ServerMsg::TypeProbe { req_id, key } => {
                self.cpu
                    .run(self.cfg.costs.software_path + self.cfg.costs.kv_get)
                    .await;
                let file_type = self
                    .inner
                    .borrow_mut()
                    .inodes
                    .get_ref(&key)
                    .map(|a| a.file_type);
                self.send_plain(
                    src,
                    Body::Server(ServerMsg::TypeProbeAck { req_id, file_type }),
                );
            }
            ServerMsg::TypeProbeAck { req_id, file_type } => {
                self.complete_token(req_id, TokenReply::Type(file_type));
            }
            ServerMsg::ShardInstall {
                req_id,
                shard,
                inodes,
                entries,
                dir_index,
                pending,
                applied_entry_ids,
                retired_entry_ids,
                completed,
            } => {
                Box::pin(self.handle_shard_install(
                    src,
                    req_id,
                    shard,
                    inodes,
                    entries,
                    dir_index,
                    pending,
                    applied_entry_ids,
                    retired_entry_ids,
                    completed,
                ))
                .await;
            }
            ServerMsg::ShardInstallAck { req_id } => {
                self.complete_token(req_id, TokenReply::Ack);
            }
        }
    }

    // ------------------------------------------------------------------
    // Single-inode operations (§5.2: performed synchronously).
    // ------------------------------------------------------------------

    async fn handle_single_inode(&self, req: &ClientRequest) -> OpResult {
        let costs = self.cfg.costs;
        self.cpu.run(costs.request_overhead()).await;
        if self.is_stale(&req.ancestors) {
            return OpResult::Err(FsError::StaleCache);
        }
        let key = req.op.primary_key().clone();
        match &req.op {
            MetaOp::Stat { .. }
            | MetaOp::Open { .. }
            | MetaOp::Lookup { .. }
            | MetaOp::Close { .. } => {
                let lock = self.locks.inode(&key);
                let _g = lock.read().await;
                self.cpu.run(costs.lock_op + costs.kv_get).await;
                match self.inner.borrow_mut().inodes.get(&key) {
                    Some(attrs) => OpResult::Attrs(attrs),
                    None => OpResult::Err(FsError::NotFound),
                }
            }
            MetaOp::Chmod { mode, .. } => {
                let lock = self.locks.inode(&key);
                let _g = lock.write().await;
                self.cpu
                    .run(costs.lock_op + costs.kv_get + costs.kv_put + costs.wal_append)
                    .await;
                let existing = self.inner.borrow_mut().inodes.get(&key);
                let Some(mut attrs) = existing else {
                    return OpResult::Err(FsError::NotFound);
                };
                attrs.perm.mode = *mode;
                attrs.times.ctime = self.now_ns();
                let effects = vec![KvEffect::PutInode(key.clone(), attrs.clone())];
                self.apply_and_log(Some(req.op_id), effects, None, Vec::new())
                    .await;
                OpResult::Done
            }
            _ => OpResult::Err(FsError::NotFound),
        }
    }

    // ------------------------------------------------------------------
    // Helpers shared by the operation modules.
    // ------------------------------------------------------------------

    /// Current virtual time in nanoseconds (used as the timestamp source).
    pub(crate) fn now_ns(&self) -> u64 {
        self.handle.now().as_nanos()
    }

    /// True when the observability layer is recording. Instrumentation
    /// sites check this before computing event payloads, so a disabled run
    /// pays one branch per site (on a construction-time snapshot; see the
    /// `obs_enabled` field).
    #[inline]
    pub(crate) fn obs_on(&self) -> bool {
        self.obs_enabled
    }

    /// Records a flight-recorder event stamped with virtual time, this
    /// server's node and the current placement epoch. Pure reads plus a
    /// ring-buffer write: never touches protocol state, stats or the
    /// schedule, so the replay digest is identical with tracing on or off.
    pub(crate) fn trace_event(&self, trace: Option<TraceId>, kind: EventKind) {
        if !self.obs_enabled {
            return;
        }
        self.cfg.obs.record(TraceEvent {
            at_ns: self.now_ns(),
            node: self.cfg.node.0,
            epoch: self.cfg.placement.epoch(),
            trace,
            kind,
        });
    }

    /// True if any ancestor directory appears in the invalidation list.
    pub(crate) fn is_stale(&self, ancestors: &[DirId]) -> bool {
        let inner = self.inner.borrow();
        ancestors.iter().any(|a| inner.invalidation.contains_key(a))
    }

    /// The server identity hosted on `node`, if it is a metadata server.
    pub(crate) fn server_id_of(&self, node: NodeId) -> Option<ServerId> {
        self.cfg
            .server_nodes
            .borrow()
            .iter()
            .position(|n| *n == node)
            .map(|i| ServerId(i as u32))
    }

    /// Retires entry ids whose holders confirmed the durable discard
    /// (piggybacked on an incoming push / aggregation reply / remote
    /// update). Pure state motion — no modeled cost, no packets.
    pub(crate) fn retire_confirmed(&self, ids: Vec<OpId>) {
        if ids.is_empty() {
            return;
        }
        let now = self.handle.now();
        let obs_on = self.obs_on();
        let mut inner = self.inner.borrow_mut();
        for id in ids {
            if obs_on {
                self.trace_event(
                    Some(TraceId::of_op(id)),
                    EventKind::DiscardConfirm { entry: id },
                );
            }
            inner.retire_entry_id(id, now);
        }
    }

    /// Allocates a fresh token / aggregation id.
    pub(crate) fn next_token(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let t = inner.next_token;
        inner.next_token += 1;
        t
    }

    /// Allocates the next dirty-set remove sequence number (§5.4.1).
    pub(crate) fn next_remove_seq(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.remove_seq += 1;
        inner.remove_seq
    }

    fn next_pkt_seq(&self) -> PacketSeq {
        PacketSeq {
            sender: self.cfg.node.0,
            seq: self.next_token(),
        }
    }

    /// Sends a plain (no dirty-set header) packet.
    pub(crate) fn send_plain(&self, dst: NodeId, body: Body) {
        let msg = NetMsg::plain(self.next_pkt_seq(), body);
        self.endpoint.send(dst, msg);
    }

    /// Sends a packet carrying a dirty-set operation header.
    pub(crate) fn send_dirty(&self, dst: NodeId, hdr: switchfs_proto::DirtySetHeader, body: Body) {
        let msg = NetMsg::with_dirty(self.next_pkt_seq(), hdr, body);
        self.endpoint.send(dst, msg);
    }

    /// Sends a response to a client and records it for duplicate
    /// suppression. The completion record is made durable *before* the
    /// acknowledgment escapes: an ack that outruns its completion record
    /// would be re-executed (not answered from the dedup cache) by a
    /// recovered server when the client gives up waiting and retransmits.
    pub(crate) fn reply(
        &self,
        client_node: NodeId,
        op: &MetaOp,
        op_id: OpId,
        result: OpResult,
    ) -> ClientResponse {
        let response = ClientResponse {
            op_id,
            result,
            server: self.cfg.id,
        };
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.ops_completed += 1;
            if !response.result.is_ok() {
                inner.stats.ops_failed += 1;
            }
            inner.cache_response(response.clone());
        }
        self.persist_completion(op, &response);
        self.send_plain(client_node, Body::Response(response.clone()));
        response
    }

    /// Builds the response object without sending it (the asynchronous commit
    /// path lets the switch deliver it).
    pub(crate) fn make_response(&self, op_id: OpId, result: OpResult) -> ClientResponse {
        let response = ClientResponse {
            op_id,
            result,
            server: self.cfg.id,
        };
        let mut inner = self.inner.borrow_mut();
        inner.stats.ops_completed += 1;
        inner.cache_response(response.clone());
        response
    }

    /// Completes a token-matched wait, if still registered.
    pub(crate) fn complete_token(&self, token: u64, reply: TokenReply) {
        let tx = self.inner.borrow_mut().pending_tokens.remove(&token);
        if let Some(tx) = tx {
            let _ = tx.send(reply);
        }
    }

    /// Registers a token-matched wait and returns its receiver.
    pub(crate) fn register_token(&self, token: u64) -> oneshot::Receiver<TokenReply> {
        let (tx, rx) = oneshot::channel();
        self.inner.borrow_mut().pending_tokens.insert(token, tx);
        rx
    }

    /// Sends `body` to `dst` and waits for a token-matched acknowledgment,
    /// retransmitting on timeout (§5.4.1). Returns `None` after exhausting
    /// the retry budget.
    pub(crate) async fn send_with_ack(
        &self,
        dst: NodeId,
        token: u64,
        body: Body,
    ) -> Option<TokenReply> {
        // Exponential backoff, mirroring the client: duplicates are
        // suppressed by the receiver, so pacing retries only sheds packets.
        let mut wait = self.cfg.costs.request_timeout;
        let max_wait = self.cfg.costs.request_timeout * 16;
        for attempt in 0..=self.cfg.costs.max_retries {
            if attempt > 0 {
                self.inner.borrow_mut().stats.retransmissions += 1;
            }
            let rx = self.register_token(token);
            self.send_plain(dst, body.clone());
            match timeout(&self.handle, wait, rx.recv()).await {
                Some(Ok(reply)) => return Some(reply),
                _ => {
                    self.inner.borrow_mut().pending_tokens.remove(&token);
                    wait = (wait * 2).min(max_wait);
                }
            }
        }
        None
    }

    /// Appends a WAL record, applies its effects to the volatile stores and
    /// charges the corresponding storage costs.
    pub(crate) async fn apply_and_log(
        &self,
        op_id: Option<OpId>,
        effects: Vec<KvEffect>,
        pending_entry: Option<(DirId, MetaKey, ChangeLogEntry)>,
        applied_entry_ids: Vec<OpId>,
    ) -> u64 {
        let costs = self.cfg.costs;
        let kv_cost = costs.kv_put * effects.len().max(1) as u64;
        let record = WalOp {
            op_id,
            effects,
            pending_entry,
            applied_entry_ids,
            txn_marker: None,
            completed: None,
            migration: None,
        };
        let size = record.wire_size();
        // The record is handed to the log *before* the simulated disk wait:
        // for the duration of the await it is appended but unflushed, which
        // is exactly the window a torn-write crash may corrupt. The flush
        // barrier and the volatile-state application share one no-await
        // block after the wait, so volatile state never reflects a record
        // the media could still lose — and the record is applied from a
        // borrow of its WAL slot, one materialization instead of a deep
        // clone per logged operation.
        let lsn = self.durable.borrow_mut().wal.append_sized(record, size);
        self.cpu.run(self.wal_append_cost() + kv_cost).await;
        let durable = &mut *self.durable.borrow_mut();
        let newly_flushed = durable.wal.flush();
        if let Ok(idx) = durable.wal.records().binary_search_by_key(&lsn, |r| r.lsn) {
            let record = &durable.wal.records()[idx].payload;
            // Observability: derive the batch's causal identity (the client
            // op when logged on its behalf, else the single change-log
            // entry applied) and emit events from the *actually applied*
            // record — not from the caller's intent — so a divergence
            // between the two is visible in a dump. Everything here is
            // non-counting peeks and ring-buffer writes; the replay digest
            // cannot see it.
            let obs_on = self.obs_on();
            let (trace, batch) = if obs_on {
                let trace = record
                    .op_id
                    .or(match record.applied_entry_ids[..] {
                        [only] => Some(only),
                        _ => None,
                    })
                    .map(TraceId::of_op);
                self.trace_event(trace, EventKind::WalAppend { lsn, bytes: size });
                self.trace_event(
                    trace,
                    EventKind::WalFlush {
                        through_lsn: durable.wal.flushed(),
                        records: newly_flushed as u64,
                    },
                );
                (trace, self.cfg.obs.next_batch())
            } else {
                (None, 0)
            };
            let mut inner = self.inner.borrow_mut();
            for e in &record.effects {
                if let Some((dir, insert)) = e.entry_target().filter(|_| obs_on) {
                    let kind = EventKind::EntryApply { batch, dir, insert };
                    self.trace_event(trace, kind);
                }
                inner.apply_effect(e);
            }
            for id in &record.applied_entry_ids {
                inner.applied_entry_ids.insert(*id);
            }
        }
        lsn
    }

    /// The effective cost of one WAL append, including any chaos-injected
    /// disk-latency spike.
    pub(crate) fn wal_append_cost(&self) -> switchfs_simnet::SimDuration {
        self.cfg.costs.wal_append * self.inner.borrow().disk_slowdown
    }

    /// Durably logs a 2PC state transition (§5.4.2) and charges one WAL
    /// append.
    pub(crate) async fn log_txn_marker(&self, marker: crate::wal::TxnMarker) -> u64 {
        let record = WalOp::txn(marker);
        let size = record.wire_size();
        // Append before the disk wait (the torn-write window), flush after:
        // every caller relies on the marker being durable when this returns
        // — `Prepared` before the vote escapes, `Decided` before the
        // decision broadcast, `Resolved` before the decision ack.
        let lsn = self.durable.borrow_mut().wal.append_sized(record, size);
        self.cpu.run(self.wal_append_cost()).await;
        let mut durable = self.durable.borrow_mut();
        let newly = durable.wal.flush();
        if self.obs_on() {
            self.trace_event(None, EventKind::WalAppend { lsn, bytes: size });
            self.trace_event(
                None,
                EventKind::WalFlush {
                    through_lsn: durable.wal.flushed(),
                    records: newly as u64,
                },
            );
        }
        lsn
    }

    /// Sends one body to every listed server, building the message once and
    /// cloning only for all recipients but the last (alloc-free for the
    /// common single-recipient fan-out).
    pub(crate) fn multicast_plain(&self, servers: &[ServerId], body: Body) {
        let Some((last, rest)) = servers.split_last() else {
            return;
        };
        for s in rest {
            self.send_plain(self.cfg.node_of(*s), body.clone());
        }
        self.send_plain(self.cfg.node_of(*last), body);
    }

    /// Broadcasts an invalidation-list append to every other server.
    pub(crate) fn broadcast_invalidation(&self, dir_id: DirId, dir_key: MetaKey) {
        self.multicast_plain(
            &self.cfg.other_servers(),
            Body::Server(ServerMsg::InvalidationBroadcast { dir_id, dir_key }),
        );
    }

    /// Resolves the dirty state of a fingerprint according to the tracking
    /// mode: the value attached by the switch, a coordinator RPC, or the
    /// local software set.
    pub(crate) async fn dirty_state_for_read(
        &self,
        fp: Fingerprint,
        attached: Option<DirtyRet>,
    ) -> DirtyState {
        match self.cfg.tracking {
            TrackingMode::InNetwork => match attached {
                Some(DirtyRet::State(s)) => s,
                // Without switch information be conservative: aggregating an
                // already-clean group is correct, just slower.
                _ => DirtyState::Scattered,
            },
            TrackingMode::DedicatedServer(coord) => {
                let token = self.next_token();
                let rx = self.register_token(token);
                self.send_plain(
                    coord,
                    Body::Coord(CoordMsg::Request {
                        token,
                        op: DirtySetOp::Query,
                        fp,
                        seq: 0,
                    }),
                );
                match timeout(&self.handle, self.cfg.costs.request_timeout, rx.recv()).await {
                    Some(Ok(TokenReply::Dirty(DirtyRet::State(s)))) => s,
                    _ => DirtyState::Scattered,
                }
            }
            TrackingMode::OwnerServer => {
                if self.inner.borrow_mut().local_dirty.query(fp) {
                    DirtyState::Scattered
                } else {
                    DirtyState::Normal
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk loading (experiment setup) and direct state inspection.
    // ------------------------------------------------------------------

    /// Directly installs a directory inode this server owns, without going
    /// through the protocol. Used to pre-populate experiment namespaces
    /// (e.g. "10 million files in 1024 directories") at setup time.
    pub fn preload_dir(&self, key: MetaKey, id: DirId, now: u64) {
        let attrs = InodeAttrs::new_dir(id, now, Default::default());
        let mut inner = self.inner.borrow_mut();
        inner.inodes.put(key.clone(), attrs);
        inner.dir_index.insert(id, key);
    }

    /// Directly installs a file inode (and optionally counts it in the parent
    /// directory entry list if this server also owns the parent).
    pub fn preload_file(&self, key: MetaKey, now: u64) {
        let id = DirId::generate(self.cfg.id, {
            let mut inner = self.inner.borrow_mut();
            inner.dir_counter += 1;
            inner.dir_counter
        });
        let attrs = InodeAttrs::new_file(id, now, Default::default());
        self.inner.borrow_mut().inodes.put(key, attrs);
    }

    /// Directly installs a directory entry on the owner of the directory.
    pub fn preload_entry(&self, dir: DirId, entry: DirEntry) {
        self.inner.borrow_mut().put_entry(dir, entry);
    }

    /// Generates a fresh directory id.
    pub(crate) fn fresh_dir_id(&self) -> DirId {
        let mut inner = self.inner.borrow_mut();
        inner.dir_counter += 1;
        DirId::generate(self.cfg.id, inner.dir_counter)
    }

    /// Builds a change-log entry for a deferred parent-directory update.
    pub(crate) fn make_entry(
        &self,
        op_id: OpId,
        parent_id: DirId,
        name: &str,
        op: switchfs_proto::ChangeOp,
    ) -> ChangeLogEntry {
        ChangeLogEntry {
            entry_id: op_id,
            dir: parent_id,
            name: name.to_string(),
            op,
            timestamp: self.now_ns(),
        }
    }

    /// Reads a directory's attributes and entries for `readdir`, charging the
    /// per-entry scan cost. The listing is shared (`Rc`), not copied: the
    /// same allocation flows into the response, the duplicate-suppression
    /// cache and every in-flight packet copy. The reported size is the
    /// listing's length.
    pub(crate) async fn read_listing(
        &self,
        key: &MetaKey,
    ) -> Option<(InodeAttrs, Rc<Vec<DirEntry>>)> {
        let (attrs, entries) = {
            let mut inner = self.inner.borrow_mut();
            let mut attrs = inner.inodes.get(key)?;
            if attrs.file_type != FileType::Directory {
                return None;
            }
            let dir = attrs.id;
            // `get_mut_read`: mutable only to fill the listing memo — this
            // is a read and must be billed as one.
            let entries = match inner.entries.get_mut_read(&dir) {
                Some(content) => content.listing(),
                None => Rc::new(Vec::new()),
            };
            attrs.size = entries.len() as u64;
            (attrs, entries)
        };
        let scan_cost = self.cfg.costs.readdir_per_entry * entries.len().max(1) as u64;
        self.cpu.run(self.cfg.costs.kv_get + scan_cost).await;
        Some((attrs, entries))
    }

    /// Marks the server crashed: volatile state will be rebuilt by
    /// [`Server::recover`]. The caller should also mark the node down in the
    /// network so in-flight packets are dropped.
    pub fn crash(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.crashed = true;
        inner.unavailable = true;
    }

    /// Crashes the server *and* applies a torn-write fault to the WAL: the
    /// flushed prefix survives bit-exactly, while each unflushed record is
    /// independently kept, torn or dropped under `tear_seed` (see
    /// [`switchfs_kvstore::Wal::crash_apply`]). Recovery detects and
    /// truncates the damage. Returns what the crash did to the tail.
    pub fn crash_torn(&self, tear_seed: u64) -> switchfs_kvstore::TornTail {
        self.crash();
        self.durable.borrow_mut().wal.crash_apply(tear_seed)
    }

    /// True if the server is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.inner.borrow().crashed
    }

    /// Turns a fully drained server into the decommission tombstone: it
    /// stops all background work and from now on only answers client
    /// requests with a `WrongOwner` redirect carrying the current map. The
    /// caller must have migrated every shard away (and retired the server in
    /// the shared map) first.
    pub fn decommission(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.decommissioned = true;
        // Stop the proactive loop at its next wake-up; `restart_background`
        // refuses to revive a decommissioned server's loop.
        inner.shutdown = true;
    }

    /// True once the server was gracefully decommissioned.
    pub fn is_decommissioned(&self) -> bool {
        self.inner.borrow().decommissioned
    }

    /// Marks the server available again after recovery or reconfiguration.
    pub fn set_available(&self, available: bool) {
        self.inner.borrow_mut().unavailable = !available;
    }

    /// Pause serving client requests (used by stop-the-world
    /// reconfiguration, §5.5).
    pub fn set_unavailable(&self) {
        self.inner.borrow_mut().unavailable = true;
    }

    /// Asks the background proactive loop to stop at its next wake-up so the
    /// simulation can quiesce at the end of an experiment.
    pub fn stop_background(&self) {
        self.inner.borrow_mut().shutdown = true;
    }

    /// Restarts the background proactive loop after [`Server::stop_background`].
    /// A decommissioned server stays quiet: its tombstone answers requests
    /// without any background machinery.
    pub fn restart_background(&self) {
        let was_shutdown = {
            let mut inner = self.inner.borrow_mut();
            if inner.decommissioned {
                return;
            }
            let was = inner.shutdown;
            inner.shutdown = false;
            was
        };
        if was_shutdown && self.cfg.proactive.enabled {
            let me = self.clone();
            self.handle.spawn(async move { me.proactive_loop().await });
        }
    }

    /// Whether this server currently owns (stores the inode of) `key`.
    pub fn owns_inode(&self, key: &MetaKey) -> bool {
        self.inner.borrow().inodes.contains(key)
    }

    /// Setup-time seeding for a newly added server: copies another server's
    /// invalidation list directly, like preloading does for namespaces (the
    /// newcomer has served no traffic yet, so no protocol run is needed).
    pub fn seed_invalidation_from(&self, other: &Server) {
        let list: Vec<(DirId, MetaKey)> = other
            .inner
            .borrow()
            .invalidation
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let mut inner = self.inner.borrow_mut();
        for (id, key) in list {
            inner.invalidation.insert(id, key);
        }
    }

    /// The cost model in effect (shared with benches).
    pub fn costs(&self) -> crate::costs::CostModel {
        self.cfg.costs
    }
}
