//! Metadata placement (§2.1, §4.3, Tab. 1): the one module that decides
//! which server stores a piece of metadata.
//!
//! * **P/C separation** (per-file hashing): a file inode is placed by
//!   hashing its `(pid, name)` key — the policy of CFS and SwitchFS.
//!   SwitchFS additionally requires that all directories sharing a
//!   fingerprint live on the same server, so a *directory* inode and its
//!   entry list are placed by fingerprint (which is itself a hash of
//!   `(pid, name)`).
//! * **P/C grouping** (per-directory hashing): a directory's children are
//!   colocated with the directory's entry list on the server selected by
//!   hashing the directory id — the policy of InfiniFS / IndexFS, and of
//!   the CephFS-like baseline. A directory therefore has two replicas: an
//!   *access* replica with its parent's children and a *content* replica
//!   with its own.
//!
//! [`ShardMap`] is the only code that tells the two policies apart: clients
//! route with [`ShardMap::route`], and servers re-check ownership, extract
//! migrating shards and address directory updates with the same hashes.
//! Protocol code whose round trips genuinely differ between the two asks
//! [`ShardMap::groups_children`].

use std::cell::RefCell;
use std::rc::Rc;

use crate::ids::{splitmix64, DirId, Fingerprint, ServerId};
use crate::message::MetaOp;
use crate::schema::{InodeAttrs, MetaKey};
use serde::{Deserialize, Serialize};

/// Which partitioning rule a cluster uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionPolicy {
    /// Per-file hashing (parent/children separation).
    PerFileHash,
    /// Per-directory hashing (parent/children grouping).
    PerDirectoryHash,
}

/// Baseline number of virtual shards a map aims for. The actual count is
/// rounded up to the nearest multiple of the initial server count so the
/// epoch-0 assignment `shard s → server (s mod n)` reproduces the historic
/// `hash % n` placement bit for bit.
pub const BASE_SHARDS: usize = 256;

/// An epoch-versioned map of virtual shards to servers.
///
/// The hash space is split into a fixed number of virtual shards
/// (`shard = hash % num_shards`), each owned by one server. Epoch 0 is
/// extensionally equal to the historic `hash % n` placement over the initial
/// server count;
/// every later reassignment (live shard migration, server addition) bumps
/// the epoch, and clients holding a stale epoch are rejected with
/// [`crate::message::OpResult::WrongOwner`] carrying the current map.
///
/// Because only reassigned shards change owners, growing the cluster from
/// `n` to `n+1` servers moves ~`1/(n+1)` of the key space — unlike the old
/// modulo placement, which would have reshuffled nearly every key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    policy: PartitionPolicy,
    epoch: u64,
    servers: usize,
    shards: Vec<ServerId>,
    /// Servers that were gracefully decommissioned: their ids stay allocated
    /// (ids index node tables and must never be reused), but they own no
    /// shards and are excluded from every rebalance/drain plan. Sorted.
    retired: Vec<ServerId>,
}

impl ShardMap {
    /// The epoch-0 map over `servers` servers: `num_shards` is the smallest
    /// multiple of `servers` that is at least [`BASE_SHARDS`], and shard `s`
    /// is owned by server `s % servers` — bit-identical to the historic
    /// `hash % servers` placement.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn initial(policy: PartitionPolicy, servers: usize) -> Self {
        assert!(servers > 0, "placement needs at least one server");
        let per_server = BASE_SHARDS.div_ceil(servers).max(1);
        let num_shards = servers * per_server;
        let shards = (0..num_shards)
            .map(|s| ServerId((s % servers) as u32))
            .collect();
        ShardMap {
            policy,
            epoch: 0,
            servers,
            shards,
            retired: Vec::new(),
        }
    }

    /// The current map version; bumped by every shard reassignment.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of virtual shards (fixed for the lifetime of the cluster).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a placement hash falls into.
    pub fn shard_of_hash(&self, hash: u64) -> u32 {
        (hash % self.shards.len() as u64) as u32
    }

    /// The server owning shard `shard`.
    pub fn owner_of_shard(&self, shard: u32) -> ServerId {
        self.shards[shard as usize]
    }

    /// Number of shards currently owned by `server`.
    pub fn shards_owned(&self, server: ServerId) -> usize {
        self.shards.iter().filter(|s| **s == server).count()
    }

    /// Registers one more server without moving any shards (it owns nothing
    /// until a rebalance assigns shards to it). Returns the new server's id.
    pub fn add_server(&mut self) -> ServerId {
        let id = ServerId(self.servers as u32);
        self.servers += 1;
        id
    }

    /// True when `server` was gracefully decommissioned: it owns no shards
    /// and must not appear in any plan or fan-out set.
    pub fn is_retired(&self, server: ServerId) -> bool {
        self.retired.binary_search(&server).is_ok()
    }

    /// Number of servers still serving (registered minus retired).
    pub fn num_active_servers(&self) -> usize {
        self.servers - self.retired.len()
    }

    /// Marks a fully drained server as decommissioned, bumping the epoch so
    /// clients holding a map from before the shrink refresh on their next
    /// `WrongOwner` rejection.
    ///
    /// # Panics
    ///
    /// Panics if the server still owns shards (drain it first), if it is the
    /// last active server, or if it is already retired.
    pub fn retire(&mut self, server: ServerId) {
        assert_eq!(
            self.shards_owned(server),
            0,
            "cannot retire {server}: it still owns shards"
        );
        assert!(
            self.num_active_servers() > 1,
            "cannot retire the last active server"
        );
        let slot = self
            .retired
            .binary_search(&server)
            .expect_err("server is already retired");
        self.retired.insert(slot, server);
        self.epoch += 1;
    }

    /// Reassigns one shard, bumping the epoch. Used by live migration: the
    /// flip happens only after the shard's state is installed at the target.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a registered server or is retired.
    pub fn assign(&mut self, shard: u32, to: ServerId) {
        assert!((to.0 as usize) < self.servers, "unknown server {to}");
        assert!(
            !self.is_retired(to),
            "cannot assign a shard to {to}: retired"
        );
        if self.shards[shard as usize] != to {
            self.shards[shard as usize] = to;
            self.epoch += 1;
        }
    }

    /// Plans the moves that drain every shard owned by `victim` onto the
    /// surviving active servers (graceful decommission). Deterministic:
    /// victim shards are visited in ascending index order and each goes to
    /// the currently least-loaded survivor (lowest id on ties), so the
    /// survivors end within ±1 of each other. Does not mutate the map.
    pub fn plan_drain(&self, victim: ServerId) -> Vec<(u32, ServerId, ServerId)> {
        let mut counts = vec![usize::MAX; self.servers];
        let mut survivors = 0usize;
        for (i, c) in counts.iter_mut().enumerate() {
            let id = ServerId(i as u32);
            if id != victim && !self.is_retired(id) {
                *c = 0;
                survivors += 1;
            }
        }
        if survivors == 0 {
            return Vec::new();
        }
        for s in &self.shards {
            if counts[s.0 as usize] != usize::MAX {
                counts[s.0 as usize] += 1;
            }
        }
        let mut moves = Vec::new();
        for (shard, owner) in self.shards.iter().enumerate() {
            if *owner != victim {
                continue;
            }
            let (to, _) = counts
                .iter()
                .enumerate()
                .min_by_key(|(i, c)| (**c, *i))
                .expect("at least one survivor");
            counts[to] += 1;
            moves.push((shard as u32, victim, ServerId(to as u32)));
        }
        moves
    }

    /// Plans the moves that balance shard ownership across all registered
    /// *active* servers (fair share ±1; retired servers own nothing and are
    /// never candidates), without mutating the map. Deterministic:
    /// repeatedly moves the lowest-index shard of the most-loaded server to
    /// the least-loaded one. After [`ShardMap::add_server`] this moves
    /// ~`num_shards / servers` shards — ~1/N of the key space.
    pub fn plan_rebalance(&self) -> Vec<(u32, ServerId, ServerId)> {
        let mut owners = self.shards.clone();
        let mut counts = vec![0usize; self.servers];
        for s in &owners {
            counts[s.0 as usize] += 1;
        }
        let active = |i: &usize| !self.is_retired(ServerId(*i as u32));
        let mut moves = Vec::new();
        loop {
            let (max_i, &max_c) = counts
                .iter()
                .enumerate()
                .filter(|(i, _)| active(i))
                .max_by_key(|(i, c)| (**c, usize::MAX - *i))
                .expect("at least one server");
            let (min_i, &min_c) = counts
                .iter()
                .enumerate()
                .filter(|(i, _)| active(i))
                .min_by_key(|(i, c)| (**c, *i))
                .expect("at least one server");
            if max_c - min_c <= 1 {
                return moves;
            }
            let shard = owners
                .iter()
                .position(|o| o.0 as usize == max_i)
                .expect("owner has a shard") as u32;
            owners[shard as usize] = ServerId(min_i as u32);
            counts[max_i] -= 1;
            counts[min_i] += 1;
            moves.push((shard, ServerId(max_i as u32), ServerId(min_i as u32)));
        }
    }
}

/// Where metadata lives: the placement decisions every client and server
/// shares.
impl ShardMap {
    /// Number of registered servers (retired ones included: their ids stay
    /// allocated).
    pub fn num_servers(&self) -> usize {
        self.servers
    }

    /// Owner of an arbitrary placement hash.
    pub fn owner_of_hash(&self, hash: u64) -> ServerId {
        self.owner_of_shard(self.shard_of_hash(hash))
    }

    /// True when a directory's children are placed with the directory (P/C
    /// grouping). Then a directory has an access and a content replica, and
    /// a key's file and directory inodes share a server. Under separation a
    /// directory's entry list lives with its fingerprint group and moves
    /// when the directory is renamed.
    pub fn groups_children(&self) -> bool {
        self.policy == PartitionPolicy::PerDirectoryHash
    }

    /// The placement hash of fingerprint group `fp`.
    fn fingerprint_hash(fp: Fingerprint) -> u64 {
        splitmix64(fp.raw())
    }

    /// The shard holding fingerprint group `fp`.
    pub fn shard_of_fp(&self, fp: Fingerprint) -> u32 {
        self.shard_of_hash(Self::fingerprint_hash(fp))
    }

    /// Placement hash of the inode stored under `key` (see
    /// [`ShardMap::inode_owner`]).
    fn inode_hash(&self, key: &MetaKey, is_dir: bool) -> u64 {
        if self.groups_children() {
            key.pid.hash64()
        } else if is_dir {
            Self::fingerprint_hash(Fingerprint::of_dir(&key.pid, &key.name))
        } else {
            key.hash64()
        }
    }

    /// Placement hash of a directory's entry list and owner-index record:
    /// its fingerprint `fp` under separation, its id under grouping.
    pub fn dir_content_hash(&self, fp: Fingerprint, id: &DirId) -> u64 {
        if self.groups_children() {
            id.hash64()
        } else {
            Self::fingerprint_hash(fp)
        }
    }

    /// Every placement hash under which the inode `key → attrs` is stored:
    /// its inode hash, plus, for a directory under grouping, its content
    /// replica's.
    pub fn inode_hashes(&self, key: &MetaKey, attrs: &InodeAttrs) -> Vec<u64> {
        let mut hashes = vec![self.inode_hash(key, attrs.is_dir())];
        if attrs.is_dir() && self.groups_children() {
            hashes.push(attrs.id.hash64());
        }
        hashes
    }

    /// The placement hashes `key` can fall under in any role under either
    /// policy: its per-file hash, its fingerprint hash and its parent
    /// directory's hash. Conservative checks (the migration freeze gate)
    /// test all three.
    pub fn key_hashes(key: &MetaKey) -> [u64; 3] {
        [
            key.hash64(),
            Self::fingerprint_hash(Fingerprint::of_dir(&key.pid, &key.name)),
            key.pid.hash64(),
        ]
    }

    /// Owner of the inode stored under `key`: where a create (`is_dir ==
    /// false`) or a mkdir (`true`) of `key` puts it. Under grouping that is
    /// the parent's children server (for a directory, its access replica);
    /// under separation a file is placed by its key and a directory by its
    /// fingerprint.
    pub fn inode_owner(&self, key: &MetaKey, is_dir: bool) -> ServerId {
        self.owner_of_hash(self.inode_hash(key, is_dir))
    }

    /// Owner of a file inode identified by its `(pid, name)` key.
    pub fn file_owner(&self, key: &MetaKey) -> ServerId {
        self.inode_owner(key, false)
    }

    /// Owner of a directory's entry list (see [`ShardMap::dir_content_hash`]).
    pub fn dir_content_owner(&self, fp: Fingerprint, id: &DirId) -> ServerId {
        self.owner_of_hash(self.dir_content_hash(fp, id))
    }

    /// Owner of fingerprint group `fp`.
    pub fn dir_owner_by_fp(&self, fp: Fingerprint) -> ServerId {
        self.owner_of_hash(Self::fingerprint_hash(fp))
    }

    /// Owner of the directory-id hash of `id`.
    pub fn dir_owner_by_id(&self, id: &DirId) -> ServerId {
        self.owner_of_hash(id.hash64())
    }

    /// True when routing `op` needs the id of its final path component:
    /// under grouping, directory reads and rmdir are served by the
    /// directory's content replica, which is placed by that id.
    pub fn needs_target(&self, op: &MetaOp) -> bool {
        self.groups_children()
            && matches!(
                op,
                MetaOp::Statdir { .. } | MetaOp::Readdir { .. } | MetaOp::Rmdir { .. }
            )
    }

    /// The server `op` is routed to. `target` holds the resolved attributes
    /// of the final path component when the client knows them.
    pub fn route(&self, op: &MetaOp, target: Option<&InodeAttrs>) -> ServerId {
        let key = op.primary_key();
        let hash = match op {
            // Served from the directory's entry list. Under grouping the
            // client resolved the directory's id (`needs_target`).
            MetaOp::Statdir { .. } | MetaOp::Readdir { .. } | MetaOp::Rmdir { .. } => {
                let id = target.map_or(key.pid, |a| a.id);
                self.dir_content_hash(Fingerprint::of_dir(&key.pid, &key.name), &id)
            }
            // Path resolution and mkdir address a directory inode.
            MetaOp::Mkdir { .. } | MetaOp::Lookup { .. } => self.inode_hash(key, true),
            // Coordinated by the source inode's owner. The source's type
            // comes from the client cache; on a cold cache the request goes
            // to the file owner, which forwards a directory rename to the
            // directory's owner server-side (the client never probes).
            MetaOp::Rename { .. } => self.inode_hash(key, target.is_some_and(InodeAttrs::is_dir)),
            _ => self.inode_hash(key, false),
        };
        self.owner_of_hash(hash)
    }
}

/// A cluster-wide shared, mutable [`ShardMap`] handle.
///
/// Servers (and the cluster harness) share one instance: a migration flip
/// through [`SharedPlacement::assign`] is immediately visible to every
/// server. Clients hold private *snapshots* instead and refresh them from
/// `WrongOwner` rejections, which is what the epoch field models.
#[derive(Debug, Clone)]
pub struct SharedPlacement(Rc<RefCell<ShardMap>>);

impl SharedPlacement {
    /// Wraps a map into a shared handle.
    pub fn new(map: ShardMap) -> Self {
        SharedPlacement(Rc::new(RefCell::new(map)))
    }

    /// The epoch-0 shared map over `servers` servers.
    pub fn initial(policy: PartitionPolicy, servers: usize) -> Self {
        Self::new(ShardMap::initial(policy, servers))
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.0.borrow().epoch()
    }

    /// Number of virtual shards.
    pub fn num_shards(&self) -> usize {
        self.0.borrow().num_shards()
    }

    /// A point-in-time copy of the map (client caches, `WrongOwner` bodies).
    pub fn snapshot(&self) -> ShardMap {
        self.0.borrow().clone()
    }

    /// See [`ShardMap::shard_of_hash`].
    pub fn shard_of_hash(&self, hash: u64) -> u32 {
        self.0.borrow().shard_of_hash(hash)
    }

    /// See [`ShardMap::shard_of_fp`].
    pub fn shard_of_fp(&self, fp: Fingerprint) -> u32 {
        self.0.borrow().shard_of_fp(fp)
    }

    /// See [`ShardMap::owner_of_shard`].
    pub fn owner_of_shard(&self, shard: u32) -> ServerId {
        self.0.borrow().owner_of_shard(shard)
    }

    /// See [`ShardMap::shards_owned`].
    pub fn shards_owned(&self, server: ServerId) -> usize {
        self.0.borrow().shards_owned(server)
    }

    /// See [`ShardMap::add_server`].
    pub fn add_server(&self) -> ServerId {
        self.0.borrow_mut().add_server()
    }

    /// See [`ShardMap::assign`].
    pub fn assign(&self, shard: u32, to: ServerId) {
        self.0.borrow_mut().assign(shard, to);
    }

    /// See [`ShardMap::retire`].
    pub fn retire(&self, server: ServerId) {
        self.0.borrow_mut().retire(server);
    }

    /// See [`ShardMap::is_retired`].
    pub fn is_retired(&self, server: ServerId) -> bool {
        self.0.borrow().is_retired(server)
    }

    /// See [`ShardMap::num_active_servers`].
    pub fn num_active_servers(&self) -> usize {
        self.0.borrow().num_active_servers()
    }

    /// See [`ShardMap::plan_rebalance`].
    pub fn plan_rebalance(&self) -> Vec<(u32, ServerId, ServerId)> {
        self.0.borrow().plan_rebalance()
    }

    /// See [`ShardMap::plan_drain`].
    pub fn plan_drain(&self, victim: ServerId) -> Vec<(u32, ServerId, ServerId)> {
        self.0.borrow().plan_drain(victim)
    }

    /// See [`ShardMap::num_servers`].
    pub fn num_servers(&self) -> usize {
        self.0.borrow().num_servers()
    }

    /// See [`ShardMap::owner_of_hash`].
    pub fn owner_of_hash(&self, hash: u64) -> ServerId {
        self.0.borrow().owner_of_hash(hash)
    }

    /// See [`ShardMap::groups_children`].
    pub fn groups_children(&self) -> bool {
        self.0.borrow().groups_children()
    }

    /// See [`ShardMap::dir_content_hash`].
    pub fn dir_content_hash(&self, fp: Fingerprint, id: &DirId) -> u64 {
        self.0.borrow().dir_content_hash(fp, id)
    }

    /// See [`ShardMap::inode_hashes`].
    pub fn inode_hashes(&self, key: &MetaKey, attrs: &InodeAttrs) -> Vec<u64> {
        self.0.borrow().inode_hashes(key, attrs)
    }

    /// See [`ShardMap::inode_owner`].
    pub fn inode_owner(&self, key: &MetaKey, is_dir: bool) -> ServerId {
        self.0.borrow().inode_owner(key, is_dir)
    }

    /// See [`ShardMap::file_owner`].
    pub fn file_owner(&self, key: &MetaKey) -> ServerId {
        self.0.borrow().file_owner(key)
    }

    /// See [`ShardMap::dir_content_owner`].
    pub fn dir_content_owner(&self, fp: Fingerprint, id: &DirId) -> ServerId {
        self.0.borrow().dir_content_owner(fp, id)
    }

    /// See [`ShardMap::dir_owner_by_fp`].
    pub fn dir_owner_by_fp(&self, fp: Fingerprint) -> ServerId {
        self.0.borrow().dir_owner_by_fp(fp)
    }

    /// See [`ShardMap::dir_owner_by_id`].
    pub fn dir_owner_by_id(&self, id: &DirId) -> ServerId {
        self.0.borrow().dir_owner_by_id(id)
    }

    /// See [`ShardMap::route`].
    pub fn route(&self, op: &MetaOp, target: Option<&InodeAttrs>) -> ServerId {
        self.0.borrow().route(op, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn per_file_hash_spreads_one_directory() {
        let p = ShardMap::initial(PartitionPolicy::PerFileHash, 8);
        let mut counts: HashMap<ServerId, usize> = HashMap::new();
        for i in 0..8000 {
            let key = MetaKey::new(DirId::ROOT, format!("f{i}"));
            *counts.entry(p.file_owner(&key)).or_default() += 1;
        }
        assert_eq!(counts.len(), 8);
        // Reasonably balanced: no server owns more than 2x the fair share.
        assert!(counts.values().all(|&c| c < 2000));
    }

    #[test]
    fn per_directory_hash_groups_one_directory() {
        let p = ShardMap::initial(PartitionPolicy::PerDirectoryHash, 8);
        let owners: std::collections::HashSet<_> = (0..1000)
            .map(|i| p.file_owner(&MetaKey::new(DirId::ROOT, format!("f{i}"))))
            .collect();
        assert_eq!(owners.len(), 1, "P/C grouping must colocate siblings");
    }

    #[test]
    fn fingerprint_groups_map_to_one_server() {
        let p = ShardMap::initial(PartitionPolicy::PerFileHash, 8);
        let fp = Fingerprint::of_dir(&DirId::ROOT, "dir");
        assert_eq!(p.dir_owner_by_fp(fp), p.dir_owner_by_fp(fp));
    }

    #[test]
    fn owner_is_always_in_range() {
        let p = ShardMap::initial(PartitionPolicy::PerFileHash, 5);
        for h in [0u64, 1, u64::MAX, 12345678901234567] {
            assert!(p.owner_of_hash(h).0 < 5);
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = ShardMap::initial(PartitionPolicy::PerFileHash, 0);
    }

    #[test]
    fn epoch0_shard_map_matches_modulo_placement() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 300] {
            let map = ShardMap::initial(PartitionPolicy::PerFileHash, n);
            assert_eq!(map.epoch(), 0);
            assert_eq!(map.num_shards() % n, 0);
            assert!(map.num_shards() >= BASE_SHARDS.min(n * BASE_SHARDS));
            for h in [0u64, 1, 255, 256, 12345678901234567, u64::MAX] {
                let old = ServerId((h % n as u64) as u32);
                assert_eq!(map.owner_of_hash(h), old, "n={n} h={h}");
            }
        }
    }

    /// The placement hash a routed operation must land on.
    #[derive(Debug, Clone, Copy)]
    enum Role {
        /// The fingerprint of the operation's key.
        Fp,
        /// The id of the resolved target.
        Target,
        /// The key's parent directory id.
        Parent,
        /// The key itself (per-file hash).
        Key,
    }

    /// One table over every op kind, both policies and no / file /
    /// directory target: `route` must land on the owner of the row's role,
    /// on a map whose shards were reassigned, and `needs_target` must hold
    /// exactly for the rows whose grouping role is the target.
    #[test]
    fn route_sends_every_op_to_its_owning_role() {
        use crate::message::MetaOp;
        use crate::schema::{InodeAttrs, Permissions};
        use Role::*;
        let perm = Permissions::default();
        type Build = fn(MetaKey) -> MetaOp;
        // (op, separation roles, grouping roles), each for [no target,
        // file target, directory target].
        let rows: [(Build, [Role; 3], [Role; 3]); 12] = [
            (|key| MetaOp::Lookup { key }, [Fp; 3], [Parent; 3]),
            (
                |key| MetaOp::Create {
                    key,
                    perm: Permissions::default(),
                },
                [Key; 3],
                [Parent; 3],
            ),
            (|key| MetaOp::Delete { key }, [Key; 3], [Parent; 3]),
            (
                |key| MetaOp::Mkdir {
                    key,
                    perm: Permissions::default(),
                },
                [Fp; 3],
                [Parent; 3],
            ),
            (
                |key| MetaOp::Rmdir { key },
                [Fp; 3],
                [Parent, Target, Target],
            ),
            (|key| MetaOp::Stat { key }, [Key; 3], [Parent; 3]),
            (
                |key| MetaOp::Statdir { key },
                [Fp; 3],
                [Parent, Target, Target],
            ),
            (
                |key| MetaOp::Readdir { key },
                [Fp; 3],
                [Parent, Target, Target],
            ),
            (|key| MetaOp::Open { key }, [Key; 3], [Parent; 3]),
            (|key| MetaOp::Close { key }, [Key; 3], [Parent; 3]),
            (
                |key| MetaOp::Chmod { key, mode: 0o700 },
                [Key; 3],
                [Parent; 3],
            ),
            (
                |src| MetaOp::Rename {
                    src,
                    dst: MetaKey::new(DirId::ROOT, "dst"),
                    dst_parent: None,
                },
                [Key, Key, Fp],
                [Parent; 3],
            ),
        ];
        let id = DirId::generate(ServerId(3), 77);
        let targets = [
            None,
            Some(InodeAttrs::new_file(id, 0, perm)),
            Some(InodeAttrs::new_dir(id, 0, perm)),
        ];
        for policy in [
            PartitionPolicy::PerFileHash,
            PartitionPolicy::PerDirectoryHash,
        ] {
            let mut map = ShardMap::initial(policy, 8);
            map.add_server();
            for (shard, _, to) in map.plan_rebalance() {
                map.assign(shard, to);
            }
            let hash_of = |role: Role, key: &MetaKey| match role {
                Fp => ShardMap::fingerprint_hash(Fingerprint::of_dir(&key.pid, &key.name)),
                Target => id.hash64(),
                Parent => key.pid.hash64(),
                Key => key.hash64(),
            };
            // A key whose four roles have four different owners, so a row
            // can only pass by routing to its own role.
            let parent = DirId::generate(ServerId(1), 5);
            let key = (0..1000)
                .map(|i| MetaKey::new(parent, format!("k{i}")))
                .find(|key| {
                    let owners: std::collections::HashSet<ServerId> = [Fp, Target, Parent, Key]
                        .iter()
                        .map(|r| map.owner_of_hash(hash_of(*r, key)))
                        .collect();
                    owners.len() == 4
                })
                .expect("a key with four distinct role owners");
            for (build, separation, grouping) in &rows {
                let op = build(key.clone());
                let roles = if map.groups_children() {
                    grouping
                } else {
                    separation
                };
                for (target, role) in targets.iter().zip(roles) {
                    assert_eq!(
                        map.route(&op, target.as_ref()),
                        map.owner_of_hash(hash_of(*role, &key)),
                        "{policy:?} {} target={:?}: expected the {role:?} owner",
                        op.name(),
                        target.as_ref().map(|a| a.file_type),
                    );
                }
                assert_eq!(
                    map.needs_target(&op),
                    matches!(roles[2], Target),
                    "{policy:?} {}",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn add_server_then_rebalance_moves_a_fair_share() {
        let mut map = ShardMap::initial(PartitionPolicy::PerFileHash, 4);
        let new = map.add_server();
        assert_eq!(new, ServerId(4));
        assert_eq!(map.shards_owned(new), 0);
        let moves = map.plan_rebalance();
        // 256 shards over 5 servers: the new server ends with 51±1 shards
        // and nothing else moves.
        assert!(moves.len() >= map.num_shards() / 5 - 1);
        assert!(moves.len() <= map.num_shards() / 4);
        assert!(moves.iter().all(|(_, _, to)| *to == new));
        let before = map.clone();
        for (shard, from, to) in &moves {
            assert_eq!(map.owner_of_shard(*shard), *from);
            map.assign(*shard, *to);
        }
        assert_eq!(map.epoch(), moves.len() as u64);
        for s in 0..5u32 {
            let owned = map.shards_owned(ServerId(s));
            assert!(
                owned >= map.num_shards() / 5 && owned <= map.num_shards() / 5 + 1,
                "server {s} owns {owned}"
            );
        }
        // Unmoved shards keep their owner (bounded movement).
        let moved: std::collections::HashSet<u32> = moves.iter().map(|m| m.0).collect();
        for shard in 0..map.num_shards() as u32 {
            if !moved.contains(&shard) {
                assert_eq!(map.owner_of_shard(shard), before.owner_of_shard(shard));
            }
        }
    }

    #[test]
    fn shared_placement_flip_is_visible_through_every_handle() {
        let shared = SharedPlacement::initial(PartitionPolicy::PerFileHash, 2);
        let other = shared.clone();
        let new = shared.add_server();
        shared.assign(0, new);
        assert_eq!(other.owner_of_shard(0), new);
        assert_eq!(other.epoch(), 1);
        // Snapshots are decoupled: a later flip does not change them.
        let snap = other.snapshot();
        shared.assign(1, new);
        assert_eq!(snap.owner_of_shard(1), ServerId(1));
        assert_eq!(other.owner_of_shard(1), new);
    }

    #[test]
    fn rebalance_of_a_balanced_map_is_empty() {
        let map = ShardMap::initial(PartitionPolicy::PerDirectoryHash, 8);
        assert!(map.plan_rebalance().is_empty());
    }

    #[test]
    fn drain_plan_moves_every_victim_shard_to_balanced_survivors() {
        let map = ShardMap::initial(PartitionPolicy::PerFileHash, 4);
        let victim = ServerId(1);
        let owned = map.shards_owned(victim);
        let moves = map.plan_drain(victim);
        assert_eq!(moves.len(), owned, "every victim shard must move");
        assert!(moves.iter().all(|(_, from, _)| *from == victim));
        assert!(moves.iter().all(|(_, _, to)| *to != victim));
        // Shards are visited in ascending index order (deterministic plan).
        assert!(moves.windows(2).all(|w| w[0].0 < w[1].0));
        let mut map = map.clone();
        for (shard, from, to) in &moves {
            assert_eq!(map.owner_of_shard(*shard), *from);
            map.assign(*shard, *to);
        }
        assert_eq!(map.shards_owned(victim), 0);
        // Survivors end within ±1 of the post-shrink fair share.
        let fair = map.num_shards() / 3;
        for s in [0u32, 2, 3] {
            let owned = map.shards_owned(ServerId(s));
            assert!(
                owned >= fair && owned <= fair + 1,
                "server {s} owns {owned} (fair {fair})"
            );
        }
        assert!(
            map.plan_drain(victim).is_empty(),
            "drained victim owns nothing"
        );
    }

    #[test]
    fn retire_excludes_a_server_from_future_plans() {
        let mut map = ShardMap::initial(PartitionPolicy::PerFileHash, 3);
        let victim = ServerId(2);
        for (shard, _, to) in map.plan_drain(victim) {
            map.assign(shard, to);
        }
        let epoch_before = map.epoch();
        map.retire(victim);
        assert!(map.is_retired(victim));
        assert_eq!(map.num_active_servers(), 2);
        assert_eq!(
            map.epoch(),
            epoch_before + 1,
            "retiring must bump the epoch"
        );
        // A retired server never reappears as a rebalance target.
        assert!(map
            .plan_rebalance()
            .iter()
            .all(|(_, from, to)| *from != victim && *to != victim));
        assert!(map.plan_drain(victim).is_empty());
    }

    #[test]
    #[should_panic(expected = "still owns shards")]
    fn retiring_an_undrained_server_panics() {
        let mut map = ShardMap::initial(PartitionPolicy::PerFileHash, 3);
        map.retire(ServerId(1));
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn assigning_to_a_retired_server_panics() {
        let mut map = ShardMap::initial(PartitionPolicy::PerFileHash, 3);
        let victim = ServerId(2);
        for (shard, _, to) in map.plan_drain(victim) {
            map.assign(shard, to);
        }
        map.retire(victim);
        map.assign(0, victim);
    }
}
