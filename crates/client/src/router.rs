//! Request routing: which metadata server an operation is sent to, and
//! whether the packet carries a dirty-set query header.
//!
//! Every system routes with the same [`ShardMap::route`]; the partitioning
//! policy inside the map (§2.1) is the only client-side difference between
//! them, besides SwitchFS's dirty-set query on directory reads.

use std::cell::RefCell;

use switchfs_proto::message::MetaOp;
use switchfs_proto::{InodeAttrs, ServerId, ShardMap};

/// A client's router: its cached shard map, refreshed from `WrongOwner`
/// rejections after a live migration moved a shard.
#[derive(Debug)]
pub struct Router {
    map: RefCell<ShardMap>,
    /// Whether directory reads carry a dirty-set query header (SwitchFS
    /// under in-network tracking; false for a dedicated coordinator or
    /// owner-server tracking, and for every baseline).
    dirty_query_in_packet: bool,
}

impl Router {
    /// Creates a router over an initial shard-map snapshot.
    pub fn new(map: ShardMap, dirty_query_in_packet: bool) -> Self {
        Router {
            map: RefCell::new(map),
            dirty_query_in_packet,
        }
    }

    /// The server the request must be sent to. `target` holds the resolved
    /// attributes of the final path component, when known.
    pub fn destination(&self, op: &MetaOp, target: Option<&InodeAttrs>) -> ServerId {
        self.map.borrow().route(op, target)
    }

    /// True if the packet should carry a dirty-set `query` header for this
    /// operation.
    pub fn attach_dirty_query(&self, op: &MetaOp) -> bool {
        self.dirty_query_in_packet && op.is_dir_read()
    }

    /// True if the client must resolve the final path component (learn its
    /// id) before routing this operation.
    pub fn needs_target_resolution(&self, op: &MetaOp) -> bool {
        self.map.borrow().needs_target(op)
    }

    /// Number of metadata servers.
    pub fn num_servers(&self) -> usize {
        self.map.borrow().num_servers()
    }

    /// The epoch of the cached shard map, stamped on every request so a
    /// server with a newer map can reject the routing.
    pub fn epoch(&self) -> u64 {
        self.map.borrow().epoch()
    }

    /// Installs a newer shard map (carried by a `WrongOwner` rejection).
    /// Older or same-epoch maps are ignored.
    pub fn install_map(&self, map: &ShardMap) {
        let mut cached = self.map.borrow_mut();
        if map.epoch() > cached.epoch() {
            *cached = map.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{DirId, MetaKey, PartitionPolicy, Permissions};

    #[test]
    fn dirty_query_rides_only_on_directory_reads() {
        let key = MetaKey::new(DirId::ROOT, "d");
        let statdir = MetaOp::Statdir { key: key.clone() };
        let mkdir = MetaOp::Mkdir {
            key,
            perm: Permissions::default(),
        };
        let map = ShardMap::initial(PartitionPolicy::PerFileHash, 8);
        let r = Router::new(map.clone(), true);
        assert!(r.attach_dirty_query(&statdir));
        assert!(!r.attach_dirty_query(&mkdir));
        assert!(!Router::new(map, false).attach_dirty_query(&statdir));
    }
}
