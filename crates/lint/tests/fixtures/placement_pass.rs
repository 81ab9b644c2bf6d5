// Must PASS placement-in-one-module: the server asks the shard map. Naming
// PartitionPolicy or splitmix64( in comments and strings is not a decision,
// and neither is test code.

impl Server {
    fn owns_dir_updates(&self, fp: Fingerprint, dir: &DirId) -> bool {
        self.cfg.placement.dir_content_owner(fp, dir) == self.cfg.id
    }

    fn describe(&self) -> &'static str {
        "PartitionPolicy::PerFileHash hashes with splitmix64(fp)"
    }
}

#[cfg(test)]
mod tests {
    use switchfs_proto::{PartitionPolicy, SharedPlacement};

    fn placement() -> SharedPlacement {
        SharedPlacement::initial(PartitionPolicy::PerFileHash, 4)
    }
}
