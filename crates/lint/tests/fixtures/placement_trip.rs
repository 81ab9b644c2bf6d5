// Must TRIP placement-in-one-module: a server decides where a directory's
// entry list lives by matching on the policy and hashing the fingerprint.

use switchfs_proto::PartitionPolicy;

impl Server {
    fn owns_dir_updates(&self, fp: Fingerprint, dir: &DirId) -> bool {
        let h = match self.cfg.placement.policy() {
            PartitionPolicy::PerFileHash => switchfs_proto::ids::splitmix64(fp.raw()),
            _ => dir.hash64(),
        };
        self.cfg.placement.owner_of_hash(h) == self.cfg.id
    }
}
