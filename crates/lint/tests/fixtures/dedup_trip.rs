// Must TRIP dedup-under-lock: duplicate checks made outside the gate,
// before the fingerprint-group lock is awaited.

impl Server {
    async fn handle_remote_dir_update(&self, fp: Fingerprint, entry: ChangeLogEntry) {
        if !self.inner.borrow().entry_already_applied(&entry.entry_id) {
            let _w = self.locks.fp_group(fp).write().await;
            self.apply(entry).await;
        }
    }

    fn fresh(&self, entries: Vec<ChangeLogEntry>) -> Vec<ChangeLogEntry> {
        let inner = self.inner.borrow();
        entries
            .into_iter()
            .filter(|e| !ServerInner::entry_already_applied(&inner, &e.entry_id))
            .collect()
    }
}
