// Must PASS dedup-under-lock: the only duplicate checks live in the gate
// (closures inside it included), and defining the check is not a call.

impl ServerInner {
    pub fn entry_already_applied(&self, id: &OpId) -> bool {
        self.applied_entry_ids.contains(id)
    }
}

impl Server {
    async fn apply_dir_updates(&self, entries: Vec<ChangeLogEntry>) -> Vec<OpId> {
        let inner = self.inner.borrow();
        entries
            .iter()
            .filter(|e| !inner.entry_already_applied(&e.entry_id))
            .map(|e| e.entry_id)
            .collect()
    }
}
