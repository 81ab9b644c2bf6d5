// The dedup-under-lock finding is suppressed with a justified allow.

impl Server {
    fn applied_entry_report(&self, id: &OpId) -> bool {
        // switchfs-lint: allow(dedup-under-lock) read-only diagnostic; nothing is applied on its answer
        self.inner.borrow().entry_already_applied(id)
    }
}
