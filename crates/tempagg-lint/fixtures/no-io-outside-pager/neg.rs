//@ crate: tempagg-store
// The sanctioned idioms: disk access routed through the pager's helpers, a
// justified direct probe, and test-only temp-file cleanup.

fn persist(relation: &TemporalRelation, path: &Path) -> Result<()> {
    pager::write_relation(relation, path, &PagedWriteOptions::default())
}

fn discard(path: &Path) -> Result<()> {
    pager::remove_file(path)
}

fn spill_budget(path: &Path) -> u64 {
    // lint: allow(no-io-outside-pager): size probe for the spill budget, no bytes decoded
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
    }
}
