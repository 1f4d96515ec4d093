//! Control fixture: violates nothing. Not compiled — linted by
//! `tests/fixtures.rs`.

/// No allocation markers, no panics.
pub fn well_behaved(
    ledger: &std::sync::Mutex<Vec<u64>>,
    registered: &std::sync::Mutex<u64>,
) -> Option<u64> {
    let live = ledger.lock().ok()?;
    let total = registered.lock().ok()?;
    live.first().map(|f| f + *total)
}
