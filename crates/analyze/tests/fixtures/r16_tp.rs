//@file: crates/core/src/config.rs
// analyze::allow(R14)
pub fn max_batches() -> usize {
    64
}
