//@file: crates/core/src/config.rs
// analyze::allow(R8)
pub fn fork_retry_stream() -> StdRng { StdRng::seed_from_u64(7) }
// kept as documentation of the blessing: analyze::allow(R14, R16)
pub fn fold_sum(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |a, x| a + x)
}
#[cfg(test)]
mod tests {
    // analyze::allow(R8)
    fn quiet() {}
}
