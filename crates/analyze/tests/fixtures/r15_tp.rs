//@file: crates/core/src/study.rs
pub fn commit(samples: &mut Vec<u64>, tasks: &[u64], cursor: usize) {
    samples.push(route(tasks, cursor));
}
//@file: crates/core/src/schedule.rs
pub fn route(tasks: &[u64], cursor: usize) -> u64 {
    match tasks.get(cursor) {
        Some(t) => *t,
        None => unreachable!("cursor is clamped by the scheduler"),
    }
}
