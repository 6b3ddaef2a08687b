//@file: crates/core/src/study.rs
pub fn commit(samples: &mut Vec<u64>, tasks: &[u64]) {
    let mut total = 0;
    for i in 0..tasks.len() {
        total += tasks[i];
    }
    samples.push(total);
}
//@file: crates/core/src/schedule.rs
pub fn orphan(tasks: &[u64], cursor: usize) -> u64 {
    tasks[cursor]
}
