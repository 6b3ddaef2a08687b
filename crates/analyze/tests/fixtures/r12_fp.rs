//@file: crates/core/src/executor.rs
use std::sync::Mutex;

pub struct WorkerSlot {
    result: Mutex<u64>,
}

//@file: crates/core/src/study.rs
pub fn commit(samples: &mut Vec<u64>, v: u64) {
    samples.push(v);
}
