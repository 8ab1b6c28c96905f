//! `lapbench probe`: how fast the host runs, sampled beside a round.
//!
//! The shared host this benchmark runs on swings between speed regimes
//! over seconds and minutes: the same round takes 7 s or 15 s with
//! them. What changes is how fast code with a large instruction
//! footprint runs; tight loops and plain memory lookups slow far less
//! than the simulator does. So `run.py` runs this probe on the same
//! vCPU as each timed round. Every 50 ms it times a fixed kernel of
//! such code (float formatting and parsing, string-keyed B-tree
//! inserts and removals, small sorts), and when its standard input
//! closes it prints the median kernel time, by which `run.py` scales
//! the round's times.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kernel steps per sample: about 0.4 ms on a quiet host, so sampling
/// takes under 1% of the vCPU the round runs on.
const STEPS: u64 = 300;
const PERIOD: Duration = Duration::from_millis(50);

/// Host seconds of one run of the kernel. `x` carries the generator's
/// state from sample to sample.
fn kernel_s(x: &mut u64) -> f64 {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    let mut text = String::new();
    let mut acc = 0u64;
    for i in 0..STEPS {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        text.clear();
        let _ = write!(text, "{:.4}-{i}", (*x % 1_000_000) as f64 / 7.3);
        let back: f64 = text
            .split('-')
            .next()
            .and_then(|f| f.parse().ok())
            .unwrap_or(0.0);
        map.insert(text.clone(), back as u64);
        if i % 3 == 0 {
            map.pop_first();
        }
        let mut v: Vec<u32> = (0..16).map(|j| ((*x >> j) & 0xffff) as u32).collect();
        v.sort_unstable();
        acc ^= u64::from(v[7]) ^ map.len() as u64;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Sample until standard input closes; print the median kernel time
/// and the number of samples as one JSON object.
pub fn run() {
    let done = Arc::new(AtomicBool::new(false));
    let eof = Arc::clone(&done);
    std::thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        eof.store(true, Ordering::Release);
    });
    let mut x = 7;
    let mut samples = vec![kernel_s(&mut x)];
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(PERIOD);
        samples.push(kernel_s(&mut x));
    }
    samples.sort_by(f64::total_cmp);
    println!(
        "{{\"kernel_s\": {}, \"samples\": {}}}",
        samples[samples.len() / 2],
        samples.len()
    );
}
