//! The host-speed factor that turns measured host seconds into
//! reference-host seconds.
//!
//! The reference host shares its cores with other tenants: the same
//! iteration of one seed runs up to 50 % slower for minutes at a time,
//! longer than one run lasts (see `perfbench/README.md`). So a fixed
//! kernel of the benchmark's own — arithmetic and hash-map work, code
//! the emulator does not contain — is timed just before each iteration.
//! Its time over [`REFERENCE_S`] is the host's slowdown at that moment,
//! and the iteration's setup and timed-phase seconds are divided by it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// About the kernel's median time on the reference host (2-core
/// x86-64, rustc 1.95.0, release profile).
pub const REFERENCE_S: f64 = 0.0135;

/// Timed passes of the kernel per measurement.
const PASSES: usize = 3;

/// The kernel's state. Its hash map is allocated once and reused, so
/// the kernel adds a constant to the process's peak memory.
pub struct Speed {
    map: HashMap<u64, u64>,
}

/// One pass of the kernel, in three parts of about equal time: a
/// dependent xorshift chain, eight independent chains, and 100 000
/// updates of a hash map over 50 000 keys.
fn kernel(map: &mut HashMap<u64, u64>) {
    let xorshift = |v: &mut u64| {
        *v ^= *v << 13;
        *v ^= *v >> 7;
        *v ^= *v << 17;
    };
    let mut y = 1u64;
    for _ in 0..3_000_000 {
        xorshift(&mut y);
    }
    black_box(y);
    let mut x: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..1_500_000 {
        x.iter_mut().for_each(xorshift);
    }
    black_box(x);
    map.clear();
    let mut z = 7u64;
    for i in 0..100_000u64 {
        xorshift(&mut z);
        *map.entry(z % 50_000).or_insert(0) += i;
    }
    black_box(map.len());
}

impl Speed {
    pub fn new() -> Speed {
        let mut map = HashMap::new();
        kernel(&mut map);
        Speed { map }
    }

    /// The host's current slowdown against the reference host: the
    /// median time of a few kernel passes over [`REFERENCE_S`].
    pub fn slowdown(&mut self) -> f64 {
        let times: Vec<f64> = (0..PASSES)
            .map(|_| {
                let start = Instant::now();
                kernel(&mut self.map);
                start.elapsed().as_secs_f64()
            })
            .collect();
        median(&times) / REFERENCE_S
    }
}
