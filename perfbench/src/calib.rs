//! Host-speed calibration.
//!
//! On a shared host the same binary runs up to a third faster or slower
//! from one minute to the next, for every workload alike. To report
//! host times that do not swing with the neighbours, the benchmark
//! interleaves a fixed quantum of its own work with the operations it
//! measures (about 3 % of their host time) and scales each host time of
//! a phase by `REFERENCE_NS / median quantum time of that phase`.
//!
//! The quantum uses standard-library code only, so no change to the
//! program under test can speed it up, and it allocates nothing after
//! its first run, so the program's heap state cannot slow it down. It
//! mixes a sort, hashing into an open-addressed table and a binary
//! heap, the kinds of work the simulator does, over a working set of
//! about 40 KiB. It takes about `REFERENCE_NS` on a quiet host, so
//! scaled times stay close to real ones there.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Nominal duration of one quantum, nanoseconds.
pub const REFERENCE_NS: f64 = 100_000.0;

/// Share of the measured host time spent calibrating.
const BUDGET: f64 = 0.03;

const KEYS: usize = 512;
const SLOTS: usize = 2048;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x
}

/// Buffers the quantum reuses.
#[derive(Debug, Default, Clone)]
struct Scratch {
    keys: Vec<u64>,
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Scratch {
    /// One quantum; returns its host time in nanoseconds.
    fn quantum(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;

        self.keys.clear();
        self.keys.extend((0..KEYS).map(|_| lcg(&mut x) >> 8));
        self.keys.sort_unstable();

        self.table.clear();
        self.table.resize(SLOTS, 0);
        let mut probes = 0u64;
        for &k in &self.keys {
            let mut slot = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % SLOTS;
            while self.table[slot] != 0 {
                slot = (slot + 1) % SLOTS;
                probes += 1;
            }
            self.table[slot] = k | 1;
        }

        self.heap.clear();
        let mut acc = 0u64;
        for i in 0..3 * KEYS as u64 {
            self.heap.push(Reverse((lcg(&mut x) >> 30, i)));
            if i % 3 != 0 {
                if let Some(Reverse((_, j))) = self.heap.pop() {
                    acc = acc.wrapping_add(j);
                }
            }
        }
        black_box((probes, acc, self.keys[KEYS / 2]));
        t.elapsed().as_nanos() as f64
    }
}

/// Quantum times of one phase.
#[derive(Debug, Default, Clone)]
pub struct Speed {
    samples: Vec<f64>,
    /// Calibration time still owed, nanoseconds.
    owed_ns: f64,
    scratch: Scratch,
}

impl Speed {
    /// Accounts for `work_ns` of measured work and runs the quanta it
    /// pays for (at least one per phase).
    pub fn after(&mut self, work_ns: f64) {
        self.owed_ns += work_ns * BUDGET;
        while self.owed_ns > 0.0 || self.samples.is_empty() {
            let q = self.scratch.quantum();
            self.samples.push(q);
            self.owed_ns -= q;
        }
    }

    /// Factor that turns this phase's host times into reference-speed
    /// times (multiply a time, divide a rate).
    pub fn scale(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            REFERENCE_NS / median(&self.samples)
        }
    }
}
