//! Host-speed calibration.
//!
//! On a shared host the speed of the CPU and memory system drifts by tens
//! of percent within minutes; the same fixed loop measured 126–318 ms on
//! the host the baseline was recorded on. Every replay drifts with it, so
//! run medians of raw wall time spread by 20–28% between runs.
//!
//! A fixed kernel that knows nothing of the program — random
//! read-modify-write over an 8 MiB table, the memory-bound mix the
//! workloads share — is timed between replays. A replay's host factor is
//! the mean of the kernel's time just before and just after it, over
//! [`REFERENCE_S`]. End-to-end times are divided by that factor, so they
//! read as on a host where the kernel takes [`REFERENCE_S`]. On the
//! baseline host this cut the spread of ten run medians from 20–28% to
//! 6–13%.

use std::time::Instant;

/// Size of the kernel's table. It stays allocated for the whole run, so
/// the allocator sees the same heap with or without calibration.
pub const TABLE_BYTES: usize = 8 << 20;
/// Kernel time that defines host factor 1. Fixed once: changing it
/// rescales every corrected figure.
pub const REFERENCE_S: f64 = 0.040;
/// Table updates per kernel pass.
const UPDATES: u64 = 12_000_000;

/// The calibration kernel and its table.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    /// Allocates and fills the table.
    pub fn new() -> Calibrator {
        let n = (TABLE_BYTES / 8) as u64;
        Calibrator {
            table: (0..n)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
        }
    }

    /// One timed pass of the kernel, as a host factor.
    pub fn factor(&mut self) -> f64 {
        let t = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = 1u64;
        for _ in 0..UPDATES {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 44) as usize & mask;
            self.table[i] = self.table[i].wrapping_add(x).rotate_left(7);
        }
        std::hint::black_box(&self.table);
        t.elapsed().as_secs_f64() / REFERENCE_S
    }
}
