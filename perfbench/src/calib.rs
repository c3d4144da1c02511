//! Host-speed calibration.
//!
//! On a shared 2-vCPU KVM guest the same binary's pass times drift by
//! 20–30% over minutes while the medians within one run stay steady. A
//! fixed kernel timed next to every pass drifts with them, so each host
//! time is reported scaled by `NOMINAL_S / kernel time`: seconds on a
//! host where the kernel takes `NOMINAL_S`. The kernel is benchmark
//! code, so a change to the simulator moves the scaled times exactly as
//! it moves the raw ones.

use std::time::Instant;

/// Kernel time the scaled host times are normalised to: about what the
/// kernel takes on an unloaded 2-vCPU KVM guest at 2.0 GHz.
pub const NOMINAL_S: f64 = 0.010;

/// Table words: 1 MiB, past L1/L2 like the simulator's working set.
const WORDS: usize = 1 << 18;
/// Kernel steps per timing.
const STEPS: u32 = 3_000_000;

/// The calibration kernel's table, allocated once.
pub struct Calibration {
    table: Vec<u32>,
    /// Every kernel time measured, in seconds.
    pub samples: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            table: vec![0; WORDS],
            samples: Vec::new(),
        }
    }

    /// Times the kernel once and returns the factor that converts host
    /// seconds measured now into nominal-host seconds.
    pub fn scale(&mut self) -> f64 {
        let start = Instant::now();
        for (i, w) in self.table.iter_mut().enumerate() {
            *w = (i as u32).wrapping_mul(0x9e37_79b1);
        }
        // Random reads and writes with a data-dependent branch: the load
        // and branch mix of a cache-model lookup.
        let mut x: u32 = 0x2545_f491;
        let mut acc = 0u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let j = x as usize & (WORDS - 1);
            let v = self.table[j];
            if v & 1 == 0 {
                acc = acc.wrapping_add(u64::from(v));
            } else {
                acc ^= u64::from(v) << 3;
            }
            self.table[j] = v.wrapping_add(i);
        }
        std::hint::black_box(acc);
        let s = start.elapsed().as_secs_f64();
        self.samples.push(s);
        NOMINAL_S / s
    }
}
