//! Host-speed calibration.
//!
//! The sandbox this ledger runs in is a shared virtual machine whose
//! effective speed drifts by ±20 % over seconds to minutes (measured: the
//! same loop takes 106–159 ms, process CPU time tracks wall time, steal
//! is nil). Repetition inside a run cannot average out a slow phase that
//! outlasts the run, so the end-to-end run samples two fixed,
//! allocation-free kernels every 100 ms of measured work — one bound by
//! the core (hash, compare, probe a 256 KiB table), one by the memory
//! system (dependent loads over 32 MiB) — and reports every time-based
//! metric at reference speed: each window's times are divided by the
//! window's slowdown, the geometric mean of the two kernels' measured
//! over nominal durations. Neither kernel touches the engine, so an
//! engine change cannot move the yardstick. This cut the ten-seed spread
//! of throughput 2–5× on `relational_scan_cold` and `dml_durable`; it does
//! not see everything (`ledger/README.md`, "Reference speed").

use std::hint::black_box;
use std::time::Instant;

/// Nominal kernel durations: this sandbox at its undisturbed speed.
const CORE_REF_NS: f64 = 950_000.0;
const MEMORY_REF_NS: f64 = 9_450_000.0;

const TABLE_SLOTS: usize = 1 << 14;
const CHASE_WORDS: usize = 4 << 20;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The two calibration kernels and their preallocated working sets.
pub struct HostSpeed {
    table: Vec<[u8; 16]>,
    chase: Vec<u64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let mut x = 88_172_645_463_325_252u64;
        HostSpeed { table: vec![[0u8; 16]; TABLE_SLOTS], chase: (0..CHASE_WORDS).map(|_| xorshift(&mut x)).collect() }
    }

    /// Insert-or-find 60 000 decimal keys in an open-addressing table.
    fn core_ns(&mut self) -> f64 {
        let t = Instant::now();
        self.table.fill([0u8; 16]);
        let (mut x, mut hits) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for _ in 0..60_000 {
            let mut v = xorshift(&mut x) % 8192;
            let mut key = [b'0'; 16];
            let mut i = 15;
            while v > 0 {
                key[i] = b'0' + (v % 10) as u8;
                v /= 10;
                i -= 1;
            }
            let h =
                key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
            let mut p = h as usize % TABLE_SLOTS;
            loop {
                if self.table[p] == key {
                    hits += 1;
                    break;
                }
                if self.table[p][15] == 0 {
                    self.table[p] = key;
                    break;
                }
                p = (p + 1) % TABLE_SLOTS;
            }
        }
        black_box(hits);
        t.elapsed().as_secs_f64() * 1e9
    }

    /// 50 000 loads, each address depending on the previous value.
    fn memory_ns(&self) -> f64 {
        let t = Instant::now();
        let (mut i, mut acc) = (12_345usize, 0u64);
        for _ in 0..50_000 {
            let v = self.chase[i % CHASE_WORDS];
            acc = acc.wrapping_add(v);
            i = (v as usize) ^ (acc as usize >> 3);
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e9
    }

    /// How many times slower than the reference the host runs right now
    /// (1.0 = reference speed). Takes about 10 ms.
    pub fn slowdown(&mut self) -> f64 {
        ((self.core_ns() / CORE_REF_NS) * (self.memory_ns() / MEMORY_REF_NS)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_positive_and_finite() {
        let mut h = HostSpeed::new();
        let s = h.slowdown();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
