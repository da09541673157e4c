//! Host speed, timed with a fixed compute kernel the benchmark owns.
//!
//! The shared host this benchmark runs on changes speed by up to 1.9x,
//! for seconds at a time, as neighbours load the same cores. A CPU-bound
//! operation slows nearly in step with this kernel run on the same CPU
//! right before it: in process their ratio stayed within ±2% while both
//! swung 1.9x (FINDINGS.md, section 5). CPU-bound times are therefore reported
//! host-scaled: multiplied by [`scale_now`], they read as µs on a host
//! where the kernel takes exactly [`REFERENCE_PROBE_US`]. The kernel is
//! the benchmark's own code, so no change to the program moves it; and
//! `run.py` pins the benchmark and every daemon it starts to one CPU, so
//! the kernel runs where the daemon does.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel's time (µs) on the reference host: about its time on an
/// unloaded core of the machine in FINDINGS.md.
pub const REFERENCE_PROBE_US: f64 = 40.0;

const ROWS: usize = 32;
const COLS: usize = 64;
/// Elimination steps per sample. The 16 KiB matrix stays in L1.
const PIVOTS: usize = 64;

/// Times one run of the kernel (µs). The matrix is rebuilt first, so
/// every sample does the same arithmetic on the same values.
fn probe_us() -> f64 {
    let mut a = initial();
    let started = Instant::now();
    eliminate(black_box(&mut a));
    black_box(&a);
    started.elapsed().as_secs_f64() * 1e6
}

fn initial() -> [f64; ROWS * COLS] {
    std::array::from_fn(|i| 1.0 + ((i * 7919) % 1000) as f64 / 1000.0)
}

/// Row elimination, the shape of a simplex pivot.
fn eliminate(a: &mut [f64; ROWS * COLS]) {
    let mut pivot_row = [0.0f64; COLS];
    for p in 0..PIVOTS {
        let (pr, pc) = ((p * 7) % ROWS, p % COLS);
        pivot_row.copy_from_slice(&a[pr * COLS..(pr + 1) * COLS]);
        for r in (0..ROWS).filter(|&r| r != pr) {
            let row = &mut a[r * COLS..(r + 1) * COLS];
            let f = row[pc] / pivot_row[pc] * 1e-3;
            for (x, p) in row.iter_mut().zip(&pivot_row) {
                *x -= f * p;
            }
        }
    }
}

/// Kernel runs behind the factor of a set-up or a trial, which are rare
/// and long; a daemon request takes one run.
pub const SAMPLES: usize = 5;

/// The host-scale factor now: [`REFERENCE_PROBE_US`] over the median of
/// `samples` kernel runs. Above 1 on a host faster than the reference.
pub fn scale_now(samples: usize) -> f64 {
    let times: Vec<f64> = (0..samples.max(1)).map(|_| probe_us()).collect();
    REFERENCE_PROBE_US / median(&times)
}

/// Runs `f` and returns its result, its time (s) and the host-scale
/// factor around it: the mean of one taken before and one after.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = scale_now(SAMPLES);
    let started = Instant::now();
    let out = f();
    let elapsed = started.elapsed().as_secs_f64();
    (out, elapsed, (before + scale_now(SAMPLES)) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_finite() {
        let run = || {
            let mut a = initial();
            eliminate(&mut a);
            a
        };
        let (first, second) = (run(), run());
        assert!(first.iter().all(|x| x.is_normal()));
        assert_eq!(
            first.map(f64::to_bits).to_vec(),
            second.map(f64::to_bits).to_vec()
        );
        let scale = scale_now(3);
        assert!(scale.is_finite() && scale > 0.0);
    }
}
