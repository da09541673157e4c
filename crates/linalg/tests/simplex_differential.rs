//! Differential tests of the column-major simplex kernel against the
//! row-major reference kernel it replaced (`simplex_reference.rs`).
//!
//! On every random program both kernels must agree on the status and the
//! pivot count, and the solution and objective value must be equal under
//! `==` (so `+0.0` and `-0.0` agree, nothing else may differ). The programs
//! mix 0/1, small-integer and real entries, zero and duplicated right-hand
//! sides, duplicated rows, and unit or mixed costs: the shapes that make
//! ties, degenerate pivots, redundant rows and unbounded programs.

mod simplex_reference;

use netcorr_linalg::{
    min_l1_norm_program, min_l1_norm_program_nonneg, min_l1_norm_solution,
    min_l1_norm_solution_nonneg, LinalgError, LinearProgram, LpSolution, Matrix,
};
use proptest::prelude::*;

/// SplitMix64: a tiny deterministic generator for building one program
/// from one proptest-drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        self.real(0.0, 1.0) < p
    }
}

/// One matrix entry of the given kind: 0/1, a small integer or a real.
fn entry(g: &mut Gen, kind: usize) -> f64 {
    match kind {
        0 => g.below(2) as f64,
        1 => g.below(7) as f64 - 3.0,
        _ => {
            if g.chance(0.3) {
                0.0
            } else {
                g.real(-2.0, 2.0)
            }
        }
    }
}

/// A random `m × n` system `(A, b)`, mostly small, one in ten up to
/// `24 × 48`. Half the time `b` is the image of a
/// sparse non-negative point (so the system is feasible); some entries of
/// `b` are then zeroed or duplicated, and some rows duplicated whole.
fn random_system(g: &mut Gen) -> (Matrix, Vec<f64>) {
    let (m, n) = if g.chance(0.1) {
        (1 + g.below(24), 1 + g.below(48))
    } else {
        (1 + g.below(7), 1 + g.below(11))
    };
    let kind = g.below(3);
    let mut rows: Vec<Vec<f64>> = (0..m)
        .map(|_| (0..n).map(|_| entry(g, kind)).collect())
        .collect();
    let mut b: Vec<f64> = if g.chance(0.5) {
        let point: Vec<f64> = (0..n)
            .map(|_| {
                if g.chance(0.4) {
                    entry(g, kind).abs()
                } else {
                    0.0
                }
            })
            .collect();
        rows.iter()
            .map(|row| row.iter().zip(&point).map(|(a, x)| a * x).sum())
            .collect()
    } else {
        (0..m).map(|_| entry(g, kind) * 2.0).collect()
    };
    for i in 0..m {
        if g.chance(0.15) {
            b[i] = 0.0;
        } else if i > 0 && g.chance(0.15) {
            b[i] = b[g.below(i)];
        }
    }
    for i in 1..m {
        if g.chance(0.15) {
            let source = g.below(i);
            rows[i] = rows[source].clone();
            if g.chance(0.7) {
                b[i] = b[source];
            }
        }
    }
    (Matrix::from_rows(&rows).unwrap(), b)
}

/// Unit costs, or mixed costs (zero, negative and positive) that also make
/// unbounded programs.
fn random_costs(g: &mut Gen, n: usize) -> Vec<f64> {
    if g.chance(0.5) {
        vec![1.0; n]
    } else {
        (0..n).map(|_| (g.below(6) as f64 - 1.0) * 0.5).collect()
    }
}

/// `==` on floats, with NaN equal to NaN (an infeasible program reports a
/// NaN objective).
fn same_value(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// Checks that two solver results agree: same error, or same status,
/// pivot count, objective and solution under `==`.
fn agree(
    kernel: &Result<LpSolution, LinalgError>,
    oracle: &Result<LpSolution, LinalgError>,
) -> Result<(), TestCaseError> {
    match (kernel, oracle) {
        (Ok(k), Ok(o)) => {
            prop_assert_eq!(k.status, o.status);
            prop_assert_eq!(k.iterations, o.iterations);
            prop_assert!(
                same_value(k.objective_value, o.objective_value),
                "objective {} vs oracle {}",
                k.objective_value,
                o.objective_value
            );
            prop_assert_eq!(&k.x, &o.x);
        }
        (Err(k), Err(o)) => prop_assert_eq!(k, o),
        _ => prop_assert!(false, "kernel {kernel:?} vs oracle {oracle:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10000))]

    #[test]
    fn column_major_kernel_matches_the_reference(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (a, b) = random_system(&mut g);
        let cost = random_costs(&mut g, a.cols());
        let lp = LinearProgram::new(cost, a, b).unwrap();
        agree(&lp.solve(), &simplex_reference::solve(&lp))?;
    }

    #[test]
    fn implicit_mirror_matches_the_explicit_one(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (a, b) = random_system(&mut g);
        let kernel = min_l1_norm_program(&a, &b);
        agree(&kernel, &simplex_reference::min_l1_norm_program(&a, &b))?;
        // The convenience wrapper returns the same point.
        if let Ok(sol) = kernel {
            prop_assert_eq!(min_l1_norm_solution(&a, &b), sol.into_optimal());
        }
    }

    #[test]
    fn sign_constrained_l1_matches_the_reference(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (a, b) = random_system(&mut g);
        let kernel = min_l1_norm_program_nonneg(&a, &b);
        let lp = LinearProgram::new(vec![1.0; a.cols()], a.clone(), b.clone()).unwrap();
        agree(&kernel, &simplex_reference::solve(&lp))?;
        if let Ok(sol) = kernel {
            prop_assert_eq!(min_l1_norm_solution_nonneg(&a, &b), sol.into_optimal());
        }
    }
}

#[test]
fn generator_covers_every_status() {
    use netcorr_linalg::LpStatus;
    let mut seen = [0usize; 3];
    for seed in 0..3000 {
        let mut g = Gen(seed);
        let (a, b) = random_system(&mut g);
        let cost = random_costs(&mut g, a.cols());
        let sol = LinearProgram::new(cost, a, b).unwrap().solve().unwrap();
        seen[match sol.status {
            LpStatus::Optimal => 0,
            LpStatus::Infeasible => 1,
            LpStatus::Unbounded => 2,
        }] += 1;
    }
    assert!(seen.iter().all(|&count| count >= 100), "statuses {seen:?}");
}
