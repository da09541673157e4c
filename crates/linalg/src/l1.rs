//! Minimum-L1-norm solutions of under-determined linear systems.
//!
//! The paper's practical algorithm (Section 4) forms `N1 + N2` linearly
//! independent equations in the `|E|` unknowns `x_k = log P(X_{e_k} = 0)`.
//! When `N1 + N2 < |E|` the system has infinitely many solutions and the
//! paper "picks the one that minimizes the L1 norm". Because each unknown
//! is a log-probability (`x_k ≤ 0`), minimising `‖x‖₁ = −Σ x_k` selects the
//! solution with the highest total probability that links are good, i.e.
//! the least-congestion explanation that is still consistent with every
//! measured equation.
//!
//! Both variants are reduced to standard-form linear programs and solved
//! with [`crate::simplex`]:
//!
//! * [`min_l1_norm_solution`] — free-sign variables, split as `x = u − v`.
//! * [`min_l1_norm_solution_nonneg`] — variables constrained to be
//!   non-negative (used with the substitution `z = −x` for
//!   log-probabilities).
//!
//! [`min_l1_norm_program`] and [`min_l1_norm_program_nonneg`] return the
//! underlying [`LpSolution`] instead: its status and simplex pivot count
//! as well as the point.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::simplex::{solve_standard_form, LpSolution, LpStatus};

/// Solves `min ‖x‖₁ subject to A x = b` with free-sign `x`.
///
/// The variables are split into positive and negative parts `x = u − v`
/// with `u, v ≥ 0` and the LP `min Σ(u + v)` is solved. The equations must
/// be consistent (e.g. linearly independent rows with at least one
/// solution); otherwise [`LinalgError::Infeasible`] is returned.
pub fn min_l1_norm_solution(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    min_l1_norm_program(a, b)?.into_optimal()
}

/// The linear program behind [`min_l1_norm_solution`], with its status and
/// pivot count. When optimal, `x` holds the `n` free-sign values `u − v`
/// and `objective_value` is `Σ(u + v)`.
///
/// The LP's constraint matrix `[A, −A]` is never built: the simplex kernel
/// reads the `v` columns as the negated `u` columns.
pub fn min_l1_norm_program(a: &Matrix, b: &[f64]) -> Result<LpSolution, LinalgError> {
    check_inputs(a, b, "min_l1_norm_solution")?;
    let n = a.cols();
    let objective = vec![1.0; 2 * n];
    let mut sol = solve_standard_form(a, b, &objective, true)?;
    if sol.status == LpStatus::Optimal {
        sol.x = (0..n).map(|j| sol.x[j] - sol.x[n + j]).collect();
    }
    Ok(sol)
}

/// Solves `min Σ x subject to A x = b, x ≥ 0`.
///
/// For non-negative variables the L1 norm is simply the sum, so no variable
/// splitting is needed. Returns [`LinalgError::Infeasible`] if no
/// non-negative solution exists.
pub fn min_l1_norm_solution_nonneg(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    min_l1_norm_program_nonneg(a, b)?.into_optimal()
}

/// The linear program behind [`min_l1_norm_solution_nonneg`], with its
/// status and pivot count.
pub fn min_l1_norm_program_nonneg(a: &Matrix, b: &[f64]) -> Result<LpSolution, LinalgError> {
    check_inputs(a, b, "min_l1_norm_solution_nonneg")?;
    let objective = vec![1.0; a.cols()];
    solve_standard_form(a, b, &objective, false)
}

/// The input checks [`crate::simplex::LinearProgram::new`] would make.
fn check_inputs(a: &Matrix, b: &[f64], operation: &'static str) -> Result<(), LinalgError> {
    if a.rows() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            operation,
            expected: a.rows(),
            actual: b.len(),
        });
    }
    if !a.all_finite() || !crate::norms::all_finite(b) {
        return Err(LinalgError::NotFinite);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::{approx_eq, l1_norm};

    #[test]
    fn recovers_sparse_solution_of_underdetermined_system() {
        // One equation, two unknowns: x1 + 2 x2 = 2.
        // Minimum-L1 solution is x = (0, 1) with ‖x‖₁ = 1 (vs (2, 0) with 2).
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let x = min_l1_norm_solution(&a, &[2.0]).unwrap();
        assert!(approx_eq(&x, &[0.0, 1.0], 1e-7), "got {x:?}");
    }

    #[test]
    fn satisfies_constraints_exactly() {
        // Two equations, four unknowns.
        let a = Matrix::from_rows(&[vec![1.0, 1.0, 0.0, 0.0], vec![0.0, 1.0, 1.0, 1.0]]).unwrap();
        let b = [1.0, 2.0];
        let x = min_l1_norm_solution(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!(approx_eq(&ax, &b, 1e-7), "Ax = {ax:?}");
        // Any feasible point has ‖x‖₁ >= the optimum; check against one
        // hand-picked feasible point.
        let feasible = [1.0, 0.0, 2.0, 0.0];
        assert!(l1_norm(&x) <= l1_norm(&feasible) + 1e-7);
    }

    #[test]
    fn handles_negative_solutions() {
        // x1 + x2 = -3: the minimum-L1 solution puts everything on one
        // variable with a negative value.
        let a = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let x = min_l1_norm_solution(&a, &[-3.0]).unwrap();
        assert!((l1_norm(&x) - 3.0).abs() < 1e-7);
        assert!((x[0] + x[1] + 3.0).abs() < 1e-7);
    }

    #[test]
    fn square_consistent_system_returns_exact_solution() {
        let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 4.0]]).unwrap();
        let x = min_l1_norm_solution(&a, &[2.0, -8.0]).unwrap();
        assert!(approx_eq(&x, &[1.0, -2.0], 1e-7));
    }

    #[test]
    fn inconsistent_system_is_infeasible() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert_eq!(
            min_l1_norm_solution(&a, &[1.0, 2.0]),
            Err(LinalgError::Infeasible)
        );
    }

    #[test]
    fn nonneg_variant_respects_sign_constraint() {
        // x1 - x2 = 1, x >= 0: minimum-sum solution is (1, 0).
        let a = Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap();
        let x = min_l1_norm_solution_nonneg(&a, &[1.0]).unwrap();
        assert!(approx_eq(&x, &[1.0, 0.0], 1e-7));
        // b = -1 has no non-negative solution with this single equation
        // where only x2 could help: x1 - x2 = -1 -> x2 = 1 + x1 works, so it
        // IS feasible; check a genuinely infeasible one instead.
        let a2 = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        assert_eq!(
            min_l1_norm_solution_nonneg(&a2, &[-1.0]),
            Err(LinalgError::Infeasible)
        );
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            min_l1_norm_solution(&a, &[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            min_l1_norm_solution_nonneg(&a, &[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn larger_underdetermined_system_prefers_sparse_answer() {
        // 3 equations, 8 unknowns, constructed so that a 3-sparse solution
        // exists; basis-pursuit (min L1) should find a solution with the
        // same L1 norm or better and satisfy the constraints.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.2],
            vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.1, 0.9],
            vec![0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.7, 0.3],
        ])
        .unwrap();
        let sparse = [2.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.0, 0.0];
        let b = a.matvec(&sparse).unwrap();
        let x = min_l1_norm_solution(&a, &b).unwrap();
        assert!(approx_eq(&a.matvec(&x).unwrap(), &b, 1e-6));
        assert!(l1_norm(&x) <= l1_norm(&sparse) + 1e-6);
    }
}
