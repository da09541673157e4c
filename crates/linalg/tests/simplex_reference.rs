//! Test-only oracle: the row-major textbook simplex tableau that the
//! library's column-major kernel replaced, kept verbatim.
//!
//! The library kernel (`netcorr_linalg::simplex`) must take exactly this
//! kernel's decisions with exactly its floating-point operations: the same
//! status, the same pivot count, and a solution equal under `==` (only the
//! sign of an exact zero may differ). The differential tests include this
//! file as a module — `tests/simplex_differential.rs` over random programs,
//! and `crates/serve/tests/dense_l1_oracle.rs` over the daemon's refreshes —
//! the way `netcorr_measure::reference` backs the estimator's differential
//! tests. Compiled on its own it is an empty test target.

use std::ops::Deref;

use netcorr_linalg::{LinalgError, LinearProgram, LpSolution, LpStatus, Matrix};

/// Numerical tolerance used for feasibility / optimality tests inside the
/// simplex iterations.
const EPS: f64 = 1e-9;

/// Solves `lp` with the reference kernel.
pub fn solve(lp: &LinearProgram) -> Result<LpSolution, LinalgError> {
    Reference(lp).solve()
}

/// Solves `min ‖x‖₁ s.t. A x = b` the way the library did before the
/// mirror became implicit: the explicit LP over `[A, −A]`, folded to
/// `x = u − v` when optimal.
pub fn min_l1_norm_program(a: &Matrix, b: &[f64]) -> Result<LpSolution, LinalgError> {
    let n = a.cols();
    let m = a.rows();
    let mut constraints = Matrix::zeros(m, 2 * n);
    for i in 0..m {
        for j in 0..n {
            constraints[(i, j)] = a[(i, j)];
            constraints[(i, n + j)] = -a[(i, j)];
        }
    }
    let lp = LinearProgram::new(vec![1.0; 2 * n], constraints, b.to_vec())?;
    let mut sol = solve(&lp)?;
    if sol.status == LpStatus::Optimal {
        sol.x = (0..n).map(|j| sol.x[j] - sol.x[n + j]).collect();
    }
    Ok(sol)
}

/// The program under the reference kernel; derefs to it, so the kernel
/// below reads exactly as it did as `impl LinearProgram`.
struct Reference<'a>(&'a LinearProgram);

impl Deref for Reference<'_> {
    type Target = LinearProgram;

    fn deref(&self) -> &LinearProgram {
        self.0
    }
}

impl Reference<'_> {
    /// Solves the program with the two-phase primal simplex method.
    pub fn solve(&self) -> Result<LpSolution, LinalgError> {
        let m = self.num_constraints();
        let n = self.num_variables();
        if n == 0 {
            // Degenerate: no variables. Feasible iff b = 0.
            let feasible = self.rhs.iter().all(|v| v.abs() <= EPS);
            return Ok(LpSolution {
                status: if feasible {
                    LpStatus::Optimal
                } else {
                    LpStatus::Infeasible
                },
                x: Vec::new(),
                objective_value: 0.0,
                iterations: 0,
            });
        }

        // Build the phase-1 tableau with artificial variables. Columns:
        // [x_0..x_{n-1}, a_0..a_{m-1} | rhs]. Rows are the constraints with
        // the sign flipped where needed so that rhs >= 0.
        let total = n + m;
        let mut tableau = Matrix::zeros(m, total + 1);
        for i in 0..m {
            let flip = if self.rhs[i] < 0.0 { -1.0 } else { 1.0 };
            for j in 0..n {
                tableau[(i, j)] = flip * self.constraints[(i, j)];
            }
            tableau[(i, n + i)] = 1.0;
            tableau[(i, total)] = flip * self.rhs[i];
        }
        let mut basis: Vec<usize> = (n..n + m).collect();
        let mut iterations = 0;

        // ---- Phase 1: minimise the sum of artificial variables. ----
        let phase1_cost: Vec<f64> = (0..total).map(|j| if j >= n { 1.0 } else { 0.0 }).collect();
        let phase1_value =
            simplex_iterate(&mut tableau, &mut basis, &phase1_cost, &mut iterations)?;
        if phase1_value > 1e-7 {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                x: Vec::new(),
                objective_value: f64::NAN,
                iterations,
            });
        }

        // Drive any artificial variables that remain in the basis out of it
        // (they must be at zero level).
        for row in 0..m {
            if basis[row] >= n {
                // Find a non-artificial column with a non-zero entry in this
                // row to pivot on.
                let mut pivot_col = None;
                for j in 0..n {
                    if tableau[(row, j)].abs() > EPS {
                        pivot_col = Some(j);
                        break;
                    }
                }
                if let Some(col) = pivot_col {
                    pivot(&mut tableau, &mut basis, row, col);
                    iterations += 1;
                }
                // If no pivot column exists the row is redundant (all-zero
                // over the original variables); leave the artificial basic
                // variable at zero.
            }
        }

        // Remove redundant rows (artificial variables stuck in the basis at
        // zero level on all-zero rows) and drop the artificial columns
        // entirely, so phase 2 works on the original variables only.
        let keep: Vec<usize> = (0..m).filter(|&i| basis[i] < n).collect();
        let mut reduced = Matrix::zeros(keep.len(), n + 1);
        let mut reduced_basis = Vec::with_capacity(keep.len());
        for (new_i, &i) in keep.iter().enumerate() {
            for j in 0..n {
                reduced[(new_i, j)] = tableau[(i, j)];
            }
            reduced[(new_i, n)] = tableau[(i, total)];
            reduced_basis.push(basis[i]);
        }
        let mut tableau = reduced;
        let mut basis = reduced_basis;

        // ---- Phase 2: minimise the true objective over x. ----
        let objective_value =
            match simplex_iterate(&mut tableau, &mut basis, &self.objective, &mut iterations) {
                Ok(v) => v,
                Err(LinalgError::Unbounded) => {
                    return Ok(LpSolution {
                        status: LpStatus::Unbounded,
                        x: Vec::new(),
                        objective_value: f64::NEG_INFINITY,
                        iterations,
                    })
                }
                Err(e) => return Err(e),
            };

        // Extract the solution.
        let mut x = vec![0.0; n];
        let rhs_col = tableau.cols() - 1;
        for (row, &b) in basis.iter().enumerate() {
            if b < n {
                x[b] = tableau[(row, rhs_col)];
            }
        }
        Ok(LpSolution {
            status: LpStatus::Optimal,
            x,
            objective_value,
            iterations,
        })
    }
}

/// Performs simplex pivoting on `tableau` (rows = constraints, last column =
/// rhs) with the reduced costs computed from `cost`, until optimality or
/// unboundedness. Returns the objective value of the basic solution at
/// termination.
fn simplex_iterate(
    tableau: &mut Matrix,
    basis: &mut [usize],
    cost: &[f64],
    iterations: &mut usize,
) -> Result<f64, LinalgError> {
    let m = tableau.rows();
    let total = tableau.cols() - 1;
    // A very generous iteration budget; Bland's rule guarantees finiteness
    // but we guard against pathological numerical behaviour anyway.
    let max_iterations = 50 * (total + m) * (total + m).max(64);

    loop {
        // Compute the simplex multipliers implicitly: reduced cost of
        // column j is c_j - c_B · B^{-1} A_j; since the tableau is kept in
        // canonical form (basic columns are unit vectors), the reduced cost
        // is c_j - Σ_i c_{basis[i]} * tableau[i][j].
        let mut entering = None;
        for j in 0..total {
            if basis.contains(&j) {
                continue;
            }
            let mut reduced = cost[j];
            for i in 0..m {
                reduced -= cost[basis[i]] * tableau[(i, j)];
            }
            if reduced < -EPS {
                // Bland's rule: pick the lowest-index improving column.
                entering = Some(j);
                break;
            }
        }
        let Some(col) = entering else {
            // Optimal: compute the objective value.
            let mut value = 0.0;
            for i in 0..m {
                value += cost[basis[i]] * tableau[(i, total)];
            }
            return Ok(value);
        };

        // Ratio test: choose the leaving row (Bland's rule on ties).
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = tableau[(i, col)];
            if a > EPS {
                let ratio = tableau[(i, total)] / a;
                if ratio < best_ratio - EPS
                    || ((ratio - best_ratio).abs() <= EPS
                        && leaving.map(|l| basis[i] < basis[l]).unwrap_or(false))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(row) = leaving else {
            return Err(LinalgError::Unbounded);
        };

        pivot(tableau, basis, row, col);
        *iterations += 1;
        if *iterations > max_iterations {
            return Err(LinalgError::DidNotConverge {
                iterations: *iterations,
            });
        }
    }
}

/// Pivots the tableau on `(row, col)`: scales the pivot row so the pivot
/// entry becomes 1 and eliminates the column from every other row.
fn pivot(tableau: &mut Matrix, basis: &mut [usize], row: usize, col: usize) {
    let cols = tableau.cols();
    let pivot_val = tableau[(row, col)];
    debug_assert!(pivot_val.abs() > 0.0, "pivot on a zero entry");
    for j in 0..cols {
        tableau[(row, j)] /= pivot_val;
    }
    for i in 0..tableau.rows() {
        if i == row {
            continue;
        }
        let factor = tableau[(i, col)];
        if factor == 0.0 {
            continue;
        }
        for j in 0..cols {
            let delta = factor * tableau[(row, j)];
            tableau[(i, j)] -= delta;
        }
    }
    basis[row] = col;
}
