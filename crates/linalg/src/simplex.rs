//! Two-phase primal simplex solver for linear programs in standard form.
//!
//! The solver handles programs of the form
//!
//! ```text
//! minimise    cᵀ x
//! subject to  A x = b
//!             x ≥ 0
//! ```
//!
//! which is exactly what the minimum-L1-norm reformulation in [`crate::l1`]
//! produces. Phase 1 minimises the sum of one artificial variable per row,
//! phase 2 the true objective; Bland's rule (lowest-index improving column,
//! lowest-index basic variable on ratio ties) guarantees termination.
//!
//! # Layout
//!
//! The tableau is stored column-major: one `Vec<f64>` with stride `m` (the
//! number of rows), holding the program's columns, then the phase-1
//! artificial columns, then the right-hand side. Pricing and the ratio test
//! each read one contiguous column. An `in_basis` flag per column replaces
//! a scan of the basis. A reduced cost is a serial sum, a chain of
//! dependent subtractions, so pricing runs eight columns' chains side by
//! side; each chain keeps its own order.
//!
//! The free-sign L1 program over `[A, −A]` stores only `A`: column `n + j`
//! is read as the negation of column `j`. Every pivot step is symmetric
//! under negation in round-to-nearest arithmetic, so the stored column's
//! negation is exactly the entry an explicit copy would hold, up to the
//! sign of an exact zero.
//!
//! # Same decisions as the textbook tableau
//!
//! The kernel takes exactly the entering and leaving decisions of the
//! row-major textbook tableau and performs exactly its floating-point
//! operations on every entry it reads. It skips only work whose result
//! cannot change a comparison or a non-zero entry, given finite entries:
//!
//! * pricing sums only the rows whose basic variable has a non-zero cost
//!   (in phase 1, the rows still holding an artificial), since a `0·t`
//!   term cannot move the comparison with `-EPS`;
//! * a pivot updates a column only on the rows where the pivot column is
//!   non-zero, and skips a column whose pivot-row entry is zero.
//!
//! So the pivots, the status and the solution are those of the textbook
//! tableau; only the sign of an exact zero in the solution may differ.
//! `tests/simplex_reference.rs` keeps the textbook kernel as a test oracle
//! and the differential tests pin this.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// A linear program in standard form: minimise `cᵀx` subject to `Ax = b`,
/// `x ≥ 0`.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    /// Objective coefficients `c` (length = number of variables).
    pub objective: Vec<f64>,
    /// Constraint matrix `A` (`m × n`).
    pub constraints: Matrix,
    /// Right-hand side `b` (length `m`).
    pub rhs: Vec<f64>,
}

/// Status of a solved linear program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

/// The result of solving a [`LinearProgram`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Optimal primal solution (meaningful only when `status == Optimal`;
    /// empty otherwise).
    pub x: Vec<f64>,
    /// Optimal objective value (meaningful only when `status == Optimal`).
    pub objective_value: f64,
    /// Number of simplex pivots performed (both phases).
    pub iterations: usize,
}

impl LpSolution {
    /// The optimal point, or the status as an error
    /// ([`LinalgError::Infeasible`] / [`LinalgError::Unbounded`]).
    pub fn into_optimal(self) -> Result<Vec<f64>, LinalgError> {
        match self.status {
            LpStatus::Optimal => Ok(self.x),
            LpStatus::Infeasible => Err(LinalgError::Infeasible),
            LpStatus::Unbounded => Err(LinalgError::Unbounded),
        }
    }
}

/// Numerical tolerance used for feasibility / optimality tests inside the
/// simplex iterations.
const EPS: f64 = 1e-9;

/// Columns priced together (see `Tableau::entering_column`).
const PRICING_LANES: usize = 8;

impl LinearProgram {
    /// Creates a new standard-form linear program.
    ///
    /// Returns an error if the dimensions are inconsistent or any input is
    /// non-finite.
    pub fn new(
        objective: Vec<f64>,
        constraints: Matrix,
        rhs: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        if constraints.cols() != objective.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "LinearProgram::new (objective length)",
                expected: constraints.cols(),
                actual: objective.len(),
            });
        }
        if constraints.rows() != rhs.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "LinearProgram::new (rhs length)",
                expected: constraints.rows(),
                actual: rhs.len(),
            });
        }
        if !constraints.all_finite()
            || !crate::norms::all_finite(&objective)
            || !crate::norms::all_finite(&rhs)
        {
            return Err(LinalgError::NotFinite);
        }
        Ok(LinearProgram {
            objective,
            constraints,
            rhs,
        })
    }

    /// Number of decision variables.
    pub fn num_variables(&self) -> usize {
        self.objective.len()
    }

    /// Number of equality constraints.
    pub fn num_constraints(&self) -> usize {
        self.rhs.len()
    }

    /// Solves the program with the two-phase primal simplex method.
    pub fn solve(&self) -> Result<LpSolution, LinalgError> {
        solve_standard_form(&self.constraints, &self.rhs, &self.objective, false)
    }
}

/// Solves `min cᵀy s.t. C y = b, y ≥ 0` with the two-phase simplex method,
/// where `C = A` or, when `mirrored`, `C = [A, −A]` (read from `A` without
/// being built).
///
/// The caller guarantees finite inputs, `b.len() == a.rows()` and
/// `objective.len()` equal to the number of columns of `C`.
pub(crate) fn solve_standard_form(
    a: &Matrix,
    rhs: &[f64],
    objective: &[f64],
    mirrored: bool,
) -> Result<LpSolution, LinalgError> {
    let mut tableau = Tableau::phase_one(a, rhs, mirrored);
    let vars = tableau.vars;
    debug_assert_eq!(objective.len(), vars);
    if vars == 0 {
        // Degenerate: no variables. Feasible iff b = 0.
        let feasible = rhs.iter().all(|v| v.abs() <= EPS);
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
    let mut iterations = 0;

    // ---- Phase 1: minimise the sum of artificial variables. ----
    let phase1_cost: Vec<f64> = (0..tableau.columns())
        .map(|j| if j >= vars { 1.0 } else { 0.0 })
        .collect();
    let phase1_value = tableau.iterate(&phase1_cost, &mut iterations)?;
    if phase1_value > 1e-7 {
        return Ok(LpSolution {
            status: LpStatus::Infeasible,
            x: Vec::new(),
            objective_value: f64::NAN,
            iterations,
        });
    }

    // Drive any artificial variables that remain in the basis out of it
    // (they must be at zero level) by pivoting on the first program column
    // with a non-zero entry in their row. A row without one is redundant
    // (all-zero over the program's variables); its artificial stays basic
    // at zero and the row is dropped below.
    for row in 0..tableau.m {
        if tableau.basis[row] >= vars {
            if let Some(col) = (0..vars).find(|&j| tableau.entry(row, j).abs() > EPS) {
                tableau.pivot(row, col);
                iterations += 1;
            }
        }
    }

    // ---- Phase 2: minimise the true objective over the program's
    // variables, without the redundant rows and artificial columns. ----
    let mut tableau = tableau.into_phase_two();
    let objective_value = match tableau.iterate(objective, &mut iterations) {
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

    let mut x = vec![0.0; vars];
    for (&b, &value) in tableau.basis.iter().zip(tableau.rhs()) {
        x[b] = value;
    }
    Ok(LpSolution {
        status: LpStatus::Optimal,
        x,
        objective_value,
        iterations,
    })
}

/// A simplex tableau in canonical form (every basic column is a unit
/// vector), stored column-major.
///
/// Logical columns are numbered like the textbook tableau: the program's
/// variables `0..vars`, then one artificial per row while `artificials > 0`.
/// When the program is mirrored, variable `stored_vars + j` is the negation
/// of stored column `j`.
struct Tableau {
    /// Number of rows.
    m: usize,
    /// Number of program variables (`2n` when mirrored).
    vars: usize,
    /// Number of stored program columns (`n` when mirrored, else `vars`).
    stored_vars: usize,
    /// Number of artificial columns: `m` in phase 1, `0` in phase 2.
    artificials: usize,
    /// `stored_vars + artificials + 1` columns of `m` entries each; the last
    /// is the right-hand side.
    data: Vec<f64>,
    /// The basic variable of each row.
    basis: Vec<usize>,
    /// Whether each logical column is basic.
    in_basis: Vec<bool>,
    /// Pivot scratch: the rows other than the pivot row where the pivot
    /// column is non-zero, with that entry.
    factors: Vec<(usize, f64)>,
}

impl Tableau {
    /// The phase-1 tableau `[C, I | b]` with each row's sign flipped where
    /// needed so that `b ≥ 0`, and the artificials basic.
    fn phase_one(a: &Matrix, rhs: &[f64], mirrored: bool) -> Tableau {
        let (m, n) = (a.rows(), a.cols());
        let mut data = vec![0.0; m * (n + m + 1)];
        for (i, &b) in rhs.iter().enumerate() {
            let flip = if b < 0.0 { -1.0 } else { 1.0 };
            for (j, &value) in a.row_slice(i).iter().enumerate() {
                data[j * m + i] = flip * value;
            }
            data[(n + i) * m + i] = 1.0;
            data[(n + m) * m + i] = flip * b;
        }
        let vars = if mirrored { 2 * n } else { n };
        let mut in_basis = vec![false; vars + m];
        in_basis[vars..].fill(true);
        Tableau {
            m,
            vars,
            stored_vars: n,
            artificials: m,
            data,
            basis: (vars..vars + m).collect(),
            in_basis,
            factors: Vec::with_capacity(m),
        }
    }

    /// Drops the artificial columns and the rows whose artificial is still
    /// basic (redundant rows, all-zero over the program's variables).
    fn into_phase_two(self) -> Tableau {
        let keep: Vec<usize> = (0..self.m).filter(|&i| self.basis[i] < self.vars).collect();
        let rhs = self.stored_vars + self.artificials;
        let mut data = Vec::with_capacity(keep.len() * (self.stored_vars + 1));
        for k in (0..self.stored_vars).chain([rhs]) {
            let column = self.stored(k);
            data.extend(keep.iter().map(|&i| column[i]));
        }
        let basis: Vec<usize> = keep.iter().map(|&i| self.basis[i]).collect();
        let mut in_basis = vec![false; self.vars];
        for &b in &basis {
            in_basis[b] = true;
        }
        Tableau {
            m: keep.len(),
            vars: self.vars,
            stored_vars: self.stored_vars,
            artificials: 0,
            data,
            basis,
            in_basis,
            factors: self.factors,
        }
    }

    /// Number of logical columns (program variables plus artificials).
    fn columns(&self) -> usize {
        self.vars + self.artificials
    }

    /// The stored column backing logical column `j`, and whether `j` reads
    /// it negated.
    fn locate(&self, j: usize) -> (usize, bool) {
        if j >= self.vars {
            (self.stored_vars + (j - self.vars), false)
        } else if j >= self.stored_vars {
            (j - self.stored_vars, true)
        } else {
            (j, false)
        }
    }

    /// Stored column `k`.
    fn stored(&self, k: usize) -> &[f64] {
        &self.data[k * self.m..(k + 1) * self.m]
    }

    /// The right-hand-side column.
    fn rhs(&self) -> &[f64] {
        self.stored(self.stored_vars + self.artificials)
    }

    /// Entry `(i, j)` of the logical tableau.
    fn entry(&self, i: usize, j: usize) -> f64 {
        let (k, negated) = self.locate(j);
        let value = self.data[k * self.m + i];
        if negated {
            -value
        } else {
            value
        }
    }

    /// Pivots with the reduced costs computed from `cost` (one entry per
    /// logical column) until optimality or unboundedness. Returns the
    /// objective value of the basic solution at termination.
    fn iterate(&mut self, cost: &[f64], iterations: &mut usize) -> Result<f64, LinalgError> {
        let m = self.m;
        let total = self.columns();
        // A very generous iteration budget; Bland's rule guarantees
        // finiteness but we guard against pathological numerical behaviour
        // anyway.
        let max_iterations = 50 * (total + m) * (total + m).max(64);
        let mut weighted: Vec<(usize, f64)> = Vec::with_capacity(m);

        loop {
            // The tableau is in canonical form, so the reduced cost of
            // column j is c_j - Σ_i c_{basis[i]} * t[i][j]; rows with a zero
            // basic cost contribute nothing.
            weighted.clear();
            weighted.extend(self.basis.iter().enumerate().filter_map(|(i, &b)| {
                let c = cost[b];
                (c != 0.0).then_some((i, c))
            }));
            let Some(col) = self.entering_column(cost, &weighted) else {
                // Optimal: compute the objective value.
                let mut value = 0.0;
                for (&b, &rhs) in self.basis.iter().zip(self.rhs()) {
                    value += cost[b] * rhs;
                }
                return Ok(value);
            };
            let Some(row) = self.leaving_row(col) else {
                return Err(LinalgError::Unbounded);
            };
            self.pivot(row, col);
            *iterations += 1;
            if *iterations > max_iterations {
                return Err(LinalgError::DidNotConverge {
                    iterations: *iterations,
                });
            }
        }
    }

    /// Bland's rule: the lowest-index non-basic column whose reduced cost
    /// is below `-EPS`, given the `(row, basic cost)` pairs with a non-zero
    /// basic cost.
    ///
    /// The reduced cost of column `j` is `c_j - Σ_i c_{basis[i]} * t[i][j]`
    /// (the tableau is in canonical form), summed serially in row order.
    /// That serial sum is a chain of dependent subtractions, so columns are
    /// priced [`PRICING_LANES`] at a time: each keeps its own chain, in the
    /// same order, and the first improving one enters. The lanes past it
    /// are wasted work; their values are never read.
    fn entering_column(&self, cost: &[f64], weighted: &[(usize, f64)]) -> Option<usize> {
        let mut candidates = (0..self.columns()).filter(|&j| !self.in_basis[j]);
        loop {
            let mut block = [0; PRICING_LANES];
            let mut len = 0;
            for j in candidates.by_ref().take(PRICING_LANES) {
                block[len] = j;
                len += 1;
            }
            if len == 0 {
                return None;
            }
            // Spare lanes re-price the block's first column.
            let mut columns = [self.stored(0); PRICING_LANES];
            let mut signs = [1.0; PRICING_LANES];
            let mut reduced = [0.0; PRICING_LANES];
            for lane in 0..PRICING_LANES {
                let j = block[if lane < len { lane } else { 0 }];
                let (k, negated) = self.locate(j);
                columns[lane] = self.stored(k);
                signs[lane] = if negated { -1.0 } else { 1.0 };
                reduced[lane] = cost[j];
            }
            for &(i, c) in weighted {
                for lane in 0..PRICING_LANES {
                    // `signs[lane] * t` is `t` or exactly `-t`.
                    reduced[lane] -= c * (signs[lane] * columns[lane][i]);
                }
            }
            if let Some(lane) = (0..len).find(|&lane| reduced[lane] < -EPS) {
                return Some(block[lane]);
            }
        }
    }

    /// Ratio test for entering column `col`: the leaving row, with ties
    /// going to the lowest-index basic variable (Bland's rule), or `None`
    /// if the column is unbounded.
    fn leaving_row(&self, col: usize) -> Option<usize> {
        let (k, negated) = self.locate(col);
        let column = self.stored(k);
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for (i, (&value, &rhs)) in column.iter().zip(self.rhs()).enumerate() {
            let a = if negated { -value } else { value };
            if a > EPS {
                let ratio = rhs / a;
                if ratio < best_ratio - EPS
                    || ((ratio - best_ratio).abs() <= EPS
                        && leaving.is_some_and(|l| self.basis[i] < self.basis[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        leaving
    }

    /// Pivots on `(row, col)`: scales the pivot row so the pivot entry
    /// becomes 1 and eliminates the column from every other row.
    fn pivot(&mut self, row: usize, col: usize) {
        let m = self.m;
        let (k, negated) = self.locate(col);
        let sign = if negated { -1.0 } else { 1.0 };
        let pivot_column = &self.data[k * m..(k + 1) * m];
        let pivot_val = sign * pivot_column[row];
        debug_assert!(pivot_val.abs() > 0.0, "pivot on a zero entry");
        self.factors.clear();
        self.factors.extend(
            pivot_column
                .iter()
                .enumerate()
                .filter(|&(i, &v)| i != row && v != 0.0)
                .map(|(i, &v)| (i, sign * v)),
        );
        for column in self.data.chunks_exact_mut(m) {
            if column[row] == 0.0 {
                // The row scales to a zero and the elimination subtracts
                // zeros: nothing but the sign of a zero would change.
                continue;
            }
            let scaled = column[row] / pivot_val;
            column[row] = scaled;
            for &(i, factor) in &self.factors {
                column[i] -= factor * scaled;
            }
        }
        self.in_basis[self.basis[row]] = false;
        self.basis[row] = col;
        self.in_basis[col] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::approx_eq;

    fn lp(c: &[f64], a_rows: &[Vec<f64>], b: &[f64]) -> LinearProgram {
        LinearProgram::new(c.to_vec(), Matrix::from_rows(a_rows).unwrap(), b.to_vec()).unwrap()
    }

    #[test]
    fn solves_trivial_feasibility_problem() {
        // min x1 + x2 s.t. x1 + x2 = 1, x >= 0 -> optimum 1.
        let p = lp(&[1.0, 1.0], &[vec![1.0, 1.0]], &[1.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective_value - 1.0).abs() < 1e-8);
        assert!((sol.x[0] + sol.x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn solves_textbook_lp() {
        // min -3x - 5y s.t. x + s1 = 4, 2y + s2 = 12, 3x + 2y + s3 = 18,
        // all vars >= 0. Classic problem: optimum at x=2, y=6, objective -36.
        let p = lp(
            &[-3.0, -5.0, 0.0, 0.0, 0.0],
            &[
                vec![1.0, 0.0, 1.0, 0.0, 0.0],
                vec![0.0, 2.0, 0.0, 1.0, 0.0],
                vec![3.0, 2.0, 0.0, 0.0, 1.0],
            ],
            &[4.0, 12.0, 18.0],
        );
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective_value + 36.0).abs() < 1e-7);
        assert!((sol.x[0] - 2.0).abs() < 1e-7);
        assert!((sol.x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasibility() {
        // x1 + x2 = 1 and x1 + x2 = 3 cannot both hold.
        let p = lp(&[1.0, 1.0], &[vec![1.0, 1.0], vec![1.0, 1.0]], &[1.0, 3.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        // min -x1 s.t. x1 - x2 = 0: x1 = x2 can grow without bound.
        let p = lp(&[-1.0, 0.0], &[vec![1.0, -1.0]], &[0.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn handles_negative_rhs_by_row_flip() {
        // -x1 = -2 means x1 = 2.
        let p = lp(&[1.0], &[vec![-1.0]], &[-2.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(approx_eq(&sol.x, &[2.0], 1e-8));
    }

    #[test]
    fn handles_redundant_constraints() {
        // Duplicate constraint rows; still optimal.
        let p = lp(&[1.0, 2.0], &[vec![1.0, 1.0], vec![1.0, 1.0]], &[1.0, 1.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective_value - 1.0).abs() < 1e-8);
        assert!(
            (sol.x[0] - 1.0).abs() < 1e-8,
            "should prefer the cheap variable"
        );
    }

    #[test]
    fn zero_variable_program() {
        let p = LinearProgram::new(vec![], Matrix::zeros(1, 0), vec![0.0]).unwrap();
        assert_eq!(p.solve().unwrap().status, LpStatus::Optimal);
        let q = LinearProgram::new(vec![], Matrix::zeros(1, 0), vec![1.0]).unwrap();
        assert_eq!(q.solve().unwrap().status, LpStatus::Infeasible);
    }

    #[test]
    fn rejects_dimension_mismatches() {
        assert!(LinearProgram::new(vec![1.0], Matrix::zeros(1, 2), vec![1.0]).is_err());
        assert!(LinearProgram::new(vec![1.0, 2.0], Matrix::zeros(1, 2), vec![1.0, 2.0]).is_err());
        assert!(LinearProgram::new(vec![f64::NAN, 2.0], Matrix::zeros(1, 2), vec![1.0]).is_err());
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A problem with degenerate vertices; Bland's rule must terminate.
        let p = lp(
            &[1.0, 1.0, 1.0],
            &[
                vec![1.0, 1.0, 0.0],
                vec![1.0, 0.0, 1.0],
                vec![1.0, 0.0, 0.0],
            ],
            &[1.0, 1.0, 1.0],
        );
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective_value - 1.0).abs() < 1e-8);
        assert!(approx_eq(&sol.x, &[1.0, 0.0, 0.0], 1e-8));
    }
}
