//! The daemon's default solve against the reference simplex kernel.
//!
//! On the smoke PlanetLab fixture the default plan is the minimum-L1 LP
//! (`SolverKind::DenseL1`). Over 50 consecutive refreshes — one arriving
//! snapshot each, the RHS refreshed from a streaming estimator as the
//! daemon does — `InferenceContext::solve` must report the reference
//! kernel's pivot count and return its solution under `==`, and the
//! daemon's `reinfer` must carry that pivot count in its diagnostics.

#[path = "../../linalg/tests/simplex_reference.rs"]
mod simplex_reference;

use netcorr_core::equations::IncrementalEquationBuilder;
use netcorr_core::{AlgorithmConfig, InferenceContext, SolverKind};
use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::scenario::{ScenarioBuilder, ScenarioConfig};
use netcorr_linalg::rank::IndependentRowSelector;
use netcorr_linalg::{LinearProgram, LpStatus, Matrix};
use netcorr_measure::StreamingEstimator;
use netcorr_sim::{SimulationConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The daemon's default topology seed.
const TOPOLOGY_SEED: u64 = 42;
/// Snapshots pushed before the first compared refresh.
const WARM_UP: usize = 200;
/// Consecutive refreshes compared.
const REFRESHES: usize = 50;

/// The selected rows of the context's structure, gathered dense: the
/// paper's priority-order independent subset, as the context selects it.
fn selected_system(context: &InferenceContext) -> (Vec<usize>, Matrix) {
    let matrix = context.structure().matrix();
    let num_links = context.num_links();
    let mut selector =
        IndependentRowSelector::new(num_links, context.config().solver.independence_tolerance);
    let mut selected = Vec::new();
    for row in 0..matrix.rows() {
        if selector.is_complete() {
            break;
        }
        let mut dense = vec![0.0; num_links];
        for &(col, value) in matrix.row(row) {
            dense[col] = value;
        }
        if selector.offer(&dense) {
            selected.push(row);
        }
    }
    let mut a = Matrix::zeros(selected.len(), num_links);
    for (i, &row) in selected.iter().enumerate() {
        for &(col, value) in matrix.row(row) {
            a[(i, col)] = value;
        }
    }
    (selected, a)
}

/// The reference solve of `A x = b`: the sign-constrained LP over
/// `z = -x`, then the free-sign LP over an explicit `[A, −A]` if that is
/// infeasible. Returns the clamped solution and the summed pivots.
fn reference_solve(a: &Matrix, b: &[f64]) -> (Vec<f64>, usize) {
    let neg_b: Vec<f64> = b.iter().map(|v| -v).collect();
    let nonneg = LinearProgram::new(vec![1.0; a.cols()], a.clone(), neg_b).unwrap();
    let first = simplex_reference::solve(&nonneg).unwrap();
    let (x, pivots) = match first.status {
        LpStatus::Optimal => (first.x.iter().map(|v| -v).collect(), first.iterations),
        _ => {
            let free = simplex_reference::min_l1_norm_program(a, b).unwrap();
            assert_eq!(free.status, LpStatus::Optimal);
            (free.x, first.iterations + free.iterations)
        }
    };
    (x.into_iter().map(|v: f64| v.min(0.0)).collect(), pivots)
}

#[test]
fn planetlab_smoke_refreshes_match_the_reference_kernel() {
    let base = base_instance(TopologyFamily::PlanetLab, Scale::Smoke, TOPOLOGY_SEED).unwrap();
    let scenario = ScenarioBuilder::new(ScenarioConfig::default())
        .unwrap()
        .build(&base, &mut StdRng::seed_from_u64(TOPOLOGY_SEED ^ 0x5eed))
        .unwrap();
    let observations = Simulator::new(
        &scenario.instance,
        &scenario.model,
        SimulationConfig::default(),
    )
    .unwrap()
    .run(
        WARM_UP + REFRESHES,
        &mut StdRng::seed_from_u64(TOPOLOGY_SEED ^ 0x0b5),
    );

    let config = AlgorithmConfig::default();
    let context = InferenceContext::new(&base, &config).unwrap();
    assert_eq!(context.solver_kind(), SolverKind::DenseL1);
    let (selected, a) = selected_system(&context);
    let mut estimator = StreamingEstimator::new(base.num_paths());
    let builder =
        IncrementalEquationBuilder::new(&base, &mut estimator, &config.equations).unwrap();
    for i in 0..WARM_UP {
        estimator.push_snapshot(&observations.snapshot(i)).unwrap();
    }

    for i in WARM_UP..WARM_UP + REFRESHES {
        estimator.push_snapshot(&observations.snapshot(i)).unwrap();
        let rhs = builder.rhs(&estimator).unwrap();
        let outcome = context.solve(&rhs).unwrap();
        let b: Vec<f64> = selected.iter().map(|&row| rhs[row]).collect();
        let (x, pivots) = reference_solve(&a, &b);
        assert!(pivots > 0, "refresh {i}: the reference kernel pivoted");
        assert_eq!(outcome.iterations, pivots, "refresh {i}: pivot count");
        assert_eq!(outcome.x, x, "refresh {i}: solution");
        // The daemon's entry point reports the pivots in the diagnostics
        // that `INFER` prints as `iterations=`.
        let (estimate, _) = context.reinfer(&rhs, None).unwrap();
        assert_eq!(estimate.diagnostics.iterations, pivots, "refresh {i}");
    }
}
