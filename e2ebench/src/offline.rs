//! `offline-trials`: the paper's multi-trial experiment in process, on
//! one thread, at paper scale (BRITE, 1500 paths, 302 links, 800
//! snapshots per trial). Each trial is `ScenarioBuilder::build` →
//! `sharded_observations` → `run_trial_observations` over one pre-warmed
//! `ContextCache`.

use std::time::Instant;

use netcorr_core::{AlgorithmConfig, ContextCache};
use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::metrics::{absolute_errors, potentially_congested_links, ErrorSummary};
use netcorr_eval::runner::{run_trial_observations, sharded_observations, ExperimentConfig};
use netcorr_eval::scenario::{ScenarioBuilder, ScenarioConfig};
use netcorr_measure::ProbabilityEstimator;
use netcorr_sim::Simulator;
use netcorr_topology::TopologyInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::daemon;
use crate::host;
use crate::inputs::TOPOLOGY_SEED;
use crate::replay::OUTSIDE_STREAM;
use crate::stats::{median, percentile, Op};
use crate::trace::{Span, Tracer};
use crate::workloads::{end_to_end, input_metrics, trace_footer};
use crate::{Args, Outcome};

/// Snapshots per offline trial (the paper's setting).
const TRIAL_SNAPSHOTS: usize = 800;
/// Trials in the traced `offline-trials` run.
const TRACE_TRIALS: usize = 3;
/// `offline-trials` cycles through this many congestion scenarios, drawn
/// once from a fixed seed like the topology; the workload seed draws
/// each trial's measurements. A scenario fixes which links congest and
/// so how long the L1 solves run (trials differ by up to 2x), so seeded
/// scenarios would make the run's cost a draw of the seed rather than
/// of the build.
const SCENARIO_POOL: usize = 4;
// The timed run's first pass holds the traced run's trials.
const _: () = assert!(TRACE_TRIALS <= SCENARIO_POOL);
/// Seed of the scenario pool.
const SCENARIO_POOL_SEED: u64 = 2010;

/// Everything a trial's inference needs, built once per set-up.
struct OfflineSetup {
    base: TopologyInstance,
    contexts: ContextCache,
}

/// The paper-scale base instance and both arms' inference contexts,
/// with each context build a span when traced.
fn offline_setup(mut tracer: Option<&mut Tracer>) -> Result<OfflineSetup, String> {
    let base = base_instance(TopologyFamily::Brite, Scale::Paper, TOPOLOGY_SEED)
        .map_err(|e| e.to_string())?;
    let contexts = ContextCache::new();
    for respect_correlation in [true, false] {
        let mut config = AlgorithmConfig::default();
        config.equations.respect_correlation = respect_correlation;
        let build = || contexts.context(&base, &config);
        let built = match tracer.as_deref_mut() {
            Some(tracer) => {
                tracer
                    .span(None, OUTSIDE_STREAM, "context", "build", build)
                    .1
            }
            None => build(),
        };
        built.map_err(|e| e.to_string())?;
    }
    Ok(OfflineSetup { base, contexts })
}

fn trial_config() -> ExperimentConfig {
    ExperimentConfig {
        snapshots: TRIAL_SNAPSHOTS,
        trials: 1,
        parallel: false,
        shards: 1,
        ..ExperimentConfig::default()
    }
}

/// Trial `i`'s measurement seed: distinct across workload seeds and
/// trials.
fn trial_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)
}

/// One trial's errors: `(correlation, independence)`.
type TrialErrors = (Vec<f64>, Vec<f64>);

/// One trial through the runner's public path: scenario → measurement →
/// both inferences. With a tracer, each step is a span under one trial
/// span and the inference is replayed decomposed under the runner span.
fn trial(
    setup: &OfflineSetup,
    seed: u64,
    i: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<(TrialErrors, Option<TrialErrors>), String> {
    let config = trial_config();
    let scenario_seed = trial_seed(SCENARIO_POOL_SEED, i % SCENARIO_POOL);
    let trial_seed = trial_seed(seed, i);
    let open =
        |tracer: &mut Option<&mut Tracer>,
         parent: Option<usize>,
         layer: &'static str,
         name: &'static str| { tracer.as_mut().map(|t| t.open(parent, i, layer, name)) };
    let close = |tracer: &mut Option<&mut Tracer>, id: Option<usize>| {
        if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
            t.close(id);
        }
    };
    let root = open(&mut tracer, None, "runner", "trial");
    let span = open(&mut tracer, root, "scenario", "build");
    let scenario = ScenarioBuilder::new(ScenarioConfig::default())
        .and_then(|b| b.build(&setup.base, &mut StdRng::seed_from_u64(scenario_seed)))
        .map_err(|e| e.to_string())?;
    close(&mut tracer, span);
    let span = open(&mut tracer, root, "sim", "run");
    let simulator = Simulator::new(&scenario.instance, &scenario.model, config.simulation)
        .map_err(|e| e.to_string())?;
    let observations =
        sharded_observations(&simulator, config.snapshots, trial_seed, config.shards);
    close(&mut tracer, span);
    let runner = open(&mut tracer, root, "runner", "infer");
    let result = run_trial_observations(&scenario, &config, &observations, &setup.contexts)
        .map_err(|e| e.to_string())?;
    close(&mut tracer, runner);
    close(&mut tracer, root);
    let plain = (result.correlation_errors, result.independence_errors);
    let Some(tracer) = tracer else {
        return Ok((plain, None));
    };

    // The inference again, one layer object per stage.
    let mut arms = Vec::new();
    for respect_correlation in [true, false] {
        let mut arm = config.algorithm;
        arm.equations.respect_correlation = respect_correlation;
        let context = setup
            .contexts
            .context(&scenario.instance, &arm)
            .map_err(|e| e.to_string())?;
        let (_, rhs) = tracer.span(runner, i, "equations", "rhs", || {
            ProbabilityEstimator::new(&observations)
                .map_err(|e| e.to_string())
                .and_then(|estimator| context.rhs(&estimator).map_err(|e| e.to_string()))
        });
        let rhs = rhs?;
        let (_, solved) = tracer.span(runner, i, "context", "solve", || {
            context.reinfer(&rhs, None)
        });
        arms.push(solved.map_err(|e| e.to_string())?.0);
    }
    let (_, scored) = tracer.span(runner, i, "metrics", "score", || {
        let links = potentially_congested_links(&scenario.instance, &observations);
        (
            absolute_errors(&arms[0], &scenario.true_marginals, &links),
            absolute_errors(&arms[1], &scenario.true_marginals, &links),
        )
    });
    Ok((plain, Some(scored)))
}

/// The bits of both arms' pooled error summaries over `trials`.
fn pooled_summary(trials: &[TrialErrors]) -> Vec<u64> {
    let corr: Vec<f64> = trials.iter().flat_map(|t| t.0.iter().copied()).collect();
    let indep: Vec<f64> = trials.iter().flat_map(|t| t.1.iter().copied()).collect();
    [summary_bits(&corr), summary_bits(&indep)].concat()
}

fn summary_bits(errors: &[f64]) -> [u64; 5] {
    let s = ErrorSummary::from_errors(errors);
    [
        s.count as u64,
        s.mean.to_bits(),
        s.median.to_bits(),
        s.p90.to_bits(),
        s.max.to_bits(),
    ]
}

/// The first `TRACE_TRIALS` trials of `seed` as the traced run makes
/// them: each through the runner under spans, then replayed decomposed.
/// Returns the runner's errors and the decomposed replay's.
fn traced_trials(
    setup: &OfflineSetup,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Vec<TrialErrors>, Vec<TrialErrors>), String> {
    let (mut plain, mut staged) = (Vec::new(), Vec::new());
    for i in 0..TRACE_TRIALS {
        let (errors, replayed) = trial(setup, seed, i, Some(tracer))?;
        plain.push(errors);
        staged.extend(replayed);
    }
    Ok((plain, staged))
}

pub fn offline_trials(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut tracer = Tracer::default();
    let (setup, setup_s, scale) = host::timed(|| offline_setup(args.trace.then_some(&mut tracer)));
    let mut setup = setup?;
    setups.push(setup_s * scale);
    out.info("topology", "brite-paper");
    out.info("paths", setup.base.num_paths());
    out.info("links", setup.base.num_links());
    out.info("transport", "in-process");
    out.info("history_fs", "none");
    out.info("trial_snapshots", TRIAL_SNAPSHOTS);
    {
        let context = setup
            .contexts
            .context(&setup.base, &AlgorithmConfig::default())
            .map_err(|e| e.to_string())?;
        out.info("equations", context.structure().num_equations());
        out.info("solver", format!("{:?}", context.solver_kind()));
    }

    if args.trace {
        let (plain, staged) = traced_trials(&setup, args.seed, &mut tracer)?;
        for _ in &plain {
            out.op(true);
        }
        out.check(
            "pooled_error_summary_bit_identical_plain_vs_decomposed",
            pooled_summary(&plain) == pooled_summary(&staged),
            format!("{} trials", plain.len()),
        );
        let is_trial = |s: &Span| s.parent.is_none() && s.name == "trial";
        out.metric(
            "runner.infer_ms",
            median(&tracer.durations("runner", "infer")) / 1e3,
            "ms",
        );
        out.metric(
            "runner.contexts_built",
            setup.contexts.len() as f64,
            "count",
        );
        let context_builds = tracer.durations("context", "build");
        out.metric(
            "context.build_ms",
            context_builds.iter().sum::<f64>() / 1e3,
            "ms",
        );
        let solves = tracer.durations("context", "solve");
        out.metric("context.solve_p50_us", median(&solves), "us");
        out.metric("context.solve_p90_us", percentile(&solves, 0.9), "us");
        out.metric(
            "equations.rhs_us",
            median(&tracer.durations("equations", "rhs")),
            "us",
        );
        input_metrics(out, &tracer, TRACE_TRIALS * TRIAL_SNAPSHOTS);
        for (layer, total) in tracer.self_time_by_layer(is_trial) {
            out.metric(
                &format!("self.{layer}_us"),
                total / TRACE_TRIALS as f64,
                "us",
            );
        }
        if let Some(coverage) = tracer.coverage(is_trial) {
            out.metric("trace.coverage", coverage, "ratio");
            out.metric("trace.coverage.trial", coverage, "ratio");
        }
        return trace_footer(args, out, &tracer, is_trial);
    }

    // A window is one pass over the scenario pool, so every window holds
    // the same trials' work. The run makes at least one pass, which holds
    // the traced run's trials.
    let mut ops = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut pooled: Vec<TrialErrors> = Vec::new();
    while ops.is_empty() || Instant::now() < deadline || ops.len() % SCENARIO_POOL != 0 {
        let (errors, took_s, scale) = host::timed(|| trial(&setup, args.seed, ops.len(), None));
        let (errors, _) = errors?;
        ops.push(Op {
            window: ops.len() / SCENARIO_POOL,
            latency_us: took_s * 1e6,
            busy_s: took_s,
            scale,
        });
        out.op(true);
        pooled.push(errors);
        if ops.len() % SCENARIO_POOL == 0 {
            // A fresh set-up between passes, so the samples spread over
            // the run. The old one goes first: only one set-up is ever
            // alive, and the peak RSS is one set-up plus the trials.
            out.check(
                "contexts_built_once",
                setup.contexts.len() == 2,
                format!("{} contexts cached", setup.contexts.len()),
            );
            drop(setup);
            let (fresh, setup_s, scale) = host::timed(|| offline_setup(None));
            setup = fresh?;
            setups.push(setup_s * scale);
        }
    }
    let rss = daemon::peak_rss_mb("/proc/self/status").unwrap_or(f64::NAN);
    // The traced run's first trials, made here the way it makes them:
    // its pooled summary, runner and decomposed alike, must equal the
    // timed run's over the same trials.
    let (plain, staged) = traced_trials(&setup, args.seed, &mut Tracer::default())?;
    let timed = pooled_summary(&pooled[..TRACE_TRIALS]);
    out.check(
        "pooled_error_summary_bit_identical_timed_vs_traced",
        timed == pooled_summary(&plain) && timed == pooled_summary(&staged),
        format!("first {TRACE_TRIALS} trials"),
    );
    end_to_end(out, &setups, &ops, rss);
    Ok(())
}
