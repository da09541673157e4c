//! Seeded workload inputs.
//!
//! Every input a workload sends is a pure function of the workload seed:
//! the simulated observation stream (per-snapshot seeding, so any range
//! of the stream can be generated on demand and equals the same range of
//! one long run) and the read-only query mix. The topology
//! ([`TOPOLOGY_SEED`]) and the congestion scenario on it
//! ([`SCENARIO_SEED`]) are fixed: they are the deployment the daemon
//! serves, while the seed varies the traffic. The scenario decides which
//! links congest and so how long each L1 solve runs (up to ±11% between
//! scenarios at equal host speed), so a seeded scenario would make a
//! run's cost a draw of the seed rather than of the build.

use std::ops::Range;

use netcorr_eval::scenario::{CongestionScenario, ScenarioBuilder, ScenarioConfig};
use netcorr_measure::PathObservations;
use netcorr_sim::{SimulationConfig, Simulator};
use netcorr_topology::TopologyInstance;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The `--topology-seed` every daemon workload passes; the benchmark
/// rebuilds the identical instance in process for its offline
/// comparators and replay twins.
pub const TOPOLOGY_SEED: u64 = 42;

/// Seed of the congestion scenario every daemon workload serves.
pub const SCENARIO_SEED: u64 = 2010;
const STREAM_SALT: u64 = 0x0b5e_57a3;
const QUERY_SALT: u64 = 0x9e7a_11c5;

/// The fixed congestion scenario on a fixed topology, and the seeded
/// observation stream it produces.
pub struct ObservationSource {
    scenario: CongestionScenario,
    stream_seed: u64,
}

impl ObservationSource {
    /// The source on `base`, its stream drawn from the workload `seed`.
    pub fn on(base: &TopologyInstance, seed: u64) -> Result<Self, String> {
        let scenario = ScenarioBuilder::new(ScenarioConfig::default())
            .and_then(|b| b.build(base, &mut StdRng::seed_from_u64(SCENARIO_SEED)))
            .map_err(|e| e.to_string())?;
        Ok(ObservationSource {
            scenario,
            stream_seed: seed ^ STREAM_SALT,
        })
    }

    /// Snapshots `range` of the stream.
    pub fn snapshots(&self, range: Range<usize>) -> PathObservations {
        Simulator::new(
            &self.scenario.instance,
            &self.scenario.model,
            SimulationConfig::default(),
        )
        .expect("the scenario model covers its own instance")
        .run_range(range, self.stream_seed)
    }
}

/// Snapshots `range` of `observations` as their own block.
pub fn slice(observations: &PathObservations, range: Range<usize>) -> PathObservations {
    let mut block = PathObservations::with_capacity(observations.num_paths(), range.len());
    for i in range {
        block
            .record_snapshot(&observations.snapshot(i))
            .expect("same path count");
    }
    block
}

/// One read-only request of the `query-tcp` mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `PROB <link>`.
    Prob(usize),
    /// `STATE <link> [threshold]`.
    State(usize, Option<f64>),
    /// `PROBS`.
    Probs,
    /// `STATUS`.
    Status,
}

impl Query {
    /// The request line as the wire carries it.
    pub fn line(&self) -> String {
        match self {
            Query::Prob(link) => format!("PROB {link}"),
            Query::State(link, None) => format!("STATE {link}"),
            Query::State(link, Some(t)) => format!("STATE {link} {t}"),
            Query::Probs => "PROBS".to_string(),
            Query::Status => "STATUS".to_string(),
        }
    }

    /// Lower-case verb name used in metric names.
    pub fn verb(&self) -> &'static str {
        match self {
            Query::Prob(_) => "prob",
            Query::State(..) => "state",
            Query::Probs => "probs",
            Query::Status => "status",
        }
    }
}

/// An endless seeded query mix over `num_links` links: 40% `PROB`,
/// 30% `STATE` (a third with an explicit threshold), 20% `PROBS`,
/// 10% `STATUS`. The weights are an assumption, not taken from any
/// recorded query log; per-verb latencies are reported beside the mix's
/// so a result does not hinge on them.
pub struct QueryMix {
    rng: StdRng,
    num_links: usize,
}

impl QueryMix {
    /// The mix for workload `seed`.
    pub fn new(seed: u64, num_links: usize) -> Self {
        QueryMix {
            rng: StdRng::seed_from_u64(seed ^ QUERY_SALT),
            num_links,
        }
    }
}

impl Iterator for QueryMix {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let roll = self.rng.random_range(0..10u32);
        let link = self.rng.random_range(0..self.num_links);
        Some(match roll {
            0..=3 => Query::Prob(link),
            4..=6 => {
                let threshold =
                    (roll == 6).then(|| f64::from(self.rng.random_range(1..20u32)) / 20.0);
                Query::State(link, threshold)
            }
            7 | 8 => Query::Probs,
            _ => Query::Status,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
    use netcorr_serve::protocol::frame_observations;

    fn smoke(family: TopologyFamily, seed: u64) -> ObservationSource {
        let base = base_instance(family, Scale::Smoke, TOPOLOGY_SEED).unwrap();
        ObservationSource::on(&base, seed).unwrap()
    }

    fn framed_stream(seed: u64) -> Vec<u8> {
        let source = smoke(TopologyFamily::PlanetLab, seed);
        let mut bytes = frame_observations(&source.snapshots(0..512));
        for i in 512..520 {
            bytes.extend(frame_observations(&source.snapshots(i..i + 1)));
        }
        bytes
    }

    #[test]
    fn same_seed_gives_byte_identical_obs_streams() {
        assert_eq!(framed_stream(3), framed_stream(3));
        assert_ne!(framed_stream(3), framed_stream(4));
    }

    #[test]
    fn on_demand_ranges_equal_one_long_run() {
        let source = smoke(TopologyFamily::Brite, 9);
        let long = source.snapshots(0..200);
        let mut pieces = source.snapshots(0..70);
        pieces.concat(&source.snapshots(70..200)).unwrap();
        assert_eq!(long.to_binary(), pieces.to_binary());
        assert_eq!(
            slice(&long, 10..20).to_binary(),
            source.snapshots(10..20).to_binary()
        );
    }

    #[test]
    fn same_seed_gives_identical_query_mixes() {
        let a: Vec<String> = QueryMix::new(5, 40).take(500).map(|q| q.line()).collect();
        let b: Vec<String> = QueryMix::new(5, 40).take(500).map(|q| q.line()).collect();
        let c: Vec<String> = QueryMix::new(6, 40).take(500).map(|q| q.line()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for verb in ["PROB ", "STATE ", "PROBS", "STATUS"] {
            assert!(
                a.iter().any(|line| line.starts_with(verb)),
                "mix lacks {verb}"
            );
        }
    }
}
