//! The daemon workloads' request stream, and its in-process replay for
//! the traced run.
//!
//! The replay sends every request of the stream to three twins built
//! from the same topology and configuration as the daemon:
//!
//! * the **protocol twin**, a [`TomographyService`] driven through
//!   [`protocol::execute`] — the parent span of the request;
//! * the **service twin**, a second [`TomographyService`] called
//!   directly (`ingest_block`, `reinfer`, the query accessors) — the
//!   child span, beside a span around `protocol::Request::parse`;
//! * the **decomposed twin**, built from the layer objects the service
//!   wraps, so each stage is its own span: decode → payload / encode /
//!   write → push for `OBS`, rhs → solve for `INFER`. A query's leaf is
//!   the service accessor itself.
//!
//! All three evolve identically, so their spans time the same work one
//! layer further down each time. Every span times the program's own
//! public calls; what `execute` spends outside them (reading the body,
//! formatting the reply) is the protocol's self time.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use netcorr_core::equations::IncrementalEquationBuilder;
use netcorr_core::{AlgorithmConfig, InferenceContext, TomographyEstimate};
use netcorr_eval::persist;
use netcorr_measure::{PathObservations, StreamingEstimator};
use netcorr_serve::{protocol, ClientError, TomographyService};
use netcorr_topology::TopologyInstance;

use crate::daemon::Session;
use crate::inputs::Query;
use crate::trace::Tracer;

/// The request kinds the traced run reports separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `OBS`.
    Obs,
    /// `INFER`.
    Infer,
    /// Any read-only query (`PROB`, `STATE`, `PROBS`, `STATUS`).
    Query,
}

impl Kind {
    /// Lower-case name used in metric names.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Obs => "obs",
            Kind::Infer => "infer",
            Kind::Query => "query",
        }
    }
}

/// One request of a daemon workload.
#[derive(Debug, Clone)]
pub enum Request {
    /// `OBS` carrying a raw v3 block of `snapshots` snapshots.
    Obs {
        /// The v3 wire-format block.
        block: Vec<u8>,
        /// Snapshots in the block.
        snapshots: usize,
    },
    /// `INFER`.
    Infer,
    /// A read-only query.
    Query(Query),
}

impl Request {
    /// The `OBS` request for `observations`.
    pub fn obs(observations: &PathObservations) -> Request {
        Request::Obs {
            block: observations.to_binary(),
            snapshots: observations.num_snapshots(),
        }
    }

    /// Its kind.
    pub fn kind(&self) -> Kind {
        match self {
            Request::Obs { .. } => Kind::Obs,
            Request::Infer => Kind::Infer,
            Request::Query(_) => Kind::Query,
        }
    }
}

/// What a request's reply carried, for the workloads' checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `OBS`: `(ingested, total snapshots)`.
    Ingested(usize, usize),
    /// `INFER`: `(snapshots, stale)`.
    Inferred(usize, bool),
    /// `PROB`.
    Prob(f64),
    /// `STATE`: `(congested, probability)`.
    State(bool, f64),
    /// `PROBS`: `(stale, probabilities)`.
    Probs(bool, Vec<f64>),
    /// `STATUS`: `(snapshots, reinfers)`.
    Status(usize, u64),
}

/// Sends one request on the daemon session and parses its reply.
pub fn send(session: &mut Session, request: &Request) -> Result<Answer, ClientError> {
    Ok(match request {
        Request::Obs { block, .. } => {
            let (ingested, total) = session.ingest_raw_block(block)?;
            Answer::Ingested(ingested, total)
        }
        Request::Infer => {
            let reply = session.infer()?;
            Answer::Inferred(reply.snapshots, reply.stale)
        }
        Request::Query(Query::Prob(link)) => Answer::Prob(session.probability(*link)?),
        Request::Query(Query::State(link, threshold)) => {
            let (congested, p) = session.link_state(*link, *threshold)?;
            Answer::State(congested, p)
        }
        Request::Query(Query::Probs) => {
            let (stale, probs) = session.probabilities_flagged()?;
            Answer::Probs(stale, probs)
        }
        Request::Query(Query::Status) => {
            let status = session.status()?;
            Answer::Status(status.num_snapshots, status.reinfers)
        }
    })
}

/// Checks the reply to `request` against the expected probabilities
/// (bit for bit) and the expected snapshot count.
pub fn answer_ok(request: &Request, answer: &Answer, expected: &[f64], snapshots: usize) -> bool {
    let expected_bits =
        |link: usize, p: f64| expected.get(link).map(|e| e.to_bits()) == Some(p.to_bits());
    match (request, answer) {
        (
            Request::Obs {
                snapshots: sent, ..
            },
            Answer::Ingested(ingested, total),
        ) => ingested == sent && *total == snapshots,
        (Request::Infer, Answer::Inferred(n, stale)) => *n == snapshots && !stale,
        (Request::Query(Query::Prob(link)), Answer::Prob(p)) => expected_bits(*link, *p),
        (Request::Query(Query::State(link, t)), Answer::State(congested, p)) => {
            expected_bits(*link, *p)
                && *congested == (*p > t.unwrap_or(protocol::DEFAULT_STATE_THRESHOLD))
        }
        (Request::Query(Query::Probs), Answer::Probs(stale, probs)) => {
            !stale
                && probs.len() == expected.len()
                && probs
                    .iter()
                    .enumerate()
                    .all(|(link, p)| expected_bits(link, *p))
        }
        (Request::Query(Query::Status), Answer::Status(n, _)) => *n == snapshots,
        _ => false,
    }
}

/// History files for the three twins (history-ingest only).
pub struct TwinHistories {
    /// The protocol twin's file.
    pub protocol: PathBuf,
    /// The service twin's file.
    pub service: PathBuf,
    /// The decomposed twin's file.
    pub stages: PathBuf,
}

/// The decomposed twin: the layer objects a [`TomographyService`] wraps.
struct Stages {
    context: InferenceContext,
    builder: IncrementalEquationBuilder,
    estimator: StreamingEstimator,
    last_solution: Option<Vec<f64>>,
    estimate: Option<TomographyEstimate>,
    history: Option<(PathBuf, u64)>,
}

/// The three twins and the span recorder.
pub struct Replay {
    /// Spans recorded so far (setup spans first).
    pub tracer: Tracer,
    /// Kind of every replayed request, indexed by request id.
    pub kinds: Vec<Kind>,
    /// History file size after each replayed `OBS` ack (bytes).
    pub acked_bytes: Vec<f64>,
    protocol: TomographyService,
    service: TomographyService,
    stages: Stages,
    failures: Vec<String>,
}

/// Request id of spans recorded outside the stream (setup, probes).
pub const OUTSIDE_STREAM: usize = usize::MAX;

impl Replay {
    /// Builds the twins, recording into `tracer`. With `histories`,
    /// each twin recovers and attaches its own copy of the seeded history
    /// file; the decomposed twin's context build, recovery and attach are
    /// recorded as spans.
    pub fn new(
        instance: &TopologyInstance,
        config: &AlgorithmConfig,
        histories: Option<&TwinHistories>,
        mut tracer: Tracer,
    ) -> Result<Replay, String> {
        let mut protocol = TomographyService::new(instance, config).map_err(|e| e.to_string())?;
        let mut service = TomographyService::new(instance, config).map_err(|e| e.to_string())?;
        let (_, context) = tracer.span(None, OUTSIDE_STREAM, "context", "build", || {
            InferenceContext::new(instance, config)
        });
        let context = context.map_err(|e| e.to_string())?;
        let mut estimator = StreamingEstimator::new(instance.num_paths());
        let builder = IncrementalEquationBuilder::new(instance, &mut estimator, &config.equations)
            .map_err(|e| e.to_string())?;
        let mut history = None;
        if let Some(files) = histories {
            protocol
                .enable_history(&files.protocol)
                .map_err(|e| e.to_string())?;
            service
                .enable_history(&files.service)
                .map_err(|e| e.to_string())?;
            let (_, recovery) = tracer.span(None, OUTSIDE_STREAM, "persist", "recover", || {
                persist::recover_history(&files.stages)
            });
            let recovery = recovery.map_err(|e| e.to_string())?;
            if let Some(payload_len) = recovery.payload_len {
                let (_, attached) = tracer.span(None, OUTSIDE_STREAM, "measure", "attach", || {
                    persist::map_observations_prefix(&files.stages, payload_len)
                        .map_err(|e| e.to_string())
                        .and_then(|mapped| {
                            estimator.attach_history(mapped).map_err(|e| e.to_string())
                        })
                });
                attached?;
            }
            history = Some((files.stages.clone(), recovery.generation));
        }
        Ok(Replay {
            tracer,
            kinds: Vec::new(),
            acked_bytes: Vec::new(),
            protocol,
            service,
            stages: Stages {
                context,
                builder,
                estimator,
                last_solution: None,
                estimate: None,
                history,
            },
            failures: Vec::new(),
        })
    }

    /// Replays one request of the stream on all three twins.
    pub fn request(&mut self, request: &Request) {
        let id = self.kinds.len();
        self.kinds.push(request.kind());
        let tracer = &mut self.tracer;
        let line = match request {
            Request::Obs { block, .. } => format!("OBS {}", block.len()),
            Request::Infer => "INFER".to_string(),
            Request::Query(query) => query.line(),
        };
        let body: &[u8] = match request {
            Request::Obs { block, .. } => block,
            _ => &[],
        };
        let protocol = &mut self.protocol;
        let (root, reply) = tracer.span(None, id, "protocol", "execute", || {
            protocol::execute(protocol, &line, &mut &body[..])
        });
        if !reply.text.starts_with("OK") {
            self.failures
                .push(format!("protocol twin: {line} -> {}", reply.text));
        }
        // The line parse is the one public step of `execute` besides the
        // service call; formatting the reply has no entry point of its
        // own and stays in the protocol's self time.
        let (_, parsed) = tracer.span(Some(root), id, "protocol", "parse", || {
            protocol::Request::parse(black_box(&line))
        });
        if let Err(e) = parsed {
            self.failures.push(format!("parse {line}: {e}"));
        }
        let service = &mut self.service;
        let stages = &mut self.stages;
        let failed = match request {
            Request::Obs { block, .. } => {
                let (parent, ingested) =
                    tracer.span(Some(root), id, "service", "ingest_block", || {
                        service.ingest_block(block)
                    });
                let staged = stages.ingest(tracer, parent, id, block);
                if let Ok(Some(bytes)) = &staged {
                    self.acked_bytes.push(*bytes as f64);
                }
                ingested.err().map(|e| e.to_string()).or(staged.err())
            }
            Request::Infer => {
                let (parent, reinferred) =
                    tracer.span(Some(root), id, "service", "reinfer", || {
                        service.reinfer().map(|_| ())
                    });
                let staged = stages.reinfer(tracer, parent, id);
                reinferred.err().map(|e| e.to_string()).or(staged.err())
            }
            Request::Query(query) => {
                let (_, answered) =
                    tracer.span(Some(root), id, "service", "query", || match query {
                        Query::Prob(link) => service.probability(*link).map(black_box),
                        Query::State(link, t) => service
                            .link_state(*link, t.unwrap_or(protocol::DEFAULT_STATE_THRESHOLD))
                            .map(|s| black_box(s).1),
                        Query::Probs => service.probabilities().map(|p| black_box(p)[0]),
                        Query::Status => Ok(black_box(service.status()).num_links as f64),
                    });
                answered.err().map(|e| e.to_string())
            }
        };
        if let Some(message) = failed {
            self.failures.push(format!("{line}: {message}"));
        }
    }

    /// Times `count` executions of `line` on the protocol twin, outside
    /// the stream (read-only verbs only).
    pub fn probe(&mut self, line: &str, name: &'static str, count: usize) {
        for _ in 0..count {
            let protocol = &mut self.protocol;
            let (_, reply) = self.tracer.span(None, OUTSIDE_STREAM, "probe", name, || {
                protocol::execute(protocol, line, &mut std::io::empty())
            });
            if !reply.text.starts_with("OK") {
                self.failures.push(format!("probe {line}: {}", reply.text));
            }
        }
    }

    /// The twins' latest probabilities, if all three agree bit for bit.
    pub fn agreed_probabilities(&self) -> Result<Vec<f64>, String> {
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let protocol = self.protocol.probabilities().map_err(|e| e.to_string())?;
        let service = self.service.probabilities().map_err(|e| e.to_string())?;
        let stages = self
            .stages
            .estimate
            .as_ref()
            .ok_or("the decomposed twin has no estimate")?
            .probabilities();
        if bits(protocol) == bits(service) && bits(service) == bits(stages) {
            Ok(protocol.to_vec())
        } else {
            Err("the replay twins disagree".into())
        }
    }

    /// Failures seen while replaying (empty on a clean replay).
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

impl Stages {
    /// decode → (payload → encode → write) → push, mirroring
    /// `TomographyService::ingest_block`. Returns the history file size
    /// after the ack, when persistence is on.
    fn ingest(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        id: usize,
        bytes: &[u8],
    ) -> Result<Option<usize>, String> {
        let (_, block) = tracer.span(Some(parent), id, "measure", "decode", || {
            PathObservations::from_binary(bytes)
        });
        let block = block.map_err(|e| e.to_string())?;
        let mut file_bytes = None;
        if let Some((path, generation)) = &mut self.history {
            let estimator = &self.estimator;
            let (_, payload) = tracer.span(Some(parent), id, "persist", "payload", || {
                let mut delta = estimator.observations().clone();
                delta.concat(&block).map_err(|e| e.to_string())?;
                match estimator.base() {
                    Some(base) => base.view().merged_binary(&delta).map_err(|e| e.to_string()),
                    None => Ok(delta.to_binary()),
                }
            });
            let payload = payload?;
            let (_, sealed) = tracer.span(Some(parent), id, "persist", "encode", || {
                persist::encode_history(&payload, *generation + 1)
            });
            let (_, written) = tracer.span(Some(parent), id, "persist", "write", || {
                write_generation(path, &sealed)
            });
            written?;
            *generation += 1;
            file_bytes = Some(sealed.len());
        }
        let estimator = &mut self.estimator;
        let (_, pushed) = tracer.span(Some(parent), id, "measure", "push", || {
            block
                .snapshots()
                .try_for_each(|snapshot| estimator.push_snapshot(&snapshot))
        });
        pushed.map_err(|e| e.to_string())?;
        Ok(file_bytes)
    }

    /// rhs → solve, mirroring `TomographyService::reinfer`.
    fn reinfer(&mut self, tracer: &mut Tracer, parent: usize, id: usize) -> Result<(), String> {
        let (builder, estimator) = (&self.builder, &self.estimator);
        let (_, rhs) = tracer.span(Some(parent), id, "equations", "rhs", || {
            builder.rhs(estimator)
        });
        let rhs = rhs.map_err(|e| e.to_string())?;
        let (context, warm) = (&self.context, self.last_solution.as_deref());
        let (_, solved) = tracer.span(Some(parent), id, "context", "solve", || {
            context.reinfer(&rhs, warm)
        });
        let (estimate, x) = solved.map_err(|e| e.to_string())?;
        self.estimate = Some(estimate);
        self.last_solution = Some(x);
        Ok(())
    }
}

/// Rotates the current generation to `.prev` and writes the next one,
/// as the service's history writer does.
fn write_generation(path: &Path, sealed: &[u8]) -> Result<(), String> {
    if path.exists() {
        std::fs::rename(path, persist::history_prev_path(path)).map_err(|e| e.to_string())?;
    }
    persist::atomic_write(path, sealed).map_err(|e| e.to_string())
}
