//! The four workloads, each as a timed run (`--trace 0`, end-to-end
//! metrics) and a traced run (`--trace 1`, per-layer metrics).
//!
//! The daemon workloads drive the real `netcorr-serve` binary through
//! one closed-loop client session: the daemon serializes every request
//! behind one service mutex, so a second client would time lock waits
//! and the scheduler instead of the daemon. `offline-trials` (in
//! [`crate::offline`]) calls the evaluation runner in process.

use std::collections::BTreeMap;
use std::time::Instant;

use netcorr_core::{AlgorithmConfig, InferenceContext};
use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::persist;
use netcorr_measure::bitset::simd;
use netcorr_measure::PathObservations;
use netcorr_serve::ClientError;
use netcorr_topology::TopologyInstance;

use crate::daemon::{self, DaemonSpec, Session, Transport};
use crate::host;
use crate::inputs::{self, ObservationSource, Query, QueryMix, TOPOLOGY_SEED};
use crate::replay::{self, Answer, Kind, Replay, Request, TwinHistories, OUTSIDE_STREAM};
use crate::stats::{mean, median, percentile, typical_window, Op};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Snapshots in the untimed head block of `live-refresh` and `query-tcp`.
const HEAD_SNAPSHOTS: usize = 512;
/// Daemon starts timed for `setup_s` before the session's own start;
/// the timed loops add one more at the start of every window, so the
/// set-up samples spread over the whole run.
const SETUP_REPEATS: usize = 2;
/// Length of the windows a daemon run's operations are grouped into.
const WINDOW_S: f64 = 1.0;
/// `live-refresh` rounds in the traced run.
const TRACE_ROUNDS: usize = 300;
/// `query-tcp` queries in the traced run.
const TRACE_QUERIES: usize = 100;
/// Requests of the stream a throwaway set of twins replays first.
const WARMUP_REQUESTS: usize = 16;
/// `PING`s timed on the traced run's session.
const PINGS: usize = 32;
/// Executions of each read-only verb timed on the protocol twin.
const PROBES: usize = 64;
/// Snapshots in the history file `history-ingest` seeds.
const HISTORY_SNAPSHOTS: usize = 4096;
/// Snapshots per `history-ingest` block.
const INGEST_BLOCK: usize = 8;
/// `OBS` blocks per `history-ingest` session: a fixed count, so every
/// session writes the same sequence of file lengths.
const INGESTS_PER_SESSION: usize = 256;
/// `history-ingest` sends one `INFER` after every this many blocks.
const INFER_EVERY: usize = 32;

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.info("workload", &args.workload);
    out.info("seed", args.seed);
    out.info("trace", u8::from(args.trace));
    out.info("kernel", simd::active_tier().as_str());
    // The machine's CPUs; the run itself is pinned to one of them.
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    out.info(
        "nproc",
        cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count(),
    );
    out.info(
        "cpus_allowed",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    match args.workload.as_str() {
        "live-refresh" => live_refresh(args, &mut out)?,
        "history-ingest" => history_ingest(args, &mut out)?,
        "query-tcp" => query_tcp(args, &mut out)?,
        "offline-trials" => crate::offline::offline_trials(args, &mut out)?,
        other => return Err(format!("unknown workload {other}")),
    }
    if !args.trace {
        let ok_ratio = out.ok_ratio();
        out.metric("ok_ratio", ok_ratio, "ratio");
    }
    Ok(out)
}

pub(crate) fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn smoke_base(family: TopologyFamily) -> Result<TopologyInstance, String> {
    base_instance(family, Scale::Smoke, TOPOLOGY_SEED).map_err(|e| e.to_string())
}

/// Sends `request`, counting an `ERR` reply as a failed operation; a
/// transport failure aborts the run.
fn exchange(session: &mut Session, request: &Request) -> Result<Option<Answer>, String> {
    match replay::send(session, request) {
        Ok(answer) => Ok(Some(answer)),
        Err(e @ (ClientError::Io(_) | ClientError::Timeout(_))) => {
            Err(format!("session lost: {e}"))
        }
        Err(_) => Ok(None),
    }
}

/// Sends `request` and records whether its reply checks out.
fn checked(
    out: &mut Outcome,
    session: &mut Session,
    request: &Request,
    expected: &[f64],
    snapshots: usize,
) -> Result<Option<Answer>, String> {
    let answer = exchange(session, request)?;
    out.op(answer
        .as_ref()
        .is_some_and(|a| replay::answer_ok(request, a, expected, snapshots)));
    Ok(answer)
}

/// Starts a daemon like `spec`'s; its set-up time comes host-scaled.
fn start_scaled(spec: &DaemonSpec<'_>) -> Result<(daemon::Daemon, Session, f64), String> {
    let scale = host::scale_now(host::SAMPLES);
    let (daemon, session, setup_s) = daemon::start(spec)?;
    Ok((daemon, session, setup_s * scale))
}

/// Times one start of a second daemon like `spec`'s (on its own
/// socket), and shuts it down again.
fn time_setup(spec: &DaemonSpec<'_>, out: &mut Outcome) -> Result<f64, String> {
    let spec = DaemonSpec {
        socket: spec.socket.with_extension("setup.sock"),
        ..spec.clone()
    };
    let (daemon, session, setup_s) = start_scaled(&spec)?;
    let stopped = daemon.shutdown(session);
    out.check("setup_daemon_shutdown", stopped, "SHUTDOWN acked, exit 0");
    Ok(setup_s)
}

/// Times `SETUP_REPEATS` daemon starts, then starts the session's
/// daemon. Returns it with every set-up sample.
fn start_daemon(
    spec: &DaemonSpec<'_>,
    out: &mut Outcome,
) -> Result<(daemon::Daemon, Session, Vec<f64>), String> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        setups.push(time_setup(spec, out)?);
    }
    let (daemon, mut session, setup_s) = start_scaled(spec)?;
    setups.push(setup_s);
    let status = session.status().map_err(|e| e.to_string())?;
    out.info("transport", spec.transport.as_str());
    out.info("topology", spec.topology);
    out.info("paths", status.num_paths);
    out.info("links", status.num_links);
    out.info("equations", status.num_equations);
    out.info("solver", format!("{:?}", status.solver));
    out.info("daemon_kernel", &status.kernel);
    Ok((daemon, session, setups))
}

/// Ends the session and records the daemon's peak RSS.
fn stop_daemon(daemon: daemon::Daemon, session: Session, out: &mut Outcome) -> f64 {
    let rss = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    let stopped = daemon.shutdown(session);
    out.check("daemon_shutdown", stopped, "SHUTDOWN acked, exit 0");
    rss
}

/// The end-to-end metrics: set-up time over every set-up of the run,
/// throughput and latency of its typical window, all host-scaled. The
/// record keeps the raw run-wide percentiles and the host's scale.
pub(crate) fn end_to_end(out: &mut Outcome, setups: &[f64], ops: &[Op], rss: f64) {
    let typical = typical_window(ops);
    out.metric("setup_s", median(setups), "s");
    out.metric("ops_per_s", typical.ops_per_s, "1/s");
    out.metric("op_p50_us", typical.p50_us, "us");
    out.metric("op_p90_us", typical.p90_us, "us");
    out.metric("peak_rss_mb", rss, "MB");
    let all: Vec<f64> = ops.iter().map(|op| op.latency_us).collect();
    out.info("op_samples", ops.len());
    out.info("windows", typical.windows);
    let scales: Vec<f64> = ops.iter().map(|op| op.scale).collect();
    out.info("raw_run_p50_us", median(&all));
    out.info("raw_run_p90_us", percentile(&all, 0.9));
    out.info("host_scale_p50", median(&scales));
    out.info("setup_samples", setups.len());
}

/// The window of an operation started `since` after the run's start.
fn window_of(since: std::time::Duration) -> usize {
    (since.as_secs_f64() / WINDOW_S) as usize
}

/// Checks the daemon's final `PROBS` against the offline
/// `InferenceContext::infer` over the same accumulated observations.
fn check_against_offline(
    out: &mut Outcome,
    session: &mut Session,
    instance: &TopologyInstance,
    observations: &PathObservations,
) -> Result<Vec<f64>, String> {
    let offline = InferenceContext::new(instance, &AlgorithmConfig::default())
        .and_then(|context| context.infer(observations))
        .map_err(|e| e.to_string())?;
    let expected = offline.probabilities().to_vec();
    let answer = exchange(session, &Request::Query(Query::Probs))?;
    let same = matches!(&answer, Some(Answer::Probs(false, probs))
        if probs.iter().map(|p| p.to_bits()).eq(expected.iter().map(|p| p.to_bits())));
    out.check(
        "final_probs_bit_identical_to_offline",
        same,
        format!(
            "{} links over {} snapshots",
            expected.len(),
            observations.num_snapshots()
        ),
    );
    Ok(expected)
}

/// Round trips of a traced socket session, by request kind and, for
/// queries, by verb.
#[derive(Default)]
struct RoundTrips {
    obs: Vec<f64>,
    infer: Vec<f64>,
    query: Vec<f64>,
    verbs: BTreeMap<&'static str, Vec<f64>>,
    pings: Vec<f64>,
}

impl RoundTrips {
    fn push(&mut self, request: &Request, us: f64) {
        match request {
            Request::Obs { .. } => self.obs.push(us),
            Request::Infer => self.infer.push(us),
            Request::Query(query) => {
                self.query.push(us);
                self.verbs.entry(query.verb()).or_default().push(us);
            }
        }
    }

    fn of(&self, kind: Kind) -> &[f64] {
        match kind {
            Kind::Obs => &self.obs,
            Kind::Infer => &self.infer,
            Kind::Query => &self.query,
        }
    }

    fn time_pings(&mut self, session: &mut Session) -> Result<(), String> {
        for _ in 0..PINGS {
            let t = Instant::now();
            session.ping().map_err(|e| e.to_string())?;
            self.pings.push(us(t));
        }
        Ok(())
    }
}

fn work_file(args: &Args, name: &str) -> std::path::PathBuf {
    args.work_dir.join(name)
}

// ---------------------------------------------------------------- live-refresh

fn live_refresh(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let base = smoke_base(TopologyFamily::PlanetLab)?;
    let mut tracer = Tracer::default();
    let (_, source) = tracer.span(None, OUTSIDE_STREAM, "scenario", "build", || {
        ObservationSource::on(&base, args.seed)
    });
    let source = source?;
    let spec = DaemonSpec {
        binary: &args.serve_bin,
        topology: "planetlab-smoke",
        transport: Transport::Unix,
        socket: work_file(args, "live.sock"),
        history: None,
    };
    let (daemon, mut session, setups) = start_daemon(&spec, out)?;
    out.info("history_fs", "none");

    if args.trace {
        let total = HEAD_SNAPSHOTS + TRACE_ROUNDS;
        let (_, all) = tracer.span(None, OUTSIDE_STREAM, "sim", "run", || {
            source.snapshots(0..total)
        });
        let mut stream = vec![
            Request::obs(&inputs::slice(&all, 0..HEAD_SNAPSHOTS)),
            Request::Infer,
        ];
        for i in HEAD_SNAPSHOTS..total {
            stream.push(Request::obs(&inputs::slice(&all, i..i + 1)));
            stream.push(Request::Infer);
            stream.push(Request::Query(Query::Probs));
        }
        let run = TracedRun {
            base: &base,
            stream,
            initial_snapshots: 0,
            observations: &all,
            expected: None,
            seeded_history: None,
            simulated: total,
        };
        return traced_run(args, out, run, tracer, daemon, session);
    }

    let head = source.snapshots(0..HEAD_SNAPSHOTS);
    let mut all = head.clone();
    checked(out, &mut session, &Request::obs(&head), &[], HEAD_SNAPSHOTS)?;
    checked(out, &mut session, &Request::Infer, &[], HEAD_SNAPSHOTS)?;
    let num_links = base.num_links();

    // Blocks are simulated ahead, outside the timed requests.
    const CHUNK: usize = 256;
    let (mut refresh, mut obs, mut probs) = (Vec::new(), Vec::new(), Vec::new());
    let mut snapshots = HEAD_SNAPSHOTS;
    let mut pending: Vec<Request> = Vec::new();
    let run_start = Instant::now();
    let deadline = run_start + std::time::Duration::from_secs_f64(args.seconds);
    let mut setups = setups;
    let mut window = 0;
    while Instant::now() < deadline {
        if window_of(run_start.elapsed()) > window {
            window = window_of(run_start.elapsed());
            setups.push(time_setup(&spec, out)?);
        }
        if pending.is_empty() {
            let chunk = source.snapshots(snapshots..snapshots + CHUNK);
            all.concat(&chunk).map_err(|e| e.to_string())?;
            pending = (0..CHUNK)
                .rev()
                .map(|i| Request::obs(&inputs::slice(&chunk, i..i + 1)))
                .collect();
        }
        let block = pending.pop().expect("refilled above");
        snapshots += 1;
        let scale = host::scale_now(1);
        let start = Instant::now();
        checked(out, &mut session, &block, &[], snapshots)?;
        let acked = us(start);
        checked(out, &mut session, &Request::Infer, &[], snapshots)?;
        let refreshed = us(start);
        let t = Instant::now();
        let answer = exchange(&mut session, &Request::Query(Query::Probs))?;
        probs.push(us(t));
        out.op(matches!(&answer, Some(Answer::Probs(false, p)) if p.len() == num_links));
        refresh.push(Op {
            window: window_of(start - run_start),
            latency_us: refreshed,
            busy_s: start.elapsed().as_secs_f64(),
            scale,
        });
        obs.push(acked);
    }

    // Blocks simulated ahead but never sent are not part of the stream.
    let sent = inputs::slice(&all, 0..snapshots);
    check_against_offline(out, &mut session, &base, &sent)?;
    let rss = stop_daemon(daemon, session, out);
    end_to_end(out, &setups, &refresh, rss);
    out.info("obs_p50_us", median(&obs));
    out.info("probs_p50_us", median(&probs));
    Ok(())
}

// ---------------------------------------------------------------- query-tcp

fn query_tcp(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let base = smoke_base(TopologyFamily::PlanetLab)?;
    let mut tracer = Tracer::default();
    let (_, source) = tracer.span(None, OUTSIDE_STREAM, "scenario", "build", || {
        ObservationSource::on(&base, args.seed)
    });
    let source = source?;
    let (_, head) = tracer.span(None, OUTSIDE_STREAM, "sim", "run", || {
        source.snapshots(0..HEAD_SNAPSHOTS)
    });
    let spec = DaemonSpec {
        binary: &args.serve_bin,
        topology: "planetlab-smoke",
        transport: Transport::Tcp,
        socket: work_file(args, "query.sock"),
        history: None,
    };
    let (daemon, mut session, setups) = start_daemon(&spec, out)?;
    out.info("history_fs", "none");
    let expected = InferenceContext::new(&base, &AlgorithmConfig::default())
        .and_then(|context| context.infer(&head))
        .map_err(|e| e.to_string())?
        .probabilities()
        .to_vec();
    let head_requests = [Request::obs(&head), Request::Infer];
    let mut mix = QueryMix::new(args.seed, base.num_links());

    if args.trace {
        let mut stream = head_requests.to_vec();
        stream.extend(mix.take(TRACE_QUERIES).map(Request::Query));
        let run = TracedRun {
            base: &base,
            stream,
            initial_snapshots: 0,
            observations: &head,
            expected: Some(expected),
            seeded_history: None,
            simulated: HEAD_SNAPSHOTS,
        };
        return traced_run(args, out, run, tracer, daemon, session);
    }

    for request in &head_requests {
        checked(out, &mut session, request, &expected, HEAD_SNAPSHOTS)?;
    }
    let mut ops = Vec::new();
    let mut by_verb: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut setups = setups;
    let run_start = Instant::now();
    let deadline = run_start + std::time::Duration::from_secs_f64(args.seconds);
    let mut window = 0;
    while Instant::now() < deadline {
        if window_of(run_start.elapsed()) > window {
            window = window_of(run_start.elapsed());
            setups.push(time_setup(&spec, out)?);
        }
        let query = mix.next().expect("the mix is endless");
        let verb = query.verb();
        let request = Request::Query(query);
        let t = Instant::now();
        checked(out, &mut session, &request, &expected, HEAD_SNAPSHOTS)?;
        let latency_us = us(t);
        by_verb.entry(verb).or_default().push(latency_us);
        ops.push(Op {
            window: window_of(t - run_start),
            latency_us,
            busy_s: t.elapsed().as_secs_f64(),
            // The delayed-ACK timer sets a TCP query's time, not the CPU.
            scale: 1.0,
        });
    }
    check_against_offline(out, &mut session, &base, &head)?;
    let rss = stop_daemon(daemon, session, out);
    end_to_end(out, &setups, &ops, rss);
    // The mix's weights are assumed, so each verb is recorded on its own.
    for (verb, latencies) in &by_verb {
        out.info(&format!("{verb}_count"), latencies.len());
        out.info(&format!("{verb}_p50_us"), median(latencies));
    }
    Ok(())
}

// ---------------------------------------------------------------- history-ingest

fn history_ingest(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let base = smoke_base(TopologyFamily::Brite)?;
    let mut tracer = Tracer::default();
    let (_, source) = tracer.span(None, OUTSIDE_STREAM, "scenario", "build", || {
        ObservationSource::on(&base, args.seed)
    });
    let source = source?;
    let total = HISTORY_SNAPSHOTS + INGESTS_PER_SESSION * INGEST_BLOCK;
    let (_, all) = tracer.span(None, OUTSIDE_STREAM, "sim", "run", || {
        source.snapshots(0..total)
    });
    let seeded = persist::encode_history(&inputs::slice(&all, 0..HISTORY_SNAPSHOTS).to_binary(), 1);
    let mut stream = Vec::new();
    for b in 0..INGESTS_PER_SESSION {
        let lo = HISTORY_SNAPSHOTS + b * INGEST_BLOCK;
        stream.push(Request::obs(&inputs::slice(&all, lo..lo + INGEST_BLOCK)));
        if (b + 1) % INFER_EVERY == 0 {
            stream.push(Request::Infer);
        }
    }
    let history = work_file(args, "history.v3");
    out.info("history_fs", daemon::filesystem_type(&args.work_dir));
    out.info("history_snapshots", HISTORY_SNAPSHOTS);
    out.info("ingests_per_session", INGESTS_PER_SESSION);

    let spec = DaemonSpec {
        binary: &args.serve_bin,
        topology: "brite-smoke",
        transport: Transport::Unix,
        socket: work_file(args, "history.sock"),
        history: Some(&history),
    };
    let fresh_history = || -> Result<(), String> {
        for stale in [
            persist::history_prev_path(&history),
            persist::history_torn_path(&history),
        ] {
            let _ = std::fs::remove_file(stale);
        }
        std::fs::write(&history, &seeded).map_err(|e| e.to_string())
    };

    if args.trace {
        fresh_history()?;
        let (daemon, session, _) = start_daemon(&spec, out)?;
        let run = TracedRun {
            base: &base,
            stream,
            initial_snapshots: HISTORY_SNAPSHOTS,
            observations: &all,
            expected: None,
            seeded_history: Some(&seeded),
            simulated: total,
        };
        return traced_run(args, out, run, tracer, daemon, session);
    }

    let mut setups = Vec::new();
    let (mut ingests, mut infers, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut sessions = 0;
    // Fixed-length sessions, repeated for the run's time: each one starts
    // from the same seeded file and writes the same sequence of file
    // lengths, so a faster build runs more sessions, not longer files.
    while sessions == 0 || started.elapsed().as_secs_f64() < args.seconds {
        sessions += 1;
        fresh_history()?;
        let (daemon, mut session, setup_s) = if sessions == 1 {
            let (daemon, session, mut samples) = start_daemon(&spec, out)?;
            let setup_s = samples.pop().expect("the session's own start");
            setups.extend(samples);
            (daemon, session, setup_s)
        } else {
            start_scaled(&spec)?
        };
        setups.push(setup_s);
        let mut snapshots = HISTORY_SNAPSHOTS;
        for request in &stream {
            if let Request::Obs { snapshots: n, .. } = request {
                snapshots += n;
            }
            let scale = host::scale_now(1);
            let t = Instant::now();
            checked(out, &mut session, request, &[], snapshots)?;
            let took = us(t);
            match request.kind() {
                Kind::Obs => ingests.push(Op {
                    window: window_of(t - started),
                    latency_us: took,
                    busy_s: took / 1e6,
                    scale,
                }),
                // The periodic INFER is loop time of the ingest before it.
                _ => {
                    infers.push(took);
                    if let Some(last) = ingests.last_mut() {
                        last.busy_s += took / 1e6;
                    }
                }
            }
        }
        let status = session.status().map_err(|e| e.to_string())?;
        let persisted = status.history.as_ref().map(|h| (h.snapshots, h.generation));
        out.check(
            "status_history_covers_every_ack",
            persisted == Some((total, 1 + INGESTS_PER_SESSION as u64)),
            format!("{persisted:?}"),
        );
        rss.push(stop_daemon(daemon, session, out));
        let recovered = persist::recover_history(&history)
            .map_err(|e| e.to_string())
            .and_then(|r| r.payload_len.ok_or_else(|| "no payload".to_string()))
            .and_then(|len| {
                persist::map_observations_prefix(&history, len).map_err(|e| e.to_string())
            })
            .map(|mapped| mapped.num_snapshots());
        out.check(
            "recovered_history_holds_every_acked_snapshot",
            recovered == Ok(total),
            format!("{recovered:?}, expected {total}"),
        );
    }
    let file_bytes = std::fs::metadata(&history).map(|m| m.len()).unwrap_or(0);
    out.info("history_bytes_final", file_bytes);
    out.info("sessions", sessions);
    end_to_end(out, &setups, &ingests, median(&rss));
    out.info("infer_p50_us", median(&infers));
    Ok(())
}

// ---------------------------------------------------------------- replay

/// What a daemon workload's traced run sends, and what it expects.
struct TracedRun<'a> {
    base: &'a TopologyInstance,
    stream: Vec<Request>,
    /// Snapshots the daemon holds before the stream (its history).
    initial_snapshots: usize,
    /// Everything the daemon holds after the stream.
    observations: &'a PathObservations,
    /// The answers of read-only queries, when known before the stream;
    /// otherwise `PROBS` replies are checked for shape and the final one
    /// against the offline answer.
    expected: Option<Vec<f64>>,
    /// The daemon's seeded history file, copied for each twin.
    seeded_history: Option<&'a [u8]>,
    /// Snapshots the input generation simulated.
    simulated: usize,
}

/// Writes a copy of `seeded` for each twin, named `<prefix>-<twin>.v3`.
fn twin_histories(args: &Args, prefix: &str, seeded: &[u8]) -> Result<TwinHistories, String> {
    let histories = TwinHistories {
        protocol: work_file(args, &format!("{prefix}-protocol.v3")),
        service: work_file(args, &format!("{prefix}-service.v3")),
        stages: work_file(args, &format!("{prefix}-stages.v3")),
    };
    for path in [&histories.protocol, &histories.service, &histories.stages] {
        let _ = std::fs::remove_file(persist::history_prev_path(path));
        std::fs::write(path, seeded).map_err(|e| e.to_string())?;
    }
    Ok(histories)
}

/// The traced run of a daemon workload. Sends each request to the
/// daemon and replays it on the twins right after, so a round trip and
/// the spans it is compared with see the same state of the host. A
/// throwaway set of twins replays the stream's first requests first, so
/// the first twin does not pay the process's cold start alone.
fn traced_run(
    args: &Args,
    out: &mut Outcome,
    run: TracedRun<'_>,
    tracer: Tracer,
    daemon: daemon::Daemon,
    mut session: Session,
) -> Result<(), String> {
    let config = AlgorithmConfig::default();
    let histories = |prefix| {
        run.seeded_history
            .map(|seeded| twin_histories(args, prefix, seeded))
            .transpose()
    };
    let mut warm = Replay::new(
        run.base,
        &config,
        histories("warm")?.as_ref(),
        Tracer::default(),
    )?;
    for request in run.stream.iter().take(WARMUP_REQUESTS) {
        warm.request(request);
    }
    drop(warm);
    let mut replay = Replay::new(run.base, &config, histories("twin")?.as_ref(), tracer)?;
    let mut rtts = RoundTrips::default();
    rtts.time_pings(&mut session)?;
    let num_links = run.base.num_links();
    let mut snapshots = run.initial_snapshots;
    for request in &run.stream {
        if let Request::Obs { snapshots: n, .. } = request {
            snapshots += n;
        }
        let t = Instant::now();
        let answer = exchange(&mut session, request)?;
        rtts.push(request, us(t));
        out.op(match (&run.expected, request, &answer) {
            (None, Request::Query(Query::Probs), Some(Answer::Probs(stale, probs))) => {
                !stale && probs.len() == num_links
            }
            (expected, _, Some(a)) => {
                replay::answer_ok(request, a, expected.as_deref().unwrap_or(&[]), snapshots)
            }
            (_, _, None) => false,
        });
        replay.request(request);
    }
    let expected = check_against_offline(out, &mut session, run.base, run.observations)?;
    let reinfers = session.status().map_err(|e| e.to_string())?.reinfers;
    stop_daemon(daemon, session, out);

    replay.probe("PROB 0", "PROB", PROBES);
    replay.probe("PROBS", "PROBS", PROBES);
    out.check(
        "replay_twins_clean",
        replay.failures().is_empty(),
        replay.failures().first().map_or("", String::as_str),
    );
    let agreed = replay.agreed_probabilities();
    let same = agreed.as_ref().is_ok_and(|p| {
        p.iter()
            .map(|x| x.to_bits())
            .eq(expected.iter().map(|x| x.to_bits()))
    });
    out.check(
        "replay_twins_bit_identical_to_offline",
        same,
        agreed.err().unwrap_or_default(),
    );
    let infers = run
        .stream
        .iter()
        .filter(|r| matches!(r, Request::Infer))
        .count();
    layer_metrics(
        args,
        out,
        replay,
        &run.stream,
        &rtts,
        reinfers as f64 / infers as f64,
        run.simulated,
    )
}

/// The per-layer metrics of a daemon workload's traced run.
fn layer_metrics(
    args: &Args,
    out: &mut Outcome,
    replay: Replay,
    stream: &[Request],
    rtts: &RoundTrips,
    reinfers_per_infer: f64,
    simulated: usize,
) -> Result<(), String> {
    let tracer = &replay.tracer;
    let kinds = &replay.kinds;
    let in_stream =
        |root: &crate::trace::Span| root.request != OUTSIDE_STREAM && root.parent.is_none();
    out.metric("server.ping_p50_us", median(&rtts.pings), "us");
    for (verb, rtt) in &rtts.verbs {
        out.metric(&format!("server.{verb}_p50_us"), median(rtt), "us");
    }
    for kind in [Kind::Obs, Kind::Infer, Kind::Query] {
        let executes: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| in_stream(s) && kinds[s.request] == kind)
            .map(|s| s.us())
            .collect();
        if executes.is_empty() {
            continue;
        }
        let name = kind.as_str();
        out.info(&format!("execute_{name}_p50_us"), median(&executes));
        out.info(&format!("rtt_{name}_p50_us"), median(rtts.of(kind)));
        out.metric(
            &format!("transport.{name}_us"),
            median(rtts.of(kind)) - median(&executes),
            "us",
        );
        if let Some(coverage) =
            tracer.coverage(|root| in_stream(root) && kinds[root.request] == kind)
        {
            out.metric(&format!("trace.coverage.{name}"), coverage, "ratio");
        }
    }
    out.metric(
        "protocol.execute_prob_us",
        median(&tracer.durations("probe", "PROB")),
        "us",
    );
    out.metric(
        "protocol.execute_probs_us",
        median(&tracer.durations("probe", "PROBS")),
        "us",
    );
    out.metric(
        "service.ingest_block_us",
        median(&tracer.durations("service", "ingest_block")),
        "us",
    );
    out.metric(
        "service.reinfer_us",
        median(&tracer.durations("service", "reinfer")),
        "us",
    );
    out.metric("service.reinfers_per_infer", reinfers_per_infer, "ratio");
    out.metric(
        "measure.decode_us",
        median(&tracer.durations("measure", "decode")),
        "us",
    );
    let pushed = stream_snapshots(stream);
    let push_total: f64 = tracer.durations("measure", "push").iter().sum();
    out.metric("measure.push_us", push_total / pushed.max(1) as f64, "us");
    if replay.acked_bytes.is_empty() {
        // Persistence is off: no history stage ran.
    } else {
        out.metric(
            "measure.attach_ms",
            tracer.durations("measure", "attach").iter().sum::<f64>() / 1e3,
            "ms",
        );
        out.metric(
            "persist.recover_ms",
            tracer.durations("persist", "recover").iter().sum::<f64>() / 1e3,
            "ms",
        );
        out.metric(
            "persist.payload_us",
            median(&tracer.durations("persist", "payload")),
            "us",
        );
        out.metric(
            "persist.encode_us",
            median(&tracer.durations("persist", "encode")),
            "us",
        );
        out.metric(
            "persist.write_us",
            median(&tracer.durations("persist", "write")),
            "us",
        );
        out.metric("persist.bytes_per_ack", mean(&replay.acked_bytes), "count");
    }
    out.metric(
        "equations.rhs_us",
        median(&tracer.durations("equations", "rhs")),
        "us",
    );
    let solves = tracer.durations("context", "solve");
    out.metric("context.solve_p50_us", median(&solves), "us");
    out.metric("context.solve_p90_us", percentile(&solves, 0.9), "us");
    out.info("context_solves", solves.len());
    out.metric(
        "context.build_ms",
        tracer.durations("context", "build").iter().sum::<f64>() / 1e3,
        "ms",
    );
    input_metrics(out, tracer, simulated);
    let self_time = tracer.self_time_by_layer(in_stream);
    for (layer, total) in &self_time {
        out.metric(
            &format!("self.{layer}_us"),
            total / stream.len() as f64,
            "us",
        );
    }
    if let Some(coverage) = tracer.coverage(in_stream) {
        out.metric("trace.coverage", coverage, "ratio");
    }
    trace_footer(args, out, tracer, |root| in_stream(root))
}

fn stream_snapshots(stream: &[Request]) -> usize {
    stream
        .iter()
        .map(|r| match r {
            Request::Obs { snapshots, .. } => *snapshots,
            _ => 0,
        })
        .sum()
}

/// `scenario.build_ms` and `sim.snapshot_us` from the input-generation
/// spans.
pub(crate) fn input_metrics(out: &mut Outcome, tracer: &Tracer, simulated: usize) {
    let builds = tracer.durations("scenario", "build");
    out.metric("scenario.build_ms", median(&builds) / 1e3, "ms");
    let sim_total: f64 = tracer.durations("sim", "run").iter().sum();
    out.metric("sim.snapshot_us", sim_total / simulated.max(1) as f64, "us");
}

/// Span count, tracing overhead, the reconciliation flag, and the span
/// dump.
pub(crate) fn trace_footer(
    args: &Args,
    out: &mut Outcome,
    tracer: &Tracer,
    is_root: impl Fn(&crate::trace::Span) -> bool,
) -> Result<(), String> {
    let spans = tracer.spans().len();
    let traced_us: f64 = tracer
        .spans()
        .iter()
        .filter(|s| is_root(s))
        .map(|s| s.us())
        .sum();
    out.metric("trace.spans", spans as f64, "count");
    out.metric(
        "trace.overhead_pct",
        100.0 * Tracer::record_cost_us(100_000) * spans as f64 / traced_us.max(1.0),
        "%",
    );
    let outside: Vec<String> = out
        .metrics()
        .filter(|(name, value)| name.starts_with("trace.coverage") && !(0.9..=1.1).contains(value))
        .map(|(name, value)| format!("{name}={value:.3}"))
        .collect();
    out.info(
        "coverage_flag",
        if outside.is_empty() {
            "none".to_string()
        } else {
            outside.join(",")
        },
    );
    let dump = args.work_dir.join("spans.tsv");
    tracer
        .write(&dump)
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    out.info("spans_file", dump.display());
    Ok(())
}
