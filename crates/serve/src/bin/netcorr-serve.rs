//! The online tomography daemon binary.
//!
//! Builds a topology (one of the named deterministic fixtures), wraps it
//! in a [`TomographyService`] and serves the line-oriented protocol on a
//! TCP or Unix socket until an in-band `SHUTDOWN` request arrives.
//!
//! ```text
//! netcorr-serve --listen 127.0.0.1:7870 --topology planetlab-smoke
//! netcorr-serve --listen unix:/run/netcorr.sock --topology fig1a
//! ```

use std::time::Duration;

use netcorr_core::AlgorithmConfig;
use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_serve::{FaultPlan, FaultProfile, ListenAddr, Server, ServerConfig, TomographyService};
use netcorr_topology::{toy, TopologyInstance};

fn usage() -> &'static str {
    "usage: netcorr-serve [--listen ADDR] [--topology NAME] [--topology-seed N] \
     [--history PATH] [--independence] [--dense-threshold N] [--cgls-iterations N] \
     [--cgls-tolerance X] [--max-sessions N] [--idle-timeout-ms N] \
     [--request-timeout-ms N] [--drain-timeout-ms N] [--fault-profile NAME] [--fault-seed N]\n\
     \n\
     ADDR   host:port for TCP (port 0 binds an ephemeral port, reported on stdout),\n\
     \x20       or unix:<path> for a Unix domain socket (default: 127.0.0.1:0)\n\
     NAME   fig1a | planetlab-smoke | brite-smoke (default: fig1a); the smoke\n\
     \x20       fixtures are regenerated deterministically from --topology-seed,\n\
     \x20       so clients can reconstruct the identical instance\n\
     PATH   persistent observation history: every ingest writes the next\n\
     \x20       checksummed generation (rotating the previous one to <PATH>.prev)\n\
     \x20       before it is acked (no fsync: an ack survives a daemon crash, not a\n\
     \x20       power loss); on restart a clean or torn file recovers to the\n\
     \x20       last acked generation, memory-mapped (zero-copy) and attached to the\n\
     \x20       estimator, so the daemon resumes bit-identically\n\
     \n\
     hardening: --max-sessions caps concurrent sessions (excess connections get one\n\
     \x20       `ERR busy` line), --idle-timeout-ms / --request-timeout-ms bound idle\n\
     \x20       sessions and stalled (slow-loris) requests, --drain-timeout-ms bounds\n\
     \x20       how long in-flight requests may finish after SHUTDOWN\n\
     chaos:  --fault-profile quiet|flaky-io|torn-history with --fault-seed N injects\n\
     \x20       seeded, bit-reproducible I/O faults (short reads/writes, disconnects,\n\
     \x20       stalls, torn history writes) for the netcorr-chaos harness"
}

struct Options {
    listen: ListenAddr,
    topology: String,
    topology_seed: u64,
    history: Option<std::path::PathBuf>,
    config: AlgorithmConfig,
    server: ServerConfig,
    fault_profile: Option<String>,
    fault_seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            listen: ListenAddr::Tcp("127.0.0.1:0".into()),
            topology: "fig1a".into(),
            topology_seed: 42,
            history: None,
            config: AlgorithmConfig::default(),
            server: ServerConfig::default(),
            fault_profile: None,
            fault_seed: 0,
        }
    }
}

enum Parsed {
    Run(Box<Options>),
    Help,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Parsed, String> {
    let mut options = Options::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => options.listen = ListenAddr::parse(&value(&mut args, "--listen")?),
            "--topology" => options.topology = value(&mut args, "--topology")?,
            "--topology-seed" => {
                options.topology_seed = parse(&value(&mut args, "--topology-seed")?)?
            }
            "--history" => {
                options.history = Some(std::path::PathBuf::from(value(&mut args, "--history")?))
            }
            "--independence" => options.config.equations.respect_correlation = false,
            "--dense-threshold" => {
                options.config.solver.dense_threshold =
                    parse(&value(&mut args, "--dense-threshold")?)?
            }
            "--cgls-iterations" => {
                options.config.solver.cgls_iterations =
                    parse(&value(&mut args, "--cgls-iterations")?)?
            }
            "--cgls-tolerance" => {
                options.config.solver.cgls_tolerance =
                    parse(&value(&mut args, "--cgls-tolerance")?)?
            }
            "--max-sessions" => {
                options.server.max_sessions = parse(&value(&mut args, "--max-sessions")?)?
            }
            "--idle-timeout-ms" => {
                options.server.idle_timeout =
                    Duration::from_millis(parse(&value(&mut args, "--idle-timeout-ms")?)?)
            }
            "--request-timeout-ms" => {
                options.server.request_timeout =
                    Duration::from_millis(parse(&value(&mut args, "--request-timeout-ms")?)?)
            }
            "--drain-timeout-ms" => {
                options.server.drain_timeout =
                    Duration::from_millis(parse(&value(&mut args, "--drain-timeout-ms")?)?)
            }
            "--fault-profile" => options.fault_profile = Some(value(&mut args, "--fault-profile")?),
            "--fault-seed" => options.fault_seed = parse(&value(&mut args, "--fault-seed")?)?,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(Parsed::Run(Box::new(options)))
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("missing value for {flag}"))
}

fn parse<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value '{value}'"))
}

/// Builds one of the named deterministic topology fixtures. The smoke
/// fixtures regenerate from `(name, seed)` alone, so an operator (or an
/// end-to-end test) can reconstruct the exact instance the daemon runs.
fn build_topology(name: &str, seed: u64) -> Result<TopologyInstance, String> {
    match name {
        "fig1a" => Ok(toy::figure_1a()),
        "planetlab-smoke" => {
            base_instance(TopologyFamily::PlanetLab, Scale::Smoke, seed).map_err(|e| e.to_string())
        }
        "brite-smoke" => {
            base_instance(TopologyFamily::Brite, Scale::Smoke, seed).map_err(|e| e.to_string())
        }
        other => Err(format!(
            "unknown topology '{other}' (expected fig1a, planetlab-smoke or brite-smoke)"
        )),
    }
}

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(Parsed::Run(options)) => options,
        Ok(Parsed::Help) => {
            println!("{}", usage());
            return;
        }
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let instance = match build_topology(&options.topology, options.topology_seed) {
        Ok(instance) => instance,
        Err(message) => {
            eprintln!("netcorr-serve: {message}");
            std::process::exit(2);
        }
    };
    let fault_plan = match &options.fault_profile {
        Some(name) => match FaultProfile::by_name(name, options.fault_seed) {
            Ok(profile) => FaultPlan::seeded(options.fault_seed, profile),
            Err(error) => {
                eprintln!("netcorr-serve: {error}");
                std::process::exit(2);
            }
        },
        None => FaultPlan::none(),
    };
    let mut service = match TomographyService::new(&instance, &options.config) {
        Ok(service) => service,
        Err(error) => {
            eprintln!("netcorr-serve: failed to build the service: {error}");
            std::process::exit(1);
        }
    };
    if !fault_plan.is_none() {
        service.set_fault_plan(&fault_plan);
        println!(
            "netcorr-serve: fault injection {:?} (seed {})",
            fault_plan, options.fault_seed
        );
    }
    if let Some(path) = &options.history {
        match service.enable_history(path) {
            Ok(reloaded) => {
                let status = service.status();
                let (backing, generation, recovered) =
                    status.history.as_ref().map_or(("heap", 0, false), |h| {
                        (h.backing.as_str(), h.generation, h.recovered)
                    });
                println!(
                    "netcorr-serve: history {} ({reloaded} snapshots reloaded, {backing} backed, \
                     generation {generation}{})",
                    path.display(),
                    if recovered { ", recovered" } else { "" }
                );
            }
            Err(error) => {
                eprintln!(
                    "netcorr-serve: failed to reload history {}: {error}",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    }
    println!(
        "netcorr-serve: topology {} ({} paths, {} links, {:?} solver)",
        options.topology,
        service.num_paths(),
        service.num_links(),
        service.status().solver
    );
    let mut server_config = options.server.clone();
    server_config.faults = fault_plan;
    let server = match Server::bind_with(service, &options.listen, server_config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("netcorr-serve: failed to bind {}: {error}", options.listen);
            std::process::exit(1);
        }
    };
    // The e2e tests (and operator scripts) parse this line for the
    // ephemeral port; keep the format stable.
    println!("netcorr-serve: listening on {}", server.local_description());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    if let Err(error) = server.run() {
        eprintln!("netcorr-serve: server failed: {error}");
        std::process::exit(1);
    }
}
