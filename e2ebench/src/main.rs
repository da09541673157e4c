//! Outside-in benchmark of netcorr.
//!
//! Runs one workload and prints, as its last stdout line, `E2EBENCH `
//! followed by a JSON object with the workload's metrics (name → value
//! and unit), the host and input record, and every correctness check.
//! `run.py` in this directory builds this binary and the `netcorr-serve`
//! daemon, validates the result against `BENCHMARK.json` and prints the
//! final summary line.
//!
//! ```text
//! netcorr-e2ebench --workload live-refresh --seed 1 --seconds 10 --trace 0 \
//!     --serve-bin PATH --work-dir DIR
//! ```

mod daemon;
mod host;
mod inputs;
mod offline;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

use serde_json::Value;

/// Parsed command line.
pub struct Args {
    /// `--workload`: a workload name from `BENCHMARK.json`.
    pub workload: String,
    /// `--seed`: every input is derived from it.
    pub seed: u64,
    /// `--seconds`: how long the timed loop runs.
    pub seconds: f64,
    /// `--trace 1`: run the traced replay instead of the timed run.
    pub trace: bool,
    /// `--serve-bin`: the `netcorr-serve` binary.
    pub serve_bin: PathBuf,
    /// `--work-dir`: scratch directory for sockets, history files and
    /// the span dump (created if missing).
    pub work_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin, mut work_dir) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)? as f64),
            "--trace" => trace = Some(number(&value)? != 0),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// A correctness check, tallied over every time it ran.
struct Check {
    name: String,
    passed: u64,
    total: u64,
    /// The first failure's detail, or the last success's.
    detail: String,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<(String, String)>,
    checks: Vec<Check>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics
            .iter()
            .map(|(name, value, _)| (name.as_str(), *value))
    }

    /// Records a host or input fact.
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Records one correctness check; a failed check counts as a failed
    /// operation. Repeats of a check (one per session, say) are tallied
    /// under its name.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl ToString) {
        self.op(ok);
        let index = match self.checks.iter().position(|c| c.name == name) {
            Some(index) => index,
            None => {
                self.checks.push(Check {
                    name: name.to_string(),
                    passed: 0,
                    total: 0,
                    detail: String::new(),
                });
                self.checks.len() - 1
            }
        };
        let check = &mut self.checks[index];
        if check.passed == check.total {
            check.detail = detail.to_string();
        }
        check.total += 1;
        check.passed += u64::from(ok);
    }

    /// Counts one attempted operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Succeeded over attempted.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// The result object.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                Value::object(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::object([
                            ("value", Value::from(*value)),
                            ("unit", Value::from(*unit)),
                        ]),
                    )
                })),
            ),
            (
                "info",
                Value::object(
                    self.info
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.as_str()))),
                ),
            ),
            (
                "checks",
                Value::array(self.checks.iter().map(|c| {
                    Value::object([
                        ("name", Value::from(c.name.as_str())),
                        ("ok", Value::from(c.passed == c.total)),
                        ("passed", Value::from(c.passed)),
                        ("total", Value::from(c.total)),
                        ("detail", Value::from(c.detail.as_str())),
                    ])
                })),
            ),
        ])
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("netcorr-e2ebench: {message}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "netcorr-e2ebench: cannot create {}: {e}",
            args.work_dir.display()
        );
        std::process::exit(1);
    }
    match workloads::run(&args) {
        Ok(outcome) => println!("E2EBENCH {}", serde_json::to_string(&outcome.to_json())),
        Err(message) => {
            eprintln!("netcorr-e2ebench: {}: {message}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let parsed =
            args("--workload query-tcp --seed 3 --seconds 10 --trace 1 --serve-bin b --work-dir w")
                .unwrap();
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (3, 10.0, true));
        assert!(args("--workload query-tcp --seed x").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn failed_checks_lower_the_ok_ratio() {
        let mut outcome = Outcome::default();
        for _ in 0..3 {
            outcome.op(true);
        }
        outcome.check("bits", true, "same");
        outcome.check("bits", false, "mismatch");
        outcome.check("bits", true, "same");
        assert_eq!((outcome.attempted, outcome.failed), (6, 1));
        assert_eq!(outcome.ok_ratio(), 5.0 / 6.0);
        assert_eq!(outcome.checks.len(), 1);
        assert_eq!((outcome.checks[0].passed, outcome.checks[0].total), (2, 3));
        assert_eq!(outcome.checks[0].detail, "mismatch");
        let json = serde_json::to_string(&outcome.to_json());
        assert!(json.starts_with("{\"attempted\":6,\"failed\":1,"), "{json}");
    }
}
