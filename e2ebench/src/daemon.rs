//! The real `netcorr-serve` daemon as a child process, and the one
//! closed-loop client session that drives it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use netcorr_serve::Client;

/// How the daemon listens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// A Unix domain socket (`--listen unix:<path>`).
    Unix,
    /// TCP on an ephemeral loopback port, the daemon's default.
    Tcp,
}

impl Transport {
    /// The name recorded beside every result.
    pub fn as_str(self) -> &'static str {
        match self {
            Transport::Unix => "unix",
            Transport::Tcp => "tcp",
        }
    }
}

/// A connected byte stream of either transport.
pub trait Stream: Read + Write {}
impl Stream for UnixStream {}
impl Stream for TcpStream {}

/// The client session type every workload uses.
pub type Session = Client<Box<dyn Stream>>;

/// How to start a daemon.
#[derive(Clone)]
pub struct DaemonSpec<'a> {
    /// The `netcorr-serve` binary.
    pub binary: &'a Path,
    /// `--topology` fixture name.
    pub topology: &'a str,
    /// Transport to listen on.
    pub transport: Transport,
    /// Where the Unix socket goes (a path relative to the working
    /// directory keeps it under the socket-path length limit).
    pub socket: PathBuf,
    /// `--history` file, if persistence is on.
    pub history: Option<&'a Path>,
}

/// A running daemon. Dropping it kills the process if it is still
/// alive, so a failing workload never leaves one behind.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    socket: Option<PathBuf>,
}

/// Spawns the daemon, waits for its `listening on` line, connects one
/// session and completes one `PING`. Returns the daemon, the session and
/// the set-up time: spawn to the first `OK pong`, which includes the
/// topology and inference-context build and any history recovery.
pub fn start(spec: &DaemonSpec<'_>) -> Result<(Daemon, Session, f64), String> {
    let listen = match spec.transport {
        Transport::Unix => format!("unix:{}", spec.socket.display()),
        Transport::Tcp => "127.0.0.1:0".to_string(),
    };
    let topology_seed = crate::inputs::TOPOLOGY_SEED.to_string();
    let mut args = vec![
        "--listen",
        listen.as_str(),
        "--topology",
        spec.topology,
        "--topology-seed",
        topology_seed.as_str(),
    ];
    let history = spec.history.map(|p| p.display().to_string());
    if let Some(history) = &history {
        args.extend(["--history", history.as_str()]);
    }
    let started = Instant::now();
    let mut child = Command::new(spec.binary)
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", spec.binary.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut daemon = Daemon {
        child,
        _stdout: None,
        socket: (spec.transport == Transport::Unix).then(|| spec.socket.clone()),
    };
    let address = loop {
        let mut line = String::new();
        match stdout.read_line(&mut line) {
            Ok(0) => return Err("netcorr-serve exited before it listened".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("cannot read netcorr-serve output: {e}")),
        }
        if let Some(address) = line.trim_end().strip_prefix("netcorr-serve: listening on ") {
            break address.to_string();
        }
    };
    daemon._stdout = Some(stdout);
    let stream: Box<dyn Stream> = if let Some(addr) = address.strip_prefix("tcp://") {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Box::new(stream)
    } else {
        let stream =
            UnixStream::connect(&spec.socket).map_err(|e| format!("connect {address}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Box::new(stream)
    };
    let mut session = Client::new(stream);
    session.ping().map_err(|e| format!("first PING: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    Ok((daemon, session, setup_s))
}

/// Per-reply read timeout: far above any reply the workloads provoke, so
/// it only fires on a hung daemon.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

impl Daemon {
    /// The daemon's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `SHUTDOWN` on `session` and waits for the process to exit.
    /// Returns whether it acknowledged and exited with status 0.
    pub fn shutdown(mut self, mut session: Session) -> bool {
        let acked = session.shutdown().is_ok();
        drop(session);
        let deadline = Instant::now() + Duration::from_secs(10);
        let exited_cleanly = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => break false,
            }
        };
        acked && exited_cleanly
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(socket) = &self.socket {
            let _ = std::fs::remove_file(socket);
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The filesystem type holding `path` (longest matching mount point in
/// `/proc/self/mountinfo`), for the host record.
pub fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount_point), Some(fs_type)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fs_type.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
