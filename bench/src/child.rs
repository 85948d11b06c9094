//! The `aims-serve` child process: spawned on port 0, addressed through
//! the `listening` line it prints, and never left behind.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aims_service::TcpClient;
use aims_telemetry::Snapshot;

/// How long any single read from the server may take before the run
/// fails instead of hanging.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a spawned server may take to print its `listening` line.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// The one flush policy of this benchmark, on the server's device as on
/// the tier's: WAL fsync every 64 appends. (The server's own default,
/// fsync-always, makes its 16 384-block load sixteen thousand fsyncs, and
/// set-up time then measures the sandbox's disk and nothing else.)
pub const FLUSH_POLICY: &str = "periodic:64";

/// Geometry flags of one `aims-serve` instance — all the server ever
/// learns about the workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Cube side (`--side`).
    pub side: usize,
    /// Coefficients per block (`--block`).
    pub block: usize,
    /// Shared cache capacity in blocks (`--cache`).
    pub cache: usize,
    /// Demo-cube seed (`--seed`).
    pub seed: u64,
}

/// A running `aims-serve --data DIR`. Dropping it asks the server to shut
/// down, then kills it if it has not exited.
pub struct ServeChild {
    child: Child,
    addr: String,
    /// Drains the child's stdout so it can never block on a full pipe.
    reader: Option<JoinHandle<()>>,
    /// Spawn → `listening` line.
    pub startup: Duration,
}

impl ServeChild {
    /// Spawns the server over `data` (created and loaded if absent,
    /// recovered if present) and waits for its `listening` line.
    pub fn spawn(
        bin: &Path,
        data: &Path,
        cfg: ServeConfig,
        threads: usize,
    ) -> Result<ServeChild, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--port", "0", "--data"])
            .arg(data)
            .args(["--side", &cfg.side.to_string()])
            .args(["--block", &cfg.block.to_string()])
            .args(["--cache", &cfg.cache.to_string()])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--durability", FLUSH_POLICY])
            .env("AIMS_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                // The receiver goes away once the address is known.
                let _ = tx.send(line);
            }
        });
        let mut server = ServeChild {
            child,
            addr: String::new(),
            reader: Some(reader),
            startup: Duration::ZERO,
        };
        server.addr = server.await_listening(&rx)?;
        server.startup = t0.elapsed();
        Ok(server)
    }

    fn await_listening(&mut self, rx: &Receiver<String>) -> Result<String, String> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("aims-serve listening on ") {
                        return Ok(addr.trim().to_string());
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err("aims-serve did not start listening in time".into());
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("aims-serve exited before listening".into());
                }
            }
        }
    }

    /// A fresh connection with the per-read timeout armed.
    pub fn connect(&self) -> Result<TcpClient, String> {
        let client = TcpClient::connect(self.addr.as_str())
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        client.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| format!("set timeout: {e}"))?;
        Ok(client)
    }

    /// The server's telemetry registry, through a METRICS frame.
    pub fn metrics(&self) -> Result<Snapshot, String> {
        let json = self.connect()?.metrics().map_err(|e| format!("METRICS: {e}"))?;
        Snapshot::from_json_lines(&json).map_err(|e| format!("METRICS reply: {e}"))
    }

    /// Peak resident set of the server process so far, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Graceful stop: SHUTDOWN, then wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        let asked = self.connect().and_then(|mut c| c.shutdown_server().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(10);
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break true,
                Ok(None) if asked.is_ok() && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => break false,
            }
        };
        if !exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        match (asked, exited) {
            (Ok(()), true) => Ok(()),
            (Err(e), _) => Err(format!("SHUTDOWN failed ({e}); server killed")),
            (Ok(()), false) => Err("server ignored SHUTDOWN; killed".into()),
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.stop();
        }
    }
}

/// `VmHWM` of process `pid` (`"self"` for this one), MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self") > 0.5);
        assert_eq!(peak_rss_mb("no-such-pid"), 0.0);
    }
}
