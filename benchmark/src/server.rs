//! The system under test as a child process: spawning `ppr serve`,
//! reading its `/proc` accounting and its `/metrics` page, killing it.

use std::fs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports `/proc/<pid>/stat` times in clock ticks of 1/100 s on
/// every mainstream configuration (`getconf CLK_TCK`); there is no libc
/// here to ask `sysconf`.
const TICKS_PER_SECOND: f64 = 100.0;

const LISTEN_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `ppr serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    pub metrics_addr: SocketAddr,
}

/// The flags every workload's server runs with, beyond the ephemeral
/// ports: `ppr serve` defaults (4 workers, event loop, 8 MiB result cache,
/// 256-entry plan cache), plus `--data-dir` (fsync on) where asked.
pub fn server_flags(data_dir: Option<&Path>) -> Vec<String> {
    let mut flags: Vec<String> = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--metrics-addr",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(dir) = data_dir {
        flags.push("--data-dir".to_string());
        flags.push(dir.display().to_string());
    }
    flags
}

impl Server {
    /// Starts the server and returns once it is listening. Its stderr goes
    /// to `log` (a file, not a pipe: nothing has to drain it, and it is
    /// there to read when a run goes wrong).
    pub fn spawn(ppr: &Path, data_dir: Option<&Path>, log: &Path) -> io::Result<Server> {
        let stderr = fs::File::create(log)?;
        let child = Command::new(ppr)
            .args(server_flags(data_dir))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let started = Instant::now();
        loop {
            let mut text = fs::read_to_string(log)?;
            // Only whole lines: the server may be mid-write.
            text.truncate(text.rfind('\n').map_or(0, |i| i + 1));
            // "ppr-service listening on …" is the last line before serving.
            if let Some(addr) = after(&text, "ppr-service listening on ") {
                let metrics = after(&text, "metrics endpoint on http://")
                    .and_then(|rest| rest.strip_suffix("/metrics"))
                    .ok_or_else(|| io::Error::other("server printed no metrics endpoint"))?;
                server.addr = addr.parse().map_err(io::Error::other)?;
                server.metrics_addr = metrics.parse().map_err(io::Error::other)?;
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "server exited ({status}): {text}"
                )));
            }
            if started.elapsed() > LISTEN_TIMEOUT {
                return Err(io::Error::other(format!("server not listening: {text}")));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds (user + system, all threads) the server has used.
    pub fn cpu_seconds(&self) -> f64 {
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the line, so 11 and 12 after the `)`.
        let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let mut fields = after_comm.split_whitespace().skip(11);
        let mut tick = || {
            fields
                .next()
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (tick() + tick()) / TICKS_PER_SECOND
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn rss_peak_mib(&self) -> f64 {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        after(&status, "VmHWM:")
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(f64::NAN, |kib| kib / 1024.0)
    }

    /// The Prometheus text page (`GET /metrics`).
    pub fn metrics_text(&self) -> io::Result<String> {
        let mut stream = TcpStream::connect(self.metrics_addr)?;
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
        let mut page = String::new();
        stream.read_to_string(&mut page)?;
        Ok(page
            .split_once("\r\n\r\n")
            .map_or(String::new(), |(_, body)| body.to_string()))
    }

    /// `SIGKILL`, then reap (what dropping does, said out loud). Used both
    /// for teardown and as the crash in the recovery check.
    pub fn kill(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The rest of the line following the first occurrence of `marker`.
fn after<'a>(text: &'a str, marker: &str) -> Option<&'a str> {
    let start = text.find(marker)? + marker.len();
    text[start..].lines().next().map(str::trim)
}

/// A value from a Prometheus text page: the sample named exactly `series`
/// (name plus label set as printed), 0 when absent.
pub fn prom_value(page: &str, series: &str) -> f64 {
    page.lines()
        .find_map(|line| {
            line.strip_prefix(series)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// A scratch directory under the benchmark's own `out/`, removed on drop.
pub struct Scratch {
    pub path: PathBuf,
}

impl Scratch {
    pub fn new(out_dir: &Path, label: &str) -> io::Result<Scratch> {
        let path = out_dir
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_values_match_whole_series_names() {
        let page = "# HELP x\nppr_wal_fsync_us_sum 548\nppr_wal_fsync_us_count 2\n\
                    ppr_request_phase_us_sum{phase=\"queue_wait\"} 11\nppr_requests_total 7\n";
        assert_eq!(prom_value(page, "ppr_wal_fsync_us_sum"), 548.0);
        assert_eq!(
            prom_value(page, "ppr_request_phase_us_sum{phase=\"queue_wait\"}"),
            11.0
        );
        assert_eq!(prom_value(page, "ppr_requests"), 0.0);
        assert_eq!(prom_value(page, "ppr_absent_total"), 0.0);
    }

    #[test]
    fn marker_lines_are_found() {
        let log = "databases: [\"default\"]\nmetrics endpoint on http://127.0.0.1:43097/metrics\n\
                   ppr-service listening on 127.0.0.1:36977\n";
        assert_eq!(
            after(log, "ppr-service listening on "),
            Some("127.0.0.1:36977")
        );
        assert_eq!(after(log, "nope"), None);
    }
}
