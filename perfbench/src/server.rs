//! The `trustseq serve` child process, observed only from outside: its
//! banner, `/proc/<pid>` CPU and memory counters, and its exit dump.

use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/*/stat` times (USER_HZ, fixed
/// at 100 by the Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// Builds the release `trustseq` binary from the repository at `root` and
/// returns its path. Honours `CARGO_TARGET_DIR` like cargo does.
pub fn build_release(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "trustseq",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building the release `trustseq` binary failed ({status})"
        ));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release").join("trustseq"))
}

/// Refuses anything but an optimised build: a debug `serve` measures the
/// compiler's debug assertions, not the service.
pub fn check_release(bin: &Path) -> Result<(), String> {
    let release = bin
        .parent()
        .and_then(Path::file_name)
        .is_some_and(|d| d == "release");
    if !release {
        return Err(format!(
            "{} is not a release build (expected it under a `release/` directory)",
            bin.display()
        ));
    }
    if !bin.is_file() {
        return Err(format!("{} does not exist", bin.display()));
    }
    Ok(())
}

/// Worker threads every `serve` runs with. The replay's one-shard queue and
/// the traced run's reader/worker CPU split both assume exactly one.
pub const WORKERS: usize = 1;

/// A running `serve` child. Dropping it kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub pid: u32,
    pub addr: SocketAddr,
}

/// The options one `serve` process runs with.
pub struct ServeArgs<'a> {
    pub bin: &'a Path,
    pub structures: usize,
    pub seed: u64,
    /// `Some(secs)`: record metrics and drain after `secs`, printing the
    /// JSON metrics dump on exit.
    pub metrics_for: Option<u64>,
}

impl ServerProc {
    /// Spawns `serve` on an ephemeral loopback port and waits for its
    /// banner, which the server prints after generating its population.
    pub fn spawn(args: &ServeArgs<'_>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(args.bin);
        cmd.arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--structures", &args.structures.to_string()])
            .args(["--seed", &args.seed.to_string()]);
        if let Some(secs) = args.metrics_for {
            cmd.args(["--metrics", "--metrics-format", "json"])
                .args(["--duration", &secs.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", args.bin.display()))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .strip_prefix("serving on tcp:")
            .and_then(|rest| rest.split_once(": "))
            .and_then(|(addr, _)| addr.parse().ok());
        let mut server = ServerProc {
            child,
            stdout,
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("`serve` printed no banner (got {banner:?})")),
        }
    }

    /// Process user+system CPU so far, in seconds (`/proc/<pid>/stat`).
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = read_proc(&format!("/proc/{}/stat", self.pid))?;
        stat_cpu_s(&stat).ok_or_else(|| format!("unparseable /proc/{}/stat", self.pid))
    }

    /// Per-thread `(name, cpu seconds)` from `/proc/<pid>/task/*/stat`.
    pub fn thread_cpu_s(&self) -> Result<Vec<(String, f64)>, String> {
        let dir = format!("/proc/{}/task", self.pid);
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let path = entry.map_err(|e| e.to_string())?.path().join("stat");
            // A thread may exit between listing and reading.
            let Ok(stat) = std::fs::read_to_string(&path) else {
                continue;
            };
            let name = stat
                .split_once('(')
                .and_then(|(_, r)| r.rsplit_once(')'))
                .map(|(n, _)| n.to_string())
                .unwrap_or_default();
            if let Some(cpu) = stat_cpu_s(&stat) {
                out.push((name, cpu));
            }
        }
        Ok(out)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = read_proc(&format!("/proc/{}/status", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Waits (up to `timeout`) for a `--duration` server to drain and
    /// exit, returning everything it printed after the banner.
    pub fn wait_output(mut self, timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut out = String::new();
                    self.stdout
                        .read_to_string(&mut out)
                        .map_err(|e| e.to_string())?;
                    return if status.success() {
                        Ok(out)
                    } else {
                        Err(format!("`serve` exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Ok(None) => return Err("`serve` did not drain in time".to_string()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn read_proc(path: &str) -> Result<String, String> {
    let mut s = String::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_string(&mut s))
        .map_err(|e: io::Error| format!("{path}: {e}"))?;
    Ok(s)
}

/// utime + stime of a `stat` line, in seconds. Fields are counted after
/// the parenthesised command name, which may itself contain spaces.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    let (_, rest) = stat.rsplit_once(')')?;
    let mut fields = rest.split_whitespace();
    // After the name: state(3) … utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_name() {
        let line = "42 (trustseq-svc-co) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(stat_cpu_s(line), Some(3.0));
    }

    #[test]
    fn debug_binaries_are_refused() {
        assert!(check_release(Path::new("target/debug/trustseq")).is_err());
    }
}
