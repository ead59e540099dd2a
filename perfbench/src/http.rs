//! The benchmark's own HTTP/1.1 client for `dqma-server`, and the server
//! process it spawns. One request per connection, as the server serves
//! them.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::loadgen::{Client, JobEnd, Submitted};

const TIMEOUT: Duration = Duration::from_secs(10);

/// One request; returns `(status, body)`.
pub fn call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n");
    match body {
        Some(b) => {
            req += &format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            )
        }
        None => req += "\r\n",
    }
    stream.write_all(req.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad HTTP response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let body = raw.split_once("\r\n\r\n").ok_or_else(bad)?.1.to_string();
    Ok((status, body))
}

/// The raw text of field `key` in a flat JSON object: a number, `true`,
/// `false`, or a string's contents.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.split('"').next();
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

pub fn num(body: &str, key: &str) -> Option<u64> {
    field(body, key)?.parse().ok()
}

/// A [`Client`] over one server address.
pub struct HttpClient {
    pub addr: String,
}

impl Client for HttpClient {
    fn submit(&mut self, body: &str) -> Submitted {
        match call(&self.addr, "POST", "/v1/jobs", Some(body)) {
            Ok((202, b)) => match num(&b, "job") {
                Some(id) => Submitted::Id(id),
                None => Submitted::End(JobEnd::Error(format!("no job id in {b}"))),
            },
            Ok((503, _)) => Submitted::End(JobEnd::Shed),
            Ok((s, b)) => Submitted::End(JobEnd::Error(format!("submit {s}: {b}"))),
            Err(e) => Submitted::End(JobEnd::Error(format!("submit: {e}"))),
        }
    }

    fn poll(&mut self, id: u64) -> Option<JobEnd> {
        let b = match call(&self.addr, "GET", &format!("/v1/jobs/{id}"), None) {
            Ok((200, b)) => b,
            Ok((s, b)) => return Some(JobEnd::Error(format!("status {s}: {b}"))),
            Err(e) => return Some(JobEnd::Error(format!("status: {e}"))),
        };
        match field(&b, "state") {
            Some("done") => Some(match (num(&b, "accepts"), num(&b, "completed")) {
                (Some(accepts), Some(completed)) => JobEnd::Done {
                    accepts,
                    completed,
                    partial: field(&b, "partial") == Some("true"),
                },
                _ => JobEnd::Error(format!("malformed report {b}")),
            }),
            Some("aborted") => Some(JobEnd::Aborted(b)),
            Some("queued" | "running") => None,
            _ => Some(JobEnd::Error(format!("unknown state in {b}"))),
        }
    }
}

/// A running `dqma-server` process with its own journal directory.
pub struct Server {
    child: Child,
    pub addr: String,
    pub journal: PathBuf,
    dir: PathBuf,
    /// Spawn until the first `200` from `/v1/healthz`.
    pub startup: Duration,
}

impl Server {
    /// Spawns the server (path from `DQMA_SERVER_BIN`) with `workers`
    /// workers and a journal in the fresh directory `dir`, and waits until
    /// it answers its health check.
    pub fn spawn(dir: &Path, workers: usize) -> Result<Server, String> {
        let bin = std::env::var("DQMA_SERVER_BIN")
            .map_err(|_| "DQMA_SERVER_BIN is not set (run through perfbench/run.sh)".to_string())?;
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let journal = dir.join("journal");
        let t0 = Instant::now();
        let mut child = Command::new(&bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            // Deep enough that shedding would need a backlog far past the
            // latency limit; max-conns above the generator's connections.
            .args(["--queue", "8192", "--max-conns", "256"])
            .arg("--journal")
            .arg(&journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {bin}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("dqma-server listening ")) {
            (Ok(_), Some(a)) => a.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address: {line:?}"));
            }
        };
        let mut server = Server {
            child,
            addr,
            journal,
            dir: dir.to_path_buf(),
            startup: Duration::ZERO,
        };
        loop {
            if matches!(server.get("/v1/healthz"), Ok((200, _))) {
                break;
            }
            if t0.elapsed() > Duration::from_secs(20) {
                return Err("server never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.startup = t0.elapsed();
        Ok(server)
    }

    pub fn get(&self, path: &str) -> std::io::Result<(u16, String)> {
        call(&self.addr, "GET", path, None)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to exit and reaps it (killing it if it lingers),
    /// then removes its directory.
    pub fn stop(mut self) {
        let _ = call(&self.addr, "POST", "/v1/shutdown", Some("{}"));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only on an error path; `stop` reaps on the normal one.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`).
pub fn proc_kb(pid: u32, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_a_status_body() {
        let b = "{\"job\":7,\"state\":\"done\",\"requested\":8192,\"completed\":8192,\
                 \"accepts\":8100,\"partial\":false,\"elapsed_ms\":1}";
        assert_eq!(field(b, "state"), Some("done"));
        assert_eq!(num(b, "accepts"), Some(8100));
        assert_eq!(num(b, "completed"), Some(8192));
        assert_eq!(field(b, "partial"), Some("false"));
        assert_eq!(num(b, "elapsed_ms"), Some(1));
        assert_eq!(field(b, "missing"), None);
    }

    #[test]
    fn own_process_memory_is_readable() {
        let pid = std::process::id();
        let hwm = proc_kb(pid, "VmHWM").expect("VmHWM");
        assert!(hwm >= proc_kb(pid, "VmRSS").expect("VmRSS").min(hwm));
        assert!(hwm > 0);
    }
}
