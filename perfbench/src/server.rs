//! A `deepod serve --listen` child process: spawned on an ephemeral
//! port, measured from spawn to its first OK reply, and stopped by
//! closing its stdin (the server's documented shutdown contract).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Stdio};
use std::time::{Duration, Instant};

use deepod_serve::{ServeClient, WireRequest};

use crate::loadgen::Reply;
use crate::workload::{deepod_command, Inputs};

/// A running server.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// The exact command line it was started with.
    pub command_line: String,
}

/// The server's argument list: shipped defaults, plus the LRU cache tier
/// when `cache_capacity > 0`.
pub fn serve_args(inputs: &Inputs, cache_capacity: usize) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "serve".into(),
        "--data".into(),
        inputs.data.display().to_string(),
        "--model".into(),
        inputs.model.display().to_string(),
        "--listen".into(),
        "127.0.0.1:0".into(),
    ];
    if cache_capacity > 0 {
        args.extend(["--cache-capacity".into(), cache_capacity.to_string()]);
    }
    args
}

impl Server {
    /// Spawns `deepod <args>`, waits for its listening line, then sends
    /// `probe` and waits for the reply. Returns the server, the seconds
    /// from spawn to that first reply, and the reply (which must be OK).
    pub fn start(
        deepod: &Path,
        args: &[String],
        probe: &WireRequest,
    ) -> Result<(Server, f64, Reply), String> {
        let command_line = std::iter::once(deepod.display().to_string())
            .chain(args.iter().cloned())
            .collect::<Vec<_>>()
            .join(" ");
        let spawned = Instant::now();
        let mut child = deepod_command(deepod)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {command_line}: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().ok_or("server stdout not piped")?);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = Server {
            child,
            stdin,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            command_line,
        };
        match read {
            Ok(n) if n > 0 => {}
            _ => {
                return Err(format!(
                    "server exited before listening: {}",
                    server.command_line
                ))
            }
        }
        server.addr = line
            .trim()
            .strip_prefix("{\"listening\":\"")
            .and_then(|rest| rest.strip_suffix("\"}"))
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("unexpected first line from server: {line}"))?;
        let mut client =
            ServeClient::connect(server.addr).map_err(|e| format!("connecting: {e}"))?;
        client
            .send(probe)
            .map_err(|e| format!("sending probe: {e}"))?;
        let resp = client
            .recv()
            .map_err(|e| format!("awaiting probe reply: {e}"))?;
        let setup_s = spawned.elapsed().as_secs_f64();
        let reply = Reply::of(&resp);
        if !reply.ok {
            return Err(format!("first reply is not OK: {}", reply.line));
        }
        Ok((server, setup_s, reply))
    }

    /// Peak resident set size (`VmHWM`) of the server so far, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Closes the server's stdin and waits (up to 30 s) for it to drain
    /// and exit; it must exit with status 0.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Ok(None) => return Err("server did not exit within 30 s of stdin EOF".into()),
                Err(e) => return Err(format!("waiting for server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("reading {status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}
