//! The load generator's side of the wire: one `mpcskew serve --listen`
//! child process and one TCP connection to it, used as a closed loop.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A reply slower than this counts as a client timeout and ends the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server. Dropping it kills the process and waits for it, so
/// no exit path leaves a child behind.
pub struct Server {
    child: Child,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One reply: its lines (newlines included) and how long it took from the
/// request's write to the last line's arrival.
pub struct Reply {
    pub text: String,
    pub latency: Duration,
}

impl Reply {
    pub fn is_err(&self) -> bool {
        self.text.starts_with("err")
    }
}

impl Server {
    /// Spawn `binary serve --listen 127.0.0.1:0 <flags>` and connect.
    pub fn spawn(binary: &str, flags: &[String]) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {binary}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut first = String::new();
        let read = BufReader::new(stdout).read_line(&mut first);
        let addr = first
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        let conn = match (read, addr) {
            (Ok(_), Some(addr)) => TcpStream::connect(&addr).map_err(|e| format!("{addr}: {e}")),
            _ => Err(format!("server did not report its address: {first:?}")),
        };
        let conn = match conn {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let reader = conn.try_clone().map(BufReader::new);
        let timeout = conn.set_read_timeout(Some(REPLY_TIMEOUT));
        match (reader, timeout) {
            (Ok(reader), Ok(())) => Ok(Server {
                child,
                conn,
                reader,
            }),
            (Err(e), _) | (_, Err(e)) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("socket setup: {e}"))
            }
        }
    }

    /// Send one request line in a single write and read its whole reply:
    /// one line, or — when `rows` — lines up to `end` (an `err` reply is
    /// always one line).
    pub fn request(&mut self, line: &str, rows: bool) -> Result<Reply, String> {
        let mut wire = String::with_capacity(line.len() + 1);
        wire.push_str(line);
        wire.push('\n');
        let start = Instant::now();
        self.conn
            .write_all(wire.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut text = String::new();
        loop {
            let before = text.len();
            let n = self
                .reader
                .read_line(&mut text)
                .map_err(|e| format!("reply: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            let last = &text[before..];
            if !rows || last == "end\n" || (before == 0 && last.starts_with("err")) {
                break;
            }
        }
        Ok(Reply {
            text,
            latency: start.elapsed(),
        })
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Ask the server to stop and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = self.request("SHUTDOWN", false)?;
        if !bye.text.starts_with("ok bye") {
            return Err(format!("SHUTDOWN answered {:?}", bye.text));
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already reaped after a clean shutdown; otherwise stop it now.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
