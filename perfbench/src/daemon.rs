//! A child `hacc daemon` on loopback TCP, and a closed-loop client
//! connection that times each reply's first byte and its newline.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hac_serve::json::{self, Json};

/// How long a stopping daemon may take before it is killed.
const STOP_GRACE: Duration = Duration::from_secs(10);

pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Threads draining the child's stdout and stderr (panic messages
    /// land on stderr); each returns the bytes it discarded.
    sinks: Vec<JoinHandle<u64>>,
}

fn drain(mut r: impl Read + Send + 'static) -> JoinHandle<u64> {
    std::thread::spawn(move || std::io::copy(&mut r, &mut std::io::sink()).unwrap_or(0))
}

impl Daemon {
    /// Start `hacc daemon` on a free loopback port and wait until it
    /// listens.
    ///
    /// # Errors
    /// A message when the child cannot start or never reports its port.
    pub fn spawn(hacc: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(hacc)
            .args(["daemon", "--listen", "127.0.0.1:0"])
            .env_remove("HAC_FAULT_PLAN")
            .env_remove("HAC_CHAOS_PLAN")
            .env_remove("HAC_OPS_PER_MS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", hacc.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut sinks = vec![drain(stderr)];
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let read = out.read_line(&mut first);
        sinks.push(drain(out));
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            sinks,
        };
        read.map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = first
            .trim()
            .strip_prefix("daemon listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner `{}`", first.trim()))?;
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Open one client connection.
    ///
    /// # Errors
    /// The connect error.
    pub fn connect(&self) -> std::io::Result<Conn> {
        Ok(Conn {
            stream: TcpStream::connect(self.addr)?,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// The daemon's `stats` control reply.
    ///
    /// # Errors
    /// A message when the control round trip fails.
    pub fn stats(&self) -> Result<Json, String> {
        let mut c = self.connect().map_err(|e| format!("stats connect: {e}"))?;
        let reply = c
            .call(r#"{"control":"stats"}"#)
            .map_err(|e| format!("stats: {e}"))?;
        json::parse(&reply.line)
    }

    /// Graceful shutdown: the `shutdown` control, then wait for the
    /// child and the drain threads.
    ///
    /// # Errors
    /// A message when the daemon had to be killed or failed.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call(r#"{"control":"shutdown"}"#))
            .map_err(|e| format!("shutdown control: {e}"));
        let deadline = Instant::now() + STOP_GRACE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break Ok(s),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => break Err("daemon did not stop; killed".to_string()),
                Err(e) => break Err(format!("waiting for the daemon: {e}")),
            }
        };
        self.reap();
        asked?;
        let status = status?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }

    /// Kill (if still running) and wait for the child, then join the
    /// drain threads.
    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        for s in self.sinks.drain(..) {
            let _ = s.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One reply and its timing, measured from the end of the request
/// write.
pub struct Reply {
    pub line: String,
    /// Until the first reply byte arrived.
    pub first_byte: Duration,
    /// Until the terminating newline arrived.
    pub total: Duration,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Send one line and wait for its reply line.
    ///
    /// # Errors
    /// I/O errors, and `UnexpectedEof` when the daemon closes the
    /// connection without a complete reply.
    pub fn call(&mut self, line: &str) -> std::io::Result<Reply> {
        let mut msg = Vec::with_capacity(line.len() + 1);
        msg.extend_from_slice(line.as_bytes());
        msg.push(b'\n');
        self.stream.write_all(&msg)?;
        let sent = Instant::now();
        self.buf.clear();
        let mut chunk = [0u8; 1 << 16];
        let mut first_byte = None;
        loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(|| sent.elapsed());
            self.buf.extend_from_slice(&chunk[..n]);
            if self.buf.last() == Some(&b'\n') {
                break;
            }
        }
        let total = sent.elapsed();
        self.buf.pop();
        let line = String::from_utf8(std::mem::take(&mut self.buf))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(Reply {
            line,
            first_byte: first_byte.expect("set on the first read"),
            total,
        })
    }
}
