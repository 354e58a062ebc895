//! The Unix-domain-socket front-end of the daemon.
//!
//! One accept loop, one thread per connection, newline-delimited JSON in
//! both directions (see [`crate::protocol`]). The server owns a
//! [`Daemon`] and translates wire requests into calls on it; `watch`
//! turns the connection into an event stream until the watched job
//! seals.
//!
//! Request lines are read with a bound of [`MAX_REQUEST_LINE`] bytes.
//! A longer line is answered with one error line and the connection is
//! closed; a line that is not UTF-8 is answered with an error line and
//! the connection keeps serving.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::daemon::Daemon;
use crate::protocol::{error_line, Request};

/// The longest request line the server reads, in bytes (newline not
/// counted). Requests are a few hundred bytes; the cap keeps one client
/// from growing a connection thread's buffer without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// A bound, not-yet-running server.
pub struct Server {
    daemon: Arc<Daemon>,
    listener: UnixListener,
    path: PathBuf,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("path", &self.path)
            .field("daemon", &self.daemon)
            .finish()
    }
}

impl Server {
    /// Binds the socket (replacing a stale socket file, as daemons
    /// conventionally do) and takes ownership of the daemon.
    pub fn bind(daemon: Daemon, path: &Path) -> io::Result<Self> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        Ok(Self {
            daemon: Arc::new(daemon),
            listener,
            path: path.to_path_buf(),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound socket path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serves until a client sends `shutdown`. Each connection runs on
    /// its own thread; request errors are answered on the wire, not
    /// propagated here.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let daemon = Arc::clone(&self.daemon);
            let stop = Arc::clone(&self.stop);
            let path = self.path.clone();
            std::thread::Builder::new()
                .name("advm-serve-conn".to_owned())
                .spawn(move || {
                    // A dropped connection mid-reply is the client's
                    // problem, not the daemon's.
                    let _ = handle_connection(&daemon, stream, &stop, &path);
                })
                .expect("spawning connection thread");
        }
        drop(self.listener);
        let _ = std::fs::remove_file(&self.path);
        self.daemon.shutdown();
        Ok(())
    }
}

/// Serves one connection: a sequence of request lines, each answered by
/// one reply line (or, for `watch`, a stream of them).
fn handle_connection(
    daemon: &Daemon,
    stream: UnixStream,
    stop: &AtomicBool,
    path: &Path,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let read = (&mut reader)
            .take(MAX_REQUEST_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if read == 0 {
            break;
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_LINE {
            let message = format!("request line longer than {MAX_REQUEST_LINE} bytes");
            reply(&mut writer, &error_line(&message))?;
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            reply(&mut writer, &error_line("request line is not UTF-8"))?;
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::from_json(line) {
            Ok(request) => request,
            Err(error) => {
                reply(&mut writer, &error_line(&error.to_string()))?;
                continue;
            }
        };
        match request {
            Request::Submit(spec) => {
                let id = daemon.submit(spec);
                reply(&mut writer, &format!("{{\"ok\":true,\"job\":{id}}}"))?;
            }
            Request::Status => reply(&mut writer, &daemon.status_line())?,
            Request::List => reply(&mut writer, &daemon.list_line())?,
            Request::Cancel { job } => reply(&mut writer, &daemon.cancel(job))?,
            Request::Watch { job } => match daemon.job(job) {
                None => reply(&mut writer, &error_line(&format!("no such job {job}")))?,
                Some(record) => {
                    // Atomic snapshot + subscription: the backlog and
                    // the live tail never overlap or leave a gap.
                    let (backlog, live) = record.subscribe();
                    for line in &backlog {
                        reply(&mut writer, line)?;
                    }
                    if let Some(live) = live {
                        for line in live {
                            reply(&mut writer, &line)?;
                        }
                    }
                }
            },
            Request::Shutdown => {
                reply(&mut writer, "{\"ok\":true,\"shutdown\":true}")?;
                stop.store(true, Ordering::SeqCst);
                // Self-connect to unblock the accept loop.
                let _ = UnixStream::connect(path);
                break;
            }
        }
    }
    Ok(())
}

/// Writes one reply line, flushed — watchers read events as they
/// happen, not when a buffer fills.
fn reply(writer: &mut UnixStream, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}
