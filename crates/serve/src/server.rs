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
//!
//! A failed accept or a connection thread that cannot start costs that
//! one connection, never the daemon: the error is logged and the server
//! keeps accepting.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::daemon::Daemon;
use crate::protocol::{error_line, Request};

/// The longest request line the server reads, in bytes (newline not
/// counted). Requests are a few hundred bytes; the cap keeps one client
/// from growing a connection thread's buffer without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// The pause after a failed accept. An error such as running out of
/// file descriptors repeats until a connection closes; the pause keeps
/// the accept loop from spinning on it meanwhile.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

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
    /// its own thread; request errors are answered on the wire, and
    /// accept or thread-spawn errors are logged, not propagated here.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            self.accept(stream);
        }
        drop(self.listener);
        let _ = std::fs::remove_file(&self.path);
        self.daemon.shutdown();
        Ok(())
    }

    /// Hands one accepted connection to a thread of its own. A failed
    /// accept is logged and followed by [`ACCEPT_BACKOFF`]; a thread
    /// that cannot start drops its connection. Either way the server
    /// keeps serving.
    fn accept(&self, stream: io::Result<UnixStream>) {
        let stream = match stream {
            Ok(stream) => stream,
            Err(error) => {
                eprintln!("advm-serve: accept failed: {error}");
                std::thread::sleep(ACCEPT_BACKOFF);
                return;
            }
        };
        let daemon = Arc::clone(&self.daemon);
        let stop = Arc::clone(&self.stop);
        let path = self.path.clone();
        let spawned = std::thread::Builder::new()
            .name("advm-serve-conn".to_owned())
            .spawn(move || {
                // A dropped connection mid-reply is the client's
                // problem, not the daemon's.
                let _ = handle_connection(&daemon, stream, &stop, &path);
            });
        if let Err(error) = spawned {
            eprintln!("advm-serve: dropping a connection, its thread did not start: {error}");
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;

    /// An accept error is logged and skipped: the next connection the
    /// same server accepts is served, and it answers `status`.
    #[test]
    fn accept_error_keeps_the_server_serving() {
        let path =
            std::env::temp_dir().join(format!("advm-serve-accept-{}.sock", std::process::id()));
        let server = Server::bind(
            Daemon::start(DaemonConfig {
                workers: 1,
                cache_capacity: 8,
            }),
            &path,
        )
        .expect("binding test socket");
        server.accept(Err(io::Error::other("injected accept failure")));

        let (served, mut client) = UnixStream::pair().expect("socket pair");
        server.accept(Ok(served));
        client
            .write_all(format!("{}\n", Request::Status.to_json()).as_bytes())
            .expect("sending status");
        let mut reply = String::new();
        BufReader::new(&client)
            .read_line(&mut reply)
            .expect("reading status");
        let status = advm::wire::JsonValue::parse(&reply).expect("status is JSON");
        assert!(status.bool_field("ok").unwrap(), "{reply}");
        assert_eq!(status.u64_field("done").unwrap(), 0, "{reply}");
        drop(client);
        drop(server);
        let _ = std::fs::remove_file(&path);
    }
}
