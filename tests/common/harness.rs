//! The in-process daemon harness shared by the socket test targets: a
//! self-cleaning temp directory and a server running on its own thread.
//! Targets include it with `#[path = "common/harness.rs"] mod harness;`.

use std::path::{Path, PathBuf};

/// Minimal self-cleaning temp dir (no external crate available).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(prefix: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("creating temp dir");
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(unix)]
pub use socket::RunningServer;

#[cfg(unix)]
mod socket {
    use std::path::PathBuf;

    use advm_serve::daemon::{Daemon, DaemonConfig};
    use advm_serve::{Client, Server};

    /// Binds a server on a fresh socket path and runs it on its own
    /// thread; the returned guard shuts it down on drop.
    pub struct RunningServer {
        /// The socket path clients connect to.
        pub path: PathBuf,
        handle: Option<std::thread::JoinHandle<()>>,
    }

    impl RunningServer {
        pub fn start(config: DaemonConfig) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "advm-e2e-{}-{}.sock",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let server = Server::bind(Daemon::start(config), &path).expect("binding test socket");
            let handle = std::thread::spawn(move || server.run().expect("server run"));
            Self {
                path,
                handle: Some(handle),
            }
        }

        pub fn client(&self) -> Client {
            Client::connect(&self.path).expect("connecting to test socket")
        }
    }

    impl Drop for RunningServer {
        fn drop(&mut self) {
            if let Ok(mut client) = Client::connect(&self.path) {
                let _ = client.shutdown();
            }
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
            let _ = std::fs::remove_file(&self.path);
        }
    }
}
