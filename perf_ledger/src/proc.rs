//! Child processes: this benchmark re-executing itself, and the daemon.
//!
//! A child talks back on stdout in `tag rest-of-line` lines and treats
//! EOF on its stdin as the order to finish, so a parent that dies
//! takes its children with it. Every child is waited for; one dropped
//! unfinished (a panic mid-run) is killed first.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use nvm_llc::serve::{http, ServeConfig, Server};

/// A running child of this benchmark.
pub struct Child {
    inner: std::process::Child,
    stdout: BufReader<ChildStdout>,
    /// When it was spawned.
    pub spawned: Instant,
}

impl Child {
    /// Starts this executable with `args`; stdin and stdout are piped
    /// to the parent, stderr is shared.
    pub fn spawn(args: &[String]) -> Child {
        let exe = std::env::current_exe().expect("path of the running benchmark");
        let spawned = Instant::now();
        let mut inner = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn benchmark child");
        let stdout = BufReader::new(inner.stdout.take().expect("piped stdout"));
        Child {
            inner,
            stdout,
            spawned,
        }
    }

    /// The rest of the next stdout line starting with `tag`; lines with
    /// other tags are skipped. Panics if the child exits first.
    pub fn read(&mut self, tag: &str) -> String {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.stdout.read_line(&mut line).expect("read child stdout");
            assert!(n > 0, "child exited before printing {tag:?}");
            if let Some(rest) = line.trim_end().strip_prefix(tag) {
                return rest.trim_start().to_owned();
            }
        }
    }

    /// Every remaining stdout line, until the child closes stdout.
    pub fn read_all(&mut self) -> Vec<String> {
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("read child stdout");
        rest.lines().map(str::to_owned).collect()
    }

    /// Closes the child's stdin, its order to finish.
    pub fn close_stdin(&mut self) {
        drop(self.inner.stdin.take());
    }

    /// Closes stdin and waits; panics unless the child exits cleanly.
    pub fn finish(mut self) {
        self.close_stdin();
        let status = self.inner.wait().expect("wait for child");
        assert!(status.success(), "benchmark child failed: {status}");
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Ok(None) = self.inner.try_wait() {
            let _ = self.inner.kill();
            let _ = self.inner.wait();
        }
    }
}

/// Parses `k1=v1 k2=v2 ...`.
pub fn parse_kv(line: &str) -> BTreeMap<String, String> {
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

/// The `f64` under `key` of a parsed result line.
pub fn kv_f64(kv: &BTreeMap<String, String>, key: &str) -> f64 {
    kv.get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("child result lacks a numeric {key}"))
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A daemon child: the same `Server` `nvm-llcd` runs, with its default
/// configuration on an ephemeral loopback port.
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns a daemon, on `store` if given, and waits for its first
    /// 200 from `/healthz`. Returns it with the set-up time in seconds.
    pub fn start(store: Option<&Path>) -> (Daemon, f64) {
        let mut args = vec!["child-daemon".to_owned()];
        if let Some(dir) = store {
            args.extend(["--store".to_owned(), dir.display().to_string()]);
        }
        let mut child = Child::spawn(&args);
        let addr: SocketAddr = child.read("addr").parse().expect("daemon address");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !matches!(http::get(addr, "/healthz"), Ok((200, _))) {
            assert!(Instant::now() < deadline, "daemon never became healthy");
            std::thread::sleep(Duration::from_micros(200));
        }
        let setup = child.spawned.elapsed().as_secs_f64();
        (Daemon { child, addr }, setup)
    }

    /// Stops the daemon gracefully; returns its peak RSS in MB.
    pub fn stop(mut self) -> f64 {
        self.child.close_stdin();
        let mb = self.child.read("rss_mb").parse().expect("daemon peak RSS");
        self.child.finish();
        mb
    }
}

/// The daemon child's body: serve until stdin closes, report the peak
/// RSS, drain and exit.
pub fn daemon_child(store: Option<PathBuf>) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        store_dir: store,
        ..ServeConfig::default()
    })
    .expect("start daemon");
    say(&format!("addr {}", server.addr()));
    std::io::copy(&mut std::io::stdin(), &mut std::io::sink()).expect("read daemon stdin");
    say(&format!("rss_mb {:?}", peak_rss_mb()));
    server.shutdown();
}

/// Prints one protocol line and flushes it to the parent.
pub fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}").expect("write to parent");
    out.flush().expect("flush to parent");
}

/// A directory under the working directory's `.perf_ledger/` for a
/// run's stores, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh, empty directory tagged `tag`.
    pub fn new(tag: &str) -> Scratch {
        let dir = Path::new(".perf_ledger").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Empties the directory for reuse.
    pub fn reset(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
        std::fs::create_dir_all(&self.0).expect("recreate scratch directory");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes `.perf_ledger/` too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
