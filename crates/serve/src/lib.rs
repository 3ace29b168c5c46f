//! # nvm-llcd — the evaluation service
//!
//! A std-only HTTP/1.1 daemon over the workload × technology matrix:
//! `std::net::TcpListener`, a fixed worker pool, and no dependencies
//! beyond the workspace. Endpoints:
//!
//! | endpoint   | answer |
//! |------------|--------|
//! | `/eval?workload=W&tech=T` | one technology's normalized cell |
//! | `/row?workload=W`        | the full matrix row for `W` |
//! | `/healthz`               | liveness (`ok`) |
//! | `/statsz`                | queue, coalescing, store, result-tier, and cluster counters |
//! | `/metricsz`              | the same registry in Prometheus text exposition |
//! | `/tracez`                | tail-sampled slow/error span trees (`?format=chrome` for chrome://tracing) |
//! | `/clusterz`              | every peer's `/metricsz` merged into one cluster-level Prometheus view |
//!
//! Optional parameters on `/eval` and `/row`: `models`
//! (`fixed_capacity`, default, or `fixed_area`) and `accesses`
//! (per-thread base access count).
//!
//! ## Transport
//!
//! Connections are **persistent**: the per-connection loop parses any
//! number of HTTP/1.1 requests out of one socket — pipelined into a
//! single TCP segment or split across reads — and writes exact
//! `Content-Length` responses back-to-back. `Connection:
//! keep-alive`/`close` is honored in both directions, bounded by a
//! max-requests-per-connection cap and an idle timeout
//! ([`ServeConfig::max_requests_per_conn`],
//! [`ServeConfig::idle_timeout_ms`]). A malformed request line answers
//! `400` *without* dropping the connection; only an unterminated
//! oversized head (`431`) forces a close, because there is no request
//! boundary left to recover at.
//!
//! ## Cluster serving
//!
//! With `--peers A,B,C` and `--shard-id N` the daemon is shard `N` of a
//! consistent-hash cluster over the persist keyspace (see [`cluster`]):
//! it answers the requests it owns, and forwards the rest a single hop
//! to the owning shard over pooled keep-alive connections ([`pool`]),
//! evaluating locally whenever the owner is unreachable or the request
//! already hopped once — a valid key is never 404'd. With `--peers` and
//! no `--shard-id` the same server is a thin router that only forwards.
//!
//! ## Behavior under load
//!
//! * **Backpressure** — accepted connections wait in a bounded queue;
//!   when it is full the accept thread answers `503` immediately. A
//!   request that would start a new evaluation beyond the in-flight
//!   cap answers `429`.
//! * **Coalescing** — N identical concurrent requests cost one
//!   evaluation: the first becomes the *leader*, the rest block on its
//!   slot and receive byte-identical bodies.
//! * **Persistence** — with a store attached ([`ServeConfig::store_dir`])
//!   evaluations read through and write back the content-addressed
//!   result store, so a warm request — even after a daemon restart —
//!   skips simulation entirely. Without a store, a repeated request is
//!   answered by the evaluator's in-memory result tier.
//! * **Graceful shutdown** — SIGTERM/SIGINT (or [`Server::stop`]) stops
//!   accepting, drains queued and in-flight requests (keep-alive
//!   connections get `Connection: close` on their next response), then
//!   joins every worker. The accept thread blocks in `accept` and idle
//!   workers block on the queue condvar; `stop` wakes both, the accept
//!   thread with one loopback connection to the bound port.
//!
//! ## Distributed tracing
//!
//! Every `/eval`/`/row` request (and any request arriving with an
//! `x-nvmllc-trace` header) is traced while span timing is enabled: a
//! [`nvm_llc_obs::trace::Collector`] follows the request through the
//! handler, proxy hops carry the context upstream and bring the remote
//! hop's spans back in a response header, and the stitched tree is
//! retained in a bounded per-server ring only when the request errored
//! or ran slower than the tail-sampling threshold
//! ([`ServeConfig::trace_slow_ms`]; default: the live p99 of the
//! handler-latency histogram). `GET /tracez` exports the retained
//! trees as JSON, `GET /tracez?format=chrome` as a chrome://tracing
//! timeline with one process lane per node. With span timing disabled
//! ([`nvm_llc_obs::set_enabled`]) no trace headers are emitted and the
//! wire bytes are identical to an untraced build.
//!
//! Responses are rendered by [`json`] with shortest-round-trip floats,
//! so a served body is byte-identical to rendering the same
//! `Evaluator` result locally — the integration tests pin exactly that,
//! across shards and proxy hops too.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod http;
pub mod json;
pub mod pool;

/// Service metrics in the process-wide [`nvm_llc_obs`] registry.
///
/// The latency histograms are process-wide (`/clusterz` and federation
/// read them unlabelled). Every counter and load gauge belongs to one
/// server instance and is labelled `instance="<n>"`; the server resolves
/// those handles once at start and keeps no other copy of the facts.
pub mod metrics {
    use nvm_llc_obs::metrics::Histogram;

    /// `nvmllc_serve_proxy_hops_total{instance,result[,peer]}` —
    /// cluster request placement, one sample per routed request:
    /// `local` (owned and answered here), `forwarded` with
    /// `peer="<shard>"` (relayed one hop to the owner and answered by
    /// it), or `fallback` (answered by a node other than the owner: a
    /// shard evaluating locally because the owner is unreachable or the
    /// request already hopped, or a router's later peer in ring order).
    pub(crate) const PROXY_HOPS: (&str, &str) = (
        "nvmllc_serve_proxy_hops_total",
        "Cluster request placement outcomes: local, forwarded to the \
         owning peer, or fallback to a node other than the owner.",
    );

    /// `nvmllc_serve_request_seconds`
    pub fn request_seconds() -> &'static Histogram {
        nvm_llc_obs::histogram!(
            "nvmllc_serve_request_seconds",
            "Handler latency: request parsed to response written.",
        )
    }

    /// `nvmllc_serve_queue_wait_seconds`
    pub fn queue_wait_seconds() -> &'static Histogram {
        nvm_llc_obs::histogram!(
            "nvmllc_serve_queue_wait_seconds",
            "Time an accepted connection waited in the bounded queue.",
        )
    }

    /// `nvmllc_serve_requests_per_conn` — requests served on one
    /// connection before it closed (keep-alive efficiency).
    pub fn requests_per_conn() -> &'static Histogram {
        nvm_llc_obs::histogram!(
            "nvmllc_serve_requests_per_conn",
            "Requests served per connection before close.",
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0],
        )
    }

    /// Pre-registers the process-wide inventory — the serve histograms,
    /// the placement family, and the evaluator (result tier and tape
    /// spans included), trace-cache, and store families — so a scrape of a freshly started (or purely
    /// store-served) daemon lists them before the first event.
    pub fn register() {
        request_seconds();
        queue_wait_seconds();
        requests_per_conn();
        nvm_llc_obs::metrics::declare_counter(PROXY_HOPS.0, PROXY_HOPS.1);
        nvm_llc_obs::metrics::histogram(
            "nvmllc_serve_handle_seconds",
            "Wall time of the `serve_handle` span.",
        );
        nvm_llc_obs::metrics::histogram(
            "nvmllc_proxy_upstream_seconds",
            "Wall time of one proxy hop to the owning shard.",
        );
        nvm_llc_sim::runner::metrics::register();
        nvm_llc_trace::metrics::register();
        nvm_llc_store::metrics::register();
    }
}

use std::collections::VecDeque;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nvm_llc_circuit::{reference, LlcModel};
use nvm_llc_obs::memo::{Memo, MemoMetrics};
use nvm_llc_obs::metrics::{counter_with, gauge_with, Counter, Gauge};
use nvm_llc_sim::{persist, Evaluator, PolicyKind};
use nvm_llc_store::Store;
use nvm_llc_trace::workloads;

use cluster::{ClusterConfig, ShardMap, HOP_HEADER};
use nvm_llc_obs::trace::{self, RetainedTrace, TailBuffer, TraceContext};
use pool::Pool;

/// Retained slow/error traces per server instance.
const TRACEZ_CAPACITY: usize = 64;

/// Service configuration; every field has a serving-friendly default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:7878`; port `0` picks one).
    pub addr: String,
    /// Worker threads handling connections. A keep-alive connection
    /// occupies its worker until it closes, so size this at or above
    /// the expected concurrent-connection count.
    pub workers: usize,
    /// Bounded accept queue; a full queue answers `503`.
    pub queue_capacity: usize,
    /// Concurrent evaluations allowed; excess leaders answer `429`.
    pub max_evals: usize,
    /// Worker threads *inside* each evaluation (`Evaluator::threads`).
    pub eval_threads: usize,
    /// Default per-thread base access count when a request names none.
    pub base_accesses: usize,
    /// Persistent result-store directory (none: in-memory caches only).
    pub store_dir: Option<PathBuf>,
    /// Requests served on one connection before the server closes it
    /// (the response that hits the cap carries `Connection: close`).
    pub max_requests_per_conn: usize,
    /// How long an idle keep-alive connection is held open, ms.
    pub idle_timeout_ms: u64,
    /// Consistent-hash cluster membership: none is a standalone node, a
    /// shard id a shard, and peers alone a thin router.
    pub cluster: Option<ClusterConfig>,
    /// Tail-sampling slowness threshold in milliseconds: traced
    /// requests at or above it retain their span tree in `/tracez`.
    /// `None` tracks the live p99 of the handler-latency histogram;
    /// `Some(0)` captures every traced request.
    pub trace_slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_owned(),
            workers: 4,
            queue_capacity: 64,
            max_evals: 4,
            eval_threads: 1,
            base_accesses: 20_000,
            store_dir: None,
            max_requests_per_conn: 1_000,
            idle_timeout_ms: 5_000,
            cluster: None,
            trace_slow_ms: None,
        }
    }
}

/// One-line flag summary shared by `nvm-llcd --help` and
/// `nvm-llc serve --help`.
pub const USAGE: &str = "\
options:
  --addr HOST:PORT       listen address (default 127.0.0.1:7878)
  --workers N            connection worker threads (default 4)
  --queue-capacity N     pending-connection bound; full => 503 (default 64)
  --max-evals N          concurrent evaluations; exhausted => 429 (default 4)
  --eval-threads N       worker threads inside one evaluation (default 1)
  --base-accesses N      default per-thread trace accesses (default 20000)
  --store-dir PATH       persistent content-addressed result store
  --max-requests-per-conn N  keep-alive requests per connection (default 1000)
  --idle-timeout-ms N    idle keep-alive connection timeout (default 5000)
  --peers A,B,C          every shard's address, in shard-id order; alone,
                         this node is a thin router over them
  --shard-id N           with --peers: this node is shard N of the ring
  --trace-slow-ms N      tail-sample traces at/above N ms (0 = every
                         traced request; default: track the live p99)";

impl ServeConfig {
    /// Parses daemon flags (see [`USAGE`]). Unknown flags, missing
    /// values, out-of-range numbers, and an invalid cluster
    /// ([`ClusterConfig::validate`]) are errors.
    pub fn parse_args(args: &[String]) -> Result<ServeConfig, String> {
        fn next<'a>(
            it: &mut impl Iterator<Item = &'a String>,
            flag: &str,
        ) -> Result<&'a str, String> {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        }
        fn positive(raw: &str, flag: &str) -> Result<usize, String> {
            raw.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("{flag} wants an integer >= 1, got {raw:?}"))
        }
        let mut config = ServeConfig::default();
        let mut shard_id: Option<usize> = None;
        let mut peers: Option<Vec<String>> = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--addr" => config.addr = next(&mut it, flag)?.to_owned(),
                "--workers" => config.workers = positive(next(&mut it, flag)?, flag)?,
                "--queue-capacity" => {
                    let raw = next(&mut it, flag)?;
                    config.queue_capacity = raw
                        .parse()
                        .map_err(|_| format!("{flag} wants an integer >= 0, got {raw:?}"))?;
                }
                "--max-evals" => {
                    let raw = next(&mut it, flag)?;
                    config.max_evals = raw
                        .parse()
                        .map_err(|_| format!("{flag} wants an integer >= 0, got {raw:?}"))?;
                }
                "--eval-threads" => config.eval_threads = positive(next(&mut it, flag)?, flag)?,
                "--base-accesses" => config.base_accesses = positive(next(&mut it, flag)?, flag)?,
                "--store-dir" => config.store_dir = Some(PathBuf::from(next(&mut it, flag)?)),
                "--max-requests-per-conn" => {
                    config.max_requests_per_conn = positive(next(&mut it, flag)?, flag)?;
                }
                "--idle-timeout-ms" => {
                    config.idle_timeout_ms = positive(next(&mut it, flag)?, flag)? as u64;
                }
                "--shard-id" => {
                    let raw = next(&mut it, flag)?;
                    shard_id = Some(
                        raw.parse()
                            .map_err(|_| format!("{flag} wants an integer >= 0, got {raw:?}"))?,
                    );
                }
                "--peers" => peers = Some(cluster::parse_peers(next(&mut it, flag)?)?),
                "--trace-slow-ms" => {
                    let raw = next(&mut it, flag)?;
                    config.trace_slow_ms = Some(
                        raw.parse()
                            .map_err(|_| format!("{flag} wants an integer >= 0, got {raw:?}"))?,
                    );
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        config.cluster = match (shard_id, peers) {
            (None, None) => None,
            (Some(_), None) => return Err("--shard-id needs --peers".to_owned()),
            (shard_id, Some(peers)) => {
                let cluster = ClusterConfig { shard_id, peers };
                cluster.validate()?;
                Some(cluster)
            }
        };
        Ok(config)
    }
}

/// One server's counters and load gauges: registry handles labelled
/// `instance="<n>"`, the only copy of each fact. `/statsz`, `/metricsz`
/// and [`Server::summary`] all read them.
struct Counters {
    instance: u64,
    connections: &'static Counter,
    /// Well-formed requests, counted on arrival (a `/statsz` probe
    /// counts itself).
    requests: &'static Counter,
    coalesce_waiters: &'static Counter,
    evaluations: &'static Counter,
    rejected_queue_full: &'static Counter,
    rejected_busy: &'static Counter,
    /// Responses by status class: [2xx, 4xx, 5xx].
    by_class: [&'static Counter; 3],
    queue_depth: &'static Gauge,
    inflight_evals: &'static Gauge,
    uptime_seconds: &'static Gauge,
}

impl Counters {
    fn new(instance: u64) -> Counters {
        let id = instance.to_string();
        let labelled = |name, help, extra: &[(&str, &str)]| {
            let mut labels = vec![("instance", id.as_str())];
            labels.extend_from_slice(extra);
            counter_with(name, help, &labels)
        };
        let counter = |name, help| labelled(name, help, &[]);
        let gauge = |name, help| gauge_with(name, help, &[("instance", id.as_str())]);
        let class = |class| {
            let help = "HTTP responses sent, by status class.";
            labelled("nvmllc_serve_requests_total", help, &[("class", class)])
        };
        let rejected = |reason| {
            let help = "Requests shed by backpressure, by reason.";
            labelled("nvmllc_serve_rejected_total", help, &[("reason", reason)])
        };
        Counters {
            instance,
            connections: counter(
                "nvmllc_serve_connections_total",
                "TCP connections handed to the worker pool.",
            ),
            requests: counter(
                "nvmllc_serve_requests_routed_total",
                "Well-formed requests routed, counted on arrival.",
            ),
            coalesce_waiters: counter(
                "nvmllc_serve_coalesce_waiters_total",
                "Requests that waited on another request's identical evaluation.",
            ),
            evaluations: counter(
                "nvmllc_serve_evaluations_total",
                "Evaluations actually run (coalesced waiters excluded).",
            ),
            rejected_queue_full: rejected("queue_full"),
            rejected_busy: rejected("busy"),
            by_class: [class("2xx"), class("4xx"), class("5xx")],
            queue_depth: gauge(
                "nvmllc_serve_queue_depth",
                "Connections currently waiting in the accept queue.",
            ),
            inflight_evals: gauge(
                "nvmllc_serve_inflight_evals",
                "Evaluations currently running under the in-flight cap.",
            ),
            uptime_seconds: gauge(
                "nvmllc_serve_uptime_seconds",
                "Seconds since the server started, rounded up (set at scrape time).",
            ),
        }
    }

    /// Counts one response toward its status class.
    fn count_status(&self, status: u16) {
        let idx = match status / 100 {
            2 => 0,
            4 => 1,
            _ => 2,
        };
        self.by_class[idx].inc();
    }
}

/// How one evaluation ended: a shared response body, or a status code
/// plus error message.
type EvalOutcome = Result<Arc<String>, (u16, String)>;

/// Everything cluster-aware dispatch needs: the ring, this node's
/// identity (routers have none), one upstream pool per peer, and the
/// placement counters ([`metrics::PROXY_HOPS`]), each routed request
/// landing in exactly one of them.
struct ClusterState {
    map: ShardMap,
    /// `Some(shard_id)` on a shard; `None` on a router.
    self_id: Option<usize>,
    /// One keep-alive pool per shard, indexed by shard id. A shard's
    /// own slot exists but is never dialed.
    peers: Vec<Pool>,
    /// Requests owned and answered here.
    local: &'static Counter,
    /// Requests relayed to each owning peer and answered by it.
    forwards: Vec<&'static Counter>,
    /// Requests answered by a node other than their owner.
    fallbacks: &'static Counter,
}

impl ClusterState {
    fn new(config: &ClusterConfig, instance: u64) -> ClusterState {
        let peers = &config.peers;
        let id = instance.to_string();
        let (name, help) = metrics::PROXY_HOPS;
        let hops = |result, peer: Option<&str>| {
            let mut labels = vec![("instance", id.as_str()), ("result", result)];
            labels.extend(peer.map(|peer| ("peer", peer)));
            counter_with(name, help, &labels)
        };
        ClusterState {
            map: ShardMap::new(peers.len()),
            self_id: config.shard_id,
            peers: peers.iter().map(Pool::new).collect(),
            local: hops("local", None),
            forwards: (0..peers.len())
                .map(|peer| hops("forwarded", Some(&peer.to_string())))
                .collect(),
            fallbacks: hops("fallback", None),
        }
    }

    fn render_json(&self) -> String {
        let role = match self.self_id {
            Some(_) => "shard",
            None => "router",
        };
        let forwards: Vec<String> = self.forwards.iter().map(|f| f.get().to_string()).collect();
        let peers: Vec<String> = self
            .peers
            .iter()
            .map(|p| format!("\"{}\"", p.addr()))
            .collect();
        format!(
            "{{\"role\":\"{role}\",\"shard_id\":{},\"shard_count\":{},\
             \"peers\":[{}],\"forwards\":[{}],\"fallbacks\":{},\"map\":{}}}",
            self.self_id
                .map_or_else(|| "null".to_owned(), |id| id.to_string()),
            self.map.shard_count(),
            peers.join(","),
            forwards.join(","),
            self.fallbacks.get(),
            self.map.render_json(),
        )
    }
}

struct Shared {
    config: ServeConfig,
    /// `None` on a standalone node, which evaluates everything locally.
    /// A shard evaluates the keys it owns and forwards the rest one
    /// hop; a router forwards everything and evaluates nothing.
    cluster: Option<ClusterState>,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    counters: Counters,
    /// In-flight evaluations by [`EvalRequest::route_key`]. The entry's
    /// runner removes it on completion, so the memo retains nothing.
    coalesce: Memo<nvm_llc_store::Key, EvalOutcome>,
    inflight_evals: AtomicUsize,
    store: Option<Arc<Store>>,
    started: Instant,
    next_request_id: AtomicU64,
    /// Tail-sampled slow/error traces, per server instance (tests run
    /// several servers in one process; a global ring would mix them).
    tracez: TailBuffer,
    /// This node's lane label in stitched traces (`shard-N`, `router`,
    /// or `node`).
    node_label: String,
}

/// A running service instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds, opens the store (when configured), and spawns the accept
    /// thread plus the worker pool. Returns once the service accepts.
    /// The role (node, shard or router) follows [`ServeConfig::cluster`];
    /// an invalid cluster ([`ClusterConfig::validate`]) is `InvalidInput`.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        if let Some(c) = &config.cluster {
            c.validate()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        }
        let instance = nvm_llc_obs::metrics::next_instance();
        let cluster = config
            .cluster
            .as_ref()
            .map(|c| ClusterState::new(c, instance));
        metrics::register();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = match &config.store_dir {
            Some(dir) => Some(Arc::new(Store::open(dir)?)),
            None => None,
        };
        let workers = config.workers.max(1);
        let node_label = match cluster.as_ref().map(|c| c.self_id) {
            None => "node".to_owned(),
            Some(None) => "router".to_owned(),
            Some(Some(id)) => format!("shard-{id}"),
        };
        let counters = Counters::new(instance);
        let coalesce = Memo::new(
            u64::MAX,
            |_| 0,
            MemoMetrics {
                hits: Some(counters.coalesce_waiters),
                ..MemoMetrics::default()
            },
        );
        let shared = Arc::new(Shared {
            config,
            cluster,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            counters,
            coalesce,
            inflight_evals: AtomicUsize::new(0),
            store,
            started: Instant::now(),
            next_request_id: AtomicU64::new(1),
            tracez: TailBuffer::new(TRACEZ_CAPACITY),
            node_label,
        });
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("nvm-llcd-accept".into())
                    .spawn(move || accept_loop(&shared, listener))?,
            );
        }
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("nvm-llcd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(Server {
            shared,
            addr,
            threads,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown: stop accepting, drain queued and in-flight
    /// work. Idempotent; [`Server::join`] completes it.
    pub fn stop(&self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Taking the queue lock orders the flag before any worker's next
        // check-then-wait, so the notify below cannot be lost.
        drop(self.shared.queue.lock().expect("queue lock"));
        self.shared.queue_cv.notify_all();
        // Wake the blocked accept; it sees the flag and drops this
        // connection. An unspecified bind address is reachable on
        // loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Err(e) = TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
            nvm_llc_obs::error!(
                "serve", "accept wake-up failed; join waits for the next connection";
                "addr" => wake.to_string(),
                "error" => e.to_string(),
            );
        }
    }

    /// Whether shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Waits for every thread to finish draining and exit.
    pub fn join(mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// [`Server::stop`] then [`Server::join`].
    pub fn shutdown(self) {
        self.stop();
        self.join();
    }

    /// One-line lifetime summary (for the daemon's shutdown log).
    pub fn summary(&self) -> String {
        let c = &self.shared.counters;
        format!(
            "{} connections, {} requests, {} evaluations, {} coalesced, \
             {} queue-rejected, {} busy-rejected",
            c.connections.get(),
            c.requests.get(),
            c.evaluations.get(),
            c.coalesce_waiters.get(),
            c.rejected_queue_full.get(),
            c.rejected_busy.get(),
        )
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if shared.stop.load(Ordering::SeqCst) => break,
            // A persistent error (EMFILE) would otherwise spin the thread.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let mut queue = shared.queue.lock().expect("queue lock");
        // Checked under the queue lock, which `stop` takes after setting
        // the flag: a connection queued here is one the workers drain,
        // and one accepted after stop (the wake-up among them) is dropped.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if queue.len() >= shared.config.queue_capacity {
            drop(queue);
            shared.counters.rejected_queue_full.inc();
            shared.counters.count_status(503);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            // Drain the request head before answering: closing with
            // unread bytes resets the connection and can discard the 503
            // before the client sees it.
            let _ = http::read_request(&mut stream);
            let _ = http::respond(
                &mut stream,
                503,
                "application/json",
                "{\"error\":\"request queue full\"}",
            );
        } else {
            queue.push_back((stream, Instant::now()));
            shared.counters.queue_depth.set(queue.len() as u64);
            drop(queue);
            shared.queue_cv.notify_one();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                // Pop before honoring stop: shutdown drains the queue.
                if let Some((stream, enqueued)) = queue.pop_front() {
                    shared.counters.queue_depth.set(queue.len() as u64);
                    break Some((stream, enqueued));
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.queue_cv.wait(queue).expect("queue lock");
            }
        };
        match stream {
            Some((stream, enqueued)) => {
                let queue_wait = enqueued.elapsed();
                metrics::queue_wait_seconds().record(queue_wait.as_secs_f64());
                handle_connection(shared, stream, queue_wait);
            }
            None => break,
        }
    }
}

fn error_json(message: &str) -> String {
    format!("{{\"error\":\"{message}\"}}")
}

/// How often a blocked connection read wakes to re-check the stop flag
/// and the idle deadline. This poll stays: an idle keep-alive read has
/// no other wakeup without a per-connection registry to shut it down.
const READ_POLL: Duration = Duration::from_millis(200);

/// Serves one connection to completion: parse every request the socket
/// delivers (pipelined or split across reads), answer each with an
/// exact-length response, write batches back-to-back, and hold the
/// connection open until the peer closes, an idle timeout passes, the
/// per-connection request cap is reached, or the server drains.
fn handle_connection(shared: &Shared, mut stream: TcpStream, queue_wait: Duration) {
    shared.counters.connections.inc();
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);

    let idle_timeout = Duration::from_millis(shared.config.idle_timeout_ms.max(1));
    let max_requests = shared.config.max_requests_per_conn.max(1) as u64;
    let mut buf = http::ConnBuffer::new();
    let mut out: Vec<u8> = Vec::new();
    let mut served: u64 = 0;
    let mut last_activity = Instant::now();
    // The accept-queue wait belongs to the connection's first request;
    // later requests on the same connection never queued.
    let mut queue_wait = Some(queue_wait);

    'conn: loop {
        // Drain every complete request already buffered, answering each
        // into the write buffer so pipelined responses go out together.
        loop {
            let parse_started = Instant::now();
            match buf.next_request() {
                Ok(Some(request)) => {
                    let phases = PrePhases {
                        queue_wait: queue_wait.take(),
                        parse: parse_started.elapsed(),
                    };
                    served += 1;
                    let draining = shared.stop.load(Ordering::SeqCst);
                    let close = request.close || served >= max_requests || draining;
                    serve_request(shared, &request, &mut out, !close, phases);
                    if close {
                        let _ = flush(&mut stream, &mut out);
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(http::ParseError::Malformed(_)) => {
                    // The bad head was consumed; answer 400 and keep
                    // parsing — pipelined successors are still intact.
                    served += 1;
                    shared.counters.count_status(400);
                    let _ = http::respond_conn(
                        &mut out,
                        400,
                        "application/json",
                        &error_json("malformed request"),
                        served < max_requests,
                    );
                    if served >= max_requests {
                        let _ = flush(&mut stream, &mut out);
                        break 'conn;
                    }
                }
                Err(http::ParseError::TooLarge) => {
                    // No head boundary to resynchronize at: close. The
                    // 431 is still a served response and must land in
                    // requests_per_conn like every other exit path.
                    served += 1;
                    shared.counters.count_status(431);
                    let _ = http::respond_conn(
                        &mut out,
                        431,
                        "application/json",
                        &error_json("request header section too large"),
                        false,
                    );
                    let _ = flush(&mut stream, &mut out);
                    // Drain whatever the client over-sent before closing:
                    // a close with unread bytes queued resets the
                    // connection and can discard the 431 in flight.
                    drain_excess(&mut stream);
                    break 'conn;
                }
            }
        }
        if flush(&mut stream, &mut out).is_err() {
            break;
        }
        // Need more bytes. The read timeout is short so the idle
        // deadline and the stop flag are both honored promptly.
        match buf.fill(&mut stream) {
            Ok(0) => break, // peer closed
            Ok(_) => last_activity = Instant::now(),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::SeqCst) && buf.buffered() == 0 {
                    break;
                }
                if last_activity.elapsed() >= idle_timeout {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    metrics::requests_per_conn().record(served as f64);
}

/// Best-effort bounded read-to-idle, so an error close does not reset
/// the connection under the response. One `READ_POLL` of quiet (or
/// 256 KiB drained) is enough — this only smooths the error path.
fn drain_excess(stream: &mut TcpStream) {
    use std::io::Read as _;
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 256 * 1024 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn flush(stream: &mut TcpStream, out: &mut Vec<u8>) -> std::io::Result<()> {
    use std::io::Write as _;
    if out.is_empty() {
        return Ok(());
    }
    let result = stream.write_all(out);
    out.clear();
    result
}

/// Pre-handler phase timings measured by the connection loop: the
/// accept-queue wait (first request of a connection only) and how long
/// this request's head took to parse out of the read buffer.
struct PrePhases {
    queue_wait: Option<Duration>,
    parse: Duration,
}

/// Routes one parsed request and writes its response (headers + body)
/// into the connection's write buffer.
fn serve_request(
    shared: &Shared,
    request: &http::Request,
    out: &mut Vec<u8>,
    keep_alive: bool,
    phases: PrePhases,
) {
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    shared.counters.requests.inc();

    // Trace evaluation traffic and anything that arrived with a trace
    // context, but only while span timing is on — disabled tracing must
    // leave the wire bytes identical to an untraced build.
    let inbound = request
        .header(trace::TRACE_HEADER)
        .and_then(TraceContext::parse);
    let traced = nvm_llc_obs::enabled()
        && (inbound.is_some() || matches!(request.path.as_str(), "/eval" | "/row"));
    let collector = traced.then(|| trace::Collector::begin(inbound, trace::MAX_SPANS_PER_TRACE));
    let _attached = collector
        .as_ref()
        .map(|c| trace::attach(c, c.root_parent()));
    if let Some(collector) = &collector {
        // The queue and parse phases ended before the collector
        // existed; backdate them so the timeline runs accept-to-write.
        let parse_micros = phases.parse.as_secs_f64() * 1e6;
        if let Some(wait) = phases.queue_wait {
            let wait_micros = wait.as_secs_f64() * 1e6;
            collector.add_synthetic(
                "queue",
                collector.root_parent(),
                -(wait_micros + parse_micros),
                wait_micros,
            );
        }
        collector.add_synthetic(
            "parse",
            collector.root_parent(),
            -parse_micros,
            parse_micros,
        );
    }

    let start = Instant::now();
    let (status, content_type, body) = {
        let _span = nvm_llc_obs::span!("serve_handle");
        route(shared, request)
    };
    let elapsed = start.elapsed();
    metrics::request_seconds().record(elapsed.as_secs_f64());
    shared.counters.count_status(status);
    nvm_llc_obs::debug!(
        "serve", "request";
        "request_id" => request_id,
        "path" => request.path.as_str(),
        "status" => u64::from(status),
        "micros" => elapsed.as_micros() as u64,
    );

    let mut extra: Vec<(String, String)> = Vec::new();
    if let Some(collector) = collector {
        if collector.hop() > 0 {
            // Forwarded request: hand our spans back to the caller,
            // which stitches them under its own proxy span.
            extra.push((
                trace::SPANS_HEADER.to_owned(),
                collector.encode_spans(&shared.node_label),
            ));
        } else {
            finish_trace(shared, request, &collector, status, elapsed);
        }
    }
    let _ = http::respond_conn_ext(out, status, content_type, &body, keep_alive, &extra);
}

/// Hop-zero trace epilogue: tail-sampling. Retain the sealed span tree
/// in `/tracez` — and log a structured slow-request line with per-phase
/// attribution — only when the request errored or ran at/above the
/// slowness threshold.
fn finish_trace(
    shared: &Shared,
    request: &http::Request,
    collector: &trace::Collector,
    status: u16,
    elapsed: Duration,
) {
    let total_micros = elapsed.as_secs_f64() * 1e6;
    let reason = if status >= 400 {
        "error"
    } else if total_micros >= slow_threshold_micros(shared) {
        "slow"
    } else {
        return;
    };
    let spans = collector.seal(&shared.node_label);
    let phase = phase_micros(&spans);
    nvm_llc_obs::info!(
        "serve", "slow_request";
        "trace_id" => format!("{:032x}", collector.trace_id()),
        "target" => request.raw_target.as_str(),
        "status" => u64::from(status),
        "reason" => reason,
        "total_us" => total_micros as u64,
        "queue_us" => phase.queue as u64,
        "parse_us" => phase.parse as u64,
        "functional_us" => phase.functional as u64,
        "replay_us" => phase.replay as u64,
        "store_us" => phase.store as u64,
        "proxy_us" => phase.proxy as u64,
    );
    shared.tracez.push(RetainedTrace {
        trace_id: collector.trace_id(),
        target: request.raw_target.clone(),
        status,
        reason,
        total_micros,
        node: shared.node_label.clone(),
        spans,
        dropped: collector.dropped(),
    });
}

/// The tail-sampling slowness threshold in microseconds: the configured
/// `--trace-slow-ms`, or the live p99 of the handler-latency histogram.
fn slow_threshold_micros(shared: &Shared) -> f64 {
    match shared.config.trace_slow_ms {
        Some(ms) => ms as f64 * 1000.0,
        None => metrics::request_seconds().quantile(0.99) * 1e6,
    }
}

/// Wall time attributed to each request phase, in microseconds.
#[derive(Debug, Default)]
struct PhaseMicros {
    queue: f64,
    parse: f64,
    functional: f64,
    replay: f64,
    store: f64,
    proxy: f64,
}

/// Sums span durations into request phases by span name. Only
/// same-level spans contribute to one phase (`tape_replay_chunk` nests
/// inside `tape_replay_batch` and would double-count, as would the
/// `trace_generate` chunks of a trace streamed inside `tape_record`).
fn phase_micros(spans: &[nvm_llc_obs::trace::SpanRecord]) -> PhaseMicros {
    let records: Vec<u64> = spans
        .iter()
        .filter(|span| span.name == "tape_record")
        .map(|span| span.span_id)
        .collect();
    let mut phase = PhaseMicros::default();
    for span in spans {
        let bucket = match span.name.as_str() {
            "queue" => &mut phase.queue,
            "parse" => &mut phase.parse,
            "trace_generate" if records.contains(&span.parent_id) => continue,
            "tape_record" | "trace_generate" => &mut phase.functional,
            "tape_replay_batch" => &mut phase.replay,
            "proxy_upstream" => &mut phase.proxy,
            name if name.starts_with("store_") => &mut phase.store,
            _ => continue,
        };
        *bucket += span.dur_micros;
    }
    phase
}

fn route(shared: &Shared, request: &http::Request) -> (u16, &'static str, String) {
    if request.method != "GET" {
        return (405, "application/json", error_json("GET only"));
    }
    match request.path.as_str() {
        "/healthz" => (200, "text/plain", "ok\n".to_owned()),
        "/statsz" => (200, "application/json", render_statsz(shared)),
        "/metricsz" => (200, "text/plain; version=0.0.4", render_metricsz(shared)),
        "/tracez" => {
            if request.param("format") == Some("chrome") {
                let traces = shared.tracez.snapshot();
                (200, "application/json", trace::render_chrome(&traces))
            } else {
                // Prefix the ring's JSON with this server's lane label.
                let json = shared.tracez.render_json();
                let body = format!("{{\"node\":\"{}\",{}", shared.node_label, &json[1..]);
                (200, "application/json", body)
            }
        }
        "/clusterz" => (200, "text/plain; version=0.0.4", render_clusterz(shared)),
        "/eval" | "/row" => {
            let (status, body) = eval_or_forward(shared, request);
            (status, "application/json", body)
        }
        _ => (404, "application/json", error_json("unknown path")),
    }
}

/// The model sets a request may evaluate against.
fn models_for(set: &str) -> Option<Vec<LlcModel>> {
    match set {
        "fixed_capacity" => Some(reference::fixed_capacity()),
        "fixed_area" => Some(reference::fixed_area()),
        _ => None,
    }
}

/// A validated evaluation request: everything that identifies its
/// output, and therefore its coalescing key and its shard owner.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EvalRequest {
    /// `None`: full row; `Some(tech)`: one cell.
    tech: Option<String>,
    models: String,
    workload: String,
    accesses: usize,
    /// LLC replacement policy the evaluation runs under (`lru` when the
    /// request does not say).
    policy: PolicyKind,
}

impl EvalRequest {
    /// The request's point in the persist keyspace — what the cluster
    /// shards on and what identical requests coalesce on.
    fn route_key(&self) -> nvm_llc_store::Key {
        persist::request_key(
            &self.models,
            &self.workload,
            self.tech.as_deref(),
            self.accesses,
            self.policy,
        )
    }
}

/// Bounds on the per-request `accesses` override: enough to be
/// meaningful, small enough that one request cannot wedge a worker.
const ACCESSES_RANGE: std::ops::RangeInclusive<usize> = 100..=5_000_000;

fn parse_eval_request(shared: &Shared, request: &http::Request) -> Result<EvalRequest, String> {
    let models = request.param("models").unwrap_or("fixed_capacity");
    let model_set = models_for(models).ok_or_else(|| {
        format!("unknown models set {models:?} (want fixed_capacity or fixed_area)")
    })?;
    let workload = request
        .param("workload")
        .ok_or("missing required parameter: workload")?;
    if workloads::by_name(workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    let accesses = match request.param("accesses") {
        None => shared.config.base_accesses,
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|n| ACCESSES_RANGE.contains(n))
            .ok_or_else(|| {
                format!(
                    "accesses wants an integer in {}..={}, got {raw:?}",
                    ACCESSES_RANGE.start(),
                    ACCESSES_RANGE.end()
                )
            })?,
    };
    let policy = match request.param("policy") {
        None => PolicyKind::Lru,
        Some(raw) => PolicyKind::parse(raw).ok_or_else(|| {
            format!(
                "unknown policy {raw:?} (want one of lru, random, srrip, \
                 drrip, ship, endurance)"
            )
        })?,
    };
    let tech = if request.path == "/eval" {
        let tech = request
            .param("tech")
            .ok_or("missing required parameter: tech")?;
        if reference::by_name(&model_set, tech).is_none() {
            return Err(format!(
                "unknown technology {tech:?} in models set {models:?}"
            ));
        }
        Some(tech.to_owned())
    } else {
        None
    };
    Ok(EvalRequest {
        tech,
        models: models.to_owned(),
        workload: workload.to_owned(),
        accesses,
        policy,
    })
}

/// `/eval` and `/row`: validate, then either evaluate here or forward
/// to the owning shard, depending on this server's role.
fn eval_or_forward(shared: &Shared, request: &http::Request) -> (u16, String) {
    let parsed = match parse_eval_request(shared, request) {
        Ok(parsed) => parsed,
        Err(message) => return (400, error_json(&message)),
    };
    match &shared.cluster {
        None => eval_parsed(shared, &parsed),
        Some(state) if state.self_id.is_some() => shard_dispatch(shared, state, request, &parsed),
        Some(state) => router_forward(state, request, &parsed),
    }
}

/// Shard placement: evaluate owned (or already-hopped) requests
/// locally, forward the rest one hop to the owner, and fall back to a
/// local evaluation whenever the owner cannot answer — the
/// location-independent persist keys make the local answer
/// byte-identical, so availability never costs correctness.
fn shard_dispatch(
    shared: &Shared,
    state: &ClusterState,
    request: &http::Request,
    parsed: &EvalRequest,
) -> (u16, String) {
    let owner = state.map.owner(&parsed.route_key());
    let hopped = request.header(HOP_HEADER).is_some();
    if Some(owner) == state.self_id {
        state.local.inc();
        return eval_parsed(shared, parsed);
    }
    if hopped {
        // Single-hop invariant: a forwarded request never forwards
        // again, whatever this node thinks the map says.
        state.fallbacks.inc();
        return eval_parsed(shared, parsed);
    }
    match proxy_request(&state.peers[owner], request) {
        Ok((status, body)) if status < 500 => {
            state.forwards[owner].inc();
            (status, body)
        }
        // Owner down or failing: answer it ourselves.
        Ok(_) | Err(_) => {
            state.fallbacks.inc();
            eval_parsed(shared, parsed)
        }
    }
}

/// One hop-marked proxy round trip with trace propagation: the current
/// trace context (if any) rides upstream in [`trace::TRACE_HEADER`],
/// and the upstream's span records come back in [`trace::SPANS_HEADER`]
/// and are stitched into the local collector under the proxy span.
fn proxy_request(peer: &Pool, request: &http::Request) -> std::io::Result<(u16, String)> {
    let context = trace::outbound_context().map(|c| c.encode());
    let mut headers: Vec<(&str, &str)> = vec![(HOP_HEADER, "1")];
    if let Some(context) = &context {
        headers.push((trace::TRACE_HEADER, context));
    }
    // Remote span offsets are relative to the upstream's request start,
    // which is (to within network latency) now.
    let base_micros = trace::current().map(|c| c.elapsed_micros());
    let response = {
        let _span = nvm_llc_obs::span!("proxy_upstream");
        peer.request(&request.raw_target, &headers)?
    };
    if let (Some(collector), Some(base)) = (trace::current(), base_micros) {
        if let Some(spans) = response.header(trace::SPANS_HEADER) {
            collector.ingest_remote(spans, base);
        }
    }
    Ok((response.status, response.body))
}

/// Router placement: forward to the owner; if the owner is unreachable,
/// walk the remaining shards in ring order — each carries the hop
/// marker, so whichever shard answers evaluates locally and the
/// response stays byte-identical. An answer from the owner counts as a
/// forward to it, any other answer as one fallback.
fn router_forward(
    state: &ClusterState,
    request: &http::Request,
    parsed: &EvalRequest,
) -> (u16, String) {
    let owner = state.map.owner(&parsed.route_key());
    let n = state.peers.len();
    for attempt in 0..n {
        let peer = (owner + attempt) % n;
        match proxy_request(&state.peers[peer], request) {
            Ok((status, body)) if status < 500 => {
                match attempt {
                    0 => state.forwards[peer].inc(),
                    _ => state.fallbacks.inc(),
                }
                return (status, body);
            }
            Ok(_) | Err(_) => continue,
        }
    }
    (502, error_json("no shard reachable"))
}

/// Evaluates one validated request behind the coalescing memo: the
/// caller that runs the evaluation leads, and every identical request
/// arriving meanwhile waits on its slot (counted as a coalesce waiter).
fn eval_parsed(shared: &Shared, parsed: &EvalRequest) -> (u16, String) {
    let key = parsed.route_key();
    let (outcome, leader) = shared
        .coalesce
        .get_or_make(&key, || evaluate(shared, parsed).map(Arc::new));
    if leader {
        shared.coalesce.remove(&key);
    }
    match outcome {
        Ok(body) => (200, Arc::unwrap_or_clone(body)),
        Err((status, body)) => (status, body),
    }
}

/// Runs one evaluation under the in-flight cap, rendering its JSON.
fn evaluate(shared: &Shared, request: &EvalRequest) -> Result<String, (u16, String)> {
    let cap = shared.config.max_evals;
    let admitted = shared
        .inflight_evals
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < cap).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        shared.counters.rejected_busy.inc();
        return Err((
            429,
            error_json("evaluation capacity exhausted, retry later"),
        ));
    }
    let now = shared.inflight_evals.load(Ordering::SeqCst);
    shared.counters.inflight_evals.set(now as u64);
    // RAII: the slot is released (and the gauge resynced) even if the
    // evaluation panics, so the cap can never leak closed.
    struct InflightGuard<'a>(&'a Shared);
    impl Drop for InflightGuard<'_> {
        fn drop(&mut self) {
            let shared = self.0;
            shared.inflight_evals.fetch_sub(1, Ordering::SeqCst);
            let now = shared.inflight_evals.load(Ordering::SeqCst);
            shared.counters.inflight_evals.set(now as u64);
        }
    }
    let _guard = InflightGuard(shared);
    let result = run_evaluation(shared, request);
    shared.counters.evaluations.inc();
    result
}

fn run_evaluation(shared: &Shared, request: &EvalRequest) -> Result<String, (u16, String)> {
    let internal = |what: &str| (500, error_json(what));
    let models = models_for(&request.models).ok_or_else(|| internal("models set vanished"))?;
    let baseline =
        reference::by_name(&models, "SRAM").ok_or_else(|| internal("no SRAM baseline"))?;
    // A cell is evaluated with every technology of its set that has its
    // LLC capacity: they share its functional pass, so they cost a few
    // timing replays more, and a sweep of `/eval` over the set finds
    // them in the result tier instead of recording the tape again.
    let tech = request
        .tech
        .as_deref()
        .map(|tech| reference::by_name(&models, tech).ok_or_else(|| internal("tech vanished")))
        .transpose()?;
    let nvms: Vec<LlcModel> = models
        .into_iter()
        .filter(|m| m.name != "SRAM")
        .filter(|m| {
            tech.as_ref()
                .is_none_or(|t| m.capacity.bytes() == t.capacity.bytes())
        })
        .collect();
    let workload =
        workloads::by_name(&request.workload).ok_or_else(|| internal("workload vanished"))?;
    let mut evaluator = Evaluator::new(baseline, nvms)
        .base_accesses(request.accesses)
        .threads(shared.config.eval_threads.max(1))
        .policy(request.policy);
    if let Some(store) = &shared.store {
        evaluator = evaluator.store(Arc::clone(store));
    }
    let row = evaluator.run_workload(&workload);
    Ok(match tech {
        Some(tech) => {
            let name = tech.display_name();
            let entry = row
                .entries
                .iter()
                .find(|e| e.llc == name)
                .ok_or_else(|| internal("tech missing from its row"))?;
            json::render_cell(&row.workload, entry)
        }
        None => json::render_row(&row),
    })
}

/// Seconds since `started`, at millisecond resolution, rounded up — a
/// daemon that has served even one request never reports an uptime of
/// zero.
fn uptime_seconds(started: Instant) -> u64 {
    let ms = started.elapsed().as_millis() as u64;
    ms.div_ceil(1000)
}

fn render_statsz(shared: &Shared) -> String {
    let c = &shared.counters;
    let store = match &shared.store {
        Some(store) => {
            let s = store.stats();
            format!(
                "{{\"instance\":{},\"hits\":{},\"misses\":{},\"corrupt\":{},\
                 \"insertions\":{},\"evictions\":{},\"bytes_read\":{},\
                 \"bytes_written\":{},\"resident_bytes\":{}}}",
                store.instance(),
                s.hits,
                s.misses,
                s.corrupt,
                s.insertions,
                s.evictions,
                s.bytes_read,
                s.bytes_written,
                store.resident_bytes(),
            )
        }
        None => "null".to_owned(),
    };
    let cluster = shared
        .cluster
        .as_ref()
        .map_or_else(|| "null".to_owned(), ClusterState::render_json);
    let latency = format!(
        "{{\"request\":{},\"queue_wait\":{}}}",
        quantiles_json(metrics::request_seconds()),
        quantiles_json(metrics::queue_wait_seconds()),
    );
    sync_scrape_gauges(shared);
    format!(
        "{{\"instance\":{},\"queue_depth\":{},\"queue_capacity\":{},\"workers\":{},\
         \"inflight_evals\":{},\"connections\":{},\"requests\":{},\"coalesce_hits\":{},\
         \"rejected_queue_full\":{},\"rejected_busy\":{},\"evaluations\":{},\
         \"store\":{store},\"results\":{{\"hits\":{},\"evictions\":{},\
         \"resident_bytes\":{}}},\
         \"uptime_seconds\":{},\"build\":{{\"version\":\"{}\",\"git_hash\":\"{}\"}},\
         \"requests_by_class\":{{\"2xx\":{},\"4xx\":{},\"5xx\":{}}},\
         \"latency\":{latency},\
         \"trace\":{{\"captured\":{},\"slow_threshold_us\":{}}},\
         \"cluster\":{cluster},\
         \"metrics\":{}}}",
        c.instance,
        c.queue_depth.get(),
        shared.config.queue_capacity,
        shared.config.workers,
        shared.inflight_evals.load(Ordering::SeqCst),
        c.connections.get(),
        c.requests.get(),
        c.coalesce_waiters.get(),
        c.rejected_queue_full.get(),
        c.rejected_busy.get(),
        c.evaluations.get(),
        nvm_llc_sim::runner::metrics::result_memo_hits().get(),
        nvm_llc_sim::runner::metrics::result_memo_evictions().get(),
        nvm_llc_sim::runner::metrics::result_memo_resident_bytes().get(),
        uptime_seconds(shared.started),
        BUILD_VERSION,
        BUILD_GIT_HASH,
        c.by_class[0].get(),
        c.by_class[1].get(),
        c.by_class[2].get(),
        shared.tracez.len(),
        slow_threshold_micros(shared) as u64,
        nvm_llc_obs::metrics::render_json(),
    )
}

/// `p50/p95/p99` of one histogram as a JSON object, in whole
/// microseconds rounded up (integers keep the stats scrapable with naive
/// parsers, and a nonzero latency never renders as `0`).
fn quantiles_json(hist: &nvm_llc_obs::metrics::Histogram) -> String {
    let us = |q: f64| (hist.quantile(q) * 1e6).ceil() as u64;
    format!(
        "{{\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
        us(0.5),
        us(0.95),
        us(0.99),
    )
}

/// Crate version baked into `/statsz` build info.
const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Git commit baked in at build time by `build.rs`: the
/// `NVM_LLC_GIT_HASH` environment variable when set (CI exports the
/// checked-out commit), otherwise `git rev-parse --short HEAD` from the
/// work tree, falling back to `unknown` only when neither is available
/// (e.g. a source-tarball build).
const BUILD_GIT_HASH: &str = env!("NVM_LLC_BUILD_GIT_HASH");

/// Refreshes the gauges that are cheaper to set at scrape time than to
/// maintain on every transition. (`queue_depth` needs no refresh: every
/// push and pop sets it under the queue lock.)
fn sync_scrape_gauges(shared: &Shared) {
    let c = &shared.counters;
    c.uptime_seconds.set(uptime_seconds(shared.started));
    c.inflight_evals
        .set(shared.inflight_evals.load(Ordering::SeqCst) as u64);
}

/// `GET /metricsz`: the whole process-wide registry in Prometheus text
/// exposition format.
fn render_metricsz(shared: &Shared) -> String {
    sync_scrape_gauges(shared);
    nvm_llc_obs::metrics::render_prometheus()
}

/// `GET /clusterz`: every shard's `/metricsz` scraped over the
/// keep-alive pools and merged ([`nvm_llc_obs::federate`]) into one
/// cluster-level Prometheus view — counters summed, same-bounds
/// histograms merged — followed by a per-shard breakdown: up, request
/// total, latency quantiles, resident store bytes, evaluations. Both
/// halves render from the same scrape pass, so the merged totals always
/// equal the sum of the breakdown lines.
fn render_clusterz(shared: &Shared) -> String {
    use nvm_llc_obs::federate::{self, Scrape};
    use std::fmt::Write as _;

    // One scrape per shard, in shard-id order; `None` marks a shard
    // that is down or failed to answer. A standalone node federates
    // its own registry so the endpoint has one shape everywhere.
    let shards: Vec<(String, Option<Scrape>)> = match &shared.cluster {
        None => vec![(
            "self".to_owned(),
            Some(federate::parse(&render_metricsz(shared))),
        )],
        Some(state) => state
            .peers
            .iter()
            .enumerate()
            .map(|(i, peer)| {
                let scrape = if Some(i) == state.self_id {
                    Some(federate::parse(&render_metricsz(shared)))
                } else {
                    match peer.get("/metricsz", &[]) {
                        Ok((200, body)) => Some(federate::parse(&body)),
                        Ok(_) | Err(_) => None,
                    }
                };
                (i.to_string(), scrape)
            })
            .collect(),
    };

    let up: Vec<Scrape> = shards
        .iter()
        .filter_map(|(_, s)| s.as_ref().cloned())
        .collect();
    let mut out = federate::merge(&up).render();

    out.push_str("# HELP nvmllc_cluster_shard_up Whether the shard answered this scrape.\n");
    out.push_str("# TYPE nvmllc_cluster_shard_up gauge\n");
    for (label, scrape) in &shards {
        let _ = writeln!(
            out,
            "nvmllc_cluster_shard_up{{shard=\"{label}\"}} {}",
            u8::from(scrape.is_some())
        );
    }
    // Per-shard breakdown of the headline families, labeled by shard.
    let scalar = |out: &mut String, family: &str, source: &str, help: &str, kind: &str| {
        let _ = writeln!(out, "# HELP {family} {help}");
        let _ = writeln!(out, "# TYPE {family} {kind}");
        for (label, scrape) in &shards {
            let Some(scrape) = scrape else { continue };
            let _ = writeln!(
                out,
                "{family}{{shard=\"{label}\"}} {}",
                scrape.scalar_total(source)
            );
        }
    };
    scalar(
        &mut out,
        "nvmllc_cluster_shard_requests_total",
        "nvmllc_serve_requests_total",
        "HTTP responses sent by each shard.",
        "counter",
    );
    scalar(
        &mut out,
        "nvmllc_cluster_shard_evaluations_total",
        "nvmllc_serve_evaluations_total",
        "Evaluations run by each shard.",
        "counter",
    );
    scalar(
        &mut out,
        "nvmllc_cluster_shard_store_resident_bytes",
        "nvmllc_store_resident_bytes",
        "Result-store bytes resident on each shard.",
        "gauge",
    );
    out.push_str(
        "# HELP nvmllc_cluster_shard_request_seconds Handler-latency quantiles per shard.\n",
    );
    out.push_str("# TYPE nvmllc_cluster_shard_request_seconds gauge\n");
    for (label, scrape) in &shards {
        let Some(hist) = scrape
            .as_ref()
            .and_then(|s| s.histogram("nvmllc_serve_request_seconds"))
        else {
            continue;
        };
        for q in ["0.5", "0.95", "0.99"] {
            let value = hist.quantile(q.parse().expect("literal quantile"));
            let _ = writeln!(
                out,
                "nvmllc_cluster_shard_request_seconds{{shard=\"{label}\",quantile=\"{q}\"}} {value}"
            );
        }
    }
    out
}

/// Process signal plumbing for the daemon: SIGTERM/SIGINT set a flag
/// the serve loop polls, so shutdown is always the graceful path.
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the installed handler on SIGTERM or SIGINT.
    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    /// Installs the handler for SIGINT (2) and SIGTERM (15). Declares
    /// libc's `signal` directly — std links libc on unix, so no crate
    /// dependency is needed. No-op elsewhere.
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// Installs nothing on non-unix targets.
    #[cfg(not(unix))]
    pub fn install() {}
}

/// Runs the daemon: start, serve until SIGTERM/SIGINT, drain, report.
/// This is the whole of `nvm-llcd` and of `nvm-llc serve`, in every
/// role.
pub fn run(config: ServeConfig) -> std::io::Result<()> {
    let role = match &config.cluster {
        None => "standalone".to_owned(),
        Some(c) => match c.shard_id {
            Some(id) => format!("shard {id}/{}", c.peers.len()),
            None => format!("router over {} shards", c.peers.len()),
        },
    };
    let server = Server::start(config)?;
    // The daemon defaults to lifecycle logging; NVM_LLC_LOG still wins.
    nvm_llc_obs::log::set_default_level(nvm_llc_obs::log::Level::Info);
    signals::install();
    nvm_llc_obs::info!(
        "serve", "listening";
        "addr" => format!("http://{}", server.addr()),
        "role" => role,
        "version" => BUILD_VERSION,
        "git_hash" => BUILD_GIT_HASH,
    );
    // This poll stays: a signal handler may only store a flag, so
    // nothing can wake a blocked wait from it.
    while !signals::STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    nvm_llc_obs::info!("serve", "draining in-flight work");
    nvm_llc_obs::info!("serve", "shutdown"; "summary" => server.summary());
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(addr: SocketAddr, target: &str) -> (u16, String) {
        http::get(addr, target).unwrap()
    }

    /// Generation streamed inside a functional pass is already part of
    /// `tape_record`'s time; a shared trace generated beside it is not.
    #[test]
    fn phase_micros_counts_streamed_generation_once() {
        let span = |name: &str, span_id: u64, parent_id: u64, dur_micros: f64| {
            nvm_llc_obs::trace::SpanRecord {
                name: name.to_owned(),
                span_id,
                parent_id,
                start_micros: 0.0,
                dur_micros,
                node: None,
                thread: 0,
            }
        };
        let spans = [
            span("tape_record", 1, 0, 100.0),
            span("trace_generate", 2, 1, 30.0),
            span("trace_generate", 3, 0, 40.0),
            span("tape_record", 4, 0, 50.0),
            span("tape_replay_batch", 5, 0, 20.0),
            span("tape_replay_chunk", 6, 5, 10.0),
        ];
        let phase = phase_micros(&spans);
        assert_eq!(phase.functional, 190.0);
        assert_eq!(phase.replay, 20.0);
    }

    #[test]
    fn parse_args_round_trips_every_flag() {
        let args: Vec<String> = [
            "--addr",
            "0.0.0.0:0",
            "--workers",
            "2",
            "--queue-capacity",
            "0",
            "--max-evals",
            "8",
            "--eval-threads",
            "3",
            "--base-accesses",
            "5000",
            "--store-dir",
            "/tmp/x",
            "--max-requests-per-conn",
            "64",
            "--idle-timeout-ms",
            "250",
            "--trace-slow-ms",
            "75",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let c = ServeConfig::parse_args(&args).unwrap();
        assert_eq!(c.addr, "0.0.0.0:0");
        assert_eq!(c.workers, 2);
        assert_eq!(c.queue_capacity, 0);
        assert_eq!(c.max_evals, 8);
        assert_eq!(c.eval_threads, 3);
        assert_eq!(c.base_accesses, 5000);
        assert_eq!(c.store_dir, Some(PathBuf::from("/tmp/x")));
        assert_eq!(c.max_requests_per_conn, 64);
        assert_eq!(c.idle_timeout_ms, 250);
        assert_eq!(c.trace_slow_ms, Some(75));
        assert!(c.cluster.is_none());
    }

    #[test]
    fn parse_args_assembles_the_cluster_triple() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let c =
            ServeConfig::parse_args(&s(&["--shard-id", "1", "--peers", "a:1,b:2,c:3"])).unwrap();
        let cluster = c.cluster.expect("cluster mode");
        assert_eq!(cluster.shard_id, Some(1));
        // The shard count is the peer count; there is no flag for it.
        assert_eq!(cluster.peers.len(), 3);
        assert!(ServeConfig::parse_args(&s(&[
            "--shard-id",
            "0",
            "--shard-count",
            "3",
            "--peers",
            "a:1,b:2,c:3",
        ]))
        .is_err());
        // A shard id needs peers, and must be on the ring.
        assert!(ServeConfig::parse_args(&s(&["--shard-id", "0"])).is_err());
        assert!(
            ServeConfig::parse_args(&s(&["--shard-id", "3", "--peers", "a:1,b:2,c:3"])).is_err()
        );
    }

    #[test]
    fn parse_args_rejects_junk() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(ServeConfig::parse_args(&s(&["--nope"])).is_err());
        assert!(ServeConfig::parse_args(&s(&["--workers"])).is_err());
        assert!(ServeConfig::parse_args(&s(&["--workers", "0"])).is_err());
        assert!(ServeConfig::parse_args(&s(&["--base-accesses", "x"])).is_err());
        assert!(ServeConfig::parse_args(&s(&["--max-requests-per-conn", "0"])).is_err());
        assert!(ServeConfig::parse_args(&s(&["--idle-timeout-ms", "0"])).is_err());
        assert!(ServeConfig::parse_args(&[]).is_ok());
    }

    #[test]
    fn start_rejects_an_invalid_cluster() {
        let start = |shard_id, peers: &[&str]| {
            Server::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                cluster: Some(ClusterConfig {
                    shard_id,
                    peers: peers.iter().map(|p| p.to_string()).collect(),
                }),
                ..ServeConfig::default()
            })
            .map(Server::shutdown)
            .map_err(|e| e.kind())
        };
        let invalid = Err(std::io::ErrorKind::InvalidInput);
        assert_eq!(start(None, &[]), invalid, "router without peers");
        assert_eq!(start(Some(0), &[]), invalid, "shard without peers");
        assert_eq!(
            start(Some(2), &["a:1", "b:2"]),
            invalid,
            "shard id off the ring"
        );
        assert_eq!(start(Some(1), &["a:1", "b:2"]), Ok(()));
        assert_eq!(start(None, &["a:1"]), Ok(()));
    }

    #[test]
    fn healthz_statsz_and_errors_respond() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr();
        assert_eq!(request(addr, "/healthz"), (200, "ok\n".to_owned()));
        let (status, stats) = request(addr, "/statsz");
        assert_eq!(status, 200);
        assert!(stats.contains("\"queue_depth\":"), "{stats}");
        assert!(stats.contains("\"store\":null"), "{stats}");
        assert!(stats.contains("\"cluster\":null"), "{stats}");
        assert_eq!(request(addr, "/nope").0, 404);
        assert_eq!(request(addr, "/eval?workload=zzz&tech=Jan_S").0, 400);
        assert_eq!(request(addr, "/eval?workload=tonto").0, 400);
        assert_eq!(request(addr, "/row?workload=tonto&models=bogus").0, 400);
        assert_eq!(
            request(addr, "/row?workload=tonto&accesses=1").0,
            400,
            "accesses below range"
        );
        server.shutdown();
    }

    #[test]
    fn uptime_rounds_up_from_millisecond_resolution() {
        // A freshly started instant has elapsed less than a second but
        // more than zero work has happened; the report must not be 0.
        let started = Instant::now() - Duration::from_millis(5);
        assert_eq!(uptime_seconds(started), 1);
        let older = Instant::now() - Duration::from_millis(2_400);
        assert_eq!(uptime_seconds(older), 3, "2.4s rounds up to 3");
    }

    #[test]
    fn zero_queue_capacity_sheds_with_503() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let (status, body) = request(server.addr(), "/healthz");
        assert_eq!(status, 503);
        assert!(body.contains("queue full"), "{body}");
        server.shutdown();
    }

    #[test]
    fn zero_max_evals_rejects_with_429() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_evals: 0,
            base_accesses: 500,
            ..ServeConfig::default()
        })
        .unwrap();
        let (status, body) = request(server.addr(), "/row?workload=tonto");
        assert_eq!(status, 429);
        assert!(body.contains("capacity"), "{body}");
        // Health stays green while evaluations are capped out.
        assert_eq!(request(server.addr(), "/healthz").0, 200);
        server.shutdown();
    }
}
