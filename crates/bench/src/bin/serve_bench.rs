//! Loopback load measurements for the `nvm-llcd` evaluation service,
//! dumped to `BENCH_serve.json` at the repository root.
//!
//! The generator runs the daemon in-process on an ephemeral loopback
//! port and measures the three request regimes a deployment sees:
//!
//! * **cold** — first-ever `/row` for a workload: trace generation, one
//!   functional pass, eleven timing replays, store write-back;
//! * **warm (memory)** — the same daemon again: the coalescing map has
//!   moved on, and every cell is a result-tier hit (the daemon has a
//!   store attached, which answers before the in-memory tier, from
//!   records the page cache still holds);
//! * **warm (store)** — a restarted daemon on the same `--store-dir`:
//!   every cell is a disk hit, no simulation at all.
//!
//! A **transport** phase compares close-per-request against pipelined
//! keep-alive over `/healthz` — the two modes run *interleaved in the
//! same process on the same daemon*, so scheduler drift hits both
//! equally. A **burst** phase drives 16 concurrent clients over the
//! warm workloads. A **cluster** phase stands up a 3-shard
//! consistent-hash cluster plus a router on loopback and checks that
//! routed rows are byte-identical to a standalone daemon's.
//!
//! Acceptance bars: every response is 200, the warm-store mean beats
//! the cold mean (persistence must pay for itself), keep-alive beats
//! close-per-request by at least 2x (connection reuse must pay for
//! itself), and every routed row matches the standalone bytes.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use nvm_llc::serve::{cluster, http, ServeConfig, Server};
use nvm_llc::sim::persist;

const BASE_ACCESSES: usize = 20_000;
const WORKLOADS: [&str; 4] = ["tonto", "x264", "milc", "leela"];
const BURST_CLIENTS: usize = 16;
const BURST_ROUNDS: usize = 8;

/// Transport comparison shape: `TRANSPORT_ROUNDS` interleaved
/// (close, keep-alive) pairs of `TRANSPORT_REQUESTS` each, keep-alive
/// pipelined `PIPELINE_DEPTH` requests ahead.
const TRANSPORT_ROUNDS: usize = 4;
const TRANSPORT_REQUESTS: usize = 200;
const PIPELINE_DEPTH: usize = 25;

/// Cluster phase: per-shard evaluation size, small enough that three
/// cold shard evaluations stay cheap.
const CLUSTER_ACCESSES: usize = 6_000;

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn timed_get(addr: SocketAddr, target: &str) -> f64 {
    let start = Instant::now();
    let (status, body) = http::get(addr, target).expect("loopback request");
    assert_eq!(status, 200, "{target}: {body}");
    start.elapsed().as_secs_f64() * 1e3
}

fn row_target(workload: &str) -> String {
    format!("/row?workload={workload}&accesses={BASE_ACCESSES}")
}

/// `TRANSPORT_REQUESTS` close-per-request `/healthz` round trips:
/// every request pays connect + request + response + teardown.
fn close_round(addr: SocketAddr) -> f64 {
    let start = Instant::now();
    for _ in 0..TRANSPORT_REQUESTS {
        let (status, _) = http::get(addr, "/healthz").expect("close-mode request");
        assert_eq!(status, 200);
    }
    start.elapsed().as_secs_f64()
}

/// `TRANSPORT_REQUESTS` `/healthz` round trips over one keep-alive
/// connection, pipelined `PIPELINE_DEPTH` at a time.
fn keepalive_round(addr: SocketAddr) -> f64 {
    let start = Instant::now();
    let mut conn = http::ClientConn::connect(addr).expect("keep-alive connect");
    let mut sent = 0;
    while sent < TRANSPORT_REQUESTS {
        let batch = PIPELINE_DEPTH.min(TRANSPORT_REQUESTS - sent);
        for _ in 0..batch {
            conn.send("/healthz", &[]).expect("pipeline send");
        }
        conn.flush().expect("pipeline flush");
        for _ in 0..batch {
            let response = conn.recv().expect("pipeline recv");
            assert_eq!(response.status, 200);
            assert!(!response.close, "server closed a keep-alive connection");
        }
        sent += batch;
    }
    start.elapsed().as_secs_f64()
}

/// Picks one `(workload, accesses)` row request owned by each shard, so
/// the cluster phase provably exercises every shard. The ring is
/// deterministic, so this search is too.
fn rows_covering_all_shards(shard_count: usize) -> Vec<(String, usize)> {
    let map = cluster::ShardMap::new(shard_count);
    let mut picks: Vec<Option<(String, usize)>> = vec![None; shard_count];
    for workload in WORKLOADS {
        for step in 0..shard_count {
            let accesses = CLUSTER_ACCESSES + step * 500;
            let key = persist::request_key(
                "fixed_capacity",
                workload,
                None,
                accesses,
                nvm_llc::sim::PolicyKind::Lru,
            );
            let owner = map.owner(&key);
            if picks[owner].is_none() {
                picks[owner] = Some((workload.to_owned(), accesses));
            }
        }
    }
    picks
        .into_iter()
        .map(|p| p.expect("a row owned by every shard"))
        .collect()
}

/// Reserves `n` distinct loopback ports: bind, record, drop. The gap
/// between drop and the shard's own bind is a benign race on loopback.
fn reserve_ports(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("reserved addr"))
        .collect()
}

struct ClusterReport {
    shard_requests: Vec<u64>,
    rows_checked: usize,
    router_row_ms: f64,
}

/// Stands up shards + router, routes one row per shard through the
/// router, and checks byte-identity against a standalone daemon.
fn cluster_phase(tmp: &std::path::Path, standalone: SocketAddr) -> ClusterReport {
    const SHARDS: usize = 3;
    let addrs = reserve_ports(SHARDS);
    let peers: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let shards: Vec<Server> = (0..SHARDS)
        .map(|id| {
            Server::start(ServeConfig {
                addr: peers[id].clone(),
                workers: 4,
                base_accesses: CLUSTER_ACCESSES,
                store_dir: Some(tmp.join(format!("shard-{id}"))),
                cluster: Some(cluster::ClusterConfig {
                    shard_id: Some(id),
                    peers: peers.clone(),
                }),
                ..ServeConfig::default()
            })
            .expect("start shard")
        })
        .collect();
    let router = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cluster: Some(cluster::ClusterConfig {
            shard_id: None,
            peers: peers.clone(),
        }),
        ..ServeConfig::default()
    })
    .expect("start router");

    let rows = rows_covering_all_shards(SHARDS);
    let mut router_ms = Vec::new();
    for (workload, accesses) in &rows {
        let target = format!("/row?workload={workload}&accesses={accesses}");
        let start = Instant::now();
        let (status, via_router) = http::get(router.addr(), &target).expect("routed row");
        router_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(status, 200, "{target}: {via_router}");
        let (status, direct) = http::get(standalone, &target).expect("standalone row");
        assert_eq!(status, 200, "{target}: {direct}");
        assert_eq!(
            via_router, direct,
            "routed row must be byte-identical to the standalone daemon ({target})"
        );
    }

    // Every shard must have answered at least one routed request.
    let shard_requests: Vec<u64> = shards
        .iter()
        .map(|shard| {
            let (status, stats) = http::get(shard.addr(), "/statsz").expect("shard statsz");
            assert_eq!(status, 200);
            let field = stats
                .split("\"requests\":")
                .nth(1)
                .expect("requests field in shard statsz");
            let digits: String = field.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("numeric requests field")
        })
        .collect();
    for (id, &served) in shard_requests.iter().enumerate() {
        // >= 2: the routed row plus this /statsz probe itself.
        assert!(served >= 2, "shard {id} served nothing: {shard_requests:?}");
    }

    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    ClusterReport {
        shard_requests,
        rows_checked: rows.len(),
        router_row_ms: mean(&router_ms),
    }
}

fn main() {
    let tmp = std::env::temp_dir().join(format!("nvm-llcd-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let dir = tmp.join("standalone");
    let config = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: BURST_CLIENTS,
        max_evals: 4,
        base_accesses: BASE_ACCESSES,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Cold and warm-memory regimes on the first daemon.
    let first = Server::start(config()).expect("start daemon");
    let addr = first.addr();
    let cold_ms: Vec<f64> = WORKLOADS
        .iter()
        .map(|w| timed_get(addr, &row_target(w)))
        .collect();
    let warm_memory_ms: Vec<f64> = WORKLOADS
        .iter()
        .map(|w| timed_get(addr, &row_target(w)))
        .collect();
    first.shutdown();

    // Warm-store regime: a restarted daemon, same directory.
    let second = Server::start(config()).expect("restart daemon");
    let addr = second.addr();
    let warm_store_ms: Vec<f64> = WORKLOADS
        .iter()
        .map(|w| timed_get(addr, &row_target(w)))
        .collect();

    // Transport comparison: strict alternation, so both modes sample
    // the same machine state.
    let mut close_s = 0.0;
    let mut keepalive_s = 0.0;
    for _ in 0..TRANSPORT_ROUNDS {
        close_s += close_round(addr);
        keepalive_s += keepalive_round(addr);
    }
    let transport_requests = (TRANSPORT_ROUNDS * TRANSPORT_REQUESTS) as f64;
    let rps_close = transport_requests / close_s;
    let rps_keepalive = transport_requests / keepalive_s;
    let speedup = rps_keepalive / rps_close;

    // Burst: concurrent clients cycling over the warm workloads.
    let barrier = Arc::new(Barrier::new(BURST_CLIENTS));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..BURST_CLIENTS {
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..BURST_ROUNDS {
                    let workload = WORKLOADS[(client + round) % WORKLOADS.len()];
                    timed_get(addr, &row_target(workload));
                }
            });
        }
    });
    let burst_s = start.elapsed().as_secs_f64();
    let burst_requests = BURST_CLIENTS * BURST_ROUNDS;
    let throughput = burst_requests as f64 / burst_s;

    // Cluster: 3 shards + router, byte-compared against this daemon.
    let report = cluster_phase(&tmp, addr);

    let (status, statsz) = http::get(addr, "/statsz").expect("statsz");
    assert_eq!(status, 200);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);

    let cold = mean(&cold_ms);
    let warm_memory = mean(&warm_memory_ms);
    let warm_store = mean(&warm_store_ms);
    let shard_requests: Vec<String> = report.shard_requests.iter().map(u64::to_string).collect();
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"config\": {{\n    \"workloads\": {},\n    \"base_accesses\": {},\n    \"workers\": {},\n    \"burst_clients\": {},\n    \"burst_requests\": {},\n    \"transport_requests_per_mode\": {},\n    \"pipeline_depth\": {}\n  }},\n  \"row_latency_ms\": {{\n    \"cold\": {:.3},\n    \"warm_memory\": {:.3},\n    \"warm_store\": {:.3},\n    \"cold_over_warm_store\": {:.2}\n  }},\n  \"transport\": {{\n    \"requests_per_sec_close\": {:.1},\n    \"requests_per_sec_keepalive\": {:.1},\n    \"keepalive_speedup\": {:.2}\n  }},\n  \"burst\": {{\n    \"requests_per_sec\": {:.1},\n    \"wall_s\": {:.3}\n  }},\n  \"cluster\": {{\n    \"shards\": {},\n    \"rows_checked\": {},\n    \"rows_byte_identical\": true,\n    \"router_row_ms\": {:.3},\n    \"shard_requests\": [{}]\n  }},\n  \"statsz\": {}\n}}\n",
        WORKLOADS.len(),
        BASE_ACCESSES,
        BURST_CLIENTS,
        BURST_CLIENTS,
        burst_requests,
        TRANSPORT_ROUNDS * TRANSPORT_REQUESTS,
        PIPELINE_DEPTH,
        cold,
        warm_memory,
        warm_store,
        cold / warm_store,
        rps_close,
        rps_keepalive,
        speedup,
        throughput,
        burst_s,
        report.shard_requests.len(),
        report.rows_checked,
        report.router_row_ms,
        shard_requests.join(", "),
        statsz.trim_end(),
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    print!("{json}");

    assert!(
        warm_store < cold,
        "a restarted daemon must serve warm rows faster than cold ones \
         (cold {cold:.1} ms, warm-store {warm_store:.1} ms)"
    );
    assert!(
        speedup >= 2.0,
        "keep-alive must at least double close-per-request throughput \
         (close {rps_close:.0} rps, keep-alive {rps_keepalive:.0} rps, {speedup:.2}x)"
    );
}
