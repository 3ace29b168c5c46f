//! End-to-end tests of consistent-hash cluster serving: a 3-shard
//! cluster plus a thin router serves `/row` byte-identical to a direct
//! evaluation, every shard takes traffic, a non-owner shard proxies (or
//! falls back) transparently, a shard whose owner misbehaves answers
//! the same bytes itself, and a shard restart warm-reloads from its
//! store.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};

use nvm_llc::prelude::*;
use nvm_llc::serve::cluster::{ClusterConfig, ShardMap};
use nvm_llc::serve::{http, json, ServeConfig, Server};
use nvm_llc::sim::persist;

const SHARDS: usize = 3;
const ACCESSES: usize = 6_000;

/// Extracts the integer field `"name":N` that follows `anchor` in a
/// rendered `/statsz` body.
fn field_after(stats: &str, anchor: &str, name: &str) -> u64 {
    let start = stats.find(anchor).unwrap_or(0);
    let pattern = format!("\"{name}\":");
    let at = stats[start..].find(&pattern).expect(&pattern) + start + pattern.len();
    stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer field")
}

/// Reserves `n` distinct loopback ports: bind, record, drop.
fn reserve_ports(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("reserved addr"))
        .collect()
}

fn shard_config(dir: &std::path::Path, peers: &[String], id: usize) -> ServeConfig {
    ServeConfig {
        addr: peers[id].clone(),
        workers: 4,
        base_accesses: ACCESSES,
        store_dir: Some(dir.join(format!("shard-{id}"))),
        cluster: Some(ClusterConfig {
            shard_id: Some(id),
            peers: peers.to_vec(),
        }),
        ..ServeConfig::default()
    }
}

fn start_cluster(dir: &std::path::Path) -> (Vec<Server>, Server, Vec<String>) {
    let peers: Vec<String> = reserve_ports(SHARDS)
        .into_iter()
        .map(|a| a.to_string())
        .collect();
    let shards: Vec<Server> = (0..SHARDS)
        .map(|id| Server::start(shard_config(dir, &peers, id)).expect("start shard"))
        .collect();
    let router = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cluster: Some(ClusterConfig {
            shard_id: None,
            peers: peers.clone(),
        }),
        // Tail-sample every traced request so the tests below can
        // assert on stitched span trees deterministically.
        trace_slow_ms: Some(0),
        ..ServeConfig::default()
    })
    .expect("start router");
    (shards, router, peers)
}

/// One `(workload, accesses)` row request owned by each shard — the
/// ring is deterministic, so so is this search.
fn rows_covering_all_shards() -> Vec<(String, usize)> {
    let map = ShardMap::new(SHARDS);
    let mut picks: Vec<Option<(String, usize)>> = vec![None; SHARDS];
    for workload in ["tonto", "x264", "milc", "leela", "ua", "lu"] {
        for step in 0..SHARDS {
            let accesses = ACCESSES + step * 500;
            let key = persist::request_key(
                "fixed_capacity",
                workload,
                None,
                accesses,
                nvm_llc::sim::PolicyKind::Lru,
            );
            if picks[map.owner(&key)].is_none() {
                picks[map.owner(&key)] = Some((workload.to_owned(), accesses));
            }
        }
    }
    picks
        .into_iter()
        .map(|p| p.expect("a row owned by every shard"))
        .collect()
}

fn expected_row(workload: &str, accesses: usize) -> String {
    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
    let row = Evaluator::new(baseline, nvms)
        .base_accesses(accesses)
        .run_workload(&workloads::by_name(workload).unwrap());
    json::render_row(&row)
}

#[test]
fn routed_rows_are_byte_identical_and_every_shard_serves() {
    let dir = std::env::temp_dir().join(format!("nvm-llc-cluster-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (shards, router, _) = start_cluster(&dir);

    let rows = rows_covering_all_shards();
    for (workload, accesses) in &rows {
        let target = format!("/row?workload={workload}&accesses={accesses}");
        let (status, via_router) = http::get(router.addr(), &target).unwrap();
        assert_eq!(status, 200, "{target}: {via_router}");
        assert_eq!(
            via_router,
            expected_row(workload, *accesses),
            "routed row must be byte-identical to a direct evaluation ({target})"
        );
    }

    // Every shard answered its routed row (plus this /statsz probe).
    for (id, shard) in shards.iter().enumerate() {
        let (status, stats) = http::get(shard.addr(), "/statsz").unwrap();
        assert_eq!(status, 200);
        assert!(
            field_after(&stats, "", "requests") >= 2,
            "shard {id} served nothing: {stats}"
        );
        assert!(
            stats.contains("\"role\":\"shard\""),
            "shard statsz must carry the cluster block: {stats}"
        );
        assert!(stats.contains("\"map\":{\"shard_count\":3"), "{stats}");
    }
    let (status, stats) = http::get(router.addr(), "/statsz").unwrap();
    assert_eq!(status, 200);
    assert!(stats.contains("\"role\":\"router\""), "{stats}");

    // A non-owner shard answers a key it does not own, identically:
    // single-hop proxying (or local fallback) is invisible to clients.
    let (workload, accesses) = &rows[0];
    let target = format!("/row?workload={workload}&accesses={accesses}");
    let map = ShardMap::new(SHARDS);
    let owner = map.owner(&persist::request_key(
        "fixed_capacity",
        workload,
        None,
        *accesses,
        nvm_llc::sim::PolicyKind::Lru,
    ));
    let non_owner = (owner + 1) % SHARDS;
    let (status, via_non_owner) = http::get(shards[non_owner].addr(), &target).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        via_non_owner,
        expected_row(workload, *accesses),
        "a non-owner shard must still answer the right bytes"
    );

    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restarted_shard_warm_reloads_from_its_store() {
    let dir = std::env::temp_dir().join(format!("nvm-llc-restart-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut shards, router, peers) = start_cluster(&dir);

    // Pick the row owned by shard 0 and serve it cold through the
    // router: the owner computes and persists it.
    let rows = rows_covering_all_shards();
    let (workload, accesses) = rows[0].clone();
    let target = format!("/row?workload={workload}&accesses={accesses}");
    let owner = ShardMap::new(SHARDS).owner(&persist::request_key(
        "fixed_capacity",
        &workload,
        None,
        accesses,
        nvm_llc::sim::PolicyKind::Lru,
    ));
    let (status, cold) = http::get(router.addr(), &target).unwrap();
    assert_eq!(status, 200);

    // Stop the owner (the in-process equivalent of SIGTERM: stop
    // accepting, drain, exit). The router must keep answering the same
    // bytes by falling back to a surviving shard.
    shards.remove(owner).shutdown();
    let (status, during_outage) = http::get(router.addr(), &target).unwrap();
    assert_eq!(status, 200, "router must survive a dead shard");
    assert_eq!(
        during_outage, cold,
        "failover must not change a single byte"
    );

    // Restart the owner on the same address and store directory: the
    // routed row comes back identical, and entirely from disk.
    let restarted = Server::start(shard_config(&dir, &peers, owner)).expect("restart shard");
    let (status, after_restart) = http::get(router.addr(), &target).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        after_restart, cold,
        "a restart must not change a single byte"
    );
    let (_, stats) = http::get(restarted.addr(), "/statsz").unwrap();
    assert!(
        field_after(&stats, "\"store\":", "hits") >= 11,
        "the restarted owner must reload all 11 cells from its store: {stats}"
    );

    router.shutdown();
    restarted.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One request through the router must come back as ONE stitched trace:
/// the router's local spans plus the owning shard's remote spans under
/// a single trace id, rendered in chrome format as distinct process
/// lanes per node.
#[test]
fn a_routed_request_stitches_one_trace_and_clusterz_federates_all_shards() {
    let dir = std::env::temp_dir().join(format!("nvm-llc-trace-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (shards, router, _) = start_cluster(&dir);

    // Drive one row per shard through the router so every shard serves
    // (and at least one request genuinely crosses processes).
    for (workload, accesses) in rows_covering_all_shards() {
        let target = format!("/row?workload={workload}&accesses={accesses}");
        let (status, _) = http::get(router.addr(), &target).unwrap();
        assert_eq!(status, 200, "{target}");
    }

    // The router retained every request (threshold 0); each tree must
    // hold the router's own spans AND the shard's remote spans.
    let (status, tracez) = http::get(router.addr(), "/tracez").unwrap();
    assert_eq!(status, 200);
    assert!(
        field_after(&tracez, "", "captured") >= SHARDS as u64,
        "router must retain one trace per routed row: {tracez}"
    );
    assert!(
        tracez.contains("\"name\":\"proxy_upstream\""),
        "router-local proxy span missing: {tracez}"
    );
    assert!(
        tracez.contains("\"node\":\"shard-"),
        "remote shard spans must be stitched into the router's trees: {tracez}"
    );
    assert!(
        tracez.contains("\"name\":\"serve_handle\""),
        "the shard's handler span must ride back in the response header: {tracez}"
    );

    // Chrome export: one process lane per node label, so a cross-process
    // request renders at least two distinct pids (router + shard).
    let (status, chrome) = http::get(router.addr(), "/tracez?format=chrome").unwrap();
    assert_eq!(status, 200);
    let pids: std::collections::HashSet<String> = chrome
        .split("\"pid\":")
        .skip(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .collect();
    assert!(
        pids.len() >= 2,
        "chrome export must show >= 2 process lanes, got {pids:?}: {chrome}"
    );

    // /clusterz on the router: all shards up, and the merged counters
    // equal the sum of the per-shard breakdown rendered from the very
    // same scrape pass.
    let (status, clusterz) = http::get(router.addr(), "/clusterz").unwrap();
    assert_eq!(status, 200);
    for shard in 0..SHARDS {
        assert!(
            clusterz.contains(&format!("nvmllc_cluster_shard_up{{shard=\"{shard}\"}} 1")),
            "shard {shard} must scrape as up: {clusterz}"
        );
    }
    let sum_of = |prefix: &str| -> f64 {
        clusterz
            .lines()
            .filter(|line| line.starts_with(prefix))
            .map(|line| line.rsplit_once(' ').unwrap().1.parse::<f64>().unwrap())
            .sum()
    };
    let merged = sum_of("nvmllc_serve_requests_total");
    let per_shard = sum_of("nvmllc_cluster_shard_requests_total");
    assert!(merged > 0.0, "{clusterz}");
    assert_eq!(
        merged, per_shard,
        "merged request total must equal the per-shard breakdown: {clusterz}"
    );
    assert!(
        clusterz.contains("nvmllc_cluster_shard_request_seconds{shard=\"0\",quantile=\"0.99\"}"),
        "per-shard latency quantiles missing: {clusterz}"
    );

    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads part of the request, sends a head and the start of a long
/// body, then closes with the rest of the request unread: a reset
/// mid-body.
fn reset_mid_body(mut stream: TcpStream) {
    let mut start = [0u8; 8];
    stream.read_exact(&mut start).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    stream
        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n{\"workload\"")
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
}

/// Reads the request, then sends a response head that never ends.
fn endless_head(mut stream: TcpStream) {
    http::read_request(&mut stream).unwrap();
    let pad = [b'a'; 4096];
    let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nX-Pad: ");
    while stream.write_all(&pad).is_ok() {}
}

/// A shard whose owning peer misbehaves falls back to evaluating the
/// request itself: same bytes as a direct evaluation, counted as one
/// `fallback` and no forward.
#[test]
fn a_misbehaving_owner_falls_back_to_identical_local_bytes() {
    let map = ShardMap::new(2);
    let (workload, accesses) = ["tonto", "x264", "milc", "leela"]
        .into_iter()
        .flat_map(|w| (0..4).map(move |step| (w, ACCESSES + step * 500)))
        .find(|&(w, a)| {
            let key = persist::request_key("fixed_capacity", w, None, a, PolicyKind::Lru);
            map.owner(&key) == 1
        })
        .expect("a row owned by shard 1");
    let target = format!("/row?workload={workload}&accesses={accesses}");
    let expected = expected_row(workload, accesses);

    for misbehave in [reset_mid_body as fn(TcpStream), endless_head] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let bad_peer = listener.local_addr().unwrap().to_string();
        let upstream = std::thread::spawn(move || misbehave(listener.accept().unwrap().0));
        let own = reserve_ports(1)[0].to_string();
        let shard = Server::start(ServeConfig {
            addr: own.clone(),
            base_accesses: ACCESSES,
            cluster: Some(ClusterConfig {
                shard_id: Some(0),
                peers: vec![own, bad_peer],
            }),
            ..ServeConfig::default()
        })
        .expect("start shard");

        let (status, body) = http::get(shard.addr(), &target).unwrap();
        assert_eq!(status, 200, "{target}: {body}");
        assert_eq!(body, expected, "fallback must answer the direct bytes");
        let (_, stats) = http::get(shard.addr(), "/statsz").unwrap();
        assert_eq!(
            field_after(&stats, "\"cluster\":", "fallbacks"),
            1,
            "{stats}"
        );
        assert!(stats.contains("\"forwards\":[0,0]"), "{stats}");

        shard.shutdown();
        upstream.join().expect("misbehaving peer");
    }
}
