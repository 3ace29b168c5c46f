//! One counter per fact: with two standalone servers, a restarted one,
//! and a 2-shard cluster plus router all sharing one process, every
//! server's `/statsz` counters must equal its own instance's samples in
//! its `/metricsz`, and the `/statsz` results block must equal the
//! process-wide result-tier families. Mixed traffic drives every counter
//! off zero: errors, a repeated row served from memory, a coalesced
//! burst, store hits after a restart, and routed rows whose owner is
//! down.
//!
//! This file holds a single test so it runs in a process of its own:
//! the result-tier families are process-wide.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};

use nvm_llc::obs::federate::{self, Scrape};
use nvm_llc::serve::cluster::{ClusterConfig, ShardMap};
use nvm_llc::serve::{http, ServeConfig, Server};
use nvm_llc::sim::{persist, PolicyKind};
use nvm_llc::trace::workloads;

const ACCESSES: usize = 3_000;

/// The integer field `"name":N` after `anchor`, if present.
fn field(stats: &str, anchor: &str, name: &str) -> Option<u64> {
    let start = stats.find(anchor)?;
    let pattern = format!("\"{name}\":");
    let at = stats[start..].find(&pattern)? + start + pattern.len();
    stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

/// The sum of family `name`'s samples whose label block carries every
/// pair in `labels`.
fn sample(scrape: &Scrape, name: &str, labels: &[(&str, String)]) -> f64 {
    scrape
        .scalar_samples(name)
        .iter()
        .filter(|(block, _)| {
            labels
                .iter()
                .all(|(k, v)| block.contains(&format!("{k}=\"{v}\"")))
        })
        .fold(0.0, |total, (_, v)| total + v)
}

/// Compares one server's `/statsz` with its `/metricsz`, both fetched
/// on one keep-alive connection, and records every disagreement.
fn check(server: &str, addr: SocketAddr, mismatches: &mut Vec<String>) {
    let mut conn = http::ClientConn::connect(addr).expect("connect");
    let (status, stats) = conn.get("/statsz").expect("statsz");
    assert_eq!(status, 200, "{server}: {stats}");
    let (status, text) = conn.get("/metricsz").expect("metricsz");
    assert_eq!(status, 200, "{server}: {text}");
    let scrape = federate::parse(&text);

    let mut expect = |what: &str, statsz: u64, metricsz: f64| {
        if statsz as f64 != metricsz {
            mismatches.push(format!(
                "{server} {what}: /statsz {statsz} vs /metricsz {metricsz}"
            ));
        }
    };
    let stat = |anchor: &str, name: &str| {
        field(&stats, anchor, name).unwrap_or_else(|| panic!("{server}: no {name}: {stats}"))
    };
    let instance = |anchor: &str| -> Vec<(&str, String)> {
        field(&stats, anchor, "instance")
            .map(|i| vec![("instance", i.to_string())])
            .unwrap_or_default()
    };
    let mine = instance("{");
    let with = |extra: &[(&'static str, &str)]| -> Vec<(&str, String)> {
        let mut labels = mine.clone();
        labels.extend(extra.iter().map(|(k, v)| (*k, v.to_string())));
        labels
    };

    // Between the two renders the /statsz response was counted as a 2xx
    // and the /metricsz request was routed; nothing else moved.
    expect(
        "requests",
        stat("", "requests") + 1,
        sample(&scrape, "nvmllc_serve_requests_routed_total", &mine),
    );
    for (name, family, extra) in [
        ("connections", "nvmllc_serve_connections_total", None),
        ("coalesce_hits", "nvmllc_serve_coalesce_waiters_total", None),
        ("evaluations", "nvmllc_serve_evaluations_total", None),
        (
            "rejected_queue_full",
            "nvmllc_serve_rejected_total",
            Some(("reason", "queue_full")),
        ),
        (
            "rejected_busy",
            "nvmllc_serve_rejected_total",
            Some(("reason", "busy")),
        ),
        ("queue_depth", "nvmllc_serve_queue_depth", None),
        ("inflight_evals", "nvmllc_serve_inflight_evals", None),
    ] {
        let labels = with(extra.as_slice());
        expect(name, stat("", name), sample(&scrape, family, &labels));
    }
    for class in ["2xx", "4xx", "5xx"] {
        let statsz = stat("\"requests_by_class\":", class) + u64::from(class == "2xx");
        let labels = with(&[("class", class)]);
        expect(
            class,
            statsz,
            sample(&scrape, "nvmllc_serve_requests_total", &labels),
        );
    }

    if !stats.contains("\"store\":null") {
        let store = instance("\"store\":");
        for (name, family) in [
            ("hits", "nvmllc_store_hits_total"),
            ("misses", "nvmllc_store_misses_total"),
            ("corrupt", "nvmllc_store_corrupt_total"),
            ("insertions", "nvmllc_store_insertions_total"),
            ("evictions", "nvmllc_store_evictions_total"),
            ("bytes_read", "nvmllc_store_bytes_read_total"),
            ("bytes_written", "nvmllc_store_bytes_written_total"),
            ("resident_bytes", "nvmllc_store_resident_bytes"),
        ] {
            expect(
                &format!("store.{name}"),
                stat("\"store\":", name),
                sample(&scrape, family, &store),
            );
        }
    }

    if !stats.contains("\"cluster\":null") {
        let list = stats
            .split("\"forwards\":[")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .unwrap_or_else(|| panic!("{server}: no forwards: {stats}"));
        for (peer, forwards) in list.split(',').enumerate() {
            let peer = peer.to_string();
            let labels = with(&[("result", "forwarded"), ("peer", &peer)]);
            expect(
                &format!("forwards[{peer}]"),
                forwards.parse().expect("forward count"),
                sample(&scrape, "nvmllc_serve_proxy_hops_total", &labels),
            );
        }
        let labels = with(&[("result", "fallback")]);
        expect(
            "fallbacks",
            stat("\"cluster\":", "fallbacks"),
            sample(&scrape, "nvmllc_serve_proxy_hops_total", &labels),
        );
    }

    for (name, family) in [
        ("hits", "nvmllc_eval_result_memo_hits_total"),
        ("evictions", "nvmllc_eval_result_memo_evictions_total"),
        ("resident_bytes", "nvmllc_eval_result_memo_resident_bytes"),
    ] {
        expect(
            &format!("results.{name}"),
            stat("\"results\":", name),
            sample(&scrape, family, &[]),
        );
    }
}

fn get(addr: SocketAddr, target: &str) -> u16 {
    http::get(addr, target).expect("request").0
}

fn row(workload: &str) -> String {
    format!("/row?workload={workload}&accesses={ACCESSES}")
}

/// Reserves `n` distinct loopback ports: bind, record, drop.
fn reserve_ports(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("reserved addr").to_string())
        .collect()
}

#[test]
fn every_statsz_counter_equals_its_own_metricsz_sample() {
    let dir = std::env::temp_dir().join(format!("nvm-llc-agreement-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let standalone = |name: &str| ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 8,
        max_evals: 8,
        base_accesses: ACCESSES,
        store_dir: Some(dir.join(name)),
        ..ServeConfig::default()
    };
    let mut mismatches = Vec::new();

    // Standalone A: a 404, a /row rejected by validation, and a head
    // that does not parse; then one cold row into its store.
    let a = Server::start(standalone("a")).expect("start a");
    assert_eq!(get(a.addr(), "/nope"), 404);
    assert_eq!(get(a.addr(), "/row?workload=tonto&accesses=1"), 400);
    let mut raw = TcpStream::connect(a.addr()).expect("connect");
    raw.write_all(b"GARBAGE\r\nHost: x\r\n\r\n").expect("write");
    let malformed = http::ClientConn::from_stream(raw).recv().expect("response");
    assert_eq!(malformed.status, 400);
    assert_eq!(get(a.addr(), &row("tonto")), 200);
    check("a", a.addr(), &mut mismatches);
    a.shutdown();

    // Storeless C: one row twice, the second from the result tier.
    let c = Server::start(ServeConfig {
        store_dir: None,
        ..standalone("c")
    })
    .expect("start c");
    assert_eq!(get(c.addr(), &row("x264")), 200);
    assert_eq!(get(c.addr(), &row("x264")), 200);
    check("c", c.addr(), &mut mismatches);
    c.shutdown();

    // Standalone B: a burst of identical rows released together.
    let b = Server::start(standalone("b")).expect("start b");
    let barrier = Arc::new(Barrier::new(6));
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let barrier = Arc::clone(&barrier);
            let addr = b.addr();
            scope.spawn(move || {
                barrier.wait();
                assert_eq!(get(addr, "/row?workload=leela&accesses=40000"), 200);
            });
        }
    });

    // A restarted on its store: the same row is all store hits.
    let a2 = Server::start(standalone("a")).expect("restart a");
    assert_eq!(get(a2.addr(), &row("tonto")), 200);

    // A 2-shard cluster with stores, and a router over it.
    let peers = reserve_ports(2);
    let shard = |id: usize| {
        Server::start(ServeConfig {
            addr: peers[id].clone(),
            cluster: Some(ClusterConfig {
                shard_id: Some(id),
                peers: peers.clone(),
            }),
            ..standalone(&format!("shard-{id}"))
        })
        .expect("start shard")
    };
    let (shard0, shard1) = (shard(0), shard(1));
    let router = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cluster: Some(ClusterConfig {
            shard_id: None,
            peers: peers.clone(),
        }),
        ..ServeConfig::default()
    })
    .expect("start router");
    // Rows picked by owner: walk (workload, access count) candidates in
    // a fixed order and keep the first three that each shard owns, so
    // every shard serves three rows whatever the ring's digests.
    let map = ShardMap::new(2);
    let mut owned: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    'pick: for step in 0..64 {
        for w in workloads::single_threaded() {
            let accesses = ACCESSES + 100 * step;
            let key =
                persist::request_key("fixed_capacity", w.name(), None, accesses, PolicyKind::Lru);
            let rows = &mut owned[map.owner(&key)];
            if rows.len() < 3 {
                rows.push(format!("/row?workload={}&accesses={accesses}", w.name()));
            }
            if owned.iter().all(|rows| rows.len() == 3) {
                break 'pick;
            }
        }
    }
    let [on0, on1] = owned;
    assert!(
        on0.len() == 3 && on1.len() == 3,
        "no three rows per shard: {on0:?} {on1:?}"
    );
    assert_eq!(get(router.addr(), &on0[0]), 200);
    assert_eq!(get(router.addr(), &on1[0]), 200);
    assert_eq!(get(shard0.addr(), &on1[0]), 200);
    check("shard1", shard1.addr(), &mut mismatches);

    // The owner goes down: the router falls back to shard 0 (which
    // evaluates the hopped request locally), and shard 0 answers a row
    // it cannot forward itself.
    shard1.shutdown();
    assert_eq!(get(router.addr(), &on1[1]), 200);
    assert_eq!(get(shard0.addr(), &on1[2]), 200);

    for (name, server) in [
        ("b", &b),
        ("a2", &a2),
        ("shard0", &shard0),
        ("router", &router),
    ] {
        check(name, server.addr(), &mut mismatches);
    }

    // The traffic really moved what it was meant to move.
    let stats = |server: &Server| http::get(server.addr(), "/statsz").expect("statsz").1;
    let a2_stats = stats(&a2);
    assert!(
        field(&a2_stats, "\"store\":", "hits") >= Some(11),
        "the restarted server reads its row from the store: {a2_stats}"
    );
    assert!(
        field(&a2_stats, "\"results\":", "hits") >= Some(11),
        "C's repeated row came from memory: {a2_stats}"
    );
    let shard0_stats = stats(&shard0);
    assert!(
        field(&shard0_stats, "\"cluster\":", "fallbacks") >= Some(2),
        "{shard0_stats}"
    );
    let router_stats = stats(&router);
    assert!(
        field(&router_stats, "\"cluster\":", "fallbacks") >= Some(1),
        "{router_stats}"
    );

    for server in [router, shard0, a2, b] {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        mismatches.is_empty(),
        "/statsz and /metricsz disagree:\n{}",
        mismatches.join("\n")
    );
}
