//! End-to-end tests of the `nvm-llcd` evaluation service: concurrent
//! clients coalesce onto one evaluation, every response is
//! byte-identical to evaluating directly, and a daemon restart serves
//! warm requests from the persistent store.

use std::sync::{Arc, Barrier};

use nvm_llc::prelude::*;
use nvm_llc::serve::{http, json, ServeConfig, Server};

/// Extracts the integer field `"name":N` that follows `anchor` in a
/// rendered `/statsz` body (crude, but the format is ours).
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

fn direct_row(workload: &str, accesses: usize) -> MatrixRow {
    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
    Evaluator::new(baseline, nvms)
        .base_accesses(accesses)
        .run_workload(&workloads::by_name(workload).unwrap())
}

use nvm_llc::sim::MatrixRow;

/// Read-held by every test that evaluates, write-held by the ones that
/// assert how far process-wide evaluation counters move or that empty
/// the result tier.
static EVALUATIONS: std::sync::RwLock<()> = std::sync::RwLock::new(());

fn evaluating() -> std::sync::RwLockReadGuard<'static, ()> {
    EVALUATIONS.read().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn overlapping_identical_requests_coalesce_and_stay_bit_identical() {
    let _evaluating = evaluating();
    const CLIENTS: usize = 8;
    // Large enough that the leader's cold evaluation (trace generation +
    // functional record + batched replay) stays in flight while the
    // other clients' requests land, even with the replay kernels fast
    // and every thread contending for one CPU. No other test in this
    // file asks for this row, so the result tier cannot answer it.
    const ACCESSES: usize = 200_000;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: CLIENTS,
        max_evals: CLIENTS,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Hammer the daemon with identical requests released together.
    // The expected row is computed only afterwards: evaluating it here
    // would warm the process-wide result tier, making
    // the leader's evaluation too fast for the others to overlap with.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let target = format!("/row?workload=tonto&accesses={ACCESSES}");
    let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let target = target.clone();
                scope.spawn(move || {
                    barrier.wait();
                    http::get(addr, &target).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let expected = json::render_row(&direct_row("tonto", ACCESSES));
    for (status, body) in &responses {
        assert_eq!(*status, 200);
        assert_eq!(
            body, &expected,
            "a served row must be byte-identical to the direct evaluation"
        );
    }
    let (_, stats) = http::get(addr, "/statsz").unwrap();
    let coalesced = field_after(&stats, "", "coalesce_hits");
    let evaluations = field_after(&stats, "", "evaluations");
    assert!(
        coalesced >= 1,
        "{CLIENTS} overlapping identical requests must coalesce: {stats}"
    );
    assert!(
        evaluations < CLIENTS as u64,
        "coalescing must save whole evaluations: {stats}"
    );
    assert_eq!(coalesced + evaluations, CLIENTS as u64, "{stats}");
    server.shutdown();
}

#[test]
fn single_cell_matches_direct_evaluation() {
    let _evaluating = evaluating();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let jan = reference::by_name(&models, "Jan").unwrap();
    let row = Evaluator::new(baseline, vec![jan])
        .base_accesses(6_000)
        .run_workload(&workloads::by_name("x264").unwrap());
    let expected = json::render_cell(&row.workload, &row.entries[0]);
    let (status, body) =
        http::get(server.addr(), "/eval?workload=x264&tech=Jan&accesses=6000").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, expected);
    server.shutdown();
}

#[test]
fn a_policy_param_selects_the_replacement_policy_and_bad_names_answer_400() {
    let _evaluating = evaluating();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // A served row under `policy=srrip` is byte-identical to the direct
    // evaluation with that policy threaded through the evaluator.
    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
    let row = Evaluator::new(baseline, nvms)
        .base_accesses(5_000)
        .policy(PolicyKind::Srrip)
        .run_workload(&workloads::by_name("leela").unwrap());
    let expected = json::render_row(&row);
    let (status, body) = http::get(addr, "/row?workload=leela&accesses=5000&policy=srrip").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, expected, "policy=srrip must reach the evaluator");

    // The same request without a policy is the LRU default — a distinct
    // cache identity, so the bodies must differ functionally.
    let (status, lru_body) = http::get(addr, "/row?workload=leela&accesses=5000").unwrap();
    assert_eq!(status, 200);
    assert_ne!(
        lru_body, body,
        "srrip and the lru default must not alias one cache entry"
    );

    // Unknown policy names are rejected up front, before any evaluation.
    let (status, body) = http::get(addr, "/row?workload=leela&accesses=5000&policy=clock").unwrap();
    assert_eq!(status, 400);
    assert!(
        body.contains("unknown policy \"clock\""),
        "the 400 must name the bad value: {body}"
    );
    server.shutdown();
}

#[test]
fn warm_requests_survive_a_daemon_restart_via_the_store() {
    let _evaluating = evaluating();
    let dir = std::env::temp_dir().join(format!("nvm-llcd-restart-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let target = "/row?workload=ua&accesses=6000";

    // First daemon: cold request computes and persists every cell.
    let first = Server::start(config()).unwrap();
    let (status, cold) = http::get(first.addr(), target).unwrap();
    assert_eq!(status, 200);
    let (_, stats) = http::get(first.addr(), "/statsz").unwrap();
    assert!(
        field_after(&stats, "\"store\":", "insertions") >= 11,
        "cold run persists all 11 results: {stats}"
    );
    first.shutdown();

    // Second daemon, same directory: the row comes back bit-identical,
    // with every cell a store hit — no cell was re-evaluated.
    let second = Server::start(config()).unwrap();
    let (status, warm) = http::get(second.addr(), target).unwrap();
    assert_eq!(status, 200);
    assert_eq!(warm, cold, "restart must not change a single byte");
    let (_, stats) = http::get(second.addr(), "/statsz").unwrap();
    assert!(
        field_after(&stats, "\"store\":", "hits") >= 11,
        "warm run serves all 11 results from disk: {stats}"
    );
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A repeated `/row` is answered by the in-memory result tier: the same
/// bytes, with no group scheduled and no tape recorded behind them.
#[test]
fn a_repeated_row_is_served_from_memory_without_a_functional_pass() {
    let _exclusive = EVALUATIONS.write().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let counts = || {
        let (status, body) = http::get(addr, "/metricsz").unwrap();
        assert_eq!(status, 200);
        (
            metric_value(&body, "nvmllc_eval_groups_total"),
            metric_value(&body, "nvmllc_tape_record_seconds_count"),
        )
    };
    let target = "/row?workload=gobmk&accesses=4200";
    let (status, cold) = http::get(addr, target).unwrap();
    assert_eq!(status, 200);
    let before = counts();
    let (status, warm) = http::get(addr, target).unwrap();
    assert_eq!(status, 200);
    assert_eq!(warm, cold, "a remembered row is byte-identical");
    assert_eq!(counts(), before, "no group scheduled, no tape recorded");
    server.shutdown();
}

/// `/eval` over every technology of a workload records one tape: the
/// first cell is evaluated with the technologies sharing its LLC
/// capacity (all of fixed capacity), and the rest come from the result
/// tier. Each cell equals its evaluation beside the baseline alone.
#[test]
fn an_eval_sweep_over_a_workload_makes_one_functional_pass() {
    use nvm_llc::sim::runner;
    let _exclusive = EVALUATIONS.write().unwrap_or_else(|e| e.into_inner());
    let forget_results = || {
        runner::set_result_budget(0);
        runner::set_result_budget(runner::RESULT_BUDGET_BYTES);
    };
    const ACCESSES: usize = 4_300;
    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let w = workloads::by_name("sp").unwrap();
    let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
    forget_results();
    let expected: Vec<String> = nvms
        .iter()
        .map(|m| {
            let row = Evaluator::new(baseline.clone(), vec![m.clone()])
                .base_accesses(ACCESSES)
                .run_workload(&w);
            json::render_cell(&row.workload, &row.entries[0])
        })
        .collect();
    forget_results();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let groups = || {
        let (status, body) = http::get(server.addr(), "/metricsz").unwrap();
        assert_eq!(status, 200);
        metric_value(&body, "nvmllc_eval_groups_total")
    };
    let before = groups();
    for (m, expected) in nvms.iter().zip(&expected) {
        let target = format!("/eval?workload=sp&tech={}&accesses={ACCESSES}", m.name);
        let (status, body) = http::get(server.addr(), &target).unwrap();
        assert_eq!(status, 200, "{target}");
        assert_eq!(&body, expected, "{target}");
    }
    assert_eq!(groups() - before, 1.0, "one functional pass for the sweep");
    server.shutdown();
}

/// Starts a small daemon and hands back a raw client stream plus a
/// response reader over a clone of it, for transport-level tests that
/// need byte-exact control of what goes on the wire.
fn raw_client(server: &Server) -> (std::net::TcpStream, http::ClientConn) {
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let reader = http::ClientConn::from_stream(stream.try_clone().unwrap());
    (stream, reader)
}

#[test]
fn pipelined_requests_in_one_segment_get_ordered_responses() {
    use std::io::Write as _;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut stream, mut reader) = raw_client(&server);
    // Three requests in one write: the connection loop must parse and
    // answer all of them, in order, on the same connection.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /nope HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
    let first = reader.recv().unwrap();
    assert_eq!((first.status, first.body.as_str()), (200, "ok\n"));
    assert!(!first.close, "pipelined responses must keep the connection");
    assert_eq!(reader.recv().unwrap().status, 404);
    let third = reader.recv().unwrap();
    assert_eq!((third.status, third.body.as_str()), (200, "ok\n"));
    server.shutdown();
}

#[test]
fn a_request_split_across_writes_still_parses() {
    use std::io::Write as _;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut stream, mut reader) = raw_client(&server);
    // The head arrives in three fragments, the last one splitting the
    // terminating blank line.
    for fragment in [
        "GET /hea".as_bytes(),
        "lthz HTTP/1.1\r\nHost".as_bytes(),
        ": x\r\n\r\n".as_bytes(),
    ] {
        stream.write_all(fragment).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let response = reader.recv().unwrap();
    assert_eq!((response.status, response.body.as_str()), (200, "ok\n"));
    server.shutdown();
}

#[test]
fn an_oversized_head_answers_431_and_closes() {
    use std::io::Write as _;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut stream, mut reader) = raw_client(&server);
    let mut head = b"GET /healthz HTTP/1.1\r\n".to_vec();
    head.extend_from_slice(format!("X-Padding: {}\r\n", "y".repeat(20_000)).as_bytes());
    // No terminating blank line needed: the head is already oversized.
    stream.write_all(&head).unwrap();
    let response = reader.recv().unwrap();
    assert_eq!(response.status, 431);
    assert!(response.close, "431 must close: no boundary to recover at");
    server.shutdown();
}

#[test]
fn a_malformed_request_line_answers_400_without_killing_the_connection() {
    use std::io::Write as _;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut stream, mut reader) = raw_client(&server);
    // Garbage request line, then a valid request, in one segment: the
    // bad head is consumed and answered 400, the good one still served.
    stream
        .write_all(b"TOTAL GARBAGE\r\nHost: x\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let bad = reader.recv().unwrap();
    assert_eq!(bad.status, 400);
    assert!(!bad.close, "a parse error must not kill the connection");
    let good = reader.recv().unwrap();
    assert_eq!((good.status, good.body.as_str()), (200, "ok\n"));
    server.shutdown();
}

#[test]
fn keep_alive_connections_honor_the_request_cap_and_close_header() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_requests_per_conn: 3,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut conn = http::ClientConn::connect(server.addr()).unwrap();
    // Requests 1 and 2 keep the connection; request 3 hits the cap and
    // carries `Connection: close`.
    for _ in 0..2 {
        conn.send("/healthz", &[]).unwrap();
    }
    conn.flush().unwrap();
    assert!(!conn.recv().unwrap().close);
    assert!(!conn.recv().unwrap().close);
    conn.send("/healthz", &[]).unwrap();
    conn.flush().unwrap();
    assert!(conn.recv().unwrap().close, "request cap must close");

    let (_, stats) = http::get(server.addr(), "/statsz").unwrap();
    assert!(
        field_after(&stats, "", "connections") >= 2,
        "connections must be counted: {stats}"
    );
    assert!(
        field_after(&stats, "", "requests") >= 4,
        "keep-alive requests must all be counted: {stats}"
    );
    server.shutdown();
}

/// `/metricsz` serves the whole registry in Prometheus text exposition
/// format: every line is a `# HELP`, a `# TYPE`, or a parsable sample,
/// and the inventory spans the evaluator, both caches, the store, and
/// the server itself.
#[test]
fn metricsz_is_valid_prometheus_with_a_full_inventory() {
    let _evaluating = evaluating();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    // Drive one evaluation so the serve/eval counters have moved.
    let (status, _) = http::get(addr, "/eval?workload=lu&tech=Kang&accesses=4000").unwrap();
    assert_eq!(status, 200);

    let (status, body) = http::get(addr, "/metricsz").unwrap();
    assert_eq!(status, 200);
    let mut families = std::collections::HashSet::new();
    for line in body.lines() {
        if line.is_empty() || line.starts_with("# HELP ") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown type: {line}"
            );
            families.insert(name.to_owned());
        } else {
            let (lhs, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
            let name = lhs.split('{').next().unwrap();
            assert!(name.starts_with("nvmllc_"), "off-scheme name: {line}");
        }
    }
    assert!(
        families.len() >= 12,
        "expected >= 12 metric families, got {}: {families:?}",
        families.len()
    );
    for family in [
        "nvmllc_eval_runs_total",
        "nvmllc_eval_run_all_seconds",
        "nvmllc_eval_result_memo_hits_total",
        "nvmllc_tape_record_seconds",
        "nvmllc_tape_replay_batch_seconds",
        "nvmllc_trace_generated_total",
        "nvmllc_store_hits_total",
        "nvmllc_serve_requests_total",
        "nvmllc_serve_handle_seconds",
        "nvmllc_serve_connections_total",
        "nvmllc_serve_requests_per_conn",
        "nvmllc_serve_proxy_hops_total",
    ] {
        assert!(families.contains(family), "missing {family}: {families:?}");
    }
    server.shutdown();
}

/// `/statsz` carries uptime, build info, cumulative per-status-class
/// request counts, and the registry dump — appended after the original
/// fields so existing consumers keep working.
#[test]
fn statsz_reports_uptime_build_info_and_status_classes() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let (status, _) = http::get(addr, "/no-such-endpoint").unwrap();
    assert_eq!(status, 404);

    let (_, stats) = http::get(addr, "/statsz").unwrap();
    let _uptime = field_after(&stats, "", "uptime_seconds");
    assert!(stats.contains(&format!(
        "\"build\":{{\"version\":\"{}\",\"git_hash\":\"",
        env!("CARGO_PKG_VERSION")
    )));
    // Built from a clone (as here), the build script resolves the real
    // commit; `unknown` is reserved for source-tarball builds.
    let in_git_clone = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .map(|out| out.status.success())
        .unwrap_or(false);
    if in_git_clone {
        assert!(
            !stats.contains("\"git_hash\":\"unknown\""),
            "clone builds must report a real commit: {stats}"
        );
    }
    assert!(stats.contains("\"metrics\":{"), "registry dump missing");
    assert!(
        field_after(&stats, "\"requests_by_class\":", "4xx") >= 1,
        "the 404 above must be counted: {stats}"
    );
    let ok_before = field_after(&stats, "\"requests_by_class\":", "2xx");

    // The first /statsz response itself lands in the 2xx class.
    let (_, stats) = http::get(addr, "/statsz").unwrap();
    assert!(
        field_after(&stats, "\"requests_by_class\":", "2xx") > ok_before,
        "2xx class must keep counting: {stats}"
    );
    server.shutdown();
}

/// Extracts the unlabeled sample `NAME <value>` from a `/metricsz` body.
fn metric_value(body: &str, name: &str) -> f64 {
    body.lines()
        .find(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|line| line.rsplit_once(' '))
        .map(|(_, value)| value.parse().expect("metric value"))
        .unwrap_or_else(|| panic!("no sample for {name}"))
}

/// Every early-return path — 400 malformed, 431 oversized, 503 shed,
/// 429 busy, idle-timeout close — must leave the queue-depth and
/// inflight-evals gauges balanced at zero and account the connection in
/// `requests_per_conn`.
#[test]
fn early_return_paths_leave_gauges_balanced() {
    let _evaluating = evaluating();
    use std::io::Write as _;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_evals: 0, // every evaluation leader answers 429
        idle_timeout_ms: 150,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // 400: malformed head, connection survives for the next request.
    let (mut stream, mut reader) = raw_client(&server);
    stream
        .write_all(b"GARBAGE\r\nHost: x\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    assert_eq!(reader.recv().unwrap().status, 400);
    assert_eq!(reader.recv().unwrap().status, 200);
    drop((stream, reader));

    // 429: the zero in-flight cap rejects every evaluation.
    let (status, _) = http::get(addr, "/eval?workload=lu&tech=Kang&accesses=4000").unwrap();
    assert_eq!(status, 429);

    // 431 closes after one response; that connection must still land in
    // the requests_per_conn histogram (served = 1, not 0). The registry
    // is process-global, so assert a >= +1 delta rather than equality.
    let (_, before_scrape) = http::get(addr, "/metricsz").unwrap();
    let before = metric_value(&before_scrape, "nvmllc_serve_requests_per_conn_sum");
    let (mut stream, mut reader) = raw_client(&server);
    stream
        .write_all(format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n", "y".repeat(20_000)).as_bytes())
        .unwrap();
    assert_eq!(reader.recv().unwrap().status, 431);
    drop((stream, reader));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let (_, scrape) = http::get(addr, "/metricsz").unwrap();
        if metric_value(&scrape, "nvmllc_serve_requests_per_conn_sum") >= before + 1.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the 431 connection never recorded into requests_per_conn"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // Idle timeout: one served request, then the server closes the
    // quiet connection.
    let (mut stream, mut reader) = raw_client(&server);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    assert_eq!(reader.recv().unwrap().status, 200);
    assert!(
        reader.recv().is_err(),
        "the idle connection must be closed by the server"
    );

    // 503: a zero-capacity queue sheds every connection at accept.
    let shedding = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let (status, _) = http::get(shedding.addr(), "/healthz").unwrap();
    assert_eq!(status, 503);
    shedding.shutdown();

    // After every error path above: both load gauges balanced at zero.
    let (_, stats) = http::get(addr, "/statsz").unwrap();
    assert_eq!(
        field_after(&stats, "", "queue_depth"),
        0,
        "queue_depth must return to zero: {stats}"
    );
    assert_eq!(
        field_after(&stats, "", "inflight_evals"),
        0,
        "inflight_evals must return to zero: {stats}"
    );
    server.shutdown();
}

/// `/statsz` surfaces p50/p95/p99 of the handler-latency and queue-wait
/// histograms, plus the tail-sampling summary.
#[test]
fn statsz_reports_latency_quantiles_and_trace_summary() {
    let _evaluating = evaluating();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let (status, _) = http::get(addr, "/eval?workload=lu&tech=Kang&accesses=4000").unwrap();
    assert_eq!(status, 200);

    let (_, stats) = http::get(addr, "/statsz").unwrap();
    assert!(
        stats.contains("\"latency\":{\"request\":{\"p50_us\":"),
        "request latency quantiles missing: {stats}"
    );
    assert!(
        stats.contains("\"queue_wait\":{\"p50_us\":"),
        "queue-wait quantiles missing: {stats}"
    );
    let p50 = field_after(&stats, "\"latency\":", "p50_us");
    let p99 = field_after(&stats, "\"latency\":", "p99_us");
    assert!(p99 >= p50, "quantiles must be monotone: {stats}");
    // The trace block always renders, capture or not.
    let _ = field_after(&stats, "\"trace\":", "captured");
    let _ = field_after(&stats, "\"trace\":", "slow_threshold_us");
    server.shutdown();
}

/// Serializes the tests that toggle or depend on the process-global
/// span-timing flag ([`nvm_llc::obs::set_enabled`]).
static ENABLED_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// With `--trace-slow-ms 0` every traced request is tail-sampled into
/// `/tracez`, complete with the synthetic queue/parse spans and the
/// handler span tree; errors are retained regardless of latency.
#[test]
fn tracez_captures_slow_and_error_requests_with_phase_spans() {
    let _evaluating = evaluating();
    let _enabled = ENABLED_FLAG.lock().unwrap();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        trace_slow_ms: Some(0),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    // A cell no other test in this file asks for, so it is computed: the
    // result tier would answer a repeated one without a functional pass.
    let (status, _) = http::get(addr, "/eval?workload=lu&tech=Kang&accesses=4400").unwrap();
    assert_eq!(status, 200);

    let (status, tracez) = http::get(addr, "/tracez").unwrap();
    assert_eq!(status, 200);
    assert!(
        tracez.starts_with("{\"node\":\"node\","),
        "tracez must lead with the server's lane label: {tracez}"
    );
    assert!(field_after(&tracez, "", "captured") >= 1, "{tracez}");
    assert!(tracez.contains("\"reason\":\"slow\""), "{tracez}");
    for span in ["serve_handle", "queue", "parse", "tape_record"] {
        assert!(
            tracez.contains(&format!("\"name\":\"{span}\"")),
            "span {span} missing from the retained tree: {tracez}"
        );
    }

    // Errors are retained regardless of latency or threshold.
    let (status, _) = http::get(addr, "/eval?workload=nope&tech=Kang").unwrap();
    assert_eq!(status, 400);
    let (_, tracez) = http::get(addr, "/tracez").unwrap();
    assert!(tracez.contains("\"reason\":\"error\""), "{tracez}");
    assert!(tracez.contains("\"status\":400"), "{tracez}");

    // The chrome export renders complete events with a named lane.
    let (status, chrome) = http::get(addr, "/tracez?format=chrome").unwrap();
    assert_eq!(status, 200);
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    assert!(chrome.contains("\"name\":\"serve_handle\""), "{chrome}");
    assert!(chrome.contains("\"name\":\"process_name\""), "{chrome}");
    server.shutdown();
}

/// A standalone node federates itself: `/clusterz` is valid Prometheus
/// with the shard breakdown collapsed to `shard="self"`.
#[test]
fn clusterz_on_a_standalone_node_reports_itself() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let (status, _) = http::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let (status, clusterz) = http::get(addr, "/clusterz").unwrap();
    assert_eq!(status, 200);
    assert!(
        clusterz.contains("nvmllc_cluster_shard_up{shard=\"self\"} 1"),
        "{clusterz}"
    );
    assert!(
        clusterz.contains("nvmllc_serve_requests_total{"),
        "the merged registry must carry the serve families: {clusterz}"
    );
    assert!(
        clusterz.contains("nvmllc_cluster_shard_requests_total{shard=\"self\"}"),
        "{clusterz}"
    );
    server.shutdown();
}

/// With span timing disabled the server emits no trace headers at all:
/// a hop-marked traced request and the same request untraced produce
/// byte-identical response heads, so tracing is free to turn off.
#[test]
fn disabled_span_timing_emits_no_trace_headers_and_identical_bytes() {
    let _evaluating = evaluating();
    let _enabled = ENABLED_FLAG.lock().unwrap();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        trace_slow_ms: Some(0),
        ..ServeConfig::default()
    })
    .unwrap();
    let context = "000102030405060708090a0b0c0d0e0f-0011223344556677-1";
    let target = "/eval?workload=x264&tech=Jan&accesses=4000";
    let send = |headers: &[(&str, &str)]| {
        let mut conn = http::ClientConn::connect(server.addr()).unwrap();
        conn.send(target, headers).unwrap();
        conn.flush().unwrap();
        conn.recv().unwrap()
    };

    // Enabled: a hop-marked request gets its spans back in a header.
    assert!(nvm_llc::obs::enabled(), "span timing defaults on");
    let traced = send(&[(nvm_llc::obs::trace::TRACE_HEADER, context)]);
    assert_eq!(traced.status, 200);
    assert!(
        traced.header(nvm_llc::obs::trace::SPANS_HEADER).is_some(),
        "a traced hop must return its span records"
    );

    // Disabled: the same request carries no trace header, and its whole
    // response (status, headers, body) matches an untraced request's.
    nvm_llc::obs::set_enabled(false);
    let off = send(&[(nvm_llc::obs::trace::TRACE_HEADER, context)]);
    let plain = send(&[]);
    nvm_llc::obs::set_enabled(true);
    assert_eq!(off.status, 200);
    assert!(
        off.header(nvm_llc::obs::trace::SPANS_HEADER).is_none(),
        "disabled tracing must emit no trace headers"
    );
    assert_eq!(off.body, traced.body, "tracing must never change a body");
    assert_eq!(
        off.headers, plain.headers,
        "with tracing off the wire heads must be identical"
    );
    server.shutdown();
}
