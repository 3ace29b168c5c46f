//! Live quantiles stay inside what was observed: a daemon that only ever
//! served one request per connection reports a median of one request per
//! connection, and a nonzero handler latency never renders as `0 µs`.
//!
//! The metrics registry is process-global, so this file holds a single
//! `#[test]` — its own process — so no other server's connections land in
//! the histograms it reads.

use nvm_llc::serve::{http, ServeConfig, Server};

/// The number that follows `"name":` after `anchor` in a rendered
/// `/statsz` body.
fn number_after(stats: &str, anchor: &str, name: &str) -> f64 {
    let start = stats.find(anchor).expect(anchor);
    let pattern = format!("\"{name}\":");
    let at = stats[start..].find(&pattern).expect(&pattern) + start + pattern.len();
    stats[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+'))
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

#[test]
fn close_per_request_traffic_reports_honest_medians() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    for _ in 0..20 {
        let (status, _) = http::get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
    }
    let (status, stats) = http::get(addr, "/statsz").unwrap();
    assert_eq!(status, 200);

    // Every connection so far carried exactly one request; bucket
    // interpolation alone would put the median halfway into (0, 1].
    let per_conn = number_after(&stats, "\"nvmllc_serve_requests_per_conn\":", "p50");
    assert!(per_conn >= 1.0, "requests-per-conn p50 {per_conn}: {stats}");

    let p50_us = number_after(&stats, "\"latency\":", "p50_us");
    assert!(p50_us >= 1.0, "request p50 {p50_us} us: {stats}");
    server.shutdown();
}
