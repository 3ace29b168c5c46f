//! The accept path blocks instead of polling: close-per-request clients
//! are served as soon as they connect, `stop` wakes the blocked accept
//! on any bind address, and shutdown still drains queued connections.

use std::time::{Duration, Instant};

use nvm_llc::serve::{http, ServeConfig, Server};

fn start(addr: &str, workers: usize) -> Server {
    Server::start(ServeConfig {
        addr: addr.into(),
        workers,
        ..ServeConfig::default()
    })
    .expect("start server")
}

/// Fifty fresh connections in a row: each one waits only for its own
/// accept, not for an accept-loop poll to come round.
#[test]
fn sequential_close_per_request_gets_are_not_paced_by_a_poll() {
    let server = start("127.0.0.1:0", 4);
    let started = Instant::now();
    for _ in 0..50 {
        assert_eq!(
            http::get(server.addr(), "/healthz").unwrap(),
            (200, "ok\n".to_owned())
        );
    }
    let elapsed = started.elapsed();
    server.shutdown();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 close-per-request GETs took {elapsed:?}"
    );
}

/// `stop` wakes the blocked accept on a loopback and on an unspecified
/// bind address, fresh or after serving.
#[test]
fn shutdown_returns_promptly_on_loopback_and_unspecified_addresses() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        for serve_first in [false, true] {
            let server = start(addr, 2);
            if serve_first {
                let port = server.addr().port();
                let (status, _) = http::get(([127, 0, 0, 1], port).into(), "/healthz").unwrap();
                assert_eq!(status, 200);
            }
            let started = Instant::now();
            server.shutdown();
            let elapsed = started.elapsed();
            assert!(
                elapsed < Duration::from_secs(2),
                "shutdown on {addr} (served: {serve_first}) took {elapsed:?}"
            );
        }
    }
}

/// One worker held by an idle keep-alive connection, one connection
/// queued behind it: after `stop` the queued request is still answered
/// (with `Connection: close`) and `join` returns.
#[test]
fn stop_drains_a_connection_queued_behind_an_idle_keep_alive() {
    let server = start("127.0.0.1:0", 1);
    let mut holder = http::ClientConn::connect(server.addr()).unwrap();
    let (status, stats) = holder.get("/statsz").unwrap();
    assert_eq!(status, 200);
    let instance: String = stats
        .strip_prefix("{\"instance\":")
        .expect("statsz leads with its instance")
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();

    let mut queued = http::ClientConn::connect(server.addr()).unwrap();
    queued.send("/healthz", &[]).unwrap();
    queued.flush().unwrap();
    // The worker is blocked reading `holder`, so wait on the registry
    // rather than a scrape: the queued connection shows as depth 1.
    let sample = format!("nvmllc_serve_queue_depth{{instance=\"{instance}\"}} 1");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !nvm_llc::obs::metrics::render_prometheus()
        .lines()
        .any(|line| line == sample)
    {
        assert!(Instant::now() < deadline, "connection never queued");
        std::thread::sleep(Duration::from_millis(1));
    }

    server.stop();
    let response = queued.recv().expect("queued request answered after stop");
    assert_eq!((response.status, response.body.as_str()), (200, "ok\n"));
    assert!(response.close, "a draining server closes the connection");
    server.join();
    drop(holder);
}
