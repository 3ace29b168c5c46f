//! The `/row` daemon workloads: `rows-warm`, `rows-restart` and
//! `rows-mixed`.
//!
//! Load is a closed loop sized for a 2-core host: [`CLIENTS`] client
//! threads, each sending its next request only after the previous reply
//! (the daemon's callers — sweep scripts, `nvm-llc route` — wait for
//! each row). Keep-alive clients set `TCP_NODELAY`, so the latency is
//! the server's, not Nagle's; close-per-request clients connect per
//! row, as curl does.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nvm_llc::serve::http::{self, ClientConn};
use nvm_llc::sim::PolicyKind;
use nvm_llc::store::Store;
use nvm_llc::trace::workloads;

use crate::proc::{parse_kv, say, Child, Daemon, Scratch};
use crate::replica::{attribute, Counters, Layers, Replica, Setup};
use crate::report::{Outcome, Rounds};
use crate::stats::{quantile, Deck, Measured, Rng};
use crate::{another_round, Opts, Sizes, Workload};

/// Concurrent clients (and so at most this many connections).
pub const CLIENTS: usize = 2;

/// Rows per run checked against in-process evaluation.
const SAMPLE_ROWS: usize = 20;

/// RNG stream numbers, so no two uses of one seed draw alike.
const WARM_STREAM: u64 = 1;
const RESTART_STREAM: u64 = 100;
const MIXED_STREAM: u64 = 1_000;
const SAMPLE_STREAM: u64 = 7;

/// One `/row` request.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Per-thread base accesses.
    pub accesses: usize,
    /// LLC replacement policy.
    pub policy: PolicyKind,
}

impl Row {
    /// The request target.
    pub fn target(&self) -> String {
        format!(
            "/row?workload={}&accesses={}&policy={}",
            self.workload, self.accesses, self.policy
        )
    }

    /// The body the daemon must answer, computed in this process the
    /// way the daemon computes it.
    pub fn direct_body(&self) -> String {
        let profile = workloads::by_name(&self.workload).expect("a known workload");
        let row = Setup::row(self.accesses, self.policy)
            .evaluator(1)
            .run_workload(&profile);
        nvm_llc::serve::json::render_row(&row)
    }
}

fn names() -> Vec<String> {
    workloads::all()
        .iter()
        .map(|w| w.name().to_owned())
        .collect()
}

/// Every Figure 1 workload's row at the warm size.
pub fn warm_rows(sizes: &Sizes) -> Vec<Row> {
    names()
        .into_iter()
        .map(|workload| Row {
            workload,
            accesses: sizes.warm_accesses,
            policy: PolicyKind::Lru,
        })
        .collect()
}

/// The 120 rows `rows-restart` stores and sweeps: 20 workloads × three
/// access counts × {lru, endurance}.
pub fn restart_rows(sizes: &Sizes) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in names() {
        for accesses in sizes.restart_accesses {
            for policy in [PolicyKind::Lru, PolicyKind::Endurance] {
                rows.push(Row {
                    workload: workload.clone(),
                    accesses,
                    policy,
                });
            }
        }
    }
    rows
}

/// Round `round`'s sweep order over [`restart_rows`].
pub fn restart_order(sizes: &Sizes, seed: u64, round: u64) -> Vec<Row> {
    let mut rows = restart_rows(sizes);
    Rng::new(seed, RESTART_STREAM + round).shuffle(&mut rows);
    rows
}

/// Client `client`'s endless `rows-warm` requests: every warm row
/// equally often, in seeded order.
pub fn warm_requests(sizes: &Sizes, seed: u64, client: usize) -> impl Iterator<Item = Row> {
    let rows = warm_rows(sizes);
    let mut deck = Deck::new(seed, WARM_STREAM + client as u64, rows.len());
    std::iter::repeat_with(move || rows[deck.deal()].clone())
}

/// One client's requests in `rows-mixed` round `round`: 9 in 10 are
/// one of the 20 hot rows, 1 in 10 a cold row over workload × access
/// count × policy, each axis dealt from its own seeded deck.
pub fn mixed_plan(sizes: &Sizes, seed: u64, round: u64, client: usize) -> Vec<Row> {
    let names = names();
    let stream = MIXED_STREAM + (round * CLIENTS as u64 + client as u64) * 8;
    let deck = |axis: u64, n: usize| Deck::new(seed, stream + axis, n);
    let mut kind = deck(0, 10);
    let mut hot = deck(1, names.len());
    let mut cold = deck(2, names.len());
    let mut accesses = deck(3, sizes.cold_accesses.len());
    let mut policy = deck(4, PolicyKind::ALL.len());
    (0..sizes.mixed_round / CLIENTS)
        .map(|_| {
            if kind.deal() == 0 {
                Row {
                    workload: names[cold.deal()].clone(),
                    accesses: sizes.cold_accesses[accesses.deal()],
                    policy: PolicyKind::ALL[policy.deal()],
                }
            } else {
                Row {
                    workload: names[hot.deal()].clone(),
                    accesses: sizes.hot_accesses,
                    policy: PolicyKind::Lru,
                }
            }
        })
        .collect()
}

/// The first body served for each row target: every later body for the
/// same row must equal it.
#[derive(Debug, Default)]
pub struct Bodies(Mutex<HashMap<String, (Row, String)>>);

impl Bodies {
    /// Records the first body for `row`; whether `body` matches it.
    pub fn check(&self, row: &Row, body: &str) -> bool {
        let mut first = self.0.lock().expect("bodies lock");
        let (_, seen) = first
            .entry(row.target())
            .or_insert_with(|| (row.clone(), body.to_owned()));
        seen == body
    }

    /// The body first served for `target`.
    pub fn get(&self, target: &str) -> Option<String> {
        let first = self.0.lock().expect("bodies lock");
        first.get(target).map(|(_, body)| body.clone())
    }

    /// Checks [`SAMPLE_ROWS`] seeded rows against in-process evaluation
    /// on [`CLIENTS`] threads. Returns `(checked, mismatched)`.
    pub fn sample_check(&self, seed: u64) -> (u64, u64) {
        let mut rows: Vec<(Row, String)> = self
            .0
            .lock()
            .expect("bodies lock")
            .values()
            .cloned()
            .collect();
        rows.sort_by_key(|(row, _)| row.target());
        Rng::new(seed, SAMPLE_STREAM).shuffle(&mut rows);
        rows.truncate(SAMPLE_ROWS);
        let mismatched = AtomicU64::new(0);
        std::thread::scope(|s| {
            for chunk in rows.chunks(rows.len().div_ceil(CLIENTS).max(1)) {
                let mismatched = &mismatched;
                s.spawn(move || {
                    for (row, body) in chunk {
                        if row.direct_body() != *body {
                            mismatched.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        (rows.len() as u64, mismatched.into_inner())
    }
}

/// One answered request: latency, and completion time since the load
/// began, both as measured by the client.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Latency, ms.
    pub ms: f64,
    /// Completion, seconds since the load began.
    pub done: f64,
}

/// What a stretch of load did.
#[derive(Debug, Default)]
pub struct Load {
    /// Successful requests, in completion order.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with a non-200 status, an inconsistent body,
    /// or not at all.
    pub failed: u64,
}

impl Load {
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ms).collect()
    }
}

/// A keep-alive client connection with `TCP_NODELAY` set.
fn connect(addr: SocketAddr) -> std::io::Result<ClientConn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    Ok(ClientConn::from_stream(stream))
}

/// One request on a keep-alive connection, (re)connecting as needed:
/// the daemon closes a connection after its per-connection cap.
fn keepalive_get(
    conn: &mut Option<ClientConn>,
    addr: SocketAddr,
    target: &str,
) -> std::io::Result<(u16, String)> {
    let c = match conn {
        Some(c) => c,
        None => conn.insert(connect(addr)?),
    };
    let reply = c
        .send(target, &[])
        .and_then(|()| c.flush())
        .and_then(|()| c.recv());
    match reply {
        Ok(response) => {
            if response.close {
                *conn = None;
            }
            Ok((response.status, response.body))
        }
        Err(e) => {
            *conn = None;
            Err(e)
        }
    }
}

/// Closed-loop load: one client thread per plan, each sending the row
/// its plan yields next once the previous reply is in, until the plan
/// yields `None`. Every body is checked against `bodies`.
pub fn drive<P: FnMut() -> Option<Row> + Send>(
    addr: SocketAddr,
    keep_alive: bool,
    bodies: &Bodies,
    plans: Vec<P>,
) -> Load {
    let start = Instant::now();
    let loads: Vec<Load> = std::thread::scope(|s| {
        let clients: Vec<_> = plans
            .into_iter()
            .map(|mut next| {
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut conn = None;
                    while let Some(row) = next() {
                        let target = row.target();
                        let sent = Instant::now();
                        let reply = if keep_alive {
                            keepalive_get(&mut conn, addr, &target)
                        } else {
                            http::get(addr, &target)
                        };
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        load.attempted += 1;
                        match reply {
                            Ok((200, body)) if bodies.check(&row, &body) => {
                                load.samples.push(Sample {
                                    ms,
                                    done: start.elapsed().as_secs_f64(),
                                })
                            }
                            _ => load.failed += 1,
                        }
                    }
                    load
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let mut total = Load::default();
    for load in loads {
        total.samples.extend(load.samples);
        total.attempted += load.attempted;
        total.failed += load.failed;
    }
    total.samples.sort_by(|a, b| a.done.total_cmp(&b.done));
    total
}

/// `CLIENTS` plans that share one queue of rows.
fn shared_queue<'a>(
    rows: &'a [Row],
    next: &'a AtomicUsize,
) -> Vec<impl FnMut() -> Option<Row> + Send + 'a> {
    (0..CLIENTS)
        .map(|_| move || rows.get(next.fetch_add(1, Ordering::Relaxed)).cloned())
        .collect()
}

fn scrape(addr: SocketAddr) -> String {
    let (status, text) = http::get(addr, "/metricsz").expect("scrape /metricsz");
    assert_eq!(status, 200, "/metricsz answered {status}");
    text
}

fn healthz_ms(get: impl FnOnce() -> std::io::Result<(u16, String)>) -> f64 {
    let start = Instant::now();
    let (status, _) = get().expect("transport probe");
    assert_eq!(status, 200, "/healthz answered {status}");
    start.elapsed().as_secs_f64() * 1e3
}

/// Median `/healthz` round trip over a keep-alive connection, and
/// median close-per-request `/healthz` (connect, round trip, close), ms.
fn transport(addr: SocketAddr) -> (f64, f64) {
    let mut conn = connect(addr).expect("connect for the transport probe");
    let keepalive: Vec<f64> = (0..200)
        .map(|_| healthz_ms(|| conn.get("/healthz")))
        .collect();
    let close: Vec<f64> = (0..40)
        .map(|_| healthz_ms(|| http::get(addr, "/healthz")))
        .collect();
    (quantile(&keepalive, 0.5), quantile(&close, 0.5))
}

/// Everything a daemon workload measured, beyond the rounds.
#[derive(Debug, Default)]
struct Measure {
    rounds: Rounds,
    attempted: u64,
    failed: u64,
    /// Registry counters over the measured stretches (traced runs).
    counters: Counters,
    /// `/row` requests in the measured stretches.
    row_requests: u64,
    /// [`transport`] on one working daemon (traced runs).
    transport: (f64, f64),
}

impl Measure {
    fn count(&mut self, load: &Load) {
        self.attempted += load.attempted;
        self.failed += load.failed;
    }

    /// Accounts one measured stretch of load as one round.
    fn round(&mut self, load: Load, wall: f64) {
        self.count(&load);
        self.row_requests += load.attempted;
        self.rounds.rates.push(load.samples.len() as f64 / wall);
        self.rounds.latencies.push(load.latencies());
    }
}

/// `rows-warm`: five set-ups; the last daemon warms every row untimed,
/// then serves requests dealt from seeded shuffle bags for the whole
/// measured time. Rounds are one-second windows.
fn warm(opts: &Opts, seconds: f64, bodies: &Bodies, m: &mut Measure) {
    for _ in 0..4 {
        let (daemon, setup) = Daemon::start(None);
        m.rounds.setups.push(setup);
        daemon.stop();
    }
    let (daemon, setup) = Daemon::start(None);
    m.rounds.setups.push(setup);
    let rows = warm_rows(&opts.sizes);
    let next = AtomicUsize::new(0);
    let warmup = drive(daemon.addr, true, bodies, shared_queue(&rows, &next));
    m.count(&warmup);

    let before = opts.trace.then(|| scrape(daemon.addr));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let plans: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut requests = warm_requests(&opts.sizes, opts.seed, c);
            move || requests.next().filter(|_| Instant::now() < deadline)
        })
        .collect();
    let load = drive(daemon.addr, true, bodies, plans);
    if let Some(before) = before {
        m.counters = Counters::delta(&before, &scrape(daemon.addr));
        m.transport = transport(daemon.addr);
    }
    m.count(&load);
    m.row_requests += load.attempted;
    let windows = (seconds.floor() as usize).max(1);
    let mut rounds: Vec<Vec<Sample>> = vec![Vec::new(); windows];
    for s in &load.samples {
        rounds[(s.done as usize).min(windows - 1)].push(*s);
    }
    // A window's rate runs from the previous window's last completion
    // to its own.
    let mut prev_end = 0.0;
    for round in rounds.iter().filter(|r| !r.is_empty()) {
        let end = round.last().expect("non-empty round").done;
        m.rounds.rates.push(round.len() as f64 / (end - prev_end));
        m.rounds
            .latencies
            .push(round.iter().map(|s| s.ms).collect());
        prev_end = end;
    }
    m.rounds.rss_mb.push(daemon.stop());
}

/// `rows-restart`: populates a store untimed, then restarts a daemon on
/// it once per round and sweeps every stored row in seeded order with
/// close-per-request clients.
fn restart(opts: &Opts, seconds: f64, bodies: &Bodies, scratch: &Scratch, m: &mut Measure) {
    let rows = restart_rows(&opts.sizes);
    let (daemon, _) = Daemon::start(Some(scratch.path()));
    let next = AtomicUsize::new(0);
    m.count(&drive(
        daemon.addr,
        true,
        bodies,
        shared_queue(&rows, &next),
    ));
    daemon.stop();

    let start = Instant::now();
    for round in 0.. {
        let (daemon, setup) = Daemon::start(Some(scratch.path()));
        m.rounds.setups.push(setup);
        let order = restart_order(&opts.sizes, opts.seed, round);
        let before = opts.trace.then(|| scrape(daemon.addr));
        let sweep = Instant::now();
        let next = AtomicUsize::new(0);
        let load = drive(daemon.addr, false, bodies, shared_queue(&order, &next));
        m.round(load, sweep.elapsed().as_secs_f64());
        if let Some(before) = before {
            m.counters
                .add(&Counters::delta(&before, &scrape(daemon.addr)));
            if round == 0 {
                m.transport = transport(daemon.addr);
            }
        }
        m.rounds.rss_mb.push(daemon.stop());
        if !another_round(start, round as usize + 1, seconds) {
            break;
        }
    }
}

/// `rows-mixed`: per round a fresh daemon on an empty store serves each
/// client's seeded hot/cold plan over keep-alive connections.
fn mixed(opts: &Opts, seconds: f64, bodies: &Bodies, scratch: &Scratch, m: &mut Measure) {
    let start = Instant::now();
    for round in 0.. {
        scratch.reset();
        let (daemon, setup) = Daemon::start(Some(scratch.path()));
        m.rounds.setups.push(setup);
        let plans: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut plan = mixed_plan(&opts.sizes, opts.seed, round, c).into_iter();
                move || plan.next()
            })
            .collect();
        let before = opts.trace.then(|| scrape(daemon.addr));
        let begun = Instant::now();
        let load = drive(daemon.addr, true, bodies, plans);
        m.round(load, begun.elapsed().as_secs_f64());
        if let Some(before) = before {
            m.counters
                .add(&Counters::delta(&before, &scrape(daemon.addr)));
            if round == 0 {
                m.transport = transport(daemon.addr);
            }
        }
        m.rounds.rss_mb.push(daemon.stop());
        if !another_round(start, round as usize + 1, seconds) {
            break;
        }
    }
}

/// Runs a daemon workload. Traced, the daemon phase takes half the
/// time and a replica child then times the layers.
pub fn run(workload: Workload, opts: &Opts) -> Outcome {
    let scratch = Scratch::new(workload.name());
    let bodies = Bodies::default();
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut m = Measure::default();
    match workload {
        Workload::RowsWarm => warm(opts, seconds, &bodies, &mut m),
        Workload::RowsRestart => restart(opts, seconds, &bodies, &scratch, &mut m),
        Workload::RowsMixed => mixed(opts, seconds, &bodies, &scratch, &mut m),
        other => panic!("{} is not a daemon workload", other.name()),
    }
    let (checked, mismatched) = bodies.sample_check(opts.seed);
    let mut outcome = Outcome {
        attempted: m.attempted + checked,
        failed: m.failed + mismatched,
        metrics: Vec::new(),
    };
    if !opts.trace {
        outcome.metrics = m.rounds.end_to_end();
        return outcome;
    }

    let (layers, replayed, differing) = replica(workload, opts, &scratch, &bodies);
    outcome.attempted += replayed;
    outcome.failed += differing;
    let all = m.rounds.latencies.concat();
    let op_ms = all.iter().sum::<f64>() / all.len() as f64;
    let (keepalive_ms, close_ms) = m.transport;
    let transport_ms = if workload == Workload::RowsRestart {
        close_ms
    } else {
        keepalive_ms
    };
    outcome.metrics = attribute(
        op_ms,
        &layers,
        layers.rows as f64,
        transport_ms,
        &m.counters,
        m.row_requests as f64,
    )
    .into_iter()
    .map(|(name, v)| (name, Measured::exact(v)))
    .collect();
    outcome
}

/// Runs the replica child for a traced daemon workload and checks its
/// bodies against the daemon's. Returns its layers, the rows it
/// replayed, and how many of their bodies differ.
fn replica(
    workload: Workload,
    opts: &Opts,
    scratch: &Scratch,
    bodies: &Bodies,
) -> (Layers, u64, u64) {
    let mut args = vec![
        "child-replica".to_owned(),
        "--workload".to_owned(),
        workload.name().to_owned(),
        "--seed".to_owned(),
        opts.seed.to_string(),
        "--scale".to_owned(),
        opts.sizes.name().to_owned(),
    ];
    if workload != Workload::RowsWarm {
        if workload == Workload::RowsMixed {
            scratch.reset();
        }
        args.extend(["--store".to_owned(), scratch.path().display().to_string()]);
    }
    let mut child = Child::spawn(&args);
    let lines = child.read_all();
    child.finish();
    let (mut replayed, mut differing, mut layers) = (0, 0, None);
    for line in lines {
        if let Some(rest) = line.strip_prefix("body ") {
            let (target, digest) = rest.split_once(' ').expect("body line: target digest");
            let served = bodies
                .get(target)
                .map(|b| format!("{:016x}", nvm_llc::store::fnv1a64(b.as_bytes())));
            replayed += 1;
            differing += u64::from(served.as_deref() != Some(digest));
        } else if let Some(rest) = line.strip_prefix("result ") {
            layers = Some(Layers::from_kv(&parse_kv(rest)));
        }
    }
    (layers.expect("replica result line"), replayed, differing)
}

/// The replica child: rebuilds the workload's cache and store state in
/// a fresh process, then makes the daemon's public calls for the
/// workload's first requests through the [`Replica`], printing a digest
/// of every body and finally the per-layer times.
pub fn replica_child(workload: Workload, seed: u64, sizes: &Sizes, store: Option<PathBuf>) {
    let store = store.map(|dir| Arc::new(Store::open(dir).expect("open replica store")));
    let mut replica = Replica::new(store);
    let plan: Vec<Row> = match workload {
        Workload::RowsWarm => {
            let rows = warm_rows(sizes);
            for row in &rows {
                replay(&mut replica, row);
            }
            replica.layers = Layers::default();
            warm_requests(sizes, seed, 0)
                .take(sizes.warm_replica)
                .collect()
        }
        Workload::RowsRestart => restart_order(sizes, seed, 0),
        Workload::RowsMixed => {
            let plans: Vec<Vec<Row>> = (0..CLIENTS)
                .map(|c| mixed_plan(sizes, seed, 0, c))
                .collect();
            (0..plans[0].len())
                .flat_map(|i| plans.iter().map(move |p| p[i].clone()))
                .collect()
        }
        other => panic!("{} is not a daemon workload", other.name()),
    };
    for row in &plan {
        let body = replay(&mut replica, row);
        say(&format!(
            "body {} {:016x}",
            row.target(),
            nvm_llc::store::fnv1a64(body.as_bytes())
        ));
    }
    say(&format!("result {}", replica.layers.to_kv()));
}

fn replay(replica: &mut Replica, row: &Row) -> String {
    let profile = workloads::by_name(&row.workload).expect("a known workload");
    replica.row_body(&Setup::row(row.accesses, row.policy), &profile)
}
