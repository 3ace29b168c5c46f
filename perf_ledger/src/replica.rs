//! The traced decomposition: the runner's own public call sequence,
//! replayed step by step with each call timed into its layer.
//!
//! [`Replica::row`] makes, for one workload under one policy, the calls
//! `Evaluator::run_matrix` makes: fetch the trace, look finished results
//! up in the store, group the pending technologies by `TapeKey`, fetch
//! or record each group's tape, then `replay_batch` (after `decoded()`)
//! or `replay`, writing fresh results back. Its rows must equal the
//! evaluator's bit for bit (the `ledger` test and every traced run
//! check this), so the per-layer times describe the same program the
//! end-to-end run measures. What the layers do not cover (grouping,
//! normalization, the evaluator's cache bookkeeping) is the traced
//! run's `unattributed` remainder.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use nvm_llc::circuit::{reference, LlcModel};
use nvm_llc::experiments::Configuration;
use nvm_llc::serve::json;
use nvm_llc::sim::runner::{DEFAULT_SEED, DEFAULT_WARMUP};
use nvm_llc::sim::{
    persist, ArchConfig, Evaluator, MatrixEntry, MatrixRow, OutcomeTape, PolicyKind, SimResult,
    System, TapeKey,
};
use nvm_llc::store::Store;
use nvm_llc::trace::{Trace, WorkloadProfile};

/// A layer: the public function(s) whose time the replica charges to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `WorkloadProfile::generate_shared` (generation or cache lookup).
    Trace,
    /// `System::record`, the functional pass.
    Record,
    /// `OutcomeTape::decoded`.
    Decode,
    /// `System::replay_batch`.
    ReplayBatch,
    /// `System::replay`.
    ReplaySingle,
    /// `persist::result_store_key` and `persist::tape_store_key`.
    PersistKey,
    /// `persist::encode_result` and `persist::encode_tape`.
    PersistEncode,
    /// `persist::decode_result` and `persist::decode_tape`.
    PersistDecode,
    /// `Store::get_mapped`.
    StoreGet,
    /// `Store::put`.
    StorePut,
    /// `json::render_row`.
    Render,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Trace,
        Layer::Record,
        Layer::Decode,
        Layer::ReplayBatch,
        Layer::ReplaySingle,
        Layer::PersistKey,
        Layer::PersistEncode,
        Layer::PersistDecode,
        Layer::StoreGet,
        Layer::StorePut,
        Layer::Render,
    ];

    /// The per-layer metric reporting this layer's share of the time.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Trace => "trace.share",
            Layer::Record => "sim.record.share",
            Layer::Decode => "sim.tape.decode.share",
            Layer::ReplayBatch => "sim.replay_batch.share",
            Layer::ReplaySingle => "sim.replay_single.share",
            Layer::PersistKey => "sim.persist.key.share",
            Layer::PersistEncode => "sim.persist.encode.share",
            Layer::PersistDecode => "sim.persist.decode.share",
            Layer::StoreGet => "store.get.share",
            Layer::StorePut => "store.put.share",
            Layer::Render => "serve.json.render.share",
        }
    }
}

/// Host time per layer plus the work counts behind it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Seconds per layer, indexed like [`Layer::ALL`].
    pub secs: [f64; 11],
    /// Trace events generated (trace-cache misses only).
    pub trace_events: u64,
    /// Functional passes (`System::record` calls).
    pub tapes: u64,
    /// Tape events times the engines that replayed them.
    pub engine_events: u64,
    /// Rows evaluated.
    pub rows: u64,
}

impl Layers {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.secs[layer as usize] += start.elapsed().as_secs_f64();
        out
    }

    /// Seconds charged to `layer`.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.secs[layer as usize]
    }

    /// Seconds charged to every layer together.
    pub fn total_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// `key=value` pairs for a child's result line.
    pub fn to_kv(&self) -> String {
        let mut out: Vec<String> = Layer::ALL
            .iter()
            .map(|&l| format!("{}={:?}", l.metric(), self.secs(l)))
            .collect();
        out.push(format!("trace_events={}", self.trace_events));
        out.push(format!("tapes={}", self.tapes));
        out.push(format!("engine_events={}", self.engine_events));
        out.push(format!("rows={}", self.rows));
        out.join(" ")
    }

    /// Reads back what [`Layers::to_kv`] wrote.
    pub fn from_kv(kv: &BTreeMap<String, String>) -> Layers {
        let num = |key: &str| -> f64 {
            kv.get(key)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("child result lacks {key}"))
        };
        let mut layers = Layers::default();
        for l in Layer::ALL {
            layers.secs[l as usize] = num(l.metric());
        }
        layers.trace_events = num("trace_events") as u64;
        layers.tapes = num("tapes") as u64;
        layers.engine_events = num("engine_events") as u64;
        layers.rows = num("rows") as u64;
        layers
    }
}

/// The registry gauge a traced run reads: its last value, not a delta.
const RESIDENT: &str = "nvmllc_tape_cache_resident_bytes";

/// The registry families a traced run reads.
const FAMILIES: [&str; 10] = [
    "nvmllc_trace_cache_hits_total",
    "nvmllc_trace_cache_misses_total",
    "nvmllc_tape_cache_hits_total",
    "nvmllc_tape_cache_misses_total",
    RESIDENT,
    "nvmllc_store_hits_total",
    "nvmllc_store_misses_total",
    "nvmllc_store_bytes_written_total",
    "nvmllc_serve_coalesce_waiters_total",
    "nvmllc_serve_evaluations_total",
];

/// Registry counters over a stretch of a run, by family: the difference
/// between a Prometheus scrape at its start and one at its end (the
/// daemon's `/metricsz`, or a matrix child's own registry). The
/// tape-cache residency is the gauge's value at the end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// The counters between two Prometheus text scrapes.
    pub fn delta(before: &str, after: &str) -> Counters {
        let (a, b) = (
            nvm_llc::obs::federate::parse(before),
            nvm_llc::obs::federate::parse(after),
        );
        Counters(
            FAMILIES
                .iter()
                .map(|&name| {
                    let end = b.scalar_total(name);
                    let v = if name == RESIDENT {
                        end
                    } else {
                        end - a.scalar_total(name)
                    };
                    (name.to_owned(), v)
                })
                .collect(),
        )
    }

    /// Accumulates another stretch (another daemon's lifetime); the
    /// residency keeps the larger end value.
    pub fn add(&mut self, other: &Counters) {
        for (name, &v) in &other.0 {
            let total = self.0.entry(name.clone()).or_default();
            *total = if name == RESIDENT {
                total.max(v)
            } else {
                *total + v
            };
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `key=value` pairs for a child's result line.
    pub fn to_kv(&self) -> String {
        let pairs: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        pairs.join(" ")
    }

    /// Reads back what [`Counters::to_kv`] wrote (other keys ignored).
    pub fn from_kv(kv: &BTreeMap<String, String>) -> Counters {
        Counters(
            FAMILIES
                .iter()
                .filter_map(|&name| Some((name.to_owned(), kv.get(name)?.parse().ok()?)))
                .collect(),
        )
    }
}

/// The per-layer metrics ([`crate::report::PER_LAYER`], in its order)
/// of one traced measurement: `op_ms` end to end per operation, the
/// replica's `layers` over `ops` operations, `transport_ms` of HTTP per
/// operation, and the registry `counters` over `row_requests` requests.
pub fn attribute(
    op_ms: f64,
    layers: &Layers,
    ops: f64,
    transport_ms: f64,
    counters: &Counters,
    row_requests: f64,
) -> Vec<(&'static str, f64)> {
    const MB: f64 = (1u64 << 20) as f64;
    let per_op_ms = |secs: f64| secs * 1e3 / ops;
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let hit_ratio = |cache: &str| {
        let hits = counters.get(&format!("nvmllc_{cache}_hits_total"));
        ratio(
            hits,
            hits + counters.get(&format!("nvmllc_{cache}_misses_total")),
        )
    };
    let attributed_ms = per_op_ms(layers.total_secs()) + transport_ms;
    let mut out = vec![
        ("op_ms", op_ms),
        ("unattributed_ms", op_ms - attributed_ms),
        ("unattributed.share", 1.0 - attributed_ms / op_ms),
    ];
    out.extend(
        Layer::ALL
            .iter()
            .map(|&l| (l.metric(), per_op_ms(layers.secs(l)) / op_ms)),
    );
    out.extend([
        ("serve.http.share", transport_ms / op_ms),
        ("trace.events_per_op", layers.trace_events as f64 / ops),
        ("sim.tapes_per_op", layers.tapes as f64 / ops),
        (
            "sim.engine_events_per_op",
            layers.engine_events as f64 / ops,
        ),
        ("sim.tape.resident_mb", counters.get(RESIDENT) / MB),
        ("trace_cache.hit_ratio", hit_ratio("trace_cache")),
        ("tape_cache.hit_ratio", hit_ratio("tape_cache")),
        ("store.hit_ratio", hit_ratio("store")),
        (
            "store.written_mb",
            counters.get("nvmllc_store_bytes_written_total") / MB,
        ),
        (
            "serve.coalesce_ratio",
            ratio(
                counters.get("nvmllc_serve_coalesce_waiters_total"),
                row_requests,
            ),
        ),
        (
            "serve.evaluations_per_row",
            ratio(counters.get("nvmllc_serve_evaluations_total"), row_requests),
        ),
    ]);
    out
}

/// What an evaluation runs: the knobs the CLI and the daemon set on
/// their `Evaluator`.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The SRAM baseline.
    pub baseline: LlcModel,
    /// Every NVM, in model-set order.
    pub nvms: Vec<LlcModel>,
    /// Base per-thread accesses.
    pub base_accesses: usize,
    /// Trace seed.
    pub seed: u64,
    /// LLC replacement policy.
    pub policy: PolicyKind,
}

impl Setup {
    /// A configuration's model set (SRAM baseline, ten NVMs).
    pub fn new(
        config: Configuration,
        base_accesses: usize,
        seed: u64,
        policy: PolicyKind,
    ) -> Setup {
        let models = config.models();
        let baseline = reference::by_name(&models, "SRAM").expect("every model set has SRAM");
        let nvms = models.into_iter().filter(|m| m.name != "SRAM").collect();
        Setup {
            baseline,
            nvms,
            base_accesses,
            seed,
            policy,
        }
    }

    /// What the daemon evaluates for `/row?accesses=A&policy=P`: the
    /// fixed-capacity set at the default seed.
    pub fn row(accesses: usize, policy: PolicyKind) -> Setup {
        Setup::new(Configuration::FixedCapacity, accesses, DEFAULT_SEED, policy)
    }

    /// The evaluator these knobs describe, on `threads` workers.
    pub fn evaluator(&self, threads: usize) -> Evaluator {
        Evaluator::new(self.baseline.clone(), self.nvms.clone())
            .base_accesses(self.base_accesses)
            .seed(self.seed)
            .policy(self.policy)
            .threads(threads)
    }
}

/// The replica: an optional store, the tapes it has fetched, and the
/// time it charged to each layer.
pub struct Replica {
    store: Option<Arc<Store>>,
    /// Tapes kept across rows, as the program's tape cache keeps them.
    /// Keeping them matters even when no row reuses one: a cold matrix
    /// pays for fresh memory for every tape it keeps, which a replica
    /// that freed and reused the memory would not.
    tapes: HashMap<TapeKey, Arc<OutcomeTape>>,
    /// Time and work so far.
    pub layers: Layers,
}

fn trace_misses() -> u64 {
    nvm_llc::trace::cache::metrics::misses().get()
}

impl Replica {
    /// A replica reading through `store`, if any.
    pub fn new(store: Option<Arc<Store>>) -> Replica {
        Replica {
            store,
            tapes: HashMap::new(),
            layers: Layers::default(),
        }
    }

    /// One matrix row through the runner's public calls.
    pub fn row(&mut self, setup: &Setup, workload: &WorkloadProfile) -> MatrixRow {
        self.layers.rows += 1;
        let misses = trace_misses();
        let trace = self.layers.time(Layer::Trace, || {
            workload.generate_shared(setup.seed, workload.scaled_accesses(setup.base_accesses))
        });
        if trace_misses() > misses {
            self.layers.trace_events += trace.len() as u64;
        }
        let systems: Vec<System> = std::iter::once(&setup.baseline)
            .chain(&setup.nvms)
            .map(|llc| {
                System::new(ArchConfig::gainestown(llc.clone()))
                    .with_warmup(DEFAULT_WARMUP)
                    .with_replacement(setup.policy)
            })
            .collect();

        // Result tier: finished cells come straight from the store.
        let mut results: Vec<Option<SimResult>> = vec![None; systems.len()];
        if let Some(store) = self.store.clone() {
            for (slot, system) in results.iter_mut().zip(&systems) {
                let key = self.layers.time(Layer::PersistKey, || {
                    persist::result_store_key(system, &trace)
                });
                if let Some(payload) = self.layers.time(Layer::StoreGet, || store.get_mapped(&key))
                {
                    *slot = self
                        .layers
                        .time(Layer::PersistDecode, || persist::decode_result(&payload));
                }
            }
        }

        // The pending columns, grouped by tape key in column order.
        let mut groups: Vec<(TapeKey, Vec<usize>)> = Vec::new();
        for (mi, system) in systems.iter().enumerate() {
            if results[mi].is_some() {
                continue;
            }
            let key = system.tape_key(&trace);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, cols)) => cols.push(mi),
                None => groups.push((key, vec![mi])),
            }
        }
        for (key, cols) in groups {
            let tape = self.tape(&systems[cols[0]], &trace, key);
            self.layers.engine_events += (tape.len() * cols.len()) as u64;
            let fresh = if let [mi] = cols[..] {
                vec![self
                    .layers
                    .time(Layer::ReplaySingle, || systems[mi].replay(&tape))]
            } else {
                self.layers.time(Layer::Decode, || {
                    tape.decoded();
                });
                let group: Vec<&System> = cols.iter().map(|&mi| &systems[mi]).collect();
                self.layers
                    .time(Layer::ReplayBatch, || System::replay_batch(&group, &tape))
            };
            for (&mi, result) in cols.iter().zip(fresh) {
                if let Some(store) = self.store.clone() {
                    let key = self.layers.time(Layer::PersistKey, || {
                        persist::result_store_key(&systems[mi], &trace)
                    });
                    let bytes = self
                        .layers
                        .time(Layer::PersistEncode, || persist::encode_result(&result));
                    // Best-effort, as in the runner: a full disk never
                    // fails a row.
                    let _ = self
                        .layers
                        .time(Layer::StorePut, || store.put(&key, &bytes));
                }
                results[mi] = Some(result);
            }
        }

        let mut results = results.into_iter().map(|r| r.expect("every cell computed"));
        let baseline = results.next().expect("baseline cell");
        let entries = results
            .map(|result| MatrixEntry {
                llc: result.llc_name.clone(),
                speedup: result.speedup_vs(&baseline),
                energy: result.energy_vs(&baseline),
                ed2p: result.ed2p_vs(&baseline),
                result,
            })
            .collect();
        MatrixRow {
            workload: workload.name().to_owned(),
            baseline,
            entries,
        }
    }

    /// One row rendered as the daemon's `/row` body.
    pub fn row_body(&mut self, setup: &Setup, workload: &WorkloadProfile) -> String {
        let row = self.row(setup, workload);
        self.layers.time(Layer::Render, || json::render_row(&row))
    }

    /// The tape for `system` over `trace`: kept, read from the store,
    /// or recorded (and written back), as `tape::cache::fetch_with_store`
    /// does it.
    fn tape(&mut self, system: &System, trace: &Trace, key: TapeKey) -> Arc<OutcomeTape> {
        if let Some(tape) = self.tapes.get(&key) {
            return Arc::clone(tape);
        }
        let store = self.store.clone();
        let store_key = store.as_ref().map(|_| {
            self.layers
                .time(Layer::PersistKey, || persist::tape_store_key(&key))
        });
        let mut stored = None;
        if let (Some(store), Some(store_key)) = (&store, &store_key) {
            if let Some(payload) = self
                .layers
                .time(Layer::StoreGet, || store.get_mapped(store_key))
            {
                stored = self
                    .layers
                    .time(Layer::PersistDecode, || persist::decode_tape(&payload));
            }
        }
        let tape = match stored {
            Some(tape) => Arc::new(tape),
            None => {
                self.layers.tapes += 1;
                let tape = Arc::new(self.layers.time(Layer::Record, || system.record(trace)));
                if let (Some(store), Some(store_key)) = (&store, &store_key) {
                    let bytes = self
                        .layers
                        .time(Layer::PersistEncode, || persist::encode_tape(&tape));
                    let _ = self
                        .layers
                        .time(Layer::StorePut, || store.put(store_key, &bytes));
                }
                tape
            }
        };
        self.tapes.insert(key, Arc::clone(&tape));
        tape
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_reports_every_per_layer_metric_in_order() {
        let names: Vec<&str> =
            attribute(1.0, &Layers::default(), 1.0, 0.0, &Counters::default(), 0.0)
                .into_iter()
                .map(|(name, _)| name)
                .collect();
        let declared: Vec<&str> = crate::report::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
    }

    #[test]
    fn counters_round_trip_and_sum_deltas() {
        let scrape = |hits: u64, resident: u64| {
            format!(
                "# TYPE nvmllc_store_hits_total counter\nnvmllc_store_hits_total {hits}\n\
                 # TYPE nvmllc_tape_cache_resident_bytes gauge\n\
                 nvmllc_tape_cache_resident_bytes {resident}\n"
            )
        };
        let mut total = Counters::delta(&scrape(2, 100), &scrape(5, 300));
        total.add(&Counters::delta(&scrape(0, 0), &scrape(4, 200)));
        assert_eq!(total.get("nvmllc_store_hits_total"), 7.0);
        assert_eq!(total.get(RESIDENT), 300.0);
        assert_eq!(
            Counters::from_kv(&crate::proc::parse_kv(&total.to_kv())),
            total
        );
    }
}
