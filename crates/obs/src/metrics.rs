//! Process-wide metrics registry: counters, gauges, and log-linear
//! histograms, rendered as Prometheus text exposition or JSON.
//!
//! The registry is canonical by `(name, labels)`: the first registration
//! creates the metric (leaked, so handles are `&'static`); later
//! registrations of the same identity return the same instance. A
//! lookup locks the registry, so no hot path makes one per event:
//! process-wide metrics cache their handle in a static
//! ([`crate::counter!`], [`crate::gauge!`], [`crate::histogram!`],
//! [`crate::span!`]), and a subsystem that can exist several times in
//! one process (a store, a server) resolves its handles once per
//! instance, labelled `instance="<n>"` from [`next_instance`], and holds
//! them. The steady-state cost of an event is one relaxed atomic op, and
//! a handle is the only copy of its fact.
//!
//! Naming convention (enforced by debug assertion): Prometheus-legal
//! `[a-zA-Z_][a-zA-Z0-9_]*`, and by project style
//! `nvmllc_<subsystem>_<name>_<unit>` with counters suffixed `_total`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Stripes per counter: enough that a handful of worker threads rarely
/// share one, small enough that a counter stays cheap to sum.
const STRIPES: usize = 8;

/// One cache-line-padded atomic cell, so neighboring stripes never share
/// a line and contended threads do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

/// The calling thread's stripe index, assigned round-robin on first use.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    INDEX.with(|i| *i)
}

/// A monotone counter, sharded across padded stripes by thread.
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Default for Counter {
    fn default() -> Counter {
        Counter {
            stripes: std::array::from_fn(|_| Stripe::default()),
        }
    }
}

impl Counter {
    /// Adds `n` — one relaxed atomic op on the calling thread's stripe.
    pub fn add(&self, n: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across every stripe.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-write-wins gauge (resident bytes, queue depth, …).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default histogram buckets: log-linear from 1 µs to 50 s — every
/// power of ten subdivided 1/2/5, which keeps relative error under
/// 2.5× per bucket across eight decades for the cost of 24 buckets.
pub fn default_seconds_bounds() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(24);
    for exp in -6..=1 {
        for mul in [1.0, 2.0, 5.0] {
            bounds.push(mul * 10f64.powi(exp));
        }
    }
    bounds
}

/// A fixed-bucket histogram: one atomic bucket increment plus one CAS
/// accumulation of the sum per recorded value, and a CAS on the observed
/// minimum or maximum only when the value is a new extreme.
pub struct Histogram {
    /// Upper bounds (`le`), ascending; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One count per bound, plus the `+Inf` bucket at the end.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values, stored as `f64` bits.
    sum_bits: AtomicU64,
    /// Smallest and largest recorded values, as `f64` bits (`+inf` and
    /// `-inf` while empty).
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Moves the `f64` stored in `cell` to `value` if `better(value, current)`.
/// The relaxed load answers the common case, an unchanged extreme,
/// without a read-modify-write.
fn update_extreme(cell: &AtomicU64, value: f64, better: impl Fn(f64, f64) -> bool) {
    let mut current = cell.load(Ordering::Relaxed);
    while better(value, f64::from_bits(current)) {
        match cell.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one value.
    pub fn record(&self, value: f64) {
        let idx = self.bounds.partition_point(|&b| value > b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
        update_extreme(&self.min_bits, value, |v, min| v < min);
        update_extreme(&self.max_bits, value, |v, max| v > max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (non-cumulative), `+Inf` last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Smallest recorded value (`+inf` when empty).
    fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Largest recorded value (`-inf` when empty).
    fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Estimates quantile `q` (0..=1) by linear interpolation inside the
    /// bucket holding the target rank, clamped into the observed
    /// `[min, max]` so an estimate never leaves the range of what was
    /// recorded. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let estimate = quantile_from_counts(&self.bounds, &self.bucket_counts(), q);
        let (min, max) = (self.min(), self.max());
        if min <= max {
            estimate.clamp(min, max)
        } else {
            estimate
        }
    }
}

/// The quantile estimator shared by live [`Histogram`]s and federated
/// [`crate::federate::ParsedHistogram`]s: find the bucket holding the
/// target rank, linearly interpolate inside it. (Only live histograms
/// know their extremes to clamp by; the exposition format carries none.) `counts` is
/// non-cumulative with the `+Inf` bucket last. Returns 0 when empty.
pub(crate) fn quantile_from_counts(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if seen + c >= target {
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            let upper = bounds.get(i).copied().unwrap_or(lower);
            if c == 0 || upper <= lower {
                return upper.max(lower);
            }
            let into = (target - seen) as f64 / c as f64;
            return lower + (upper - lower) * into;
        }
        seen += c;
    }
    *bounds.last().unwrap_or(&0.0)
}

/// One registered metric instance.
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// One metric family: shared help/type, one instance per label set
/// (none yet, for a declared family).
struct Family {
    help: String,
    /// `counter`, `gauge` or `histogram`.
    kind: &'static str,
    /// `(rendered label pairs, metric)`, insertion-ordered.
    instances: Vec<(Vec<(String, String)>, Metric)>,
}

fn registry() -> &'static Mutex<BTreeMap<String, Family>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Family>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Finds or creates family `name` of type `kind` in the locked map.
fn family<'a>(
    map: &'a mut BTreeMap<String, Family>,
    name: &str,
    help: &str,
    kind: &'static str,
) -> &'a mut Family {
    debug_assert!(valid_name(name), "invalid metric name {name:?}");
    let family = map.entry(name.to_owned()).or_insert_with(|| Family {
        help: help.to_owned(),
        kind,
        instances: Vec::new(),
    });
    assert_eq!(
        family.kind, kind,
        "metric {name} re-registered with a different type"
    );
    family
}

/// Finds or creates a metric in the registry. `make` runs only for the
/// first registration of `(name, labels)`; its result is leaked so the
/// handle is `'static`.
fn register<T>(
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    kind: &'static str,
    make: impl FnOnce() -> T,
    wrap: impl Fn(&'static T) -> Metric,
    unwrap: impl Fn(&Metric) -> Option<&'static T>,
) -> &'static T {
    let labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut map = registry().lock().expect("metrics registry lock");
    let family = family(&mut map, name, help, kind);
    if let Some((_, metric)) = family.instances.iter().find(|(l, _)| *l == labels) {
        return unwrap(metric).expect("family kind checked");
    }
    let leaked: &'static T = Box::leak(Box::new(make()));
    family.instances.push((labels, wrap(leaked)));
    leaked
}

/// A fresh process-wide instance number, for the `instance` label of a
/// subsystem that may exist several times in one process.
pub fn next_instance() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Declares counter family `name` without creating an instance, so a
/// scrape lists it before any instance exists.
pub fn declare_counter(name: &str, help: &str) {
    let mut map = registry().lock().expect("metrics registry lock");
    family(&mut map, name, help, "counter");
}

/// Finds or creates the unlabeled counter `name`.
pub fn counter(name: &str, help: &str) -> &'static Counter {
    counter_with(name, help, &[])
}

/// Finds or creates a counter carrying a fixed label set (e.g.
/// `nvmllc_serve_requests_total{instance="1",class="2xx"}`).
pub fn counter_with(name: &str, help: &str, labels: &[(&str, &str)]) -> &'static Counter {
    register(
        name,
        help,
        labels,
        "counter",
        Counter::default,
        Metric::Counter,
        |m| match m {
            Metric::Counter(c) => Some(*c),
            _ => None,
        },
    )
}

/// Finds or creates the unlabeled gauge `name`.
pub fn gauge(name: &str, help: &str) -> &'static Gauge {
    gauge_with(name, help, &[])
}

/// Finds or creates a gauge carrying a fixed label set.
pub fn gauge_with(name: &str, help: &str, labels: &[(&str, &str)]) -> &'static Gauge {
    register(
        name,
        help,
        labels,
        "gauge",
        Gauge::default,
        Metric::Gauge,
        |m| match m {
            Metric::Gauge(g) => Some(*g),
            _ => None,
        },
    )
}

/// Finds or creates the histogram `name` with the default log-linear
/// seconds buckets ([`default_seconds_bounds`]).
pub fn histogram(name: &str, help: &str) -> &'static Histogram {
    histogram_with_bounds(name, help, &default_seconds_bounds())
}

/// Finds or creates the histogram `name` with explicit bucket bounds.
pub fn histogram_with_bounds(name: &str, help: &str, bounds: &[f64]) -> &'static Histogram {
    register(
        name,
        help,
        &[],
        "histogram",
        || Histogram::new(bounds.to_vec()),
        Metric::Histogram,
        |m| match m {
            Metric::Histogram(h) => Some(*h),
            _ => None,
        },
    )
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Like [`render_labels`] but with one extra pair appended (histogram
/// `le`).
fn render_labels_plus(labels: &[(String, String)], extra_key: &str, extra_val: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push((extra_key.to_owned(), extra_val.to_owned()));
    render_labels(&all)
}

/// Renders the whole registry in Prometheus text exposition format 0.0.4:
/// `# HELP` and `# TYPE` per family (declared families without an
/// instance included), one sample line per instance (plus
/// `_bucket`/`_sum`/`_count` for histograms). Bucket bounds are printed
/// with Rust's shortest-round-trip float formatting, so parsing a bound
/// back yields the exact `f64` the histogram buckets by.
pub fn render_prometheus() -> String {
    let map = registry().lock().expect("metrics registry lock");
    let mut out = String::new();
    for (name, family) in map.iter() {
        let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
        let _ = writeln!(out, "# TYPE {name} {}", family.kind);
        for (labels, metric) in &family.instances {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name}{} {}", render_labels(labels), c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name}{} {}", render_labels(labels), g.get());
                }
                Metric::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, count) in counts.iter().enumerate() {
                        cumulative += count;
                        let le = match h.bounds().get(i) {
                            Some(b) => format!("{b}"),
                            None => "+Inf".to_owned(),
                        };
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            render_labels_plus(labels, "le", &le)
                        );
                    }
                    let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels), h.sum());
                    let _ = writeln!(out, "{name}_count{} {}", render_labels(labels), h.count());
                }
            }
        }
    }
    out
}

fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the registry as one flat JSON object: counters and gauges as
/// numbers, histograms as `{"count":…,"sum":…,"p50":…,"p99":…}` with
/// bucket-interpolated quantile estimates. Labeled instances key as
/// `name{k=v,…}`.
pub fn render_json() -> String {
    let map = registry().lock().expect("metrics registry lock");
    let mut parts: Vec<String> = Vec::new();
    for (name, family) in map.iter() {
        for (labels, metric) in &family.instances {
            let key = if labels.is_empty() {
                name.clone()
            } else {
                let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{name}{{{}}}", body.join(","))
            };
            let value = match metric {
                Metric::Counter(c) => format!("{}", c.get()),
                Metric::Gauge(g) => format!("{}", g.get()),
                Metric::Histogram(h) => format!(
                    "{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{}}}",
                    h.count(),
                    h.sum(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                ),
            };
            parts.push(format!("\"{}\":{value}", json_escape(&key)));
        }
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads_exactly() {
        let c = counter("nvmllc_test_threads_total", "test");
        let before = c.get();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get() - before, 80_000);
    }

    #[test]
    fn registry_is_canonical_by_name_and_labels() {
        let a = counter("nvmllc_test_canonical_total", "test");
        let b = counter("nvmllc_test_canonical_total", "different help ignored");
        assert!(std::ptr::eq(a, b));
        let la = counter_with("nvmllc_test_canonical_total", "test", &[("k", "v")]);
        assert!(!std::ptr::eq(a, la));
        let lb = counter_with("nvmllc_test_canonical_total", "test", &[("k", "v")]);
        assert!(std::ptr::eq(la, lb));
    }

    #[test]
    fn histogram_counts_land_in_the_right_buckets() {
        let h = Histogram::new(vec![1.0, 2.0, 5.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 100.0] {
            h.record(v);
        }
        // le=1: {0.5, 1.0}; le=2: {1.5, 2.0}; le=5: {4.9, 5.0}; +Inf: {100}.
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - 114.9).abs() < 1e-9);
    }

    #[test]
    fn histogram_concurrent_records_sum_exactly() {
        let h = histogram_with_bounds(
            "nvmllc_test_hist_seconds",
            "test",
            &default_seconds_bounds(),
        );
        let before = h.count();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..5_000 {
                        h.record((t * 5_000 + i) as f64 * 1e-6);
                    }
                });
            }
        });
        assert_eq!(h.count() - before, 20_000);
    }

    #[test]
    fn default_bounds_ascend_and_round_trip_display() {
        let bounds = default_seconds_bounds();
        assert_eq!(bounds.len(), 24);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        for b in bounds {
            let text = format!("{b}");
            assert_eq!(text.parse::<f64>().unwrap(), b, "bound {text} round-trips");
        }
    }

    #[test]
    fn quantiles_interpolate_between_bounds() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for _ in 0..100 {
            h.record(1.5);
        }
        let p50 = h.quantile(0.5);
        assert!((1.0..=2.0).contains(&p50), "p50 {p50}");
        assert_eq!(Histogram::new(vec![1.0]).quantile(0.99), 0.0, "empty");
    }

    #[test]
    fn quantiles_stay_inside_the_observed_range() {
        // Every value sits on a bucket bound: plain interpolation inside
        // (0, 1] would report 0.5 for a histogram of ones.
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for _ in 0..10 {
            h.record(1.0);
        }
        assert_eq!((h.min(), h.max()), (1.0, 1.0));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1.0, "q {q}");
        }
        // A spread of values: estimates stay within [min, max].
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for v in [1.2, 1.4, 3.0, 3.5] {
            h.record(v);
        }
        assert_eq!((h.min(), h.max()), (1.2, 3.5));
        for q in [0.01, 0.5, 0.99] {
            assert!((1.2..=3.5).contains(&h.quantile(q)), "q {q}");
        }
    }

    #[test]
    fn extremes_track_concurrent_records() {
        let h = Histogram::new(default_seconds_bounds());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1_000u32 {
                        h.record(f64::from(t * 1_000 + i + 1));
                    }
                });
            }
        });
        assert_eq!((h.min(), h.max()), (1.0, 4_000.0));
    }

    #[test]
    fn prometheus_rendering_is_line_parseable() {
        counter("nvmllc_test_render_total", "a counter").add(3);
        gauge("nvmllc_test_render_bytes", "a gauge").set(42);
        histogram("nvmllc_test_render_seconds", "a histogram").record(0.003);
        counter_with(
            "nvmllc_test_render_labeled_total",
            "labeled",
            &[("class", "2xx")],
        )
        .inc();
        let text = render_prometheus();
        for line in text.lines() {
            let ok = line.starts_with("# HELP ") || line.starts_with("# TYPE ") || {
                let (series, value) = line.rsplit_once(' ').expect("sample has a value");
                let name_ok = {
                    let name = series.split('{').next().unwrap();
                    super::valid_name(name)
                };
                name_ok && (value == "+Inf" || value.parse::<f64>().is_ok())
            };
            assert!(ok, "unparseable line: {line:?}");
        }
        assert!(text.contains("# TYPE nvmllc_test_render_total counter"));
        assert!(text.contains("nvmllc_test_render_labeled_total{class=\"2xx\"} 1"));
        assert!(text.contains("nvmllc_test_render_seconds_bucket{le=\"+Inf\"}"));
    }

    #[test]
    fn prometheus_histogram_bounds_round_trip_through_text() {
        let h = histogram("nvmllc_test_roundtrip_seconds", "round trip");
        h.record(0.0);
        let text = render_prometheus();
        let mut parsed: Vec<f64> = text
            .lines()
            .filter(|l| l.starts_with("nvmllc_test_roundtrip_seconds_bucket{le=\""))
            .filter_map(|l| {
                let le = l.split("le=\"").nth(1)?.split('"').next()?;
                le.parse::<f64>().ok()
            })
            .filter(|b| b.is_finite()) // the +Inf bucket is implicit, not a bound
            .collect();
        parsed.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(parsed, h.bounds(), "every bound survives the text format");
    }

    #[test]
    fn json_rendering_flattens_and_summarizes() {
        counter("nvmllc_test_json_total", "c").add(7);
        histogram("nvmllc_test_json_seconds", "h").record(0.5);
        let json = render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"nvmllc_test_json_total\":"));
        assert!(json.contains("\"count\":"));
        assert!(json.contains("\"p99\":"));
    }
}
