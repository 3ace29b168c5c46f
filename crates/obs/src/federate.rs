//! Metrics federation: parse Prometheus text exposition scrapes, merge
//! same-bounds histograms and sum counters across shards, and re-render
//! one cluster-level view.
//!
//! The parser understands exactly the dialect [`crate::metrics::render_prometheus`]
//! emits — `# HELP`/`# TYPE` per family, one sample per line, histogram
//! families expanded into `_bucket{le=…}` (cumulative) / `_sum` /
//! `_count` series. Because bucket bounds are printed with shortest-
//! round-trip float formatting, a parsed bound is the exact `f64` the
//! source histogram buckets by, which is what makes the "identical
//! bounds" merge precondition meaningful rather than fuzzy.
//!
//! Merging is per family: counters and gauges sum per label set;
//! histograms with identical bounds add bucket-wise (count and sum
//! too). A histogram family whose bounds disagree across scrapes is
//! rejected — [`merge`] drops the family from the merged view and lists
//! it in [`Merged::skipped`] rather than fabricating buckets.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::quantile_from_counts;

/// What a `# TYPE` line declared for a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// A monotone counter.
    Counter,
    /// A last-write-wins gauge.
    Gauge,
    /// A fixed-bucket histogram.
    Histogram,
    /// No (or unrecognized) `# TYPE` line.
    Untyped,
}

impl FamilyKind {
    fn as_str(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
            FamilyKind::Untyped => "untyped",
        }
    }
}

/// A histogram reconstructed from `_bucket`/`_sum`/`_count` series.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedHistogram {
    /// Finite bucket upper bounds, ascending (no `+Inf`).
    pub bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts; the `+Inf` bucket is last, so
    /// `buckets.len() == bounds.len() + 1`.
    pub buckets: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
    /// Count of observed values.
    pub count: u64,
}

impl ParsedHistogram {
    /// Estimates quantile `q` with the same bucket-interpolation rule
    /// as [`crate::metrics::Histogram::quantile`], so a federated p99
    /// means the same thing as a local one.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_counts(&self.bounds, &self.buckets, q)
    }

    /// Adds `other` into `self` bucket-wise. Errs (leaving `self`
    /// untouched) unless the bounds are bit-identical.
    pub fn merge(&mut self, other: &ParsedHistogram) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "mismatched bounds: {} vs {} buckets",
                self.bounds.len(),
                other.bounds.len()
            ));
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
        Ok(())
    }
}

/// One parsed metric family.
#[derive(Debug, Clone)]
pub struct Family {
    /// The `# HELP` text (empty if absent).
    pub help: String,
    /// The declared type.
    pub kind: FamilyKind,
    /// Counter/gauge samples: rendered label block (`""` or
    /// `{k="v",…}`) → value, insertion-ordered by first appearance.
    pub scalars: Vec<(String, f64)>,
    /// Histogram instances: label block (without `le`) → histogram.
    pub histograms: Vec<(String, ParsedHistogram)>,
}

/// One parsed `/metricsz` body.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Families by name, sorted (BTreeMap) for deterministic renders.
    pub families: BTreeMap<String, Family>,
}

impl Scrape {
    /// The summed value of every label set of scalar family `name`
    /// (`0.0` if absent) — e.g. total requests across classes.
    pub fn scalar_total(&self, name: &str) -> f64 {
        self.families
            .get(name)
            .map(|f| f.scalars.iter().map(|(_, v)| v).sum())
            .unwrap_or(0.0)
    }

    /// The scalar samples `(label block, value)` of family `name`.
    pub fn scalar_samples(&self, name: &str) -> &[(String, f64)] {
        self.families
            .get(name)
            .map(|f| f.scalars.as_slice())
            .unwrap_or(&[])
    }

    /// The unlabeled histogram of family `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&ParsedHistogram> {
        self.families
            .get(name)?
            .histograms
            .iter()
            .find(|(labels, _)| labels.is_empty())
            .map(|(_, h)| h)
    }
}

/// Splits one sample series into `(name, label block)`:
/// `foo{a="b"}` → `("foo", "{a=\"b\"}")`, `foo` → `("foo", "")`.
fn split_series(series: &str) -> (&str, &str) {
    match series.find('{') {
        Some(at) => (&series[..at], &series[at..]),
        None => (series, ""),
    }
}

/// Pulls the `le` value out of a label block and returns the block
/// with the `le` pair removed (label order is preserved otherwise).
fn take_le(labels: &str) -> Option<(String, String)> {
    let inner = labels.strip_prefix('{')?.strip_suffix('}')?;
    let mut le = None;
    let mut rest: Vec<&str> = Vec::new();
    // Our renderer never emits commas or quotes inside label values
    // except escaped quotes, which no metric name/label here uses, so a
    // top-level comma split is exact for this dialect.
    for pair in inner.split(',') {
        match pair.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
            Some(v) => le = Some(v.to_owned()),
            None => rest.push(pair),
        }
    }
    let block = if rest.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", rest.join(","))
    };
    Some((le?, block))
}

/// Intermediate per-instance histogram accumulator.
#[derive(Default)]
struct HistAccum {
    /// `(le bound, cumulative count)` in appearance order; `None` bound
    /// is `+Inf`.
    cumulative: Vec<(Option<f64>, u64)>,
    sum: f64,
    count: u64,
}

impl HistAccum {
    fn finish(self) -> Option<ParsedHistogram> {
        let mut bounds = Vec::new();
        let mut cum = Vec::new();
        let mut inf = None;
        for (bound, c) in self.cumulative {
            match bound {
                Some(b) => {
                    bounds.push(b);
                    cum.push(c);
                }
                None => inf = Some(c),
            }
        }
        if !bounds.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        cum.push(inf?);
        let mut buckets = Vec::with_capacity(cum.len());
        let mut prev = 0u64;
        for c in cum {
            buckets.push(c.checked_sub(prev)?);
            prev = c;
        }
        Some(ParsedHistogram {
            bounds,
            buckets,
            sum: self.sum,
            count: self.count,
        })
    }
}

/// Parses one Prometheus text body. Unparseable lines are skipped —
/// a scrape is best-effort telemetry, not a strict document.
pub fn parse(text: &str) -> Scrape {
    let mut meta: BTreeMap<String, (String, FamilyKind)> = BTreeMap::new();
    let mut scalars: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    let mut hists: BTreeMap<String, Vec<(String, HistAccum)>> = BTreeMap::new();
    let hist_base = |name: &str, meta: &BTreeMap<String, (String, FamilyKind)>| -> Option<String> {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if meta
                    .get(base)
                    .is_some_and(|(_, k)| *k == FamilyKind::Histogram)
                {
                    return Some(base.to_owned());
                }
            }
        }
        None
    };

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if let Some((name, help)) = rest.split_once(' ') {
                meta.entry(name.to_owned())
                    .or_insert_with(|| (String::new(), FamilyKind::Untyped))
                    .0 = help.to_owned();
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                let kind = match kind.trim() {
                    "counter" => FamilyKind::Counter,
                    "gauge" => FamilyKind::Gauge,
                    "histogram" => FamilyKind::Histogram,
                    _ => FamilyKind::Untyped,
                };
                meta.entry(name.to_owned())
                    .or_insert_with(|| (String::new(), FamilyKind::Untyped))
                    .1 = kind;
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = split_series(series);
        if let Some(base) = hist_base(name, &meta) {
            let instances = hists.entry(base).or_default();
            if name.ends_with("_bucket") {
                let Some((le, block)) = take_le(labels) else {
                    continue;
                };
                let bound = if le == "+Inf" {
                    None
                } else {
                    match le.parse::<f64>() {
                        Ok(b) => Some(b),
                        Err(_) => continue,
                    }
                };
                accum(instances, &block)
                    .cumulative
                    .push((bound, value as u64));
            } else if name.ends_with("_sum") {
                accum(instances, labels).sum = value;
            } else {
                accum(instances, labels).count = value as u64;
            }
            continue;
        }
        scalars
            .entry(name.to_owned())
            .or_default()
            .push((labels.to_owned(), value));
    }

    let mut families = BTreeMap::new();
    for (name, (help, kind)) in meta {
        let histograms: Vec<(String, ParsedHistogram)> = hists
            .remove(&name)
            .unwrap_or_default()
            .into_iter()
            .filter_map(|(labels, h)| Some((labels, h.finish()?)))
            .collect();
        let scalars = scalars.remove(&name).unwrap_or_default();
        if scalars.is_empty() && histograms.is_empty() {
            continue;
        }
        families.insert(
            name,
            Family {
                help,
                kind,
                scalars,
                histograms,
            },
        );
    }
    // Samples with no metadata at all still federate, untyped.
    for (name, samples) in scalars {
        families.entry(name).or_insert_with(|| Family {
            help: String::new(),
            kind: FamilyKind::Untyped,
            scalars: samples,
            histograms: Vec::new(),
        });
    }
    Scrape { families }
}

fn accum<'a>(instances: &'a mut Vec<(String, HistAccum)>, labels: &str) -> &'a mut HistAccum {
    if let Some(at) = instances.iter().position(|(l, _)| l == labels) {
        return &mut instances[at].1;
    }
    instances.push((labels.to_owned(), HistAccum::default()));
    &mut instances.last_mut().expect("just pushed").1
}

/// The result of merging shard scrapes.
#[derive(Debug, Clone, Default)]
pub struct Merged {
    /// The merged view, same shape as one scrape.
    pub scrape: Scrape,
    /// Histogram families dropped because bounds disagreed:
    /// `(family name, reason)`.
    pub skipped: Vec<(String, String)>,
}

/// Merges scrapes: scalars sum per `(family, label set)`, histograms
/// add bucket-wise when bounds agree. A histogram family with
/// disagreeing bounds anywhere is dropped and reported in
/// [`Merged::skipped`].
pub fn merge(scrapes: &[Scrape]) -> Merged {
    let mut merged = Merged::default();
    for scrape in scrapes {
        for (name, family) in &scrape.families {
            if merged.skipped.iter().any(|(n, _)| n == name) {
                continue;
            }
            let target = merged
                .scrape
                .families
                .entry(name.clone())
                .or_insert_with(|| Family {
                    help: family.help.clone(),
                    kind: family.kind,
                    scalars: Vec::new(),
                    histograms: Vec::new(),
                });
            for (labels, value) in &family.scalars {
                match target.scalars.iter_mut().find(|(l, _)| l == labels) {
                    Some((_, total)) => *total += value,
                    None => target.scalars.push((labels.clone(), *value)),
                }
            }
            let mut conflict = None;
            for (labels, hist) in &family.histograms {
                match target.histograms.iter_mut().find(|(l, _)| l == labels) {
                    Some((_, total)) => {
                        if let Err(why) = total.merge(hist) {
                            conflict = Some(why);
                            break;
                        }
                    }
                    None => target.histograms.push((labels.clone(), hist.clone())),
                }
            }
            if let Some(why) = conflict {
                merged.scrape.families.remove(name);
                merged.skipped.push((name.clone(), why));
            }
        }
    }
    merged
}

/// Prints `value` the way the source renderer would: integers bare,
/// everything else shortest-round-trip.
fn render_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 9e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

impl Merged {
    /// Renders the merged view back to Prometheus text, plus one
    /// comment line per skipped family.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, reason) in &self.skipped {
            let _ = writeln!(out, "# SKIPPED {name} {reason}");
        }
        for (name, family) in &self.scrape.families {
            if !family.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", family.help);
            }
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, value) in &family.scalars {
                let _ = writeln!(out, "{name}{labels} {}", render_value(*value));
            }
            for (labels, hist) in &family.histograms {
                let mut cumulative = 0u64;
                for (i, count) in hist.buckets.iter().enumerate() {
                    cumulative += count;
                    let le = match hist.bounds.get(i) {
                        Some(b) => format!("{b}"),
                        None => "+Inf".to_owned(),
                    };
                    let le_block = splice_label(labels, "le", &le);
                    let _ = writeln!(out, "{name}_bucket{le_block} {cumulative}");
                }
                let _ = writeln!(out, "{name}_sum{labels} {}", hist.sum);
                let _ = writeln!(out, "{name}_count{labels} {}", hist.count);
            }
        }
        out
    }
}

/// Appends `key="value"` to a rendered label block (`""` or `{…}`).
pub fn splice_label(labels: &str, key: &str, value: &str) -> String {
    match labels.strip_prefix('{').and_then(|l| l.strip_suffix('}')) {
        Some(inner) if !inner.is_empty() => format!("{{{inner},{key}=\"{value}\"}}"),
        _ => format!("{{{key}=\"{value}\"}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_text(reqs: u64, hist_values: &[f64]) -> String {
        let mut text = String::from(
            "# HELP nvmllc_serve_requests_total requests\n\
             # TYPE nvmllc_serve_requests_total counter\n",
        );
        let _ = writeln!(text, "nvmllc_serve_requests_total{{class=\"2xx\"}} {reqs}");
        let _ = writeln!(text, "nvmllc_serve_requests_total{{class=\"5xx\"}} 1");
        text.push_str(
            "# HELP nvmllc_store_resident_bytes bytes\n\
             # TYPE nvmllc_store_resident_bytes gauge\n\
             nvmllc_store_resident_bytes 100\n\
             # HELP nvmllc_serve_request_seconds latency\n\
             # TYPE nvmllc_serve_request_seconds histogram\n",
        );
        for b in [0.001, 0.01, 0.1] {
            let cumulative: usize = hist_values.iter().filter(|&&v| v <= b).count();
            let _ = writeln!(
                text,
                "nvmllc_serve_request_seconds_bucket{{le=\"{b}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            text,
            "nvmllc_serve_request_seconds_bucket{{le=\"+Inf\"}} {}",
            hist_values.len()
        );
        let sum: f64 = hist_values.iter().sum();
        let _ = writeln!(text, "nvmllc_serve_request_seconds_sum {sum}");
        let _ = writeln!(
            text,
            "nvmllc_serve_request_seconds_count {}",
            hist_values.len()
        );
        text
    }

    #[test]
    fn parse_reconstructs_scalars_and_histograms() {
        let scrape = parse(&sample_text(41, &[0.0005, 0.005, 0.05, 5.0]));
        assert_eq!(scrape.scalar_total("nvmllc_serve_requests_total"), 42.0);
        assert_eq!(scrape.scalar_total("nvmllc_store_resident_bytes"), 100.0);
        let hist = scrape.histogram("nvmllc_serve_request_seconds").unwrap();
        assert_eq!(hist.bounds, vec![0.001, 0.01, 0.1]);
        assert_eq!(hist.buckets, vec![1, 1, 1, 1], "de-cumulated buckets");
        assert_eq!(hist.count, 4);
        assert!((hist.sum - 5.0555).abs() < 1e-9);
        assert_eq!(scrape.scalar_total("nvmllc_absent_total"), 0.0);
    }

    #[test]
    fn parse_skips_garbage_lines() {
        let scrape = parse("not a metric\nnvmllc_ok_total 3\n###\nbroken{ 5\nx y z\n");
        assert_eq!(scrape.scalar_total("nvmllc_ok_total"), 3.0);
    }

    #[test]
    fn registry_render_round_trips_through_the_parser() {
        crate::metrics::counter("nvmllc_test_fed_roundtrip_total", "t").add(9);
        crate::metrics::histogram("nvmllc_test_fed_roundtrip_seconds", "t").record(0.0042);
        // Per-instance counters: one label set per handle.
        let instances: Vec<(String, &crate::metrics::Counter)> = (0..4u64)
            .map(|i| {
                let id = crate::metrics::next_instance().to_string();
                let labels = [("instance", id.as_str()), ("class", "2xx")];
                let counter =
                    crate::metrics::counter_with("nvmllc_test_fed_instances_total", "t", &labels);
                counter.add(10 * i + 1);
                (id, counter)
            })
            .collect();
        let scrape = parse(&crate::metrics::render_prometheus());
        assert_eq!(
            scrape.scalar_total("nvmllc_test_fed_roundtrip_total"),
            9.0,
            "counter survives"
        );
        let hist = scrape
            .histogram("nvmllc_test_fed_roundtrip_seconds")
            .unwrap();
        assert_eq!(
            hist.bounds,
            crate::metrics::default_seconds_bounds(),
            "bounds round-trip to the exact f64s"
        );
        assert_eq!(hist.count, 1);
        let total: u64 = instances.iter().map(|(_, c)| c.get()).sum();
        assert_eq!(
            scrape.scalar_total("nvmllc_test_fed_instances_total"),
            total as f64,
            "the family total is the sum of its handles"
        );
        let samples = scrape.scalar_samples("nvmllc_test_fed_instances_total");
        for (id, counter) in &instances {
            let block = format!("{{instance=\"{id}\",class=\"2xx\"}}");
            assert!(
                samples.contains(&(block, counter.get() as f64)),
                "instance {id}: {samples:?}"
            );
        }
    }

    /// Everything [`parse`] keeps — family names, help text, label
    /// blocks — is cut from input lines, so it can never outgrow them.
    fn assert_bounded_by(scrape: &Scrape, text: &str) {
        let mut items = 0usize;
        let mut bytes = 0usize;
        for (name, family) in &scrape.families {
            bytes += name.len() + family.help.len();
            items += family.scalars.len() + family.histograms.len();
            bytes += family.scalars.iter().map(|(l, _)| l.len()).sum::<usize>();
            bytes += family
                .histograms
                .iter()
                .map(|(l, _)| l.len())
                .sum::<usize>();
        }
        assert!(
            items <= text.lines().count(),
            "{items} samples from {text:?}"
        );
        assert!(bytes <= text.len(), "{bytes} bytes from {text:?}");
    }

    #[test]
    fn parse_is_total_on_truncated_and_mutated_scrapes() {
        crate::metrics::counter_with(
            "nvmllc_test_fed_total_requests_total",
            "requests \"quoted\"",
            &[("instance", "7"), ("class", "4xx")],
        )
        .add(3);
        crate::metrics::gauge_with("nvmllc_test_fed_total_bytes", "g", &[("instance", "7")])
            .set(1 << 40);
        let hist = crate::metrics::histogram("nvmllc_test_fed_total_seconds", "h");
        for v in [0.0, 3e-6, 0.02, 7.5, 1e3] {
            hist.record(v);
        }
        let real: String = crate::metrics::render_prometheus()
            .lines()
            .filter(|l| l.contains("nvmllc_test_fed_total_"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(real.len() > 1_000, "{real}");
        assert_eq!(
            parse(&real).scalar_total("nvmllc_test_fed_total_requests_total"),
            3.0
        );
        for cut in 0..=real.len() {
            let text = &real[..cut];
            assert_bounded_by(&parse(text), text);
        }
        // splitmix64: a fixed seed, so any failure reproduces.
        let mut state = 0x5EED_u64;
        let mut next_byte = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % 255 + 1) as u8
        };
        for i in 0..real.len() {
            let mut bytes = real.clone().into_bytes();
            bytes[i] ^= next_byte();
            let text = String::from_utf8_lossy(&bytes);
            assert_bounded_by(&parse(&text), &text);
        }
    }

    #[test]
    fn merge_sums_counters_and_adds_buckets() {
        let a = parse(&sample_text(10, &[0.0005, 0.05]));
        let b = parse(&sample_text(20, &[0.005, 5.0]));
        let merged = merge(&[a.clone(), b.clone()]);
        assert!(merged.skipped.is_empty());
        let view = &merged.scrape;
        assert_eq!(view.scalar_total("nvmllc_serve_requests_total"), 32.0);
        assert_eq!(view.scalar_total("nvmllc_store_resident_bytes"), 200.0);
        let hist = view.histogram("nvmllc_serve_request_seconds").unwrap();
        assert_eq!(hist.count, 4);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 4);
        // Per-class label sets sum independently.
        let classes = view.scalar_samples("nvmllc_serve_requests_total");
        assert!(
            classes.contains(&("{class=\"2xx\"}".to_owned(), 30.0)),
            "{classes:?}"
        );
        assert!(
            classes.contains(&("{class=\"5xx\"}".to_owned(), 2.0)),
            "{classes:?}"
        );
    }

    #[test]
    fn merged_render_parses_back_to_the_same_totals() {
        let a = parse(&sample_text(7, &[0.0005]));
        let b = parse(&sample_text(8, &[0.05, 0.05]));
        let merged = merge(&[a, b]);
        let reparsed = parse(&merged.render());
        assert_eq!(reparsed.scalar_total("nvmllc_serve_requests_total"), 17.0);
        let hist = reparsed.histogram("nvmllc_serve_request_seconds").unwrap();
        assert_eq!(hist.count, 3);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn mismatched_bounds_reject_cleanly() {
        let mut a = ParsedHistogram {
            bounds: vec![1.0, 2.0],
            buckets: vec![1, 1, 0],
            sum: 3.0,
            count: 2,
        };
        let b = ParsedHistogram {
            bounds: vec![1.0, 3.0],
            buckets: vec![1, 1, 0],
            sum: 3.0,
            count: 2,
        };
        let before = a.clone();
        assert!(a.merge(&b).is_err());
        assert_eq!(a, before, "a failed merge must not half-apply");
        let ok = a.merge(&before.clone());
        assert!(ok.is_ok());
        assert_eq!(a.count, 4);
    }

    #[test]
    fn mismatched_bounds_skip_the_family_in_a_merged_view() {
        let a = parse(
            "# TYPE nvmllc_x_seconds histogram\n\
             nvmllc_x_seconds_bucket{le=\"1\"} 1\n\
             nvmllc_x_seconds_bucket{le=\"+Inf\"} 1\n\
             nvmllc_x_seconds_sum 0.5\n\
             nvmllc_x_seconds_count 1\n\
             # TYPE nvmllc_y_total counter\n\
             nvmllc_y_total 1\n",
        );
        let b = parse(
            "# TYPE nvmllc_x_seconds histogram\n\
             nvmllc_x_seconds_bucket{le=\"2\"} 1\n\
             nvmllc_x_seconds_bucket{le=\"+Inf\"} 1\n\
             nvmllc_x_seconds_sum 1.5\n\
             nvmllc_x_seconds_count 1\n\
             # TYPE nvmllc_y_total counter\n\
             nvmllc_y_total 2\n",
        );
        let merged = merge(&[a, b]);
        assert_eq!(merged.skipped.len(), 1);
        assert_eq!(merged.skipped[0].0, "nvmllc_x_seconds");
        assert!(!merged.scrape.families.contains_key("nvmllc_x_seconds"));
        assert_eq!(merged.scrape.scalar_total("nvmllc_y_total"), 3.0);
        assert!(merged.render().contains("# SKIPPED nvmllc_x_seconds"));
    }

    #[test]
    fn splice_label_handles_empty_and_populated_blocks() {
        assert_eq!(splice_label("", "shard", "2"), "{shard=\"2\"}");
        assert_eq!(
            splice_label("{class=\"2xx\"}", "shard", "0"),
            "{class=\"2xx\",shard=\"0\"}"
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Builds a Prometheus text body with one histogram over the
        /// registry's default bounds from raw samples.
        fn hist_text(values: &[f64]) -> String {
            let bounds = crate::metrics::default_seconds_bounds();
            let mut text = String::from("# TYPE nvmllc_p_seconds histogram\n");
            let mut cum = 0usize;
            for (i, b) in bounds.iter().enumerate() {
                let lower = if i == 0 { f64::MIN } else { bounds[i - 1] };
                cum += values.iter().filter(|&&v| v > lower && v <= *b).count();
                let _ = writeln!(text, "nvmllc_p_seconds_bucket{{le=\"{b}\"}} {cum}");
            }
            let _ = writeln!(
                text,
                "nvmllc_p_seconds_bucket{{le=\"+Inf\"}} {}",
                values.len()
            );
            let sum: f64 = values.iter().sum();
            let _ = writeln!(text, "nvmllc_p_seconds_sum {sum}");
            let _ = writeln!(text, "nvmllc_p_seconds_count {}", values.len());
            text
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Merging K shard histograms with identical bounds
            /// preserves total count and sum, and the merged
            /// quantile(q) lies within one bucket of the exact
            /// pooled-sample quantile.
            #[test]
            fn merging_preserves_mass_and_quantiles(
                shards in proptest::collection::vec(
                    proptest::collection::vec(0.000_001f64..2.0, 1..60),
                    2..5,
                ),
                q in 0.05f64..0.999,
            ) {
                let scrapes: Vec<Scrape> =
                    shards.iter().map(|vs| parse(&hist_text(vs))).collect();
                let merged = merge(&scrapes);
                prop_assert!(merged.skipped.is_empty());
                let hist = merged.scrape.histogram("nvmllc_p_seconds").unwrap();

                let mut pooled: Vec<f64> = shards.iter().flatten().copied().collect();
                pooled.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let total: u64 = shards.iter().map(|v| v.len() as u64).sum();
                prop_assert_eq!(hist.count, total);
                prop_assert!(
                    (hist.sum - pooled.iter().sum::<f64>()).abs() < 1e-6,
                    "sum preserved"
                );
                prop_assert_eq!(hist.buckets.iter().sum::<u64>(), total);

                // The exact pooled quantile at the same rank rule.
                let rank = ((q * total as f64).ceil().max(1.0) as usize).min(pooled.len());
                let exact = pooled[rank - 1];
                // "Within one bucket": the merged estimate's bucket is
                // the exact value's bucket or an adjacent one.
                let bucket_of = |v: f64| hist.bounds.partition_point(|&b| v > b);
                let est = hist.quantile(q);
                let diff = bucket_of(est).abs_diff(bucket_of(exact));
                prop_assert!(
                    diff <= 1,
                    "estimate {est} (bucket {}) vs exact {exact} (bucket {})",
                    bucket_of(est),
                    bucket_of(exact)
                );
            }
        }
    }
}
