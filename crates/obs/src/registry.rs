//! Prometheus text exposition — the one module that writes it and the
//! one that reads it back.
//!
//! A [`MetricsPage`] is a page under construction: components add
//! their counter tables ([`Series`] rows) and histogram snapshots to
//! it, a scraper (the cluster coordinator) folds whole parsed pages
//! into it, and [`MetricsPage::render`] writes the text. Label blocks,
//! escaping, `le` splicing and `# TYPE` lines are produced here and
//! nowhere else. [`parse_exposition`] is the inverse, so the
//! coordinator and any scraper (servebench, the tests) can merge
//! fleets bucket-wise without a side-channel wire format.
//!
//! The exposition subset is the stable core of the text format:
//! `# TYPE` lines, `name{label="value"} value` samples, histogram
//! series as cumulative `_bucket{le="…"}` counters plus `_sum` /
//! `_count`. Bucket bounds are rendered in seconds from the shared
//! [`BOUNDS`] table, so every producer in the fleet emits identical
//! `le` strings and cumulative bucket counts can be merged by plain
//! addition.

use crate::hist::{bucket_index, HistogramSnapshot, BOUNDS, BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The Prometheus type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only ever grows (until the process restarts).
    Counter,
    /// A point-in-time reading.
    Gauge,
    /// Cumulative `_bucket` / `_sum` / `_count` series.
    Histogram,
}

impl Kind {
    /// The word on the family's `# TYPE` line.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One row of a component's counter table: the name it is published
/// under (a `GET /stats` key, and the suffix of its `/metrics` family),
/// its type, and the value read just now. A component declares each
/// counter once as a field and once as a row; both pages render from
/// the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Series {
    /// Key / metric-name suffix.
    pub name: &'static str,
    /// [`Kind::Counter`] or [`Kind::Gauge`].
    pub kind: Kind,
    /// The reading.
    pub value: u64,
}

impl Series {
    /// A counter row.
    pub fn counter(name: &'static str, value: u64) -> Series {
        Series {
            name,
            kind: Kind::Counter,
            value,
        }
    }

    /// A gauge row.
    pub fn gauge(name: &'static str, value: u64) -> Series {
        Series {
            name,
            kind: Kind::Gauge,
            value,
        }
    }
}

/// A Prometheus text page under construction. Series are keyed by
/// family name and label block; adding to a series that already exists
/// sums into it — scalars value-wise, histograms bucket-wise (cumulative
/// counts on the shared `le` grid add exactly) — which is what merging
/// a fleet of scrapes means. Families render in name order.
#[derive(Debug, Default)]
pub struct MetricsPage {
    families: BTreeMap<String, Family>,
}

#[derive(Debug, Default)]
struct Family {
    /// From the first `# TYPE` seen (or declared) for the family.
    kind: Option<String>,
    /// Label block → summed value.
    scalars: BTreeMap<String, f64>,
    /// Label block (sans `le`) → summed histogram.
    histograms: BTreeMap<String, HistAcc>,
}

/// One histogram series: cumulative bucket values by bucket index, plus
/// `_sum` (seconds) and `_count`.
#[derive(Debug, Default)]
struct HistAcc {
    buckets: BTreeMap<usize, f64>,
    sum: f64,
    count: f64,
}

impl MetricsPage {
    /// An empty page.
    pub fn new() -> Self {
        MetricsPage::default()
    }

    fn family(&mut self, name: &str) -> &mut Family {
        self.families.entry(name.to_string()).or_default()
    }

    /// Give the family `name` a `# TYPE` line even while it has no
    /// series (the first type declared or folded in wins).
    pub(crate) fn declare(&mut self, name: &str, kind: Kind) {
        self.family(name)
            .kind
            .get_or_insert_with(|| kind.as_str().to_string());
    }

    /// Add `value` to the scalar series `name{labels}`.
    fn add(&mut self, name: &str, kind: Kind, labels: &[(&str, &str)], value: f64) {
        self.declare(name, kind);
        *self
            .family(name)
            .scalars
            .entry(label_block(labels.to_vec()))
            .or_insert(0.0) += value;
    }

    /// Add a counter table: each row as `{prefix}{row.name}{labels}`.
    pub fn add_series(
        &mut self,
        prefix: &str,
        labels: &[(&str, &str)],
        rows: impl IntoIterator<Item = Series>,
    ) {
        for row in rows {
            let name = format!("{prefix}{}", row.name);
            self.add(&name, row.kind, labels, row.value as f64);
        }
    }

    /// Add a histogram snapshot to the series `name{labels}`.
    pub fn add_histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        self.declare(name, Kind::Histogram);
        let acc = self
            .family(name)
            .histograms
            .entry(label_block(labels.to_vec()))
            .or_default();
        let mut cumulative = 0u64;
        for (i, n) in snap.buckets.iter().enumerate() {
            cumulative += n;
            *acc.buckets.entry(i).or_insert(0.0) += cumulative as f64;
        }
        acc.sum += snap.sum as f64 / 1e9;
        acc.count += snap.count as f64;
    }

    /// Fold a whole Prometheus text page in, with `extra` labels
    /// stamped onto every series — the same scrape can land once in a
    /// fleet-wide merge (no extra labels) and once under its
    /// `replica="host:port"` label.
    pub fn fold(&mut self, text: &str, extra: &[(&str, &str)]) {
        let parsed = parse_exposition(text);
        for (name, kind) in parsed.types {
            self.family(&name).kind.get_or_insert(kind);
        }
        for sample in &parsed.samples {
            let labels = |skip_le: bool| {
                let mut pairs: Vec<(&str, &str)> = sample
                    .labels
                    .iter()
                    .filter(|(n, _)| !(skip_le && n == "le"))
                    .map(|(n, v)| (n.as_str(), v.as_str()))
                    .collect();
                pairs.extend_from_slice(extra);
                label_block(pairs)
            };
            let Some((family, suffix)) = self.histogram_part(&sample.name) else {
                *self
                    .family(&sample.name)
                    .scalars
                    .entry(labels(false))
                    .or_insert(0.0) += sample.value;
                continue;
            };
            // A bucket line without a readable `le` has nowhere to go.
            let bucket = match suffix {
                "_bucket" => match sample.label("le").and_then(bucket_of_le) {
                    Some(idx) => Some(idx),
                    None => continue,
                },
                _ => None,
            };
            let acc = self
                .family(&family)
                .histograms
                .entry(labels(true))
                .or_default();
            match bucket {
                Some(idx) => *acc.buckets.entry(idx).or_insert(0.0) += sample.value,
                None if suffix == "_sum" => acc.sum += sample.value,
                None => acc.count += sample.value,
            }
        }
    }

    /// The histogram family a sample line belongs to and which of its
    /// `_bucket` / `_sum` / `_count` series it is, when the family is
    /// typed `histogram`.
    fn histogram_part(&self, sample: &str) -> Option<(String, &'static str)> {
        ["_bucket", "_sum", "_count"]
            .into_iter()
            .find_map(|suffix| {
                let family = sample.strip_suffix(suffix)?;
                let kind = self.families.get(family)?.kind.as_deref();
                (kind == Some("histogram")).then(|| (family.to_string(), suffix))
            })
    }

    /// Render the page in Prometheus text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            if let Some(kind) = &family.kind {
                let _ = writeln!(out, "# TYPE {name} {kind}");
            }
            for (block, value) in &family.scalars {
                let _ = writeln!(out, "{name}{block} {value}");
            }
            for (block, acc) in &family.histograms {
                // Splice `le` last into the series' label block:
                // `{a="b"}` → `{a="b",le="…"}`.
                let inner = block
                    .strip_prefix('{')
                    .and_then(|b| b.strip_suffix('}'))
                    .unwrap_or("");
                let sep = if inner.is_empty() { "" } else { "," };
                // BTreeMap order = bucket-index order, so cumulative
                // counts stay monotone.
                for (idx, value) in &acc.buckets {
                    let le = le_label(*idx);
                    let _ = writeln!(out, "{name}_bucket{{{inner}{sep}le=\"{le}\"}} {value}");
                }
                let _ = writeln!(out, "{name}_sum{block} {}", acc.sum);
                let _ = writeln!(out, "{name}_count{block} {}", acc.count);
            }
        }
        out
    }
}

/// The `le` label string for bucket `i` — the bound in seconds, or
/// `+Inf` for the catch-all.
fn le_label(i: usize) -> String {
    if i == BUCKETS - 1 {
        "+Inf".to_string()
    } else {
        (BOUNDS[i] as f64 / 1e9).to_string()
    }
}

/// Bucket index of an `le` label on the shared [`BOUNDS`] grid.
fn bucket_of_le(le: &str) -> Option<usize> {
    if le == "+Inf" {
        return Some(BUCKETS - 1);
    }
    let seconds: f64 = le.parse().ok()?;
    let ns = (seconds * 1e9).round() as u64;
    Some(
        BOUNDS
            .iter()
            .position(|bound| *bound == ns)
            .unwrap_or_else(|| bucket_index(ns)),
    )
}

/// `{a="b",c="d"}` with labels sorted by name and values escaped, or
/// the empty string.
fn label_block(mut pairs: Vec<(&str, &str)>) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    pairs.sort_unstable();
    let mut out = String::from("{");
    for (i, (name, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let escaped = value
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        let _ = write!(out, "{name}=\"{escaped}\"");
    }
    out.push('}');
    out
}

/// One parsed exposition sample: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including any `_bucket` / `_sum` / `_count`
    /// suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// First value of the label with this name.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed Prometheus text page: declared metric types plus samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// `metric name → type` from `# TYPE` lines.
    pub types: BTreeMap<String, String>,
    /// Every sample line, in source order.
    pub samples: Vec<Sample>,
}

/// Parse a Prometheus text page (the subset this crate emits:
/// `# TYPE` comments and `name{labels} value` samples). Unparseable
/// lines are skipped — a scraper should degrade, not fail, on a peer
/// speaking a newer dialect.
pub fn parse_exposition(text: &str) -> Exposition {
    let mut out = Exposition::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut words = rest.split_whitespace();
            if words.next() == Some("TYPE") {
                if let (Some(name), Some(kind)) = (words.next(), words.next()) {
                    out.types.insert(name.to_string(), kind.to_string());
                }
            }
            continue;
        }
        if let Some(sample) = parse_sample(line) {
            out.samples.push(sample);
        }
    }
    out
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (head, value) = line.rsplit_once(char::is_whitespace)?;
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        other => other.parse().ok()?,
    };
    let head = head.trim();
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let rest = rest.strip_suffix('}')?;
            (name.to_string(), parse_labels(rest)?)
        }
    };
    Some(Sample {
        name,
        labels,
        value,
    })
}

fn parse_labels(mut rest: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let name = rest[..eq].trim().to_string();
        rest = rest[eq + 1..].strip_prefix('"')?;
        // Scan to the closing quote, honouring backslash escapes.
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return None,
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                other => value.push(other),
            }
        }
        rest = &rest[end? + 1..];
        labels.push((name, value));
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Some(labels)
}

/// Rebuild a [`HistogramSnapshot`] from parsed samples: the series
/// `name_bucket` / `name_sum` / `name_count` whose non-`le` labels
/// equal `labels` exactly. Returns `None` when no bucket line matches.
/// The tracked max is lost across the wire (`max = 0`), so percentile
/// queries on the result are bucket-resolution only.
pub fn snapshot_from_samples(
    samples: &[Sample],
    name: &str,
    labels: &[(&str, &str)],
) -> Option<HistogramSnapshot> {
    let bucket_name = format!("{name}_bucket");
    let sum_name = format!("{name}_sum");
    let count_name = format!("{name}_count");
    let mut want: Vec<(&str, &str)> = labels.to_vec();
    want.sort_unstable();
    let matches = |sample: &Sample, ignore_le: bool| {
        let mut rest: Vec<(&str, &str)> = sample
            .labels
            .iter()
            .filter(|(n, _)| !(ignore_le && n == "le"))
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        rest.sort_unstable();
        rest == want
    };

    let mut cumulative: Vec<(usize, u64)> = Vec::new();
    let mut snap = HistogramSnapshot::default();
    let mut saw_count = false;
    for sample in samples {
        if sample.name == bucket_name && matches(sample, true) {
            cumulative.push((bucket_of_le(sample.label("le")?)?, sample.value as u64));
        } else if sample.name == sum_name && matches(sample, false) {
            snap.sum = (sample.value * 1e9).round() as u64;
        } else if sample.name == count_name && matches(sample, false) {
            snap.count = sample.value as u64;
            saw_count = true;
        }
    }
    if cumulative.is_empty() {
        return None;
    }
    cumulative.sort_by_key(|(idx, _)| *idx);
    let mut previous = 0u64;
    for (idx, total) in cumulative {
        snap.buckets[idx] += total.saturating_sub(previous);
        previous = total.max(previous);
    }
    if !saw_count {
        snap.count = snap.buckets.iter().sum();
    }
    Some(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::AtomicHistogram;

    #[test]
    fn counters_gauges_and_histograms_render_with_types() {
        let mut page = MetricsPage::new();
        page.add("lantern_requests_total", Kind::Counter, &[], 3.0);
        page.add(
            "lantern_queue_depth",
            Kind::Gauge,
            &[("core", "event")],
            2.0,
        );
        let hist = AtomicHistogram::new();
        hist.record(1_000_000); // 1ms
        page.add_histogram(
            "lantern_stage_duration_seconds",
            &[("stage", "narrate")],
            &hist.snapshot(),
        );
        let text = page.render();
        assert!(text.contains("# TYPE lantern_requests_total counter"));
        assert!(text.contains("lantern_requests_total 3"));
        assert!(text.contains("# TYPE lantern_queue_depth gauge"));
        assert!(text.contains("lantern_queue_depth{core=\"event\"} 2"));
        assert!(text.contains("# TYPE lantern_stage_duration_seconds histogram"));
        assert!(text.contains("lantern_stage_duration_seconds_count{stage=\"narrate\"} 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
        // Adding to an existing series sums into it.
        page.add("lantern_requests_total", Kind::Counter, &[], 1.0);
        assert!(page.render().contains("lantern_requests_total 4"));
    }

    #[test]
    fn exposition_roundtrips_through_the_parser() {
        let hist = AtomicHistogram::new();
        for us in [100u64, 900, 4_000, 90_000] {
            hist.record(us * 1_000);
        }
        let mut page = MetricsPage::new();
        page.add_histogram("lantern_request_duration_seconds", &[], &hist.snapshot());
        let text = page.render();
        let parsed = parse_exposition(&text);
        assert_eq!(
            parsed
                .types
                .get("lantern_request_duration_seconds")
                .unwrap(),
            "histogram"
        );
        let snap = snapshot_from_samples(&parsed.samples, "lantern_request_duration_seconds", &[])
            .unwrap();
        let original = hist.snapshot();
        assert_eq!(snap.buckets, original.buckets);
        assert_eq!(snap.count, original.count);
        // Sum survives to f64 precision.
        assert!((snap.sum as f64 - original.sum as f64).abs() < 1.0);
    }

    #[test]
    fn parser_handles_labels_and_escapes() {
        let text = concat!(
            "# HELP x ignored\n",
            "# TYPE x counter\n",
            "x{a=\"plain\",b=\"with \\\"quote\\\" and \\\\slash\"} 7\n",
            "garbage line without a value\n",
            "y 1.5\n",
        );
        let parsed = parse_exposition(text);
        assert_eq!(parsed.samples.len(), 2);
        assert_eq!(parsed.samples[0].label("a"), Some("plain"));
        assert_eq!(
            parsed.samples[0].label("b"),
            Some("with \"quote\" and \\slash")
        );
        assert_eq!(parsed.samples[0].value, 7.0);
        assert_eq!(parsed.samples[1].name, "y");
        // Escaped render parses back to the original value.
        let mut page = MetricsPage::new();
        page.add("z", Kind::Counter, &[("v", "a\"b\\c\nd")], 1.0);
        let back = parse_exposition(&page.render());
        assert_eq!(back.samples[0].label("v"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn snapshot_from_samples_selects_exact_label_sets() {
        let (parse, narrate) = (AtomicHistogram::new(), AtomicHistogram::new());
        parse.record(1_000);
        narrate.record(1_000);
        narrate.record(2_000);
        let mut page = MetricsPage::new();
        page.add_histogram("h", &[("stage", "parse")], &parse.snapshot());
        page.add_histogram("h", &[("stage", "narrate")], &narrate.snapshot());
        let parsed = parse_exposition(&page.render());
        let narrate = snapshot_from_samples(&parsed.samples, "h", &[("stage", "narrate")]).unwrap();
        assert_eq!(narrate.count, 2);
        let parse = snapshot_from_samples(&parsed.samples, "h", &[("stage", "parse")]).unwrap();
        assert_eq!(parse.count, 1);
        assert!(snapshot_from_samples(&parsed.samples, "h", &[]).is_none());
        assert!(snapshot_from_samples(&parsed.samples, "missing", &[]).is_none());
    }

    #[test]
    fn rendered_buckets_are_cumulative_and_monotone() {
        let hist = AtomicHistogram::new();
        for i in 0..100u64 {
            hist.record(i * 10_000);
        }
        let mut page = MetricsPage::new();
        page.add_histogram("m", &[], &hist.snapshot());
        let text = page.render();
        let mut last = -1.0f64;
        let mut bucket_lines = 0;
        for sample in parse_exposition(&text).samples {
            if sample.name == "m_bucket" {
                assert!(sample.value >= last, "{text}");
                last = sample.value;
                bucket_lines += 1;
            }
        }
        assert_eq!(bucket_lines, BUCKETS);
        assert_eq!(last, 100.0);
    }

    #[test]
    fn fold_merges_scrapes_exactly_and_labels_survive_the_round_trip() {
        // Two replica scrapes, each a counter plus a labeled histogram
        // whose label value needs every escape.
        let tricky = "q\"uote b\\ack\nline";
        let (a, b) = (AtomicHistogram::new(), AtomicHistogram::new());
        for us in [50u64, 700, 3_000] {
            a.record(us * 1_000);
        }
        for us in [700u64, 90_000] {
            b.record(us * 1_000);
        }
        let scrape = |hist: &AtomicHistogram, total: f64| {
            let mut page = MetricsPage::new();
            page.add("lantern_x_total", Kind::Counter, &[], total);
            page.add_histogram("h", &[("stage", tricky)], &hist.snapshot());
            page.render()
        };
        let (page_a, page_b) = (scrape(&a, 3.0), scrape(&b, 4.0));

        let mut fleet = MetricsPage::new();
        fleet.fold(&page_a, &[]);
        fleet.fold(&page_b, &[]);
        fleet.fold(&page_a, &[("replica", "a:1")]);
        fleet.add_histogram("h", &[("node", "coordinator")], &b.snapshot());
        let parsed = parse_exposition(&fleet.render());
        assert_eq!(parsed.types.get("h").map(String::as_str), Some("histogram"));
        assert_eq!(
            parsed.types.get("lantern_x_total").map(String::as_str),
            Some("counter")
        );

        // Unlabeled fold: exact bucket, `_sum` and `_count` addition.
        let mut expected = a.snapshot();
        expected.merge(&b.snapshot());
        let merged = snapshot_from_samples(&parsed.samples, "h", &[("stage", tricky)])
            .expect("merged series, tricky label intact");
        assert_eq!(merged.buckets, expected.buckets);
        assert_eq!(merged.count, expected.count);
        assert_eq!(merged.sum, expected.sum);
        let total = |labels: &[(&str, &str)]| {
            parsed
                .samples
                .iter()
                .find(|s| {
                    s.name == "lantern_x_total"
                        && s.labels
                            .iter()
                            .map(|(n, v)| (n.as_str(), v.as_str()))
                            .eq(labels.iter().copied())
                })
                .map(|s| s.value)
        };
        assert_eq!(total(&[]), Some(7.0));

        // Labeled fold: its own series, equal to the one scrape.
        assert_eq!(total(&[("replica", "a:1")]), Some(3.0));
        let labeled = snapshot_from_samples(
            &parsed.samples,
            "h",
            &[("replica", "a:1"), ("stage", tricky)],
        )
        .expect("per-replica series");
        assert_eq!(labeled.buckets, a.snapshot().buckets);
        assert_eq!(labeled.sum, a.snapshot().sum);
        let own = snapshot_from_samples(&parsed.samples, "h", &[("node", "coordinator")])
            .expect("directly added series");
        assert_eq!(own.buckets, b.snapshot().buckets);

        // `le` is spliced last and every series carries the full grid.
        let buckets: Vec<&Sample> = parsed
            .samples
            .iter()
            .filter(|s| s.name == "h_bucket")
            .collect();
        assert_eq!(buckets.len(), 3 * BUCKETS);
        assert!(buckets
            .iter()
            .all(|s| s.labels.last().map(|(n, _)| n.as_str()) == Some("le")));
    }

    #[test]
    fn declared_families_render_a_type_line_without_series() {
        let mut page = MetricsPage::new();
        page.declare("lantern_stage_duration_seconds", Kind::Histogram);
        assert_eq!(
            page.render(),
            "# TYPE lantern_stage_duration_seconds histogram\n"
        );
    }
}
