//! Unified telemetry: a deterministic metrics registry, run manifests,
//! and a JSONL event sink with a strict deterministic/timing split.
//!
//! Every layer of the workspace already counts things — the engine's
//! [`crate::Metrics`], the tracer's span counters, the solver kernels'
//! cache statistics, the batch runner's fleet roll-up — but each kept its
//! numbers to itself and none carried run metadata. This module is the
//! common funnel:
//!
//! * a [`Registry`] of named counters, gauges, and fixed-bucket log₂
//!   [`Histogram`]s, all stored in `BTreeMap`s so every snapshot renders
//!   byte-identically regardless of insertion order;
//! * a [`RunManifest`] — commit SHA, rustc version, thread count, exec
//!   mode, seed, workload label — so a number can be traced back to the
//!   build that produced it;
//! * an [`EventSink`] writing JSONL where every event line splits into a
//!   **deterministic** section (`"det"` — counts, rounds, bits, cache
//!   hits; byte-diffable in CI across shard counts, thread counts, and
//!   machines) and a **timing** section (`"timing"` — wall-clock values,
//!   explicitly excluded from diffs via [`strip_timing`]).
//!
//! The determinism contract (DESIGN.md §12): nothing wall-clock or
//! host-dependent may ever enter a `det` object or a [`Registry`] that
//! feeds one. Timings, latency percentiles, and the manifest live in the
//! timing/metadata sections only.

use crate::json::{array, json_string, Obj};
use crate::metrics::Metrics;
use std::collections::BTreeMap;

/// Number of log₂ buckets: one for the value 0 plus one per binary
/// magnitude of a `u64` (bucket `k ≥ 1` holds `[2^(k−1), 2^k − 1]`; the
/// top bucket saturates at `u64::MAX`).
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket log₂ histogram over `u64` samples.
///
/// Buckets are powers of two, so inserting is a `leading_zeros` and the
/// layout is identical on every host — merging histograms from different
/// shards is element-wise addition and cannot depend on sample order.
/// Percentiles use the nearest-rank convention on bucket upper bounds,
/// clamped into the observed `[min, max]` (so a single-valued histogram
/// reports that exact value at every percentile).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index of `v`: 0 for 0, else its bit length `64 − leading_zeros(v)`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Largest value bucket `k` can hold (its representative for percentiles).
fn bucket_upper(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Nearest-rank index of the `q`-th percentile over `count` sorted
/// samples: `round(q/100 · (count − 1))`. This is **the** percentile
/// convention of the crate — [`Histogram::percentile`] and
/// [`crate::Metrics::max_bits_percentile`] both rank with it, so the two
/// never disagree on which sample a quantile names. `q` is clamped into
/// `[0, 100]` (out-of-range values yield the minimum / maximum index);
/// `count == 0` yields 0. The index is always `< count` for `count > 0`.
///
/// # Panics
/// Panics if `q` is NaN.
pub fn nearest_rank(count: u64, q: f64) -> u64 {
    assert!(!q.is_nan(), "percentile q must not be NaN");
    if count == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 100.0);
    ((q / 100.0) * (count - 1) as f64).round() as u64
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one (shard merge). Element-wise,
    /// so the result is independent of merge order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-th percentile (nearest-rank over bucket upper bounds,
    /// clamped into the observed value range). Empty histograms report 0;
    /// `q` is clamped into `[0, 100]`.
    ///
    /// # Panics
    /// Panics if `q` is NaN.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            // Still rank first: NaN must panic even on empty histograms.
            return nearest_rank(0, q);
        }
        let rank = nearest_rank(self.count, q);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_upper(k).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Deterministic JSON rendering: exact count/sum/min/max plus the
    /// non-empty `[bucket, count]` pairs in bucket order.
    pub fn to_json(&self) -> String {
        let buckets = array(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(k, &c)| format!("[{k},{c}]")),
        );
        Obj::new()
            .u64("count", self.count)
            .u64("sum", self.sum)
            .u64("min", self.min())
            .u64("max", self.max())
            .raw("buckets", &buckets)
            .finish()
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// All three families are keyed by `BTreeMap`, so [`Registry::to_json`]
/// renders byte-identically for any insertion order — the property the CI
/// telemetry byte-diff relies on. Only deterministic quantities may be
/// recorded here (see the module docs); wall-clock values belong in an
/// event's timing section.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `v` to the named counter (created at 0).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Set the named gauge to `v` (last write wins).
    pub fn gauge_set(&mut self, name: &str, v: u64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Record one sample into the named histogram (created empty).
    pub fn hist_record(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().record(v);
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a gauge (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Read a histogram (`None` when nothing was recorded under `name`).
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// other's value, histograms merge.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Export an engine [`Metrics`] under `prefix`: scalar totals as
    /// counters plus per-round bits / max-message-bits histograms. Every
    /// quantity is engine-deterministic, so the export is identical across
    /// thread counts and parallel thresholds.
    pub fn observe_metrics(&mut self, prefix: &str, m: &Metrics) {
        self.counter_add(&format!("{prefix}.rounds"), m.rounds() as u64);
        self.counter_add(&format!("{prefix}.messages"), m.total_messages());
        self.counter_add(&format!("{prefix}.total_bits"), m.total_bits());
        self.counter_add(&format!("{prefix}.messages_dropped"), m.messages_dropped());
        self.counter_add(&format!("{prefix}.faulted_nodes"), m.faulted_nodes());
        self.counter_add(&format!("{prefix}.rounds_retried"), m.rounds_retried());
        self.counter_add(&format!("{prefix}.stalled_rounds"), m.stalled_rounds());
        for r in m.per_round() {
            self.hist_record(&format!("{prefix}.round_bits"), r.total_bits);
            self.hist_record(
                &format!("{prefix}.round_max_message_bits"),
                r.max_message_bits,
            );
        }
    }

    /// Deterministic snapshot: one JSON object with `counters`, `gauges`,
    /// and `hists` sub-objects, keys sorted.
    pub fn to_json(&self) -> String {
        let mut counters = Obj::new();
        for (k, v) in &self.counters {
            counters = counters.u64(k, *v);
        }
        let mut gauges = Obj::new();
        for (k, v) in &self.gauges {
            gauges = gauges.u64(k, *v);
        }
        let mut hists = Obj::new();
        for (k, h) in &self.hists {
            hists = hists.raw(k, &h.to_json());
        }
        Obj::new()
            .raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("hists", &hists.finish())
            .finish()
    }
}

/// Build metadata of a run: enough to pin a telemetry or bench-history
/// row to the commit, compiler, and execution shape that produced it.
///
/// The manifest is *metadata*, not measurement — it never enters a `det`
/// section (thread counts and toolchains differ across hosts) and is
/// stripped by [`strip_timing`] together with the timing sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Commit SHA (from `GITHUB_SHA`/`LDC_COMMIT` or `git rev-parse`;
    /// `"unknown"` outside a checkout).
    pub commit: String,
    /// `rustc --version` of the host toolchain (`"unknown"` if rustc is
    /// not on PATH).
    pub rustc: String,
    /// Worker threads available to the run.
    pub threads: u64,
    /// Execution mode label (`"pooled"`, `"serial"`, …).
    pub exec_mode: String,
    /// Seed of the run (0 when not applicable).
    pub seed: u64,
    /// Free-form workload label (spec path, bench name, experiment id).
    pub workload: String,
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

impl RunManifest {
    /// Capture the manifest of the current process. Commit resolution
    /// order: `LDC_COMMIT`, `GITHUB_SHA`, `git rev-parse HEAD`, then
    /// `"unknown"`; rustc comes from `rustc --version`.
    pub fn capture(exec_mode: &str, seed: u64, workload: &str) -> RunManifest {
        let commit = std::env::var("LDC_COMMIT")
            .or_else(|_| std::env::var("GITHUB_SHA"))
            .ok()
            .or_else(|| command_line("git", &["rev-parse", "HEAD"]))
            .unwrap_or_else(|| "unknown".into());
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
        let threads = std::thread::available_parallelism()
            .map(|p| p.get() as u64)
            .unwrap_or(1);
        RunManifest {
            commit,
            rustc,
            threads,
            exec_mode: exec_mode.to_string(),
            seed,
            workload: workload.to_string(),
        }
    }

    /// Render as a JSON object (insertion-ordered, byte-deterministic for
    /// fixed field values).
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("commit", &self.commit)
            .str("rustc", &self.rustc)
            .u64("threads", self.threads)
            .str("exec_mode", &self.exec_mode)
            .u64("seed", self.seed)
            .str("workload", &self.workload)
            .finish()
    }
}

/// A buffered JSONL event sink.
///
/// Line layout:
///
/// ```text
/// {"manifest":{…}}                          — optional, first line
/// {"event":"…","det":{…},"timing":{…}}      — one per emitted event
/// ```
///
/// The `det` value must be pre-rendered deterministic JSON (typically a
/// [`Registry::to_json`] snapshot); `timing` holds wall-clock values and
/// is always the **last** key of the line — the contract [`strip_timing`]
/// uses to cut timing sections without a JSON parser.
#[derive(Debug, Clone, Default)]
pub struct EventSink {
    manifest: Option<String>,
    events: Vec<(String, String, String)>,
}

impl EventSink {
    /// An empty sink.
    pub fn new() -> EventSink {
        EventSink::default()
    }

    /// Attach a manifest; it becomes the first output line.
    pub fn set_manifest(&mut self, manifest: &RunManifest) {
        self.manifest = Some(manifest.to_json());
    }

    /// Buffer one event. `det` and `timing` must be pre-rendered JSON
    /// objects; pass `"{}"` when a section is empty.
    pub fn emit(&mut self, event: &str, det: String, timing: String) {
        self.events.push((event.to_string(), det, timing));
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The full JSONL stream (manifest line first when set).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(m) = &self.manifest {
            out.push_str(&Obj::new().raw("manifest", m).finish());
            out.push('\n');
        }
        for (event, det, timing) in &self.events {
            out.push_str(
                &Obj::new()
                    .str("event", event)
                    .raw("det", det)
                    .raw("timing", timing)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Only the deterministic sections: no manifest line, no `timing`
    /// keys. Byte-identical across shard counts, thread counts, and hosts.
    pub fn deterministic_jsonl(&self) -> String {
        let mut out = String::new();
        for (event, det, _) in &self.events {
            out.push_str(&Obj::new().str("event", event).raw("det", det).finish());
            out.push('\n');
        }
        out
    }

    /// Write the full stream to `path`.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// Reduce a telemetry JSONL stream to its deterministic sections: drop
/// manifest lines and cut each event line at its trailing
/// `,"timing":{…}` section (the sink guarantees `timing` is the last
/// key). The result of two runs of the same workload must byte-diff
/// clean — the CI telemetry job asserts exactly that.
pub fn strip_timing(jsonl: &str) -> String {
    let mut out = String::new();
    for line in jsonl.lines() {
        if line.starts_with("{\"manifest\":") {
            continue;
        }
        match line.rfind(",\"timing\":") {
            Some(at) => {
                out.push_str(&line[..at]);
                out.push('}');
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Render a `f64` for a timing section: fixed 3-decimal milliseconds-style
/// formatting (timing values are excluded from byte-diffs, so precision
/// loss is irrelevant; fixed width keeps the files readable).
pub fn timing_f64(v: f64) -> String {
    format!("{v:.3}")
}

/// Escape helper re-exported for sinks built outside this module.
pub fn quoted(s: &str) -> String {
    json_string(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RoundStats;

    #[test]
    fn histogram_buckets_and_bounds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_empty_single_and_saturating() {
        let empty = Histogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.percentile(50.0), 0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.max(), 0);

        let mut one = Histogram::new();
        one.record(37);
        for q in [0.0, 50.0, 100.0, -5.0, 400.0] {
            assert_eq!(one.percentile(q), 37, "q={q}");
        }

        let mut sat = Histogram::new();
        sat.record(u64::MAX);
        sat.record(u64::MAX);
        assert_eq!(sat.sum(), u64::MAX, "sum saturates");
        assert_eq!(sat.percentile(100.0), u64::MAX);
    }

    #[test]
    fn histogram_percentiles_and_merge() {
        let mut a = Histogram::new();
        for v in [1u64, 2, 4, 8, 1024] {
            a.record(v);
        }
        assert_eq!(a.percentile(0.0), 1);
        assert_eq!(a.percentile(100.0), 1024);
        // Median rank 2 → value 4's bucket (upper bound 7).
        assert_eq!(a.percentile(50.0), 7);

        let mut b = Histogram::new();
        b.record(0);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 6);
        assert_eq!(merged.min(), 0);
        assert_eq!(merged.max(), 1024);
        // Merge is symmetric.
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(other_way.to_json(), merged.to_json());
    }

    /// Splitmix-style step for the property tests below — seeded and
    /// std-only, so the sample sets are reproducible.
    fn prng(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn histogram_percentile_matches_sorted_sample_oracle() {
        // The exact spec: rank with `nearest_rank`, answer with the
        // rank-th sorted sample's bucket upper bound, clamped into the
        // observed range. Sample sets cover single samples, duplicates,
        // and the saturating top bucket (u64::MAX).
        let mut state = 0x1dc7;
        for &len in &[1usize, 2, 3, 17, 100] {
            let mut samples: Vec<u64> = (0..len)
                .map(|_| match prng(&mut state) % 4 {
                    0 => prng(&mut state) % 16,
                    1 => prng(&mut state) % 100_000,
                    2 => prng(&mut state),
                    _ => u64::MAX - prng(&mut state) % 3,
                })
                .collect();
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            let (lo, hi) = (samples[0], samples[len - 1]);
            for q in [0.0, 1.0, 12.5, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
                let idx = nearest_rank(len as u64, q) as usize;
                assert!(idx < len, "rank stays in range");
                let expect = bucket_upper(bucket_of(samples[idx])).clamp(lo, hi);
                assert_eq!(h.percentile(q), expect, "len={len} q={q}");
            }
            // q = 100 names the largest sample exactly (clamp to max).
            assert_eq!(h.percentile(100.0), hi, "len={len}");
        }
    }

    #[test]
    fn nearest_rank_spec() {
        assert_eq!(nearest_rank(0, 50.0), 0);
        assert_eq!(nearest_rank(1, 0.0), 0);
        assert_eq!(nearest_rank(1, 100.0), 0);
        assert_eq!(nearest_rank(5, 50.0), 2);
        assert_eq!(nearest_rank(5, 100.0), 4);
        assert_eq!(nearest_rank(5, -10.0), 0, "clamped below");
        assert_eq!(nearest_rank(5, 400.0), 4, "clamped above");
        assert_eq!(nearest_rank(4, 50.0), 2, "0.5 ranks round half-up");
        let r = std::panic::catch_unwind(|| nearest_rank(3, f64::NAN));
        assert!(r.is_err(), "NaN q panics even mid-range");
    }

    #[test]
    fn histogram_percentile_rejects_nan() {
        let mut h = Histogram::new();
        h.record(1);
        let r = std::panic::catch_unwind(move || h.percentile(f64::NAN));
        assert!(r.is_err());
    }

    #[test]
    fn registry_snapshot_is_insertion_order_independent() {
        let mut a = Registry::new();
        a.counter_add("z", 1);
        a.counter_add("a", 2);
        a.gauge_set("g2", 5);
        a.gauge_set("g1", 4);
        a.hist_record("h", 9);

        let mut b = Registry::new();
        b.hist_record("h", 9);
        b.gauge_set("g1", 4);
        b.gauge_set("g2", 5);
        b.counter_add("a", 2);
        b.counter_add("z", 1);

        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.counter("a"), 2);
        assert_eq!(a.counter("missing"), 0);
        assert_eq!(a.gauge("g1"), Some(4));
        assert_eq!(a.gauge("missing"), None);
        assert_eq!(a.hist("h").unwrap().count(), 1);
    }

    #[test]
    fn registry_merge_adds_counters_and_merges_hists() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.hist_record("h", 2);
        let mut b = Registry::new();
        b.counter_add("c", 2);
        b.hist_record("h", 4);
        b.gauge_set("g", 7);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(7));
        assert_eq!(a.hist("h").unwrap().count(), 2);
    }

    #[test]
    fn observe_metrics_exports_totals_and_round_hists() {
        let mut m = Metrics::default();
        m.push_round(RoundStats {
            messages: 3,
            total_bits: 12,
            max_message_bits: 6,
            ..Default::default()
        });
        m.push_round(RoundStats {
            messages: 1,
            total_bits: 4,
            max_message_bits: 4,
            ..Default::default()
        });
        let mut reg = Registry::new();
        reg.observe_metrics("engine", &m);
        assert_eq!(reg.counter("engine.rounds"), 2);
        assert_eq!(reg.counter("engine.total_bits"), 16);
        assert_eq!(reg.hist("engine.round_bits").unwrap().count(), 2);
        assert_eq!(reg.hist("engine.round_bits").unwrap().max(), 12);
    }

    #[test]
    fn sink_layout_and_strip_timing() {
        let mut sink = EventSink::new();
        let manifest = RunManifest {
            commit: "abc".into(),
            rustc: "rustc 1.75.0".into(),
            threads: 8,
            exec_mode: "pooled".into(),
            seed: 7,
            workload: "spec.json".into(),
        };
        sink.set_manifest(&manifest);
        let mut reg = Registry::new();
        reg.counter_add("jobs", 3);
        sink.emit(
            "fleet",
            reg.to_json(),
            Obj::new().raw("wall_ms", "12.5").finish(),
        );
        assert_eq!(sink.len(), 1);
        assert!(!sink.is_empty());

        let full = sink.to_jsonl();
        assert_eq!(full.lines().count(), 2);
        assert!(full.starts_with("{\"manifest\":{\"commit\":\"abc\""));
        assert!(full.contains("\"timing\":{\"wall_ms\":12.5}"));

        // Both deterministic views agree and carry no timing/manifest.
        let det = sink.deterministic_jsonl();
        assert_eq!(det, strip_timing(&full));
        assert!(!det.contains("timing"));
        assert!(!det.contains("manifest"));
        assert!(det.contains("\"jobs\":3"));

        // A second sink with different timings strips to the same bytes.
        let mut sink2 = EventSink::new();
        sink2.emit(
            "fleet",
            reg.to_json(),
            Obj::new().raw("wall_ms", "99.1").finish(),
        );
        assert_eq!(strip_timing(&sink2.to_jsonl()), det);
    }

    #[test]
    fn manifest_renders_all_fields() {
        let m = RunManifest {
            commit: "deadbeef".into(),
            rustc: "rustc 1.75.0 (abc 2023-12-21)".into(),
            threads: 4,
            exec_mode: "serial".into(),
            seed: 42,
            workload: "E17".into(),
        };
        let j = m.to_json();
        assert!(j.contains("\"commit\":\"deadbeef\""));
        assert!(j.contains("\"threads\":4"));
        assert!(j.contains("\"seed\":42"));
        assert!(j.contains("\"workload\":\"E17\""));
    }

    #[test]
    fn capture_produces_nonempty_fields() {
        let m = RunManifest::capture("pooled", 1, "w");
        assert!(!m.commit.is_empty());
        assert!(!m.rustc.is_empty());
        assert!(m.threads >= 1);
        assert_eq!(m.exec_mode, "pooled");
        assert_eq!(m.workload, "w");
    }

    #[test]
    fn timing_f64_is_fixed_precision() {
        assert_eq!(timing_f64(1.23456), "1.235");
        assert_eq!(timing_f64(0.0), "0.000");
        assert_eq!(quoted("a\"b"), "\"a\\\"b\"");
    }
}
