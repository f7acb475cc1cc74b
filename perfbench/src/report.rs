//! The run context every workload reports through, the metric tables
//! (mirrored by `BENCHMARK.json`), and the result line.

use crate::measure::{self, Tail};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, `(name, unit)`, reported by the untraced run of
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("edges_per_s", "edges/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("fetch_ms_p50", "ms"),
    ("fetch_ms_tail", "ms"),
    ("fetches_per_s", "1/s"),
];

/// Per-layer metrics, `(name, unit)`, reported by the traced run of
/// every workload; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cli.generate_s", "s"),
    ("cli.output_s", "s"),
    ("graph.io.write_s", "s"),
    ("graph.io.write_calls", "count"),
    ("graph.io.bytes", "bytes"),
    ("core.par.engine_s", "s"),
    ("core.par.engine_p1_s", "s"),
    ("core.par.speedup", "ratio"),
    ("core.par.rank0_busy_s", "s"),
    ("core.par.rank1_busy_s", "s"),
    ("core.par.rank_skew_s", "s"),
    ("core.par.chain_rows_recomputed", "count"),
    ("core.par.chain_memo_hits", "count"),
    ("core.par.chain_peak_depth", "count"),
    ("core.par.useful_row_ratio", "ratio"),
    ("core.par.requests_sent", "count"),
    ("core.par.requests_queued", "count"),
    ("core.par.hub_hits", "count"),
    ("core.par.duplicate_retries", "count"),
    ("core.par.max_queued_waiters", "count"),
    ("mpsim.msgs_sent", "count"),
    ("mpsim.msgs_recv", "count"),
    ("mpsim.packets_sent", "count"),
    ("mpsim.msgs_per_packet", "ratio"),
    ("mpsim.pool_hit_ratio", "ratio"),
    ("mpsim.termination_wait_s", "s"),
    ("net.connect_s", "s"),
    ("net.transport_s", "s"),
    ("net.msgs_unaccounted", "count"),
    ("core.store.paged_s", "s"),
    ("core.store.resident_s", "s"),
    ("core.store.slowdown", "ratio"),
    ("core.store.read_bytes", "bytes"),
    ("core.store.write_bytes", "bytes"),
    ("core.store.syscalls", "count"),
    ("core.seq.copy_model_s", "s"),
    ("rng.ns_per_draw", "ns"),
    ("rng.draws", "count"),
    ("net.serve.hot_fetch_ms_p50", "ms"),
    ("net.serve.cold_fetch_ms_p50", "ms"),
    ("net.serve.stream_mb_per_s", "MB/s"),
    ("net.serve.jobs_run", "count"),
    ("net.serve.jobs_coalesced", "count"),
    ("net.serve.rejects", "count"),
    ("net.serve.bytes_streamed", "bytes"),
    ("net.serve.hit_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// State shared by one run of one workload.
pub struct Ctx {
    /// The workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Spans of the traced run (disabled in the untraced run).
    pub tracer: Tracer,
    /// Scratch directory for this run's files, removed at the end.
    pub dir: PathBuf,
    /// Operations attempted and failed (errors, panics, failed checks).
    pub attempted: u64,
    /// See [`Ctx::attempted`].
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Ctx {
    /// A fresh context.
    pub fn new(seed: u64, seconds: f64, trace: bool, dir: PathBuf) -> Ctx {
        Ctx {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            dir,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Set metric `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Count one operation; returns `ok`. A failure is noted with `why`
    /// and counted, never aborting the run.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", why()));
        }
        ok
    }

    /// Set the latency-shaped end-to-end metrics from per-operation wall
    /// times in seconds, noting which percentile the tail is.
    pub fn set_latency(&mut self, walls_s: &[f64]) {
        let ms: Vec<f64> = walls_s.iter().map(|w| w * 1e3).collect();
        let t: Tail = measure::tail(&ms);
        self.set("fetch_ms_p50", measure::median(&ms));
        self.set("fetch_ms_tail", t.value);
        self.notes.push(format!(
            "fetch_ms_tail is p{} of {} samples ({} beyond it)",
            t.percentile, t.samples, t.beyond
        ));
        if ms.len() <= 20 {
            let each: Vec<String> = ms.iter().map(|m| format!("{m:.0}")).collect();
            self.notes.push(format!("operation ms: {}", each.join(" ")));
        } else {
            let [q1, q2, q3] = measure::quartiles(&ms);
            self.notes.push(format!(
                "operation ms quartiles: {q1:.1} / {q2:.1} / {q3:.1}"
            ));
        }
    }

    /// The result line: one JSON object with the metrics of `table`.
    pub fn result_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics the runs print.
    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut ctx = Ctx::new(1, 1.0, false, PathBuf::from("unused"));
        assert!(ctx.check(true, String::new));
        ctx.set("cpu_s", 1.25);
        let line = ctx.result_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!ctx.check(false, || "bad".into()));
        assert!(ctx
            .result_json(END_TO_END)
            .starts_with("{\"correct\": false"));
    }
}
