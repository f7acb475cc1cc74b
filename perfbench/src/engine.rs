//! Calls into the engines (`pa_core::par`) with the benchmark's sinks,
//! and the per-layer metrics read off their results.

use crate::measure::{EdgeSetHash, ProbeSink, TimedWriter, WriteTally};
use crate::report::Ctx;
use crate::trace::Tracer;
use pa_core::par::{self, EngineCounters, StreamingWriterSink};
use pa_core::partition::Scheme;
use pa_core::{GenOptions, PaConfig};
use pa_graph::io::EdgeFormat;
use pa_mpsim::CommStats;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every workload lays nodes out round-robin, as `pagen` does by default.
pub const SCHEME: Scheme = Scheme::Rrp;

/// Times the traced run repeats each layer call; single calls vary by
/// ±15% on a shared host, so each timing is the median of these.
pub const TRACE_REPS: usize = 3;

/// The element of `runs` with the median `secs` (the upper one of an
/// even count).
///
/// # Panics
///
/// Panics when `runs` is empty.
pub fn median_of<T>(mut runs: Vec<T>, secs: impl Fn(&T) -> f64) -> T {
    runs.sort_by(|a, b| secs(a).total_cmp(&secs(b)));
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

/// Which engine a call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Algorithm 3.2: request/resolve messages between ranks.
    Two,
    /// Communication-free local chain recomputation.
    Three,
}

/// One rank's share of an engine call.
#[derive(Debug)]
pub struct RankRun {
    /// The benchmark's sink after the rank's last edge.
    pub sink: ProbeSink,
    /// The engine's counters for the rank.
    pub counters: EngineCounters,
    /// The rank's transport statistics.
    pub comm: CommStats,
    /// When the rank's engine call returned.
    pub returned: Instant,
}

/// One engine call over all ranks.
#[derive(Debug)]
pub struct EngineRun {
    /// When the call started.
    pub start: Instant,
    /// When the last rank's call returned.
    pub end: Instant,
    /// Per-rank results, by rank.
    pub ranks: Vec<RankRun>,
}

impl EngineRun {
    /// Wall time of the call.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Edge-set fingerprint over all ranks.
    pub fn hash(&self) -> EdgeSetHash {
        self.ranks
            .iter()
            .map(|r| r.sink.hash)
            .fold(EdgeSetHash::default(), EdgeSetHash::merge)
    }
}

/// Run `engine` on an in-process world of `ranks` ranks into
/// [`ProbeSink`]s.
pub fn in_process(
    engine: Engine,
    cfg: &PaConfig,
    ranks: usize,
    opts: &GenOptions,
    clocked: bool,
) -> EngineRun {
    let make = |_rank: usize| ProbeSink::new(clocked);
    let start = Instant::now();
    let outs = match engine {
        Engine::Two => par::generate_streaming(cfg, SCHEME, ranks, opts, make),
        Engine::Three => par::generate3_streaming(cfg, SCHEME, ranks, opts, make),
    };
    let end = Instant::now();
    EngineRun {
        start,
        end,
        ranks: outs
            .into_iter()
            .map(|o| RankRun {
                sink: o.sink,
                counters: o.counters,
                comm: o.comm,
                returned: end,
            })
            .collect(),
    }
}

/// Run engine3 into `StreamingWriterSink`s over [`TimedWriter`]-wrapped
/// part files in `dir` (deleted afterwards): the CLI's engine call
/// without its merge and `sync_all`. Returns the wall time, the write
/// tally and the edges written.
///
/// # Panics
///
/// Panics when a part file cannot be created or written.
pub fn into_timed_files(
    cfg: &PaConfig,
    ranks: usize,
    opts: &GenOptions,
    dir: &Path,
) -> (Duration, Arc<WriteTally>, u64) {
    let tally = Arc::new(WriteTally::default());
    let part = |rank: usize| dir.join(format!("timed.part{rank}"));
    let make = |rank: usize| {
        let f = std::fs::File::create(part(rank)).expect("create a timed part file");
        StreamingWriterSink::new(TimedWriter::new(f, tally.clone()), EdgeFormat::Binary)
    };
    let start = Instant::now();
    let outs = par::generate3_streaming(cfg, SCHEME, ranks, opts, make);
    let mut edges = 0;
    for o in outs {
        edges += o.sink.finish().expect("flush a timed part file");
    }
    let wall = start.elapsed();
    for rank in 0..ranks {
        let _ = std::fs::remove_file(part(rank));
    }
    (wall, tally, edges)
}

/// Sum two ranks' counters: additive ones add, peaks take the maximum.
fn add_counters(a: EngineCounters, b: &EngineCounters) -> EngineCounters {
    EngineCounters {
        chain_rows_recomputed: a.chain_rows_recomputed + b.chain_rows_recomputed,
        chain_memo_hits: a.chain_memo_hits + b.chain_memo_hits,
        chain_peak_depth: a.chain_peak_depth.max(b.chain_peak_depth),
        requests_sent: a.requests_sent + b.requests_sent,
        requests_queued: a.requests_queued + b.requests_queued,
        hub_hits: a.hub_hits + b.hub_hits,
        duplicate_retries: a.duplicate_retries + b.duplicate_retries,
        max_queued_waiters: a.max_queued_waiters.max(b.max_queued_waiters),
        ..a
    }
}

/// Set the rank-balance, engine-counter and transport metrics of `run`.
pub fn set_layer_metrics(ctx: &mut Ctx, run: &EngineRun, cfg: &PaConfig) {
    let last = |r: &RankRun| r.sink.clock.map_or(run.start, |(_, l)| l);
    for (rank, r) in run.ranks.iter().enumerate().take(2) {
        let busy = r.sink.clock.map_or(0.0, |(f, l)| (l - f).as_secs_f64());
        ctx.set(
            ["core.par.rank0_busy_s", "core.par.rank1_busy_s"][rank],
            busy,
        );
    }
    let ends: Vec<Instant> = run.ranks.iter().map(last).collect();
    let (lo, hi) = (ends.iter().min(), ends.iter().max());
    if let (Some(lo), Some(hi)) = (lo, hi) {
        ctx.set("core.par.rank_skew_s", (*hi - *lo).as_secs_f64());
    }
    let wait = run
        .ranks
        .iter()
        .map(|r| r.returned.saturating_duration_since(last(r)).as_secs_f64())
        .fold(0.0, f64::max);
    ctx.set("mpsim.termination_wait_s", wait);

    let c = run.ranks.iter().fold(EngineCounters::default(), |acc, r| {
        add_counters(acc, &r.counters)
    });
    let recomputed = c.chain_rows_recomputed as f64;
    ctx.set("core.par.chain_rows_recomputed", recomputed);
    ctx.set("core.par.chain_memo_hits", c.chain_memo_hits as f64);
    ctx.set("core.par.chain_peak_depth", c.chain_peak_depth as f64);
    ctx.set(
        "core.par.useful_row_ratio",
        cfg.n as f64 / (cfg.n as f64 + recomputed),
    );
    ctx.set("core.par.requests_sent", c.requests_sent as f64);
    ctx.set("core.par.requests_queued", c.requests_queued as f64);
    ctx.set("core.par.hub_hits", c.hub_hits as f64);
    ctx.set("core.par.duplicate_retries", c.duplicate_retries as f64);
    ctx.set("core.par.max_queued_waiters", c.max_queued_waiters as f64);
    ctx.set("rng.draws", (cfg.x as f64) * (cfg.n as f64 + recomputed));

    let sum = |f: fn(&CommStats) -> u64| run.ranks.iter().map(|r| f(&r.comm)).sum::<u64>();
    let (sent, recv, packets) = (
        sum(|s| s.msgs_sent),
        sum(|s| s.msgs_recv),
        sum(|s| s.packets_sent),
    );
    let (hits, misses) = (sum(|s| s.pool_hits), sum(|s| s.pool_misses));
    ctx.set("mpsim.msgs_sent", sent as f64);
    ctx.set("mpsim.msgs_recv", recv as f64);
    ctx.set("mpsim.packets_sent", packets as f64);
    ctx.set("mpsim.msgs_per_packet", ratio(sent, packets));
    ctx.set("mpsim.pool_hit_ratio", ratio(hits, hits + misses));
    ctx.set("net.msgs_unaccounted", sent as f64 - recv as f64);
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Record `run` as a root span `name` with, per rank, a child span from
/// its first to its last emitted edge and one for its termination wait
/// (last edge to the rank's return).
pub fn record_spans(tracer: &mut Tracer, name: &str, run: &EngineRun) -> Option<u32> {
    let root = tracer.record(None, name, run.start, run.end)?;
    for (rank, r) in run.ranks.iter().enumerate() {
        if let Some((first, last)) = r.sink.clock {
            tracer.record(Some(root), &format!("rank{rank}"), first, last);
            tracer.record(
                Some(root),
                &format!("rank{rank}.termination_wait"),
                last,
                r.returned,
            );
        }
    }
    Some(root)
}
