//! The `e2-tcp` workload: engine 2 (the paper's Algorithm 3.2) on a
//! two-rank world of `TcpTransport`s over loopback sockets, each rank a
//! thread of this process, edges hashed by the benchmark's sink.

use crate::engine::{self, Engine, EngineRun, RankRun, SCHEME, TRACE_REPS};
use crate::gen::{self, X};
use crate::measure::{self, ProbeSink, ProcIo};
use crate::report::Ctx;
use pa_core::par::{self, Msg};
use pa_core::{partition, GenOptions, PaConfig};
use pa_mpsim::Transport;
use pa_net::{TcpConfig, TcpTransport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Instant;

/// Nodes of the workload.
pub const N: u64 = 4_000_000;
/// Ranks of the TCP world.
pub const RANKS: usize = 2;

/// Bootstraps of an otherwise idle world the untraced run adds to the
/// per-operation ones: set-up takes milliseconds, so one sample per
/// operation would leave its median at the mercy of the scheduler.
pub const BOOT_REPS: usize = 24;

/// A loopback world that ran `rank_fn` on every rank.
struct World<R> {
    /// Seconds from binding the listeners until every rank is connected.
    bootstrap_s: f64,
    /// When the connected ranks were released.
    start: Instant,
    /// Process CPU seconds from that release until every rank returned.
    cpu_s: f64,
    /// Per rank: `rank_fn`'s result and the span of its connect call.
    ranks: Vec<(R, (Instant, Instant))>,
}

/// Bootstrap a loopback world, one thread per rank: each rank connects,
/// all meet at a barrier (the end of set-up), then each runs `rank_fn`
/// on its transport and closes it.
fn world<R: Send>(
    rank_fn: impl Fn(&mut TcpTransport<Msg>) -> R + Sync,
) -> Result<World<R>, String> {
    let boot = Instant::now();
    let peers = TcpConfig::local_world(RANKS).map_err(|e| e.to_string())?;
    let ready = Barrier::new(RANKS + 1);
    let (mut start, mut cpu0) = (Instant::now(), measure::cpu_time());
    let ranks = std::thread::scope(|s| {
        let handles: Vec<_> = peers
            .into_iter()
            .map(|(tcfg, listener)| {
                let (ready, rank_fn) = (&ready, &rank_fn);
                s.spawn(move || {
                    let c0 = Instant::now();
                    let conn = TcpTransport::<Msg>::connect_with_listener(tcfg, listener);
                    let c1 = Instant::now();
                    ready.wait();
                    let mut t = conn.map_err(|e| e.to_string())?;
                    Ok::<_, String>((rank_fn(&mut t), (c0, c1)))
                })
            })
            .collect();
        ready.wait();
        (start, cpu0) = (Instant::now(), measure::cpu_time());
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a TCP rank panicked".into()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(World {
        bootstrap_s: (start - boot).as_secs_f64(),
        start,
        cpu_s: (measure::cpu_time() - cpu0).as_secs_f64(),
        ranks,
    })
}

/// One TCP generation: the world's bootstrap and its engine run.
struct TcpOp {
    bootstrap_s: f64,
    /// The slowest rank's `connect_with_listener` call, seconds.
    connect_s: f64,
    /// The engine run, from the release of the connected ranks.
    run: EngineRun,
    /// Process CPU seconds of the run, including closing the world.
    cpu_s: f64,
    /// `(start, end)` of each rank's connect call.
    connects: Vec<(Instant, Instant)>,
}

/// Run engine 2 on a fresh loopback world. Each rank generates, meets
/// the others at a transport barrier, and closes.
fn tcp_op(cfg: &PaConfig, opts: &GenOptions, clocked: bool) -> Result<TcpOp, String> {
    let part = partition::build(SCHEME, cfg.n, RANKS);
    let w = world(|t| {
        let sink = ProbeSink::new(clocked);
        let (sink, counters) = par::generate_rank_streaming(cfg, &part, opts, t, sink);
        let returned = Instant::now();
        t.barrier();
        RankRun {
            sink,
            counters,
            comm: t.stats().clone(),
            returned,
        }
    })?;
    let connects: Vec<(Instant, Instant)> = w.ranks.iter().map(|(_, c)| *c).collect();
    let connect_s = connects
        .iter()
        .map(|(a, b)| (*b - *a).as_secs_f64())
        .fold(0.0, f64::max);
    let ranks: Vec<RankRun> = w.ranks.into_iter().map(|(r, _)| r).collect();
    let end = ranks.iter().map(|r| r.returned).max().unwrap_or(w.start);
    Ok(TcpOp {
        bootstrap_s: w.bootstrap_s,
        connect_s,
        run: EngineRun {
            start: w.start,
            end,
            ranks,
        },
        cpu_s: w.cpu_s,
        connects,
    })
}

/// One checked TCP operation; `None` (and a counted failure) when it
/// errs, panics or yields the wrong edges.
fn checked_op(
    ctx: &mut Ctx,
    cfg: &PaConfig,
    oracle: measure::EdgeSetHash,
    clocked: bool,
) -> Option<TcpOp> {
    let opts = GenOptions::default();
    let op = catch_unwind(AssertUnwindSafe(|| tcp_op(cfg, &opts, clocked)))
        .unwrap_or_else(|_| Err("the TCP run panicked".into()));
    let result = op.and_then(|op| {
        if op.run.hash() == oracle {
            Ok(op)
        } else {
            Err("edge set differs from the copy-model oracle".into())
        }
    });
    match result {
        Ok(op) => {
            ctx.check(true, String::new);
            Some(op)
        }
        Err(e) => {
            ctx.check(false, || format!("e2-tcp: {e}"));
            None
        }
    }
}

/// Σsent − Σrecv over the world's transports. Not a failure: it is the
/// hub-cache broadcast defect (untracked broadcasts may still be in
/// flight when a rank counts its stats); the edge check covers output.
fn unaccounted(run: &EngineRun) -> i64 {
    run.ranks
        .iter()
        .map(|r| r.comm.msgs_sent as i64 - r.comm.msgs_recv as i64)
        .sum()
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) {
    let cfg = PaConfig {
        n: N,
        x: X,
        p: 0.5,
        seed: ctx.seed,
    };
    let (oracle, model_s) = gen::oracle(&cfg);
    ctx.set("core.seq.copy_model_s", model_s);
    measure::reset_peak_rss();
    if ctx.traced() {
        traced(ctx, &cfg, oracle);
        return;
    }
    let mut boots = Vec::new();
    for _ in 0..BOOT_REPS {
        let boot = world(|_| ()).map(|w| w.bootstrap_s);
        if ctx.check(boot.is_ok(), || format!("e2-tcp bootstrap: {boot:?}")) {
            boots.extend(boot);
        }
    }
    let (mut walls, mut cpus, mut lost) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        if let Some(op) = checked_op(ctx, &cfg, oracle, false) {
            walls.push(op.run.secs());
            cpus.push(op.cpu_s);
            boots.push(op.bootstrap_s);
            lost.push(unaccounted(&op.run));
        }
    }
    ctx.notes.push(format!(
        "net.msgs_unaccounted per operation (not a failure): {lost:?}"
    ));
    ctx.set("setup_s", measure::median(&boots));
    ctx.set(
        "edges_per_s",
        cfg.expected_edges() as f64 / measure::median(&walls),
    );
    ctx.set("cpu_s", measure::median(&cpus));
    ctx.set(
        "fetches_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    ctx.set_latency(&walls);
    ctx.set("peak_rss_mb", measure::peak_rss_mb());
}

/// The traced run: [`TRACE_REPS`] rounds of the TCP world without and
/// with clocked sinks, then the same engine over in-process channels at
/// P=2 and P=1; every timing is the median of its calls.
fn traced(ctx: &mut Ctx, cfg: &PaConfig, oracle: measure::EdgeSetHash) {
    gen::time_draws(ctx, cfg);
    let opts = GenOptions::default();
    let (mut plain, mut ops, mut chans, mut p1s) = (vec![], vec![], vec![], vec![]);
    for _ in 0..TRACE_REPS {
        plain.extend(checked_op(ctx, cfg, oracle, false).map(|op| op.run.secs()));
        if let Some(op) = checked_op(ctx, cfg, oracle, true) {
            let root = engine::record_spans(&mut ctx.tracer, "net.tcp_run", &op.run);
            for (rank, (a, b)) in op.connects.iter().enumerate() {
                ctx.tracer
                    .record(root, &format!("rank{rank}.connect"), *a, *b);
            }
            ops.push(op);
        }
        let io0 = ProcIo::now();
        let chan = engine::in_process(Engine::Two, cfg, RANKS, &opts, true);
        let io = ProcIo::now().since(io0);
        ctx.check(chan.hash() == oracle, || {
            "e2 over channels: wrong edge set".into()
        });
        engine::record_spans(&mut ctx.tracer, "core.par.engine", &chan);
        chans.push((chan.secs(), io));
        let p1 = engine::in_process(Engine::Two, cfg, 1, &opts, true);
        ctx.check(p1.hash() == oracle, || "e2 P=1: wrong edge set".into());
        engine::record_spans(&mut ctx.tracer, "core.par.engine_p1", &p1);
        p1s.push(p1.secs());
    }
    if ops.is_empty() {
        return;
    }
    let op = engine::median_of(ops, |op| op.run.secs());
    let (chan, io) = engine::median_of(chans, |c| c.0);
    let p1 = measure::median(&p1s);
    engine::set_layer_metrics(ctx, &op.run, cfg);
    ctx.set("net.connect_s", op.connect_s);
    ctx.set("trace.overhead_s", op.run.secs() - measure::median(&plain));
    ctx.set("core.par.engine_s", chan);
    ctx.set("net.transport_s", op.run.secs() - chan);
    ctx.set("core.store.read_bytes", io.rchar as f64);
    ctx.set("core.store.write_bytes", io.wchar as f64);
    ctx.set("core.store.syscalls", (io.syscr + io.syscw) as f64);
    ctx.set("core.store.resident_s", chan);
    ctx.set("core.par.engine_p1_s", p1);
    ctx.set("core.par.speedup", p1 / chan);
}
