//! Distributed-memory parallel PA generation (paper §3.2–§3.3).
//!
//! Entry points:
//!
//! * [`generate`] — Algorithm 3.2, the general `x ≥ 1` engine.
//! * [`generate_x1`] — Algorithm 3.1, the dedicated `x = 1` engine with
//!   the paper's two-field messages.
//! * [`generate3`] — the communication-free engine: every copy chain is
//!   recomputed locally from the counter-based draws, with zero
//!   request/resolved traffic.
//! * [`generate_with`] / [`generate3_with`] — the same over a
//!   caller-supplied [`Partition`] (for custom layouts beyond
//!   UCP/LCP/RRP/BCP).
//! * [`generate_streaming`] / [`generate_x1_streaming`] /
//!   [`generate3_streaming`] — the same engines delivering every edge to
//!   a caller-built [`EdgeSink`] instead of materializing per-rank edge
//!   lists.
//!
//! Architecturally the module is three layers:
//!
//! * `driver` — the single service/flush/park/termination loop shared
//!   by all algorithms, generic over the transport and the sink;
//! * `engine1` / `engine2` / `engine3` — the per-node state machines
//!   (Algorithms 3.1, 3.2, and local chain recomputation), plugged into
//!   the driver as strategies;
//! * [`EdgeSink`] — where edges go: materialized lists, counters, degree
//!   folds, or streaming disk writers.
//!
//! Multi-rank runs spawn a `pa-mpsim` world (one thread per rank);
//! single-rank runs execute on the calling thread over a thread-free
//! [`pa_mpsim::LoopbackTransport`].

mod checkpoint;
mod degrees;
mod driver;
mod msg;
mod output;
mod restart;
mod sink;
mod strategy;

pub use checkpoint::{CheckpointMeta, CheckpointStore, SavedCheckpoint};
pub use degrees::{distributed_degrees, merge_degrees};
pub use msg::{Msg, Msg1};
pub use output::{EngineCounters, ParallelOutput, RankOutput};
pub use restart::WorldCheckpoint;
pub use sink::{CountSink, DegreeCountSink, EdgeSink, StreamingWriterSink};
pub use strategy::ChainMemoLayout;

use crate::partition::{self, AnyPartition, Partition, Scheme};
use crate::{GenOptions, PaConfig};
use pa_graph::EdgeList;
use pa_mpsim::{CommStats, FaultTransport, LoopbackTransport, Transport, World};

/// Run a strategy over a transport, wrapping it in a fault-injecting
/// decorator first when `opts.fault_plan` asks for one; returns the
/// finished strategy and the transport's final statistics.
fn drive<P, T, A>(part: &P, x: u64, opts: &GenOptions, mut comm: T, algo: A) -> (A, CommStats)
where
    P: Partition,
    A: strategy::Strategy,
    A::Msg: Clone,
    T: Transport<A::Msg>,
{
    match opts.fault_plan {
        Some(plan) => {
            let mut faulty = FaultTransport::new(comm, plan);
            let algo = driver::run(part, x, opts, &mut faulty, algo);
            (algo, faulty.into_stats())
        }
        None => {
            let algo = driver::run(part, x, opts, &mut comm, algo);
            (algo, comm.into_stats())
        }
    }
}

/// Run the general (Alg. 3.2) strategy on every rank of `part`,
/// collecting `(sink, counters, comm stats)` in rank order. `P = 1` runs
/// on the calling thread over a loopback transport; larger worlds spawn
/// one thread per rank.
fn run_general<P, S, F>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    make_sink: F,
) -> Vec<(S, output::EngineCounters, CommStats)>
where
    P: Partition,
    S: EdgeSink + Send,
    F: Fn(usize) -> S + Send + Sync,
{
    let nranks = part.nranks();
    if nranks == 1 {
        let algo = strategy::General::new(cfg, part, 0, 1, opts, make_sink(0));
        let (algo, stats) = drive(part, cfg.x, opts, LoopbackTransport::new(), algo);
        let (sink, counters) = algo.into_parts();
        vec![(sink, counters, stats)]
    } else {
        World::new(nranks).run(|comm| {
            let rank = comm.rank();
            let algo = strategy::General::new(cfg, part, rank, nranks, opts, make_sink(rank));
            let (algo, stats) = drive(part, cfg.x, opts, comm, algo);
            let (sink, counters) = algo.into_parts();
            (sink, counters, stats)
        })
    }
}

/// Run the communication-free chain-recomputation strategy on every rank
/// of `part`; same transport selection as [`run_general`].
fn run_general3<P, S, F>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    make_sink: F,
) -> Vec<(S, output::EngineCounters, CommStats)>
where
    P: Partition,
    S: EdgeSink + Send,
    F: Fn(usize) -> S + Send + Sync,
{
    let nranks = part.nranks();
    if nranks == 1 {
        let algo = strategy::Chain::new(cfg, part, 0, opts, make_sink(0));
        let (algo, stats) = drive(part, cfg.x, opts, LoopbackTransport::new(), algo);
        let (sink, counters) = algo.into_parts();
        vec![(sink, counters, stats)]
    } else {
        World::new(nranks).run(|comm| {
            let rank = comm.rank();
            let algo = strategy::Chain::new(cfg, part, rank, opts, make_sink(rank));
            let (algo, stats) = drive(part, cfg.x, opts, comm, algo);
            let (sink, counters) = algo.into_parts();
            (sink, counters, stats)
        })
    }
}

/// Run the `x = 1` (Alg. 3.1) strategy on every rank of `part`; same
/// transport selection as [`run_general`].
fn run_x1<P, S, F>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    make_sink: F,
) -> Vec<(S, output::EngineCounters, CommStats)>
where
    P: Partition,
    S: EdgeSink + Send,
    F: Fn(usize) -> S + Send + Sync,
{
    let nranks = part.nranks();
    if nranks == 1 {
        let algo = strategy::X1::new(cfg, part, 0, opts, make_sink(0));
        let (algo, stats) = drive(part, cfg.x, opts, LoopbackTransport::new(), algo);
        let (sink, counters) = algo.into_parts();
        vec![(sink, counters, stats)]
    } else {
        World::new(nranks).run(|comm| {
            let rank = comm.rank();
            let algo = strategy::X1::new(cfg, part, rank, opts, make_sink(rank));
            let (algo, stats) = drive(part, cfg.x, opts, comm, algo);
            let (sink, counters) = algo.into_parts();
            (sink, counters, stats)
        })
    }
}

fn to_rank_outputs(parts: Vec<(EdgeList, output::EngineCounters, CommStats)>) -> Vec<RankOutput> {
    parts
        .into_iter()
        .enumerate()
        .map(|(rank, (edges, counters, comm))| RankOutput {
            rank,
            edges,
            counters,
            comm,
        })
        .collect()
}

/// Generate a PA network with Algorithm 3.2 on `nranks` ranks using one
/// of the standard partitioning schemes.
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts` or `nranks == 0`.
pub fn generate(
    cfg: &PaConfig,
    scheme: Scheme,
    nranks: usize,
    opts: &GenOptions,
) -> ParallelOutput {
    let part = partition::build(scheme, cfg.n, nranks);
    let mut out = generate_with(cfg, &part, opts);
    out.scheme = Some(scheme);
    out
}

/// Generate with Algorithm 3.2 over an explicit partition.
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts`, or if the partition's node count does
/// not match `cfg.n`.
pub fn generate_with<P: Partition>(cfg: &PaConfig, part: &P, opts: &GenOptions) -> ParallelOutput {
    cfg.validate();
    opts.validate_for(cfg.n);
    assert_eq!(
        part.num_nodes(),
        cfg.n,
        "partition does not cover cfg.n nodes"
    );
    let parts = run_general(cfg, part, opts, |rank| {
        EdgeList::with_capacity((part.size_of(rank) * cfg.x + cfg.x * cfg.x) as usize)
    });
    ParallelOutput {
        cfg: *cfg,
        scheme: None,
        ranks: to_rank_outputs(parts),
    }
}

/// Generate a PA network with the communication-free engine (engine3) on
/// `nranks` ranks: every copy dependency is recomputed locally from the
/// counter-based draws instead of resolved over the wire, so no rank
/// sends a single algorithm message. Bit-identical to [`generate`] for
/// every rank count, scheme, and transport.
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts` or `nranks == 0`.
pub fn generate3(
    cfg: &PaConfig,
    scheme: Scheme,
    nranks: usize,
    opts: &GenOptions,
) -> ParallelOutput {
    let part = partition::build(scheme, cfg.n, nranks);
    let mut out = generate3_with(cfg, &part, opts);
    out.scheme = Some(scheme);
    out
}

/// Generate with the communication-free engine over an explicit
/// partition.
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts`, or if the partition's node count does
/// not match `cfg.n`.
pub fn generate3_with<P: Partition>(cfg: &PaConfig, part: &P, opts: &GenOptions) -> ParallelOutput {
    cfg.validate();
    opts.validate_for(cfg.n);
    assert_eq!(
        part.num_nodes(),
        cfg.n,
        "partition does not cover cfg.n nodes"
    );
    let parts = run_general3(cfg, part, opts, |rank| {
        EdgeList::with_capacity((part.size_of(rank) * cfg.x + cfg.x * cfg.x) as usize)
    });
    ParallelOutput {
        cfg: *cfg,
        scheme: None,
        ranks: to_rank_outputs(parts),
    }
}

/// One rank's result from a streaming run: the caller's sink plus the
/// usual traffic and algorithm reports.
#[derive(Debug, Clone)]
pub struct StreamRankOutput<S> {
    /// The rank id.
    pub rank: usize,
    /// The caller-provided sink, after receiving every edge of this
    /// rank's partition.
    pub sink: S,
    /// Transport statistics.
    pub comm: CommStats,
    /// Algorithm counters.
    pub counters: EngineCounters,
}

fn to_stream_outputs<S>(
    parts: Vec<(S, output::EngineCounters, CommStats)>,
) -> Vec<StreamRankOutput<S>> {
    parts
        .into_iter()
        .enumerate()
        .map(|(rank, (sink, counters, comm))| StreamRankOutput {
            rank,
            sink,
            counters,
            comm,
        })
        .collect()
}

/// Generate with Algorithm 3.2, streaming each rank's edges into a sink
/// built by `make_sink(rank)` instead of materializing edge lists — the
/// "generate on the fly and analyze without disk I/O" mode of §3.2.
/// Resident memory is the engine state plus whatever the sink keeps:
/// `O(n/P)` slot words per rank, not `O(m)` edges.
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts` or `nranks == 0`.
///
/// # Example
///
/// ```
/// use pa_core::{PaConfig, par, partition::Scheme};
///
/// // Degree distribution of a network without storing a single edge.
/// let cfg = PaConfig::new(20_000, 3).with_seed(9);
/// let outs = par::generate_streaming(&cfg, Scheme::Rrp, 4, &Default::default(),
///     |_rank| par::DegreeCountSink::new(cfg.n));
/// let deg = par::DegreeCountSink::merge(outs.into_iter().map(|o| o.sink));
/// assert_eq!(deg.iter().sum::<u64>(), 2 * cfg.expected_edges());
/// ```
pub fn generate_streaming<S, F>(
    cfg: &PaConfig,
    scheme: Scheme,
    nranks: usize,
    opts: &GenOptions,
    make_sink: F,
) -> Vec<StreamRankOutput<S>>
where
    S: EdgeSink + Send,
    F: Fn(usize) -> S + Send + Sync,
{
    cfg.validate();
    opts.validate_for(cfg.n);
    let part = partition::build(scheme, cfg.n, nranks);
    to_stream_outputs(run_general(cfg, &part, opts, make_sink))
}

/// Generate with the communication-free engine, streaming each rank's
/// edges into a sink built by `make_sink(rank)` — the engine3 counterpart
/// of [`generate_streaming`].
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts` or `nranks == 0`.
pub fn generate3_streaming<S, F>(
    cfg: &PaConfig,
    scheme: Scheme,
    nranks: usize,
    opts: &GenOptions,
    make_sink: F,
) -> Vec<StreamRankOutput<S>>
where
    S: EdgeSink + Send,
    F: Fn(usize) -> S + Send + Sync,
{
    cfg.validate();
    opts.validate_for(cfg.n);
    let part = partition::build(scheme, cfg.n, nranks);
    to_stream_outputs(run_general3(cfg, &part, opts, make_sink))
}

/// Generate with Algorithm 3.1 (requires `cfg.x == 1`), streaming each
/// rank's edges into a sink built by `make_sink(rank)`.
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts`, `nranks == 0`, or `cfg.x != 1`.
pub fn generate_x1_streaming<S, F>(
    cfg: &PaConfig,
    scheme: Scheme,
    nranks: usize,
    opts: &GenOptions,
    make_sink: F,
) -> Vec<StreamRankOutput<S>>
where
    S: EdgeSink + Send,
    F: Fn(usize) -> S + Send + Sync,
{
    cfg.validate();
    opts.validate_for(cfg.n);
    assert_eq!(cfg.x, 1, "generate_x1 implements Algorithm 3.1 (x = 1)");
    let part: AnyPartition = partition::build(scheme, cfg.n, nranks);
    to_stream_outputs(run_x1(cfg, &part, opts, make_sink))
}

/// Run Algorithm 3.2 for **one rank of an external world**, over a
/// caller-supplied [`Transport`] — the entry point for multi-*process*
/// backends (`pa-net`'s `TcpTransport`, eventually real MPI), where each
/// OS process executes exactly one rank and the in-process world
/// spawning of [`generate_streaming`] does not apply.
///
/// The rank and world size come from the transport; the partition must
/// cover `cfg.n` nodes across `comm.nranks()` ranks. Edges stream into
/// `sink` exactly as in [`generate_streaming`]. The transport is
/// borrowed, not consumed, so the caller can keep using its collectives
/// afterwards (stats aggregation, output coordination); read the final
/// traffic counts from [`Transport::stats`].
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts`, a partition/transport shape mismatch,
/// or when `opts.fault_plan` is set (fault injection wraps a transport
/// whole — apply it outside before calling).
pub fn generate_rank_streaming<P, S, T>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    comm: &mut T,
    sink: S,
) -> (S, EngineCounters)
where
    P: Partition,
    S: EdgeSink,
    T: Transport<Msg>,
{
    cfg.validate();
    opts.validate_for(cfg.n);
    assert!(
        opts.fault_plan.is_none(),
        "fault injection must wrap the transport before generate_rank_streaming"
    );
    assert_eq!(
        part.num_nodes(),
        cfg.n,
        "partition does not cover cfg.n nodes"
    );
    assert_eq!(
        part.nranks(),
        comm.nranks(),
        "partition rank count does not match the transport world"
    );
    let algo = strategy::General::new(cfg, part, comm.rank(), comm.nranks(), opts, sink);
    let algo = driver::run(part, cfg.x, opts, comm, algo);
    algo.into_parts()
}

/// [`generate_rank_streaming`] with coordinated checkpoint/restart: when
/// `store` is given and `opts.checkpoint_interval` is set, every epoch
/// boundary writes an atomic per-rank checkpoint into the store; when
/// `resume` is given, the engine is restored from that saved epoch and
/// generation continues from the first label after its watermark.
///
/// The caller owns the surrounding recovery protocol: agreeing on a
/// common resume epoch across ranks (e.g. an `allreduce` over
/// [`CheckpointStore::latest`]), truncating part files back to the saved
/// `(edges, bytes)` watermark, and handing in a sink positioned at that
/// watermark (see [`StreamingWriterSink::resume`]).
///
/// # Panics
///
/// Panics as [`generate_rank_streaming`] does, and additionally when
/// `store`/`resume` are supplied without `opts.checkpoint_interval`, or
/// when the resumed checkpoint does not line up with the epoch grid.
pub fn generate_rank_streaming_recoverable<P, S, T>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    comm: &mut T,
    sink: S,
    store: Option<&CheckpointStore>,
    resume: Option<&SavedCheckpoint>,
) -> (S, EngineCounters)
where
    P: Partition,
    S: EdgeSink,
    T: Transport<Msg>,
{
    cfg.validate();
    opts.validate_for(cfg.n);
    assert!(
        opts.fault_plan.is_none(),
        "fault injection must wrap the transport before generate_rank_streaming_recoverable"
    );
    assert!(
        (store.is_none() && resume.is_none()) || opts.checkpoint_interval.is_some(),
        "checkpoint store/resume require GenOptions::checkpoint_interval"
    );
    assert_eq!(
        part.num_nodes(),
        cfg.n,
        "partition does not cover cfg.n nodes"
    );
    assert_eq!(
        part.nranks(),
        comm.nranks(),
        "partition rank count does not match the transport world"
    );
    // Resuming keeps (and re-verifies) a paged store's spill files; a
    // fresh run must start from clean pages.
    let mut opts = opts.clone();
    opts.store = opts.store.with_resume(resume.is_some());
    let algo = strategy::General::new(cfg, part, comm.rank(), comm.nranks(), &opts, sink);
    let algo = driver::run_recoverable(part, cfg.x, &opts, comm, algo, store, resume);
    algo.into_parts()
}

/// Run the communication-free engine for **one rank of an external
/// world** — the engine3 counterpart of [`generate_rank_streaming`]. The
/// transport only ever carries the driver's collectives (barriers,
/// termination counting): engine3 sends zero algorithm messages.
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts`, a partition/transport shape mismatch,
/// or when `opts.fault_plan` is set (fault injection wraps a transport
/// whole — apply it outside before calling).
pub fn generate_rank3_streaming<P, S, T>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    comm: &mut T,
    sink: S,
) -> (S, EngineCounters)
where
    P: Partition,
    S: EdgeSink,
    T: Transport<Msg>,
{
    generate_rank3_streaming_recoverable(cfg, part, opts, comm, sink, None, None)
}

/// [`generate_rank3_streaming`] with coordinated checkpoint/restart —
/// the engine3 counterpart of [`generate_rank_streaming_recoverable`],
/// with the same store/resume protocol and caller obligations.
///
/// # Panics
///
/// Panics as [`generate_rank_streaming_recoverable`] does.
pub fn generate_rank3_streaming_recoverable<P, S, T>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    comm: &mut T,
    sink: S,
    store: Option<&CheckpointStore>,
    resume: Option<&SavedCheckpoint>,
) -> (S, EngineCounters)
where
    P: Partition,
    S: EdgeSink,
    T: Transport<Msg>,
{
    cfg.validate();
    opts.validate_for(cfg.n);
    assert!(
        opts.fault_plan.is_none(),
        "fault injection must wrap the transport before generate_rank3_streaming"
    );
    assert!(
        (store.is_none() && resume.is_none()) || opts.checkpoint_interval.is_some(),
        "checkpoint store/resume require GenOptions::checkpoint_interval"
    );
    assert_eq!(
        part.num_nodes(),
        cfg.n,
        "partition does not cover cfg.n nodes"
    );
    assert_eq!(
        part.nranks(),
        comm.nranks(),
        "partition rank count does not match the transport world"
    );
    // Same paged-store resume discipline as the engine2 entry point.
    let mut opts = opts.clone();
    opts.store = opts.store.with_resume(resume.is_some());
    let algo = strategy::Chain::new(cfg, part, comm.rank(), &opts, sink);
    let algo = driver::run_recoverable(part, cfg.x, &opts, comm, algo, store, resume);
    algo.into_parts()
}

/// Run Algorithm 3.1 (`cfg.x == 1`) for **one rank of an external
/// world**; the `x = 1` counterpart of [`generate_rank_streaming`].
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts`, `cfg.x != 1`, a partition/transport
/// shape mismatch, or when `opts.fault_plan` is set.
pub fn generate_rank_x1_streaming<P, S, T>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    comm: &mut T,
    sink: S,
) -> (S, EngineCounters)
where
    P: Partition,
    S: EdgeSink,
    T: Transport<Msg1>,
{
    cfg.validate();
    opts.validate_for(cfg.n);
    assert_eq!(cfg.x, 1, "generate_x1 implements Algorithm 3.1 (x = 1)");
    assert!(
        opts.fault_plan.is_none(),
        "fault injection must wrap the transport before generate_rank_x1_streaming"
    );
    assert_eq!(
        part.num_nodes(),
        cfg.n,
        "partition does not cover cfg.n nodes"
    );
    assert_eq!(
        part.nranks(),
        comm.nranks(),
        "partition rank count does not match the transport world"
    );
    let algo = strategy::X1::new(cfg, part, comm.rank(), opts, sink);
    let algo = driver::run(part, cfg.x, opts, comm, algo);
    algo.into_parts()
}

/// Generate with Algorithm 3.1 (requires `cfg.x == 1`).
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts`, `nranks == 0`, or `cfg.x != 1`.
pub fn generate_x1(
    cfg: &PaConfig,
    scheme: Scheme,
    nranks: usize,
    opts: &GenOptions,
) -> ParallelOutput {
    cfg.validate();
    opts.validate_for(cfg.n);
    assert_eq!(cfg.x, 1, "generate_x1 implements Algorithm 3.1 (x = 1)");
    let part: AnyPartition = partition::build(scheme, cfg.n, nranks);
    let parts = run_x1(cfg, &part, opts, |rank| {
        EdgeList::with_capacity(part.size_of(rank) as usize)
    });
    ParallelOutput {
        cfg: *cfg,
        scheme: Some(scheme),
        ranks: to_rank_outputs(parts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use pa_graph::validate::assert_valid_pa_network;

    fn opts() -> GenOptions {
        GenOptions {
            buffer_capacity: 16,
            service_interval: 8,
            ..GenOptions::default()
        }
    }

    #[test]
    fn x1_engine_matches_sequential_copy_model_on_any_world() {
        let cfg = PaConfig::new(3000, 1).with_seed(11);
        let reference = seq::copy_model(&cfg).canonicalized();
        for nranks in [1usize, 2, 3, 7] {
            for scheme in Scheme::ALL {
                let out = generate_x1(&cfg, scheme, nranks, &opts());
                assert_eq!(
                    out.edge_list().canonicalized(),
                    reference,
                    "x=1 must be bit-identical: P={nranks}, {scheme}"
                );
            }
        }
    }

    #[test]
    fn general_engine_with_x1_matches_algorithm_31() {
        let cfg = PaConfig::new(2000, 1).with_seed(5);
        let a = generate_x1(&cfg, Scheme::Rrp, 4, &opts());
        let b = generate(&cfg, Scheme::Rrp, 4, &opts());
        assert_eq!(a.edge_list().canonicalized(), b.edge_list().canonicalized());
    }

    #[test]
    fn paged_store_is_byte_identical_to_resident_for_all_engines() {
        let cfg = PaConfig::new(3_000, 3).with_seed(11);
        let dir = std::env::temp_dir().join(format!("pa_core_paged_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A 4 KiB budget over 512-byte pages is far below any rank's F
        // footprint here, so the cache evicts constantly.
        let paged = GenOptions {
            store: crate::store::StoreSpec::paged(&dir, 4 * 1024).with_page_bytes(512),
            ..opts()
        };
        for scheme in [Scheme::Rrp, Scheme::Ucp] {
            assert_eq!(
                generate(&cfg, scheme, 4, &paged)
                    .edge_list()
                    .canonicalized(),
                generate(&cfg, scheme, 4, &opts())
                    .edge_list()
                    .canonicalized(),
                "engine2, {scheme}"
            );
            assert_eq!(
                generate3(&cfg, scheme, 4, &paged).edge_list(),
                generate3(&cfg, scheme, 4, &opts()).edge_list(),
                "engine3, {scheme}"
            );
        }
        // x = 1 exercises engine1's one-slot-per-node table.
        let cfg1 = PaConfig::new(2_000, 1).with_seed(5);
        assert_eq!(
            generate_x1(&cfg1, Scheme::Rrp, 3, &paged)
                .edge_list()
                .canonicalized(),
            generate_x1(&cfg1, Scheme::Rrp, 3, &opts())
                .edge_list()
                .canonicalized(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_rank_general_engine_equals_sequential_exactly() {
        for x in [1u64, 2, 4] {
            let cfg = PaConfig::new(1500, x).with_seed(3);
            let out = generate(&cfg, Scheme::Ucp, 1, &opts());
            // P = 1 resolves every dependency immediately in sweep order,
            // so even the edge *order* matches the sequential generator.
            assert_eq!(out.edge_list(), seq::copy_model(&cfg), "x = {x}");
        }
    }

    #[test]
    fn single_rank_runs_use_the_loopback_transport() {
        // P = 1 must not route through the threaded world: the loopback
        // transport has exactly one rank's stats and no remote traffic.
        let cfg = PaConfig::new(500, 2).with_seed(3);
        let out = generate(&cfg, Scheme::Ucp, 1, &opts());
        assert_eq!(out.ranks.len(), 1);
        assert_eq!(out.ranks[0].comm.msgs_sent, 0);
        assert_eq!(out.ranks[0].comm.msgs_recv, 0);
    }

    #[test]
    fn x1_streaming_counts_match_materialized_run() {
        let cfg = PaConfig::new(1200, 1).with_seed(7);
        let outs = generate_x1_streaming(&cfg, Scheme::Rrp, 3, &opts(), |_| CountSink::default());
        let total: u64 = outs.iter().map(|o| o.sink.edges).sum();
        assert_eq!(total, cfg.expected_edges());
        let materialized = generate_x1(&cfg, Scheme::Rrp, 3, &opts());
        assert_eq!(materialized.total_edges() as u64, total);
    }

    #[test]
    fn parallel_output_is_a_valid_network_for_all_schemes() {
        let cfg = PaConfig::new(4000, 4).with_seed(17);
        for scheme in Scheme::ALL {
            for nranks in [2usize, 5] {
                let out = generate(&cfg, scheme, nranks, &opts());
                let edges = out.edge_list();
                assert_valid_pa_network(cfg.n, cfg.x, &edges);
                assert_eq!(out.total_edges() as u64, cfg.expected_edges());
            }
        }
    }

    #[test]
    fn parallel_network_is_connected() {
        let cfg = PaConfig::new(3000, 3).with_seed(23);
        let out = generate(&cfg, Scheme::Rrp, 4, &opts());
        let csr = pa_graph::Csr::from_edges(cfg.n as usize, &out.edge_list());
        assert_eq!(csr.connected_components(), 1);
    }

    #[test]
    fn counters_are_consistent_with_edges() {
        let cfg = PaConfig::new(2500, 2).with_seed(31);
        let out = generate(&cfg, Scheme::Lcp, 3, &opts());
        let totals = out.total_counters();
        // Every non-clique, non-node-x edge is either direct or copy.
        let clique = cfg.x * (cfg.x - 1) / 2;
        let attach_x = cfg.x;
        assert_eq!(
            totals.direct_edges + totals.copy_edges,
            cfg.expected_edges() - clique - attach_x
        );
        // Node counts cover the whole node set.
        assert_eq!(totals.nodes, cfg.n);
    }

    #[test]
    fn degenerate_two_node_network() {
        let cfg = PaConfig::new(2, 1).with_seed(1);
        let out = generate(&cfg, Scheme::Ucp, 2, &opts());
        assert_eq!(out.edge_list().as_slice(), &[(1, 0)]);
    }

    #[test]
    fn unbuffered_and_buffered_runs_agree_for_x1() {
        let cfg = PaConfig::new(1200, 1).with_seed(77);
        let buffered = generate(
            &cfg,
            Scheme::Rrp,
            3,
            &GenOptions {
                buffer_capacity: 512,
                service_interval: 64,
                ..GenOptions::default()
            },
        );
        let unbuffered = generate(
            &cfg,
            Scheme::Rrp,
            3,
            &GenOptions {
                buffer_capacity: 1,
                service_interval: 1,
                ..GenOptions::default()
            },
        );
        assert_eq!(
            buffered.edge_list().canonicalized(),
            unbuffered.edge_list().canonicalized()
        );
        // Unbuffered sends at least as many packets.
        let pk = |o: &ParallelOutput| o.ranks.iter().map(|r| r.comm.packets_sent).sum::<u64>();
        assert!(pk(&unbuffered) >= pk(&buffered));
    }

    #[test]
    fn many_ranks_for_few_nodes() {
        // More ranks than busy nodes: empty partitions must not hang.
        let cfg = PaConfig::new(10, 2).with_seed(2);
        let out = generate(&cfg, Scheme::Rrp, 8, &opts());
        assert_valid_pa_network(10, 2, &out.edge_list());
    }

    #[test]
    #[should_panic(expected = "Algorithm 3.1")]
    fn generate_x1_rejects_larger_x() {
        let cfg = PaConfig::new(10, 2);
        let _ = generate_x1(&cfg, Scheme::Ucp, 2, &opts());
    }

    #[test]
    fn engine3_matches_sequential_for_all_schemes_and_worlds() {
        let cfg = PaConfig::new(3_000, 4).with_seed(8);
        let reference = seq::copy_model(&cfg).canonicalized();
        for nranks in [1usize, 2, 4, 8] {
            for scheme in Scheme::EXTENDED {
                let out = generate3(&cfg, scheme, nranks, &opts());
                assert_eq!(
                    out.edge_list().canonicalized(),
                    reference,
                    "engine3 must be bit-identical: P={nranks} {scheme}"
                );
            }
        }
    }

    #[test]
    fn engine3_sends_zero_algorithm_messages() {
        let cfg = PaConfig::new(3_000, 4).with_seed(8);
        let out = generate3(&cfg, Scheme::Rrp, 8, &opts());
        for r in &out.ranks {
            assert_eq!(
                r.comm.msgs_sent, 0,
                "rank {} put algorithm messages on the wire",
                r.rank
            );
            assert_eq!(r.comm.msgs_recv, 0, "rank {} received messages", r.rank);
            assert_eq!(r.counters.requests_sent, 0);
            assert_eq!(r.counters.hub_updates, 0);
        }
        let totals = out.total_counters();
        assert!(
            totals.chain_rows_recomputed > 0,
            "a multi-rank run must have recomputed remote rows"
        );
        assert!(totals.chain_peak_depth >= 1);
    }

    #[test]
    fn engine3_memo_size_never_changes_the_network() {
        // The chain memo caches values of a pure function, so any
        // capacity — 0 (disabled), 1 (constant eviction), a hashed table
        // one row short of a rank's remote row count, or the default
        // direct table indexed by remote ordinal — must yield the
        // identical edge set, on balanced and unbalanced partitions.
        let cfg = PaConfig::new(2_000, 3).with_seed(19);
        let reference = seq::copy_model(&cfg).canonicalized();
        for scheme in Scheme::EXTENDED {
            for nranks in [2usize, 3, 4] {
                let part = partition::build(scheme, cfg.n, nranks);
                let mut sizes = vec![0, 1, 16, crate::DEFAULT_CHAIN_MEMO_NODES];
                for r in 0..nranks {
                    let remote = cfg.n - part.size_of(r);
                    // One row short of the remote count is the last
                    // hashed size; the remote count is the first direct.
                    assert_eq!(
                        ChainMemoLayout::plan(&part, r, remote - 1, false),
                        ChainMemoLayout::Hashed {
                            slots: (remote - 1).next_power_of_two()
                        }
                    );
                    assert_eq!(
                        ChainMemoLayout::plan(&part, r, remote, false),
                        ChainMemoLayout::Direct { rows: remote }
                    );
                    sizes.push(remote - 1);
                }
                sizes.sort_unstable();
                sizes.dedup();
                for memo in sizes {
                    let out = generate3(&cfg, scheme, nranks, &opts().with_chain_memo(memo));
                    assert_eq!(
                        out.edge_list().canonicalized(),
                        reference,
                        "{scheme}, P={nranks}, chain_memo_nodes = {memo}"
                    );
                }
            }
        }
        // A warm memo must actually be hit at these sizes.
        let out = generate3(&cfg, Scheme::Ucp, 4, &opts());
        assert!(out.total_counters().chain_memo_hits > 0, "memo never hit");
    }

    #[test]
    fn engine3_recomputes_each_remote_row_slot_at_most_once() {
        // With the default memo every remote row has its own slot, so a
        // walk recomputes a row only to extend its cached prefix by at
        // least one slot: at most x recomputations per remote row. With
        // no collisions the count is a pure function of the inputs.
        let cfg = PaConfig::new(20_000, 4).with_seed(7);
        let part = partition::build(Scheme::Rrp, cfg.n, 2);
        let runs: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let out = generate3(&cfg, Scheme::Rrp, 2, &opts());
                out.ranks
                    .iter()
                    .map(|r| r.counters.chain_rows_recomputed)
                    .collect()
            })
            .collect();
        for (rank, &recomputed) in runs[0].iter().enumerate() {
            let remote = cfg.n - part.size_of(rank);
            assert!(recomputed > 0, "rank {rank} recomputed nothing");
            assert!(
                recomputed <= cfg.x * remote,
                "rank {rank}: {recomputed} rows recomputed for {remote} remote rows"
            );
        }
        assert_eq!(runs[0], runs[1], "recompute count varies between runs");
    }

    #[test]
    fn engine3_checkpoint_resume_reproduces_the_uninterrupted_run() {
        let cfg = PaConfig::new(2_400, 3).with_seed(29);
        let interval = 500u64;
        let epoch_opts = GenOptions {
            checkpoint_interval: Some(interval),
            ..opts()
        };
        let part = partition::build(Scheme::Rrp, cfg.n, 3);
        let dir = std::env::temp_dir().join(format!("pa_core_resume3_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = CheckpointMeta {
            world: 3,
            n: cfg.n,
            x: cfg.x,
            p_bits: cfg.p.to_bits(),
            seed: cfg.seed,
            scheme_id: 2,
            engine_id: 3,
            model_id: 0,
            interval,
            alpha_bits: 0,
        };
        let ckpt_dir = dir.clone();
        let full: Vec<EdgeList> = World::new(3).run(|mut comm| {
            let store = CheckpointStore::new(&ckpt_dir, comm.rank() as u32, meta).unwrap();
            generate_rank3_streaming_recoverable(
                &cfg,
                &part,
                &epoch_opts,
                &mut comm,
                EdgeList::new(),
                Some(&store),
                None,
            )
            .0
        });
        let reference = EdgeList::concat(full.clone()).canonicalized();
        assert_eq!(
            reference,
            seq::copy_model(&cfg).canonicalized(),
            "checkpointed engine3 run drifted from the sequential oracle"
        );

        let ckpt_dir = dir.clone();
        let resumed: Vec<EdgeList> = World::new(3).run(|mut comm| {
            let rank = comm.rank();
            let store = CheckpointStore::new(&ckpt_dir, rank as u32, meta).unwrap();
            let saved = store.load(store.latest().unwrap() - 1).unwrap();
            let mut sink = EdgeList::new();
            for &(u, v) in &full[rank].as_slice()[..saved.edges as usize] {
                sink.push(u, v);
            }
            generate_rank3_streaming_recoverable(
                &cfg,
                &part,
                &epoch_opts,
                &mut comm,
                sink,
                None,
                Some(&saved),
            )
            .0
        });
        assert_eq!(EdgeList::concat(resumed).canonicalized(), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine3_streaming_counts_match_materialized_run() {
        let cfg = PaConfig::new(1_500, 2).with_seed(7);
        let outs = generate3_streaming(&cfg, Scheme::Lcp, 3, &opts(), |_| CountSink::default());
        let total: u64 = outs.iter().map(|o| o.sink.edges).sum();
        assert_eq!(total, cfg.expected_edges());
    }

    #[test]
    fn rank_entry_point_matches_sequential_on_loopback() {
        let cfg = PaConfig::new(1500, 2).with_seed(13);
        let part = partition::build(Scheme::Ucp, cfg.n, 1);
        let mut t = LoopbackTransport::new();
        let (edges, counters) =
            generate_rank_streaming(&cfg, &part, &opts(), &mut t, EdgeList::new());
        assert_eq!(edges, seq::copy_model(&cfg));
        assert_eq!(counters.nodes, cfg.n);
    }

    #[test]
    fn epoch_boundaries_do_not_change_the_output() {
        // Checkpoint epochs only add barriers at label cuts; the generated
        // network must stay bit-identical for any interval, both engines.
        let cfg = PaConfig::new(2000, 4).with_seed(19);
        let reference = generate(&cfg, Scheme::Rrp, 3, &opts())
            .edge_list()
            .canonicalized();
        for interval in [1u64, 257, 1999, 2000, 5000] {
            let epoch_opts = GenOptions {
                checkpoint_interval: Some(interval),
                ..opts()
            };
            let out = generate(&cfg, Scheme::Rrp, 3, &epoch_opts);
            assert_eq!(
                out.edge_list().canonicalized(),
                reference,
                "interval {interval}"
            );
        }
        let cfg1 = PaConfig::new(1500, 1).with_seed(19);
        let reference1 = seq::copy_model(&cfg1).canonicalized();
        let epoch_opts = GenOptions {
            checkpoint_interval: Some(333),
            ..opts()
        };
        let out = generate_x1(&cfg1, Scheme::Lcp, 3, &epoch_opts);
        assert_eq!(out.edge_list().canonicalized(), reference1);
    }

    #[test]
    fn checkpoint_resume_reproduces_the_uninterrupted_run() {
        let cfg = PaConfig::new(2400, 3).with_seed(29);
        let interval = 500u64;
        let epoch_opts = GenOptions {
            checkpoint_interval: Some(interval),
            ..opts()
        };
        let part = partition::build(Scheme::Rrp, cfg.n, 3);
        let dir = std::env::temp_dir().join(format!("pa_core_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = CheckpointMeta {
            world: 3,
            n: cfg.n,
            x: cfg.x,
            p_bits: cfg.p.to_bits(),
            seed: cfg.seed,
            scheme_id: 2,
            engine_id: 2,
            model_id: 0,
            interval,
            alpha_bits: 0,
        };
        let ckpt_dir = dir.clone();
        let full: Vec<EdgeList> = World::new(3).run(|mut comm| {
            let store = CheckpointStore::new(&ckpt_dir, comm.rank() as u32, meta).unwrap();
            generate_rank_streaming_recoverable(
                &cfg,
                &part,
                &epoch_opts,
                &mut comm,
                EdgeList::new(),
                Some(&store),
                None,
            )
            .0
        });
        let reference = EdgeList::concat(full.clone()).canonicalized();

        // Gang-restart from the older of the two surviving epochs: each
        // rank reloads its engine state, hands in a sink truncated to the
        // saved edge watermark, and replays the remaining epochs.
        let ckpt_dir = dir.clone();
        let resumed: Vec<EdgeList> = World::new(3).run(|mut comm| {
            let rank = comm.rank();
            let store = CheckpointStore::new(&ckpt_dir, rank as u32, meta).unwrap();
            let saved = store.load(store.latest().unwrap() - 1).unwrap();
            let mut sink = EdgeList::new();
            for &(u, v) in &full[rank].as_slice()[..saved.edges as usize] {
                sink.push(u, v);
            }
            generate_rank_streaming_recoverable(
                &cfg,
                &part,
                &epoch_opts,
                &mut comm,
                sink,
                None,
                Some(&saved),
            )
            .0
        });
        assert_eq!(EdgeList::concat(resumed).canonicalized(), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "checkpoint_interval")]
    fn recoverable_entry_point_rejects_store_without_interval() {
        let cfg = PaConfig::new(100, 2).with_seed(1);
        let part = partition::build(Scheme::Ucp, cfg.n, 1);
        let dir = std::env::temp_dir().join(format!("pa_core_noint_{}", std::process::id()));
        let meta = CheckpointMeta {
            world: 1,
            n: cfg.n,
            x: cfg.x,
            p_bits: cfg.p.to_bits(),
            seed: cfg.seed,
            scheme_id: 0,
            engine_id: 2,
            model_id: 0,
            interval: 0,
            alpha_bits: 0,
        };
        let store = CheckpointStore::new(&dir, 0, meta).unwrap();
        let mut t = LoopbackTransport::new();
        let _ = generate_rank_streaming_recoverable(
            &cfg,
            &part,
            &opts(),
            &mut t,
            EdgeList::new(),
            Some(&store),
            None,
        );
    }

    #[test]
    fn rank_entry_points_match_world_runs() {
        // Driving each rank of a threaded world through the external-rank
        // entry points must reproduce the internally spawned run exactly —
        // this is the API contract the multi-process TCP backend builds on.
        let cfg = PaConfig::new(2000, 4).with_seed(21);
        let reference = seq::copy_model(&cfg).canonicalized();
        let part = partition::build(Scheme::Rrp, cfg.n, 3);
        let shards = World::new(3).run(|mut comm| {
            generate_rank_streaming(&cfg, &part, &opts(), &mut comm, EdgeList::new()).0
        });
        let merged = EdgeList::concat(shards).canonicalized();
        assert_eq!(merged, reference);

        let cfg1 = PaConfig::new(2000, 1).with_seed(21);
        let reference1 = seq::copy_model(&cfg1).canonicalized();
        let part1 = partition::build(Scheme::Lcp, cfg1.n, 3);
        let shards1 = World::new(3).run(|mut comm| {
            generate_rank_x1_streaming(&cfg1, &part1, &opts(), &mut comm, EdgeList::new()).0
        });
        assert_eq!(EdgeList::concat(shards1).canonicalized(), reference1);
    }
}
