//! The `pagen generate` workloads: `e3-disk` (engine 3 on two ranks, a
//! 256 MB file) and `e3-paged` (engine 3 on one rank with its node table
//! paged to disk under a budget below the table size).

use crate::engine::{self, Engine, EngineRun, TRACE_REPS};
use crate::measure::{self, EdgeSetHash, ProcIo};
use crate::report::Ctx;
use pa_core::store::{self, StoreSpec};
use pa_core::{seq, GenOptions, PaConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Edges per new node in every workload.
pub const X: u64 = 4;

/// Times the untraced run calls the copy model, to report a median
/// set-up time.
pub const SETUP_REPS: usize = 3;

/// One generate-to-disk workload.
#[derive(Debug, Clone, Copy)]
pub struct GenWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Nodes.
    pub n: u64,
    /// Ranks of the in-process world.
    pub ranks: usize,
    /// `(memory budget, page size)` in bytes when the node table pages.
    pub paged: Option<(u64, usize)>,
}

/// 4e6 nodes, 16e6 edges, 256 MB of output on two ranks.
pub const E3_DISK: GenWorkload = GenWorkload {
    name: "e3-disk",
    n: 4_000_000,
    ranks: 2,
    paged: None,
};

/// 1e6 nodes on one rank: a 32 MB table under a 24 MiB budget in 16 KiB
/// pages (the default 256 KiB pages fall off a cliff at this ratio).
pub const E3_PAGED: GenWorkload = GenWorkload {
    name: "e3-paged",
    n: 1_000_000,
    ranks: 1,
    paged: Some((24 << 20, 16 << 10)),
};

/// One `serve-mix` job run solo: 2e5 nodes on one rank, 12.8 MB.
pub const SERVE_JOB: GenWorkload = GenWorkload {
    name: "serve-job",
    n: crate::serve::N,
    ranks: 1,
    paged: None,
};

impl GenWorkload {
    /// The generation parameters of the workload under `seed`.
    pub fn cfg(&self, seed: u64) -> PaConfig {
        PaConfig {
            n: self.n,
            x: X,
            p: 0.5,
            seed,
        }
    }

    fn cli_args(&self, seed: u64, out: &Path) -> Vec<String> {
        let mut args: Vec<String> = [
            "generate", "--model", "pa", "--engine", "3", "--scheme", "rrp", "--x", "4",
            "--format", "bin",
        ]
        .map(String::from)
        .to_vec();
        for (k, v) in [
            ("--ranks", self.ranks.to_string()),
            ("--n", self.n.to_string()),
            ("--seed", seed.to_string()),
            ("--out", out.display().to_string()),
        ] {
            args.extend([k.to_string(), v]);
        }
        if let Some((budget, page)) = self.paged {
            args.extend([
                "--memory-budget".into(),
                format!("{}m", budget >> 20),
                "--page-bytes".into(),
                format!("{}k", page >> 10),
            ]);
        }
        args
    }

    /// Engine options matching the CLI call, paging under `store_dir`.
    fn opts(&self, store_dir: &Path) -> GenOptions {
        let opts = GenOptions::default();
        match self.paged {
            Some((budget, page)) => {
                opts.with_store(StoreSpec::paged(store_dir, budget).with_page_bytes(page))
            }
            None => opts,
        }
    }
}

/// Remove a paged store's files and directory.
fn clean_store(dir: &Path, ranks: usize) {
    for rank in 0..ranks {
        store::clean_rank_pages(dir, rank);
    }
    let _ = std::fs::remove_dir(dir);
}

/// Compute the oracle: the sequential copy model's edge-set fingerprint.
/// Returns it with the time of the copy-model call alone.
pub fn oracle(cfg: &PaConfig) -> (EdgeSetHash, f64) {
    let t = Instant::now();
    let edges = seq::copy_model(cfg);
    let model_s = t.elapsed().as_secs_f64();
    (EdgeSetHash::of_edges(&edges), model_s)
}

/// Compute the oracle `reps` times, checking it repeats; returns it with
/// the median copy-model time.
fn oracle_reps(ctx: &mut Ctx, cfg: &PaConfig, reps: usize) -> (EdgeSetHash, f64) {
    let (mut hashes, mut model) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (h, m) = oracle(cfg);
        hashes.push(h);
        model.push(m);
    }
    let same = hashes.iter().all(|h| *h == hashes[0]);
    ctx.check(same, || {
        "the copy-model oracle differs between repetitions".into()
    });
    (hashes[0], measure::median(&model))
}

/// Everything one `pagen generate` operation is checked for, as an
/// error message naming the first check that failed.
struct Expect {
    edges: u64,
    oracle: EdgeSetHash,
    /// Byte digest of the run's first file; engine3 files of one run are
    /// byte-identical.
    first: Option<u64>,
}

fn verify_file(out: &Path, expect: &mut Expect) -> Result<(), String> {
    let file =
        measure::read_bin_file(out).map_err(|e| format!("reading {}: {e}", out.display()))?;
    if file.bytes != 16 * expect.edges {
        return Err(format!(
            "{} bytes, expected 16 * {}",
            file.bytes, expect.edges
        ));
    }
    if file.set != expect.oracle {
        return Err("edge set differs from the copy-model oracle".into());
    }
    if *expect.first.get_or_insert(file.ordered) != file.ordered {
        return Err("bytes differ from the run's first file".into());
    }
    Ok(())
}

/// Paths the CLI promises to remove: part files and a paged store.
fn leftovers(out: &Path, ranks: usize) -> Vec<PathBuf> {
    let with = |suffix: String| {
        let mut p = out.as_os_str().to_owned();
        p.push(suffix);
        PathBuf::from(p)
    };
    (0..ranks)
        .map(|r| with(format!(".part{r}")))
        .chain([with(".store".into())])
        .filter(|p| p.exists())
        .collect()
}

/// One `pagen generate` call through `pa_cli::run` for `cfg`, checked;
/// returns its wall and CPU seconds and start when every check passes.
fn cli_op(
    ctx: &mut Ctx,
    w: &GenWorkload,
    cfg: &PaConfig,
    expect: &mut Expect,
) -> Option<(f64, f64, Instant)> {
    let out = ctx.dir.join(format!("{}.bin", w.name));
    let args = w.cli_args(cfg.seed, &out);
    let (cpu0, start) = (measure::cpu_time(), Instant::now());
    let ran = catch_unwind(AssertUnwindSafe(|| pa_cli::run(&args, &mut Vec::new())));
    let (wall, cpu) = (start.elapsed(), measure::cpu_time() - cpu0);
    let result = match ran {
        Err(_) => Err("pagen generate panicked".to_string()),
        Ok(Err(e)) => Err(format!("pagen generate failed: {e}")),
        Ok(Ok(())) => verify_file(&out, expect).and_then(|()| match leftovers(&out, w.ranks) {
            left if left.is_empty() => Ok(()),
            left => Err(format!("left behind {left:?}")),
        }),
    };
    let _ = std::fs::remove_file(&out);
    for p in leftovers(&out, w.ranks) {
        let _ = std::fs::remove_file(&p);
        clean_store(&p, w.ranks);
    }
    let ok = ctx.check(result.is_ok(), || {
        format!("{}: {}", w.name, result.unwrap_err())
    });
    ok.then_some((wall.as_secs_f64(), cpu.as_secs_f64(), start))
}

/// Run workload `w`.
pub fn run(ctx: &mut Ctx, w: &GenWorkload) {
    let cfg = w.cfg(ctx.seed);
    let reps = if ctx.traced() { 1 } else { SETUP_REPS };
    // The set-up call is the sequential copy model the oracle is built
    // on; fingerprinting its edges is the benchmark's work, left out.
    let (oracle, model_s) = oracle_reps(ctx, &cfg, reps);
    ctx.set("setup_s", model_s);
    ctx.set("core.seq.copy_model_s", model_s);
    if !measure::reset_peak_rss() {
        ctx.notes
            .push("peak_rss_mb includes set-up: the peak mark could not be reset".into());
    }
    if ctx.traced() {
        traced(ctx, w, &cfg, oracle);
    } else {
        let mut expect = Expect {
            edges: cfg.expected_edges(),
            oracle,
            first: None,
        };
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < ctx.seconds {
            if let Some((wall, cpu, _)) = cli_op(ctx, w, &cfg, &mut expect) {
                walls.push(wall);
                cpus.push(cpu);
            }
        }
        let m = cfg.expected_edges() as f64;
        ctx.set("edges_per_s", m / measure::median(&walls));
        ctx.set("cpu_s", measure::median(&cpus));
        ctx.set(
            "fetches_per_s",
            walls.len() as f64 / walls.iter().sum::<f64>(),
        );
        ctx.set_latency(&walls);
    }
    ctx.set("peak_rss_mb", measure::peak_rss_mb());
}

/// One in-process engine3 call into hashing probe sinks, checked against
/// the oracle, with the process I/O it caused. Paged calls keep their
/// store under `store_dir`, removed afterwards.
fn engine_call(
    ctx: &mut Ctx,
    cfg: &PaConfig,
    ranks: usize,
    opts: &GenOptions,
    clocked: bool,
    (oracle, store_dir): (EdgeSetHash, &Path),
) -> (EngineRun, ProcIo) {
    let io0 = ProcIo::now();
    let run = engine::in_process(Engine::Three, cfg, ranks, opts, clocked);
    let io = ProcIo::now().since(io0);
    clean_store(store_dir, ranks);
    ctx.check(run.hash() == oracle, || {
        format!("engine3 on {ranks} rank(s): edge set differs from the copy-model oracle")
    });
    (run, io)
}

/// The traced run of a generate-to-disk job: each layer call
/// [`TRACE_REPS`] times, alternating, each under a span; every timing is
/// the median of its calls.
pub fn traced(ctx: &mut Ctx, w: &GenWorkload, cfg: &PaConfig, oracle: EdgeSetHash) {
    time_draws(ctx, cfg);
    let mut expect = Expect {
        edges: cfg.expected_edges(),
        oracle,
        first: None,
    };
    let store_dir = ctx.dir.join("engine.store");
    let opts = w.opts(&store_dir);
    let check = (oracle, store_dir.as_path());
    let (mut clis, mut timed, mut plain, mut runs, mut p1s, mut resident) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..TRACE_REPS {
        if let Some((wall, _, start)) = cli_op(ctx, w, cfg, &mut expect) {
            ctx.tracer
                .record(None, "cli.generate", start, Instant::now());
            clis.push(wall);
        }

        let start = Instant::now();
        let (wall, tally, edges) = engine::into_timed_files(cfg, w.ranks, &opts, &ctx.dir);
        ctx.tracer
            .record(None, "graph.io.timed_writer", start, Instant::now());
        clean_store(&store_dir, w.ranks);
        ctx.check(edges == expect.edges, || {
            format!("timed writer got {edges} edges")
        });
        timed.push((wall.as_secs_f64(), tally));

        plain.push(engine_call(ctx, cfg, w.ranks, &opts, false, check).0.secs());
        let (run, io) = engine_call(ctx, cfg, w.ranks, &opts, true, check);
        engine::record_spans(&mut ctx.tracer, "core.par.engine", &run);
        runs.push((run, io));
        if w.ranks > 1 {
            let (p1, _) = engine_call(ctx, cfg, 1, &opts, true, check);
            engine::record_spans(&mut ctx.tracer, "core.par.engine_p1", &p1);
            p1s.push(p1.secs());
        }
        if w.paged.is_some() {
            let plain_opts = GenOptions::default();
            let (r, _) = engine_call(ctx, cfg, w.ranks, &plain_opts, true, check);
            engine::record_spans(&mut ctx.tracer, "core.store.resident", &r);
            resident.push(r.secs());
        }
    }

    let cli = measure::median(&clis);
    let (io_wall, tally) = engine::median_of(timed, |t| t.0);
    ctx.set("cli.generate_s", cli);
    ctx.set("cli.output_s", cli - io_wall);
    set_io_tally(ctx, &tally);

    let (run, io) = engine::median_of(runs, |r| r.0.secs());
    let secs = run.secs();
    engine::set_layer_metrics(ctx, &run, cfg);
    ctx.set("core.par.engine_s", secs);
    ctx.set("trace.overhead_s", secs - measure::median(&plain));
    ctx.set("core.store.read_bytes", io.rchar as f64);
    ctx.set("core.store.write_bytes", io.wchar as f64);
    ctx.set("core.store.syscalls", (io.syscr + io.syscw) as f64);
    let p1 = if p1s.is_empty() {
        secs
    } else {
        measure::median(&p1s)
    };
    ctx.set("core.par.engine_p1_s", p1);
    ctx.set("core.par.speedup", p1 / secs);
    if resident.is_empty() {
        ctx.set("core.store.resident_s", secs);
    } else {
        let resident = measure::median(&resident);
        ctx.set("core.store.paged_s", secs);
        ctx.set("core.store.resident_s", resident);
        ctx.set("core.store.slowdown", secs / resident);
    }
}

/// Set the `graph.io` metrics from a timed writer's tally.
pub fn set_io_tally(ctx: &mut Ctx, tally: &measure::WriteTally) {
    use std::sync::atomic::Ordering::Relaxed;
    ctx.set(
        "graph.io.write_s",
        tally.busy_ns.load(Relaxed) as f64 * 1e-9,
    );
    ctx.set("graph.io.write_calls", tally.calls.load(Relaxed) as f64);
    ctx.set("graph.io.bytes", tally.bytes.load(Relaxed) as f64);
}

/// Time `seq::draw_row_choices` over every drawing node of `cfg`.
pub fn time_draws(ctx: &mut Ctx, cfg: &PaConfig) {
    let mut row = Vec::with_capacity(cfg.x as usize);
    let mut sink = 0u64;
    let start = Instant::now();
    for t in cfg.x + 1..cfg.n {
        let keys = pa_rng::EventKeys::for_node(cfg.seed, t);
        seq::draw_row_choices(&keys, cfg.p, cfg.x, t, &mut row);
        sink = sink.wrapping_add(row.iter().map(|c| c.k ^ c.l).sum::<u64>());
    }
    std::hint::black_box(sink);
    let draws = (cfg.n - cfg.x - 1) * cfg.x;
    ctx.tracer
        .record(None, "rng.draw_row_choices", start, Instant::now());
    ctx.set(
        "rng.ns_per_draw",
        start.elapsed().as_secs_f64() * 1e9 / draws as f64,
    );
}
