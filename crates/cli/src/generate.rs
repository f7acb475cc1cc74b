//! `pagen generate` — build a network and write it to disk.

use crate::args::{Args, CliError};
use crate::stats::{MergedStats, StatsFlags};
use pa_core::partition::Scheme;
use pa_core::{cl, er, par, rmat, ws, GenOptions, PaConfig};
use pa_graph::{container, io, EdgeList};
use pa_rng::Xoshiro256pp;
use std::io::Write;

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    match args.str("backend", "mpsim").as_str() {
        "mpsim" => {}
        // One rank of a multi-process TCP world (normally under palaunch).
        "tcp" => return crate::netgen::run(args, out),
        other => {
            return Err(CliError::usage(format!(
                "unknown backend {other:?} (expected mpsim or tcp)"
            )))
        }
    }
    let model = args.str("model", "pa");
    let seed = args.u64("seed", 0)?;
    let path = args.str("out", "graph.pag");
    let format = args.str("format", "pag");

    let started = std::time::Instant::now();

    // The PA-family models writing a raw edge file need no global view
    // of the edges, so they stream each rank straight to disk instead of
    // materializing per-rank edge vectors (see `stream_pa_to_disk`).
    if matches!(model.as_str(), "pa" | "nlpa") && matches!(format.as_str(), "bin" | "txt") {
        let (cfg, scheme, ranks, opts, engine) = parse_pa_params(args, seed)?;
        let stats_flags = StatsFlags::parse(args)?;
        args.finish()?;
        let edge_format = match format.as_str() {
            "bin" => io::EdgeFormat::Binary,
            _ => io::EdgeFormat::Text,
        };
        let (total_edges, comms) = stream_pa_to_disk(
            &cfg,
            scheme,
            ranks,
            &opts,
            engine,
            std::path::Path::new(&path),
            edge_format,
        )?;
        cleanup_store(&opts.store, ranks);
        writeln!(
            out,
            "generated {model}: {} nodes, {total_edges} edges in {:.2}s -> {path} ({format}, streamed)",
            cfg.n,
            started.elapsed().as_secs_f64()
        )
        .map_err(CliError::io)?;
        return stats_flags.emit(&MergedStats::from_local(&comms), out);
    }

    let mut pa_stats: Option<(StatsFlags, Vec<pa_mpsim::CommStats>)> = None;
    let (n, shards, attrs): (u64, Vec<EdgeList>, Vec<(String, String)>) = match model.as_str() {
        "pa" | "nlpa" => {
            let (cfg, scheme, ranks, opts, engine) = parse_pa_params(args, seed)?;
            let flags = StatsFlags::parse(args)?;
            let result = match engine {
                1 => par::generate_x1(&cfg, scheme, ranks, &opts),
                2 => par::generate(&cfg, scheme, ranks, &opts),
                3 => par::generate3(&cfg, scheme, ranks, &opts),
                _ => unreachable!("parse_pa_params validated the engine"),
            };
            pa_stats = Some((flags, result.ranks.iter().map(|r| r.comm.clone()).collect()));
            cleanup_store(&opts.store, ranks);
            let shards = result.ranks.into_iter().map(|r| r.edges).collect();
            let mut attrs = vec![
                (
                    "model".into(),
                    match opts.model {
                        pa_core::ModelKind::Pa => "preferential-attachment".to_string(),
                        pa_core::ModelKind::Nlpa { .. } => {
                            "nonlinear-preferential-attachment".to_string()
                        }
                    },
                ),
                ("x".into(), cfg.x.to_string()),
                ("p".into(), cfg.p.to_string()),
                ("scheme".into(), scheme.to_string()),
                ("ranks".into(), ranks.to_string()),
                ("engine".into(), engine.to_string()),
            ];
            if let pa_core::ModelKind::Nlpa { alpha } = opts.model {
                attrs.push(("alpha".into(), alpha.to_string()));
            }
            (cfg.n, shards, attrs)
        }
        "er" => {
            let n = args.u64("n", 100_000)?;
            let p = args.f64("p", 0.0001)?;
            let ranks = args.u64("ranks", 4)? as usize;
            let cfg = er::ErConfig::new(n, p).with_seed(seed);
            let edges = er::generate_par(&cfg, ranks.max(1));
            (
                n,
                vec![edges],
                vec![
                    ("model".into(), "erdos-renyi".into()),
                    ("p".into(), p.to_string()),
                ],
            )
        }
        "ws" => {
            let n = args.u64("n", 100_000)?;
            let x = args.u64("x", 2)?;
            let beta = args.f64("p", 0.1)?;
            let cfg = ws::WsConfig::new(n, 2 * x, beta).with_seed(seed);
            let edges = ws::generate(&cfg, &mut Xoshiro256pp::new(seed));
            (
                n,
                vec![edges],
                vec![
                    ("model".into(), "watts-strogatz".into()),
                    ("k".into(), (2 * x).to_string()),
                    ("beta".into(), beta.to_string()),
                ],
            )
        }
        "cl" => {
            let n = args.u64("n", 100_000)?;
            let mean = args.u64("x", 4)? as f64;
            let gamma = args.f64("gamma", 2.8)?;
            let ranks = args.u64("ranks", 4)? as usize;
            let cfg = cl::ClConfig::new(cl::power_law_weights(n, gamma, mean), seed);
            let edges = cl::generate_par(&cfg, ranks.max(1));
            (
                n,
                vec![edges],
                vec![
                    ("model".into(), "chung-lu".into()),
                    ("gamma".into(), gamma.to_string()),
                    ("mean_degree".into(), mean.to_string()),
                ],
            )
        }
        "rmat" => {
            let scale = args.u64("scale", 18)? as u32;
            if scale == 0 || scale > 62 {
                return Err(CliError::usage("--scale must be in 1..=62"));
            }
            let mut cfg = rmat::RmatConfig::graph500(scale).with_seed(seed);
            let edges_flag = args.u64("edges", cfg.edges)?;
            cfg = cfg.with_edges(edges_flag);
            let ranks = args.u64("ranks", 4)? as usize;
            let edges = rmat::generate_par(&cfg, ranks.max(1));
            (
                cfg.n(),
                vec![edges],
                vec![
                    ("model".into(), "rmat".into()),
                    ("scale".into(), scale.to_string()),
                ],
            )
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown model {other:?} (expected pa, nlpa, er, ws, cl or rmat)"
            )))
        }
    };
    args.finish()?;

    let total_edges: usize = shards.iter().map(EdgeList::len).sum();
    match format.as_str() {
        "pag" => {
            let mut meta = container::Meta::new(n).with("seed", seed);
            for (k, v) in attrs {
                meta.attrs.insert(k, v);
            }
            container::write_file(&path, &meta, &shards).map_err(CliError::io)?;
        }
        "bin" => {
            let merged = EdgeList::concat(shards);
            io::write_binary_file(&path, &merged).map_err(CliError::io)?;
        }
        "txt" => {
            let merged = EdgeList::concat(shards);
            io::write_text_file(&path, &merged).map_err(CliError::io)?;
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown format {other:?} (expected pag, bin or txt)"
            )))
        }
    }
    writeln!(
        out,
        "generated {model}: {n} nodes, {total_edges} edges in {:.2}s -> {path} ({format})",
        started.elapsed().as_secs_f64()
    )
    .map_err(CliError::io)?;
    if let Some((flags, comms)) = pa_stats {
        flags.emit(&MergedStats::from_local(&comms), out)?;
    }
    Ok(())
}

/// Parse the `pa` model's parameters: config, scheme, rank count, knobs,
/// and the engine selection.
fn parse_pa_params(
    args: &Args,
    seed: u64,
) -> Result<(PaConfig, Scheme, usize, GenOptions, u8), CliError> {
    let n = args.u64("n", 100_000)?;
    let x = args.u64("x", 4)?;
    let p = args.f64("p", 0.5)?;
    let ranks = args.u64("ranks", 4)? as usize;
    let scheme = parse_scheme(&args.str("scheme", "rrp"))?;
    if ranks == 0 {
        return Err(CliError::usage("--ranks must be positive"));
    }
    let engine = parse_engine(args)?;
    if engine == 1 && x != 1 {
        return Err(CliError::usage(
            "--engine 1 implements Algorithm 3.1 and requires --x 1",
        ));
    }
    let cfg = validated(n, x, p, seed)?;
    let default_store_dir = format!("{}.store", args.str("out", "graph.pag"));
    let opts = parse_gen_options(args)?
        .with_model(parse_model_kind(args)?)
        .with_store(parse_store_spec(args, &default_store_dir)?);
    Ok((cfg, scheme, ranks, opts, engine))
}

/// Parse a byte size: a plain integer with an optional `k`, `m` or `g`
/// suffix (binary units — KiB, MiB, GiB).
pub(crate) fn parse_byte_size(key: &str, v: &str) -> Result<u64, CliError> {
    let s = v.trim().to_ascii_lowercase();
    let (digits, mul) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mul = match s.as_bytes()[s.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (d, mul)
        }
        None => (s.as_str(), 1u64),
    };
    let bytes: u64 = digits.parse().map_err(|_| {
        CliError::usage(format!(
            "--{key} must be a byte count with an optional k/m/g suffix, got {v:?}"
        ))
    })?;
    bytes
        .checked_mul(mul)
        .ok_or_else(|| CliError::usage(format!("--{key}: {v} overflows")))
}

/// Parse `--memory-budget <bytes[k|m|g]>`, `--page-bytes <bytes[k|m|g]>`
/// and `--store-dir <dir>` into a
/// node-table store spec. No budget means fully resident tables, and
/// `--store-dir` alone is rejected (it would silently change nothing).
pub(crate) fn parse_store_spec(
    args: &Args,
    default_dir: &str,
) -> Result<pa_core::store::StoreSpec, CliError> {
    let budget = args.str("memory-budget", "");
    let dir = args.str("store-dir", "");
    if budget.is_empty() {
        if !dir.is_empty() {
            return Err(CliError::usage(
                "--store-dir needs --memory-budget (resident runs keep no page files)",
            ));
        }
        if !args.str("page-bytes", "").is_empty() {
            return Err(CliError::usage(
                "--page-bytes needs --memory-budget (resident runs have no pages)",
            ));
        }
        return Ok(pa_core::store::StoreSpec::Resident);
    }
    let bytes = parse_byte_size("memory-budget", &budget)?;
    if bytes == 0 {
        return Err(CliError::usage("--memory-budget must be positive"));
    }
    let dir = if dir.is_empty() {
        default_dir.to_string()
    } else {
        dir
    };
    let mut spec = pa_core::store::StoreSpec::paged(dir, bytes);
    let page = args.str("page-bytes", "");
    if !page.is_empty() {
        let page_bytes = parse_byte_size("page-bytes", &page)?;
        if page_bytes < 8 {
            return Err(CliError::usage("--page-bytes must be at least 8"));
        }
        spec = spec.with_page_bytes(page_bytes as usize);
    }
    Ok(spec)
}

/// Remove the page files a paged run left behind (and its directory, if
/// now empty). Runs that checkpoint keep their pages — a saved world's
/// paged checkpoints reference them — so only non-checkpointing paths
/// call this.
pub(crate) fn cleanup_store(store: &pa_core::store::StoreSpec, ranks: usize) {
    if let pa_core::store::StoreSpec::Paged(spec) = store {
        for rank in 0..ranks {
            pa_core::store::clean_rank_pages(&spec.dir, rank);
        }
        let _ = std::fs::remove_dir(&spec.dir);
    }
}

/// Parse the attachment model: `--model pa` (default) or `--model nlpa`
/// with its `--alpha` exponent. Invalid `--alpha` values (negative, NaN,
/// infinite) fail here with the model's own diagnostic instead of
/// panicking inside the engines. Callers dispatch on the model string
/// first, so anything that is not `nlpa` is the classical copy model.
pub(crate) fn parse_model_kind(args: &Args) -> Result<pa_core::ModelKind, CliError> {
    if args.str("model", "pa") != "nlpa" {
        return Ok(pa_core::ModelKind::Pa);
    }
    let kind = pa_core::ModelKind::Nlpa {
        alpha: args.f64("alpha", 1.0)?,
    };
    kind.check()
        .map_err(|e| CliError::usage(format!("--alpha: {e}")))?;
    Ok(kind)
}

/// Parse `--engine 1|2|3` (default 2, the general Algorithm 3.2).
pub(crate) fn parse_engine(args: &Args) -> Result<u8, CliError> {
    match args.u64("engine", 2)? {
        e @ 1..=3 => Ok(e as u8),
        other => Err(CliError::usage(format!(
            "--engine must be 1 (Alg. 3.1, x = 1 only), 2 (Alg. 3.2) or \
             3 (communication-free chain recomputation), got {other}"
        ))),
    }
}

/// Stream a PA network to `path` without ever materializing the edges:
/// each rank writes its own `{path}.part{rank}` through a chunked
/// [`par::StreamingWriterSink`], and the parts are concatenated in rank
/// order afterwards. Peak resident memory is the engines' `O(n/P)` slot
/// state plus one write chunk per rank, regardless of edge count.
///
/// Returns the total number of edges written plus the per-rank
/// communication ledgers (for `--stats` / `--stats-json`).
///
/// This is the single streaming code path shared by `pagen generate`
/// and the `pagen serve` job runner — sharing it is what guarantees a
/// served artifact is byte-identical to a solo run of the same tuple.
pub(crate) fn stream_pa_to_disk(
    cfg: &PaConfig,
    scheme: Scheme,
    ranks: usize,
    opts: &GenOptions,
    engine: u8,
    path: &std::path::Path,
    edge_format: io::EdgeFormat,
) -> Result<(u64, Vec<pa_mpsim::CommStats>), CliError> {
    let part_path = |rank: usize| {
        let mut p = path.as_os_str().to_owned();
        p.push(format!(".part{rank}"));
        std::path::PathBuf::from(p)
    };

    // Pre-create the per-rank files so creation errors surface before any
    // rank spawns; each rank thread then takes its own handle.
    let mut files = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let f = std::fs::File::create(part_path(rank)).map_err(CliError::io)?;
        files.push(std::sync::Mutex::new(Some(f)));
    }

    let make_sink = |rank: usize| {
        let f = files[rank]
            .lock()
            .expect("file handoff poisoned")
            .take()
            .expect("sink built twice for one rank");
        par::StreamingWriterSink::new(f, edge_format)
    };
    let outputs = match engine {
        1 => par::generate_x1_streaming(cfg, scheme, ranks, opts, make_sink),
        2 => par::generate_streaming(cfg, scheme, ranks, opts, make_sink),
        3 => par::generate3_streaming(cfg, scheme, ranks, opts, make_sink),
        _ => unreachable!("callers validate the engine"),
    };

    let cleanup = |err: CliError| {
        for rank in 0..ranks {
            let _ = std::fs::remove_file(part_path(rank));
        }
        err
    };

    let mut total_edges = 0u64;
    let mut comms = Vec::with_capacity(outputs.len());
    for o in outputs {
        total_edges += o.sink.finish().map_err(|e| cleanup(CliError::io(e)))?;
        comms.push(o.comm);
    }

    // Concatenate the parts in rank order into the final file.
    let merged = std::fs::File::create(path).map_err(|e| cleanup(CliError::io(e)))?;
    let mut merged = std::io::BufWriter::new(merged);
    for rank in 0..ranks {
        let mut part =
            std::fs::File::open(part_path(rank)).map_err(|e| cleanup(CliError::io(e)))?;
        std::io::copy(&mut part, &mut merged).map_err(|e| cleanup(CliError::io(e)))?;
    }
    merged
        .into_inner()
        .map_err(|e| cleanup(CliError::io(e.into_error())))?
        .sync_all()
        .map_err(|e| cleanup(CliError::io(e)))?;
    for rank in 0..ranks {
        std::fs::remove_file(part_path(rank)).map_err(CliError::io)?;
    }
    Ok((total_edges, comms))
}

/// Engine tuning knobs shared by the `pa` model: buffering, service
/// cadence, and idle-wait timing.
pub(crate) fn parse_gen_options(args: &Args) -> Result<GenOptions, CliError> {
    let mut opts = GenOptions::default();
    opts.buffer_capacity = args.u64("buffer-cap", opts.buffer_capacity as u64)? as usize;
    if opts.buffer_capacity == 0 {
        return Err(CliError::usage("--buffer-cap must be positive"));
    }
    opts.service_interval = args.u64("service-interval", opts.service_interval as u64)? as usize;
    if opts.service_interval == 0 {
        return Err(CliError::usage("--service-interval must be positive"));
    }
    let default_idle_us = opts.idle_wait.as_micros() as u64;
    let idle_us = args.u64("idle-wait-us", default_idle_us)?;
    if idle_us == 0 {
        return Err(CliError::usage("--idle-wait-us must be positive"));
    }
    opts.idle_wait = std::time::Duration::from_micros(idle_us);
    opts.idle_flush_interval =
        args.u64("idle-flush-interval", opts.idle_flush_interval as u64)? as usize;
    if opts.idle_flush_interval == 0 {
        return Err(CliError::usage("--idle-flush-interval must be positive"));
    }
    let chaos_seed = args.u64("chaos-seed", 0)?;
    match args.str("chaos-profile", "off").as_str() {
        "off" => {}
        "light" => opts = opts.with_fault_plan(pa_core::FaultPlan::light(chaos_seed)),
        "aggressive" => opts = opts.with_fault_plan(pa_core::FaultPlan::aggressive(chaos_seed)),
        other => {
            return Err(CliError::usage(format!(
                "--chaos-profile must be off, light or aggressive, got {other:?}"
            )))
        }
    }
    let stall_ms = args.u64("stall-timeout-ms", 0)?;
    if stall_ms > 0 {
        opts = opts.with_stall_timeout(std::time::Duration::from_millis(stall_ms));
    } else if opts.fault_plan.is_some() {
        // Chaos without a watchdog turns any injection bug into a hung
        // process; default to a generous timeout that real runs never hit.
        opts = opts.with_stall_timeout(std::time::Duration::from_secs(120));
    }
    let memo = args.u64("chain-memo", opts.chain_memo_nodes)?;
    opts = opts.with_chain_memo(memo);
    Ok(opts)
}

pub(crate) fn validated(n: u64, x: u64, p: f64, seed: u64) -> Result<PaConfig, CliError> {
    if x == 0 || n <= x {
        return Err(CliError::usage("need n > x >= 1"));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(CliError::usage("--p must lie in [0, 1]"));
    }
    Ok(PaConfig { n, x, p, seed })
}

pub(crate) fn parse_scheme(s: &str) -> Result<Scheme, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "ucp" => Ok(Scheme::Ucp),
        "lcp" => Ok(Scheme::Lcp),
        "rrp" => Ok(Scheme::Rrp),
        "bcp" => Ok(Scheme::Bcp),
        other => Err(CliError::usage(format!(
            "unknown scheme {other:?} (expected ucp, lcp, rrp or bcp)"
        ))),
    }
}
