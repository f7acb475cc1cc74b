//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//! ```
//!
//! Runs one workload for `--seconds`, checks every output against the
//! sequential copy model, and prints the metrics by name and unit. The
//! last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The traced run also writes its spans to
//! `<out-dir>/trace-<workload>-seed<n>.json`. `perfbench/run.py` builds
//! this program and runs it; see `perfbench/README.md`.

mod engine;
mod gen;
mod measure;
mod report;
mod serve;
mod tcp;
mod trace;

use report::{Ctx, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by the names `--workload` takes.
const WORKLOADS: &[&str] = &["e3-disk", "e2-tcp", "e3-paged", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        out_dir: PathBuf::from(get("--out-dir")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 --out-dir <dir>"
            );
            return ExitCode::from(2);
        }
    };
    let dir = args
        .out_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, dir.clone());
    match args.workload.as_str() {
        "e3-disk" => gen::run(&mut ctx, &gen::E3_DISK),
        "e3-paged" => gen::run(&mut ctx, &gen::E3_PAGED),
        "e2-tcp" => tcp::run(&mut ctx),
        _ => serve::run(&mut ctx),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        ctx.set("trace.spans", ctx.tracer.spans().len() as f64);
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, ctx.tracer.to_json()) {
            Ok(()) => ctx
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => ctx.notes.push(format!("could not write spans: {e}")),
        }
    }
    println!(
        "{} seed {} ({}): {} operations, {} failed, failed_ratio {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        ctx.attempted,
        ctx.failed,
        ctx.failed as f64 / ctx.attempted.max(1) as f64
    );
    for note in &ctx.notes {
        println!("  {note}");
    }
    for (name, unit) in table {
        let v = ctx.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<34} {v:>16.6} {unit}");
    }
    println!("{}", ctx.result_json(table));
    ExitCode::SUCCESS
}
