//! The `serve-mix` workload: a `pagen serve` daemon with one worker,
//! run in this process through `pa_cli::run`, and a closed loop of two
//! client threads calling `pa_net::serve::fetch`. Three requests in four
//! re-fetch one of eight artifacts warmed during set-up; the fourth is a
//! fresh tuple the daemon must generate. Which artifact, and the fresh
//! tuples' seeds, are drawn from the workload seed. The mix is an
//! assumption, not recorded traffic.

use crate::engine;
use crate::gen::{self, X};
use crate::measure::{self, EdgeSetHash};
use crate::report::Ctx;
use pa_core::partition::Scheme;
use pa_core::{seq, PaConfig};
use pa_graph::io::EdgeFormat;
use pa_net::serve::{self, FetchError, FetchOptions, FetchReport, JobSpec, ServeStats};
use pa_rng::{Rng64, Xoshiro256pp};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Nodes per job: 8e5 edges, a 12.8 MB artifact.
pub const N: u64 = 200_000;
/// Artifacts warmed during set-up and re-fetched by the loop.
pub const HOT: usize = 8;
/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Daemon starts (each with a fresh cache) the untraced run times.
pub const SETUP_REPS: usize = 3;
/// How long a daemon may take to start, drain or answer.
const TIMEOUT: Duration = Duration::from_secs(30);

fn cfg(seed: u64) -> PaConfig {
    gen::SERVE_JOB.cfg(seed)
}

/// The job tuple the loop fetches for generation seed `seed`: engine 3,
/// one rank, the `pa` model, binary output.
fn spec(seed: u64) -> JobSpec {
    JobSpec {
        n: N,
        x: X,
        p_bits: 0.5f64.to_bits(),
        seed,
        alpha_bits: 0,
        ranks: 1,
        scheme_id: Scheme::Rrp.id(),
        engine_id: 3,
        model_id: 0,
        format_id: EdgeFormat::Binary.id(),
    }
}

/// What a served artifact must match, from the sequential copy model:
/// its edge-set fingerprint and the FNV-1a checksum of its edges in the
/// binary layout. Engine 3 on one rank writes the copy model's edges in
/// the copy model's order, so a correct artifact has that checksum too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Oracle {
    set: EdgeSetHash,
    checksum: u64,
}

/// The oracle for generation seed `seed`, with the copy model's time.
fn oracle(seed: u64) -> (Oracle, f64) {
    let t = Instant::now();
    let edges = seq::copy_model(&cfg(seed));
    let model_s = t.elapsed().as_secs_f64();
    let oracle = Oracle {
        set: EdgeSetHash::of_edges(&edges),
        checksum: measure::bin_checksum(&edges),
    };
    (oracle, model_s)
}

/// Forwards the daemon's console output to the benchmark.
struct ChannelOut(mpsc::Sender<Vec<u8>>);

impl Write for ChannelOut {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let _ = self.0.send(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A running `pagen serve` daemon.
struct Daemon {
    addr: String,
    thread: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Start `pagen serve` on an ephemeral loopback port over `jobs_dir`
    /// and wait for its startup line.
    fn start(jobs_dir: &Path) -> Result<Daemon, String> {
        let args: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--jobs-dir",
            &jobs_dir.display().to_string(),
        ]
        .map(String::from)
        .to_vec();
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            pa_cli::run(&args, &mut ChannelOut(tx)).map_err(|e| e.to_string())
        });
        let mut console = String::new();
        while let Ok(bytes) = rx.recv_timeout(TIMEOUT) {
            console.push_str(&String::from_utf8_lossy(&bytes));
            let addr = console
                .strip_prefix("serving on ")
                .and_then(|rest| rest.split_once(' '))
                .map(|(addr, _)| addr.to_string());
            if let Some(addr) = addr {
                return Ok(Daemon { addr, thread });
            }
        }
        let why = match thread.join() {
            Ok(Err(e)) => e,
            _ => format!("no startup line (console: {console:?})"),
        };
        Err(format!("pagen serve did not start: {why}"))
    }

    /// Drain the daemon and wait for it to exit.
    fn stop(self) -> Result<(), String> {
        serve::drain(&self.addr, TIMEOUT).map_err(|e| format!("drain: {e}"))?;
        match self.thread.join() {
            Ok(r) => r,
            Err(_) => Err("pagen serve panicked".into()),
        }
    }
}

/// One fetch of the closed loop.
struct Fetch {
    hot: bool,
    seed: u64,
    start: Instant,
    end: Instant,
    /// The artifact's checksum, or why the fetch failed.
    got: Result<u64, String>,
}

/// Bytes of one job's artifact.
fn artifact_bytes() -> u64 {
    16 * cfg(0).expected_edges()
}

/// Check that a fetch left an artifact of the right length at `path`,
/// then remove it. Returns the checksum the client verified against the
/// daemon's while streaming.
fn landed(report: Result<FetchReport, FetchError>, path: &Path) -> Result<u64, String> {
    let on_disk = std::fs::metadata(path).map(|m| m.len());
    let _ = std::fs::remove_file(path);
    let report = report.map_err(|e| e.to_string())?;
    let on_disk = on_disk.map_err(|e| e.to_string())?;
    let want = artifact_bytes();
    if report.total != want || on_disk != want {
        return Err(format!(
            "artifact of {} bytes ({on_disk} on disk), expected {want}",
            report.total
        ));
    }
    Ok(report.checksum)
}

/// Start a daemon on a fresh cache and warm the hot artifacts. The set-up
/// time covers the start and the fetches; reading each warmed file back
/// and checking it against its oracle comes after. Returns the daemon and
/// the set-up seconds.
fn setup(ctx: &mut Ctx, hot: &[(u64, Oracle)], rep: usize) -> Result<(Daemon, f64), String> {
    let start = Instant::now();
    let daemon = Daemon::start(&ctx.dir.join(format!("jobs{rep}")))?;
    let warmed: Vec<_> = hot
        .iter()
        .enumerate()
        .map(|(i, &(seed, _))| {
            let path = ctx.dir.join(format!("warm{i}.bin"));
            let report = serve::fetch(&FetchOptions::new(&daemon.addr, spec(seed), &path));
            (path, report)
        })
        .collect();
    let secs = start.elapsed().as_secs_f64();
    for ((path, report), &(seed, want)) in warmed.into_iter().zip(hot) {
        let file = measure::read_bin_file(&path).map_err(|e| e.to_string());
        let got = landed(report, &path).and_then(|checksum| {
            Ok(Oracle {
                set: file?.set,
                checksum,
            })
        });
        ctx.check(got == Ok(want), || format!("warming seed {seed}: {got:?}"));
    }
    Ok((daemon, secs))
}

/// Run the closed loop for the context's duration.
fn closed_loop(ctx: &Ctx, addr: &str, hot: &[(u64, Oracle)]) -> (Vec<Fetch>, f64) {
    let fetches = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (fetches, path) = (&fetches, ctx.dir.join(format!("client{client}.bin")));
            let mut rng = Xoshiro256pp::seed_from(ctx.seed, 1 + client as u64);
            s.spawn(move || {
                let running = |_: &usize| start.elapsed().as_secs_f64() < ctx.seconds;
                for i in (0..).take_while(running) {
                    // Every fourth request is fresh, the two clients out
                    // of phase: a fixed mix keeps the cold share, and with
                    // it the throughput, from varying with the draws.
                    let is_hot = (i + 2 * client) % 4 != 3;
                    let seed = if is_hot {
                        hot[rng.gen_below(HOT as u64) as usize].0
                    } else {
                        rng.next_u64()
                    };
                    let t = Instant::now();
                    let report = serve::fetch(&FetchOptions::new(addr, spec(seed), &path));
                    let end = Instant::now();
                    let fetch = Fetch {
                        hot: is_hot,
                        seed,
                        start: t,
                        end,
                        got: landed(report, &path),
                    };
                    fetches.lock().expect("a client panicked").push(fetch);
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (fetches.into_inner().expect("a client panicked"), wall)
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) {
    // The hot tuples and their oracles come first, before any timing.
    let mut rng = Xoshiro256pp::seed_from(ctx.seed, 0);
    let mut hot = Vec::new();
    let mut model_s = Vec::new();
    while hot.len() < HOT {
        let seed = rng.next_u64();
        if hot.iter().all(|&(s, _)| s != seed) {
            let (oracle, m) = oracle(seed);
            hot.push((seed, oracle));
            model_s.push(m);
        }
    }
    ctx.set("core.seq.copy_model_s", measure::median(&model_s));

    let reps = if ctx.traced() { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..reps {
        match setup(ctx, &hot, rep) {
            Ok((d, secs)) => {
                setups.push(secs);
                if let Some(old) = daemon.replace(d) {
                    let r = old.stop();
                    ctx.check(r.is_ok(), || format!("stopping a set-up daemon: {r:?}"));
                }
            }
            Err(e) => {
                ctx.check(false, || e);
            }
        }
    }
    let Some(daemon) = daemon else { return };
    ctx.set("setup_s", measure::median(&setups));
    measure::reset_peak_rss();

    let before = serve::status(&daemon.addr, TIMEOUT).map(|s| s.stats);
    let cpu0 = measure::cpu_time();
    let (fetches, wall) = closed_loop(ctx, &daemon.addr, &hot);
    let cpu = (measure::cpu_time() - cpu0).as_secs_f64();
    let after = serve::status(&daemon.addr, TIMEOUT).map(|s| s.stats);
    ctx.set("peak_rss_mb", measure::peak_rss_mb());
    let stopped = daemon.stop();
    ctx.check(stopped.is_ok(), || {
        format!("stopping the daemon: {stopped:?}")
    });

    let verified = verify(ctx, &fetches, &hot);
    let lat = |hot: bool| -> Vec<f64> {
        verified
            .iter()
            .filter(|f| f.hot == hot)
            .map(|f| (f.end - f.start).as_secs_f64())
            .collect()
    };
    let all: Vec<f64> = verified
        .iter()
        .map(|f| (f.end - f.start).as_secs_f64())
        .collect();
    let m = (artifact_bytes() / 16) as f64;
    ctx.set("edges_per_s", all.len() as f64 * m / wall);
    ctx.set("fetches_per_s", all.len() as f64 / wall);
    ctx.set("cpu_s", cpu / fetches.len().max(1) as f64);
    ctx.set_latency(&all);
    ctx.notes.push(format!(
        "{} fetches in {wall:.2}s: {} hot, {} fresh",
        fetches.len(),
        lat(true).len(),
        lat(false).len()
    ));

    if ctx.traced() {
        for f in &verified {
            let name = if f.hot {
                "net.serve.fetch.hot"
            } else {
                "net.serve.fetch.cold"
            };
            ctx.tracer.record(None, name, f.start, f.end);
        }
        let hot_ms = measure::median(&lat(true)) * 1e3;
        ctx.set("net.serve.hot_fetch_ms_p50", hot_ms);
        ctx.set(
            "net.serve.cold_fetch_ms_p50",
            measure::median(&lat(false)) * 1e3,
        );
        ctx.set("net.serve.stream_mb_per_s", 16.0 * m / 1e6 / (hot_ms / 1e3));
        if let (Ok(a), Ok(b)) = (before, after) {
            set_serve_stats(ctx, &a, &b);
        }
        // One job's tuple solo through the layers under the daemon: the
        // CLI's generate path its runner shares, the writer, the engine.
        let (seed, oracle) = hot[0];
        gen::traced(ctx, &gen::SERVE_JOB, &cfg(seed), oracle.set);
    }
}

/// Check every fetch's checksum: hot ones against their set-up oracles,
/// fresh ones against an oracle computed now, after the timed loop.
/// Returns the fetches that passed.
fn verify<'a>(ctx: &mut Ctx, fetches: &'a [Fetch], hot: &[(u64, Oracle)]) -> Vec<&'a Fetch> {
    let mut oracles: HashMap<u64, Oracle> = hot.iter().copied().collect();
    let mut ok = Vec::new();
    for f in fetches {
        let want = oracles.entry(f.seed).or_insert_with(|| oracle(f.seed).0);
        let good = f.got.as_ref() == Ok(&want.checksum);
        let seed = f.seed;
        if ctx.check(good, || format!("fetch of seed {seed}: {:?}", f.got)) {
            ok.push(f);
        }
    }
    ok
}

fn set_serve_stats(ctx: &mut Ctx, a: &ServeStats, b: &ServeStats) {
    let (run, coalesced) = (b.jobs_run - a.jobs_run, b.jobs_coalesced - a.jobs_coalesced);
    ctx.set("net.serve.jobs_run", run as f64);
    ctx.set("net.serve.jobs_coalesced", coalesced as f64);
    ctx.set("net.serve.rejects", (b.rejects - a.rejects) as f64);
    ctx.set(
        "net.serve.bytes_streamed",
        (b.bytes_streamed - a.bytes_streamed) as f64,
    );
    ctx.set(
        "net.serve.hit_ratio",
        engine::ratio(coalesced, coalesced + run),
    );
}
