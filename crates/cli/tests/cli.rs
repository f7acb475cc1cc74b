//! End-to-end tests of the `pagen` command surface (driving [`pa_cli::run`]
//! directly, which is exactly what the binary does).

use pa_cli::run;

fn exec(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    match run(&argv, &mut out) {
        Ok(()) => Ok(String::from_utf8(out).unwrap()),
        Err(e) => Err(e.message().to_string()),
    }
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("pagen_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn generate_analyze_info_pipeline() {
    let path = tmp("pipeline.pag");
    let gen = exec(&[
        "generate", "--model", "pa", "--n", "5000", "--x", "3", "--ranks", "4", "--scheme", "lcp",
        "--seed", "7", "--out", &path,
    ])
    .unwrap();
    assert!(gen.contains("5000 nodes"));
    assert!(gen.contains("pag"));

    let info = exec(&["info", "--in", &path]).unwrap();
    assert!(info.contains("nodes:  5000"));
    assert!(info.contains("4 shard(s)"));
    assert!(info.contains("model = preferential-attachment"));
    assert!(info.contains("scheme = LCP"));

    let report = exec(&["analyze", "--in", &path]).unwrap();
    assert!(report.contains("edges            14994"), "{report}");
    assert!(report.contains("components       1"));
    assert!(report.contains("power law"));
}

#[test]
fn generate_binary_and_text_formats() {
    for format in ["bin", "txt"] {
        let path = tmp(&format!("g.{format}"));
        exec(&[
            "generate", "--model", "pa", "--n", "500", "--x", "2", "--out", &path, "--format",
            format,
        ])
        .unwrap();
        let report = exec(&["analyze", "--in", &path, "--format", format, "--n", "500"]).unwrap();
        assert!(
            report.contains("edges            997"),
            "{format}: {report}"
        );
    }
}

#[test]
fn streamed_binary_output_matches_materialized_run() {
    // pa + bin routes through the streaming writer: the file must hold
    // exactly the edge set a materialized run produces, the reported
    // count must match the file size, and no part files may remain.
    let bin = tmp("streamed.bin");
    let pag = tmp("streamed.pag");
    let common = [
        "--model", "pa", "--n", "3000", "--x", "3", "--ranks", "4", "--scheme", "rrp", "--seed",
        "11",
    ];
    let mut gen_bin: Vec<&str> = vec!["generate"];
    gen_bin.extend_from_slice(&common);
    gen_bin.extend_from_slice(&["--out", &bin, "--format", "bin"]);
    let msg = exec(&gen_bin).unwrap();
    assert!(msg.contains("streamed"), "{msg}");

    let mut gen_pag: Vec<&str> = vec!["generate"];
    gen_pag.extend_from_slice(&common);
    gen_pag.extend_from_slice(&["--out", &pag, "--format", "pag"]);
    exec(&gen_pag).unwrap();

    let streamed = pa_graph::io::read_binary_file(&bin).unwrap();
    let (_, shards) = pa_graph::container::read_file(&pag).unwrap();
    let materialized = pa_graph::EdgeList::concat(shards);
    assert_eq!(streamed.canonicalized(), materialized.canonicalized());

    let file_len = std::fs::metadata(&bin).unwrap().len();
    assert_eq!(file_len, streamed.len() as u64 * 16);
    let reported = msg
        .split_whitespace()
        .find_map(|w| w.parse::<u64>().ok().filter(|&e| e > 3000))
        .unwrap();
    assert_eq!(reported, streamed.len() as u64);

    for rank in 0..4 {
        assert!(
            !std::path::Path::new(&format!("{bin}.part{rank}")).exists(),
            "part file {rank} left behind"
        );
    }
}

#[test]
fn all_models_generate() {
    for (model, extra) in [
        ("er", vec!["--p", "0.002"]),
        ("ws", vec!["--x", "2", "--p", "0.1"]),
        ("cl", vec!["--gamma", "3.0", "--x", "3"]),
    ] {
        let path = tmp(&format!("{model}.pag"));
        let mut args = vec!["generate", "--model", model, "--n", "2000", "--out", &path];
        args.extend(extra.iter());
        let msg = exec(&args).unwrap_or_else(|e| panic!("{model}: {e}"));
        assert!(msg.contains("2000 nodes"), "{model}: {msg}");
        let info = exec(&["info", "--in", &path]).unwrap();
        assert!(info.contains("attr:   model"), "{model}: {info}");
    }
    // R-MAT sizes by scale.
    let path = tmp("rmat.pag");
    let msg = exec(&[
        "generate", "--model", "rmat", "--scale", "10", "--edges", "4000", "--out", &path,
    ])
    .unwrap();
    assert!(msg.contains("1024 nodes"), "{msg}");
}

#[test]
fn chains_prints_theorem_bounds() {
    let out = exec(&["chains", "--n", "100000", "--p", "0.5"]).unwrap();
    assert!(out.contains("dependency: mean"));
    assert!(out.contains("bound 1/p"));
    assert!(out.contains("selection:"));
}

#[test]
fn help_lists_commands() {
    let out = exec(&["help"]).unwrap();
    for cmd in ["generate", "analyze", "info", "chains"] {
        assert!(out.contains(cmd));
    }
}

#[test]
fn error_paths_are_user_facing() {
    // Unknown command.
    let err = exec(&["frobnicate"]).unwrap_err();
    assert!(err.contains("unknown command"));
    // Unknown model.
    let err = exec(&["generate", "--model", "nope"]).unwrap_err();
    assert!(err.contains("unknown model"));
    // Typo'd flag.
    let err = exec(&["chains", "--nn", "5"]).unwrap_err();
    assert!(err.contains("unknown flag"));
    // Bad scheme.
    let err = exec(&["generate", "--scheme", "zigzag"]).unwrap_err();
    assert!(err.contains("unknown scheme"));
    // Missing required flag.
    let err = exec(&["analyze"]).unwrap_err();
    assert!(err.contains("--in"));
    // Degenerate model parameters.
    let err = exec(&["generate", "--n", "3", "--x", "5"]).unwrap_err();
    assert!(err.contains("n > x"));
    // Missing file.
    let err = exec(&["info", "--in", &tmp("does_not_exist.pag")]).unwrap_err();
    assert!(err.contains("i/o error"));
}

#[test]
fn analyze_rejects_undersized_n() {
    let path = tmp("undersized.bin");
    exec(&[
        "generate", "--model", "pa", "--n", "100", "--x", "1", "--out", &path, "--format", "bin",
    ])
    .unwrap();
    let err = exec(&["analyze", "--in", &path, "--format", "bin", "--n", "5"]).unwrap_err();
    assert!(err.contains("smaller than the largest"));
}

#[test]
fn pa_generation_via_cli_is_reproducible() {
    let a = tmp("repro_a.pag");
    let b = tmp("repro_b.pag");
    for path in [&a, &b] {
        exec(&[
            "generate", "--model", "pa", "--n", "3000", "--x", "1", "--seed", "99", "--out", path,
        ])
        .unwrap();
    }
    let (_, sa) = pa_graph::container::read_file(&a).unwrap();
    let (_, sb) = pa_graph::container::read_file(&b).unwrap();
    let ea = pa_graph::EdgeList::concat(sa).canonicalized();
    let eb = pa_graph::EdgeList::concat(sb).canonicalized();
    assert_eq!(ea, eb);
}

#[test]
fn pa_tuning_flags_do_not_change_the_network() {
    // The engine knobs (buffering, cadence, idle waits) are pure
    // performance levers; the generated network must be identical.
    let base = tmp("tuned_base.pag");
    let tuned = tmp("tuned_knobs.pag");
    exec(&[
        "generate", "--model", "pa", "--n", "4000", "--x", "3", "--seed", "13", "--ranks", "4",
        "--out", &base,
    ])
    .unwrap();
    exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "4000",
        "--x",
        "3",
        "--seed",
        "13",
        "--ranks",
        "4",
        "--buffer-cap",
        "64",
        "--service-interval",
        "16",
        "--idle-wait-us",
        "50",
        "--idle-flush-interval",
        "4",
        "--out",
        &tuned,
    ])
    .unwrap();
    let (_, sa) = pa_graph::container::read_file(&base).unwrap();
    let (_, sb) = pa_graph::container::read_file(&tuned).unwrap();
    assert_eq!(
        pa_graph::EdgeList::concat(sa).canonicalized(),
        pa_graph::EdgeList::concat(sb).canonicalized()
    );
}

#[test]
fn removed_cache_flag_fails_loudly() {
    // The replicated cache and its flag are gone; a script that still
    // passes the flag must fail, not run with the flag silently ignored.
    let path = tmp("removed_flag.pag");
    let _ = std::fs::remove_file(&path);
    let gen = exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "1000",
        "--x",
        "2",
        "--hub-cache",
        "off",
        "--out",
        &path,
    ])
    .unwrap_err();
    assert!(gen.contains("unknown flag(s): --hub-cache"), "{gen}");
    assert!(!std::path::Path::new(&path).exists(), "nothing written");
    let info = exec(&["info", "--n", "1000", "--hub-cache", "off"]).unwrap_err();
    assert!(info.contains("unknown flag(s): --hub-cache"), "{info}");
}

#[test]
fn chaos_profile_does_not_change_the_network() {
    // The acceptance invariant of the fault layer, end to end through the
    // CLI: a chaos run writes exactly the edges of the clean run.
    let clean = tmp("chaos_clean.pag");
    let chaos = tmp("chaos_faulty.pag");
    exec(&[
        "generate", "--model", "pa", "--n", "3000", "--x", "3", "--seed", "29", "--ranks", "4",
        "--out", &clean,
    ])
    .unwrap();
    exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "3000",
        "--x",
        "3",
        "--seed",
        "29",
        "--ranks",
        "4",
        "--chaos-profile",
        "aggressive",
        "--chaos-seed",
        "5",
        "--stall-timeout-ms",
        "60000",
        "--out",
        &chaos,
    ])
    .unwrap();
    let (_, sa) = pa_graph::container::read_file(&clean).unwrap();
    let (_, sb) = pa_graph::container::read_file(&chaos).unwrap();
    assert_eq!(
        pa_graph::EdgeList::concat(sa).canonicalized(),
        pa_graph::EdgeList::concat(sb).canonicalized()
    );
}

#[test]
fn chaos_profile_rejects_garbage() {
    let err = exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "1000",
        "--chaos-profile",
        "catastrophic",
        "--out",
        &tmp("chaosbad.pag"),
    ])
    .unwrap_err();
    assert!(err.contains("--chaos-profile"), "{err}");
}

#[test]
fn zero_valued_tuning_flags_are_rejected() {
    for flag in [
        "--buffer-cap",
        "--service-interval",
        "--idle-wait-us",
        "--idle-flush-interval",
    ] {
        let err = exec(&[
            "generate",
            "--model",
            "pa",
            "--n",
            "1000",
            flag,
            "0",
            "--out",
            &tmp("zero.pag"),
        ])
        .unwrap_err();
        assert!(err.contains(flag), "{flag}: {err}");
    }
}

#[test]
fn engine3_produces_the_same_network_as_engine2() {
    // --engine selects the strategy, never the result: engines 2 and 3
    // must write byte-identical edge sets (and bcp must be accepted).
    let e2 = tmp("engine2.bin");
    let e3 = tmp("engine3.bin");
    let common = [
        "--model", "pa", "--n", "4000", "--x", "3", "--ranks", "4", "--scheme", "bcp", "--seed",
        "23", "--format", "bin",
    ];
    for (engine, path) in [("2", &e2), ("3", &e3)] {
        let mut argv: Vec<&str> = vec!["generate"];
        argv.extend_from_slice(&common);
        argv.extend_from_slice(&["--engine", engine, "--out", path]);
        let msg = exec(&argv).unwrap();
        assert!(msg.contains("4000 nodes"), "{msg}");
    }
    let a = pa_graph::io::read_binary_file(&e2).unwrap();
    let b = pa_graph::io::read_binary_file(&e3).unwrap();
    assert_eq!(a.canonicalized(), b.canonicalized());
}

#[test]
fn engine_flag_rejects_bad_values() {
    let err = exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "1000",
        "--engine",
        "4",
        "--out",
        &tmp("e4.pag"),
    ])
    .unwrap_err();
    assert!(err.contains("--engine"), "{err}");

    // Engine 1 is the x = 1 specialization; any other x must be refused.
    let err = exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "1000",
        "--x",
        "3",
        "--engine",
        "1",
        "--out",
        &tmp("e1.pag"),
    ])
    .unwrap_err();
    assert!(err.contains("x"), "{err}");
}

#[test]
fn nlpa_alpha_one_matches_pa() {
    // --model nlpa --alpha 1.0 must route through the same draw stream
    // as --model pa: same edge set through engine 2 (whose streamed byte
    // order varies with thread timing), byte-identical files through the
    // communication-free engine 3 (whose commit order is label order).
    let common = [
        "--n", "2000", "--x", "3", "--ranks", "4", "--scheme", "rrp", "--seed", "9", "--format",
        "bin",
    ];
    let run_one = |model_flags: &[&str], engine: &str, out: &str| {
        let mut argv: Vec<&str> = vec!["generate"];
        argv.extend_from_slice(model_flags);
        argv.extend_from_slice(&common);
        argv.extend_from_slice(&["--engine", engine, "--out", out]);
        exec(&argv).unwrap();
    };
    for engine in ["2", "3"] {
        let pa = tmp(&format!("nlpa_vs_pa_pa_e{engine}.bin"));
        let nl = tmp(&format!("nlpa_vs_pa_nl_e{engine}.bin"));
        run_one(&["--model", "pa"], engine, &pa);
        run_one(&["--model", "nlpa", "--alpha", "1.0"], engine, &nl);
        let a = pa_graph::io::read_binary_file(&pa).unwrap();
        let b = pa_graph::io::read_binary_file(&nl).unwrap();
        assert_eq!(a.canonicalized(), b.canonicalized(), "engine {engine}");
        if engine == "3" {
            assert_eq!(
                std::fs::read(&pa).unwrap(),
                std::fs::read(&nl).unwrap(),
                "engine 3 streams in label order; files must match byte-for-byte"
            );
        }
    }
}

#[test]
fn nlpa_records_its_exponent_in_the_container() {
    let path = tmp("nlpa_meta.pag");
    let msg = exec(&[
        "generate", "--model", "nlpa", "--alpha", "1.5", "--n", "3000", "--x", "2", "--ranks", "2",
        "--seed", "3", "--out", &path,
    ])
    .unwrap();
    assert!(msg.contains("generated nlpa"), "{msg}");
    let info = exec(&["info", "--in", &path]).unwrap();
    assert!(info.contains("nonlinear-preferential-attachment"), "{info}");
    assert!(info.contains("alpha = 1.5"), "{info}");
}

#[test]
fn nlpa_works_through_every_engine() {
    // Engines 2 and 3 must agree on the nlpa edge set; engine 1 runs the
    // x = 1 specialization of the same model.
    let e2 = tmp("nlpa_e2.bin");
    let e3 = tmp("nlpa_e3.bin");
    for (engine, out) in [("2", &e2), ("3", &e3)] {
        exec(&[
            "generate", "--model", "nlpa", "--alpha", "0.5", "--n", "4000", "--x", "2", "--ranks",
            "4", "--seed", "5", "--engine", engine, "--out", out, "--format", "bin",
        ])
        .unwrap();
    }
    let a = pa_graph::io::read_binary_file(&e2).unwrap();
    let b = pa_graph::io::read_binary_file(&e3).unwrap();
    assert_eq!(a.canonicalized(), b.canonicalized());

    let msg = exec(&[
        "generate",
        "--model",
        "nlpa",
        "--alpha",
        "1.5",
        "--n",
        "1000",
        "--x",
        "1",
        "--ranks",
        "2",
        "--engine",
        "1",
        "--out",
        &tmp("nlpa_e1.pag"),
    ])
    .unwrap();
    assert!(msg.contains("1000 nodes"), "{msg}");
}

#[test]
fn nlpa_rejects_bad_alpha_values() {
    for (alpha, needle) in [("-1.0", "non-negative"), ("nan", "NaN"), ("inf", "finite")] {
        let err = exec(&[
            "generate",
            "--model",
            "nlpa",
            "--alpha",
            alpha,
            "--n",
            "100",
            "--x",
            "1",
            "--out",
            &tmp("nlpa_bad.pag"),
        ])
        .unwrap_err();
        assert!(err.contains(needle), "alpha {alpha}: {err}");
        assert!(err.contains("--alpha"), "alpha {alpha}: {err}");
    }
    // Not a number at all: the flag parser's own diagnostic.
    let err = exec(&[
        "generate",
        "--model",
        "nlpa",
        "--alpha",
        "fast",
        "--n",
        "100",
        "--x",
        "1",
        "--out",
        &tmp("nlpa_bad.pag"),
    ])
    .unwrap_err();
    assert!(err.contains("--alpha must be a number"), "{err}");
}

#[test]
fn alpha_without_nlpa_is_flagged_as_unknown() {
    let err = exec(&[
        "generate",
        "--model",
        "pa",
        "--alpha",
        "1.5",
        "--n",
        "100",
        "--x",
        "1",
        "--out",
        &tmp("pa_alpha.pag"),
    ])
    .unwrap_err();
    assert!(err.contains("--alpha"), "{err}");
}

#[test]
fn chain_memo_rejects_non_integer_values() {
    for bad in ["-1", "many", "1.5"] {
        let err = exec(&[
            "generate",
            "--model",
            "pa",
            "--n",
            "100",
            "--x",
            "1",
            "--chain-memo",
            bad,
            "--out",
            &tmp("memo_bad.pag"),
        ])
        .unwrap_err();
        assert!(
            err.contains("--chain-memo must be an integer"),
            "{bad}: {err}"
        );
    }
}

#[test]
fn info_sizes_tables_and_chain_memo_like_the_engines() {
    use pa_core::par::ChainMemoLayout;
    use pa_core::partition::{self, Scheme};

    fn line<'a>(info: &'a str, name: &str) -> &'a str {
        info.lines()
            .find(|l| l.trim_start().starts_with(name))
            .unwrap_or_else(|| panic!("no {name:?} line in:\n{info}"))
    }
    fn mib(bytes: u64) -> String {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    }

    // n = 4e6, x = 4, two balanced RRP ranks: 2e6 nodes each.
    let base = ["info", "--n", "4000000", "--x", "4", "--engine", "3"];
    let run = |extra: &[&str]| exec(&[&base[..], extra].concat()).unwrap();
    let part = partition::build(Scheme::Rrp, 4_000_000, 2);
    let memo = |nodes: u64, paged: bool| {
        mib(ChainMemoLayout::plan(&part, 0, nodes, paged).bytes(4_000_000, 4))
    };

    let info = run(&["--ranks", "2"]);
    // u32 F cells: 2e6 nodes · 4 slots · 4 B.
    assert!(line(&info, "F table").contains(&mib(32_000_000)), "{info}");
    // Default memo: every remote row, untagged, 4 B cells.
    assert_eq!(
        memo(pa_core::DEFAULT_CHAIN_MEMO_NODES, false),
        mib(32_000_000)
    );
    assert!(
        line(&info, "chain memo").contains(&mib(32_000_000)),
        "{info}"
    );

    // Under a budget the default stays at 2^20 hashed rows of 1 + x cells.
    let info = run(&["--ranks", "2", "--memory-budget", "64m"]);
    assert_eq!(memo(pa_core::DEFAULT_CHAIN_MEMO_NODES, true), mib(20 << 20));
    assert!(line(&info, "chain memo").contains(&mib(20 << 20)), "{info}");

    // An explicit size below the remote row count is hashed.
    let info = run(&["--ranks", "2", "--chain-memo", "1000000"]);
    assert!(
        line(&info, "chain memo").contains(&memo(1_000_000, false)),
        "{info}"
    );

    // One rank recomputes nothing and allocates no memo.
    let info = run(&["--ranks", "1"]);
    assert!(line(&info, "chain memo").ends_with(" 0 B"), "{info}");
}
