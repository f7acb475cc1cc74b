//! Model-conformance suite: nonlinear PA (nlpa) across the whole stack.
//!
//! The nlpa fingerprints below were captured from the sequential oracle
//! (`seq::nlpa`) the day the model landed; every parallel path — both
//! engines, every scheme, every rank count, chaos transports, and
//! checkpoint/restart — must keep reproducing them bit-for-bit. At
//! `α = 1.0` the model is defined to be *exactly* the classical copy
//! model, so those rows re-use the PR-1 PA oracles from
//! `tests/determinism.rs` verbatim.

use std::time::Duration;

use pa_core::{par, partition, partition::Scheme, seq, FaultPlan, GenOptions, PaConfig};
use pa_graph::EdgeList;
use pa_mpsim::World;

/// The PR-1 PA fingerprints (see `tests/determinism.rs`): nlpa at
/// `α = 1.0` must land on these, not merely on a self-consistent hash.
const ORACLE_X1: u64 = 0xdefa6458a590e3ba;
const ORACLE_X4: u64 = 0x66b9ce422f65dc31;

/// `(alpha, x = 1 fingerprint, x = 4 fingerprint)` over
/// `PaConfig::new(3000, x).with_seed(41)` — the same workload the PA
/// oracles pin.
const NLPA_PINS: [(f64, u64, u64); 3] = [
    (0.5, 0x108c9312fdc74d0a, 0xbc1069902cb6321d),
    (1.0, ORACLE_X1, ORACLE_X4),
    (1.5, 0xc7356a0448f3cb61, 0x5fd6a4040af24989),
];

fn cfg_x1() -> PaConfig {
    PaConfig::new(3_000, 1).with_seed(41)
}

fn cfg_x4() -> PaConfig {
    PaConfig::new(3_000, 4).with_seed(41)
}

/// FNV-1a over the canonicalized edge list (same as `determinism.rs`).
fn fnv1a(edges: &pa_graph::EdgeList) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for (u, v) in edges.iter() {
        for b in u.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn nlpa_sequential_oracle_fingerprints_are_pinned() {
    for (alpha, pin1, pin4) in NLPA_PINS {
        assert_eq!(
            fnv1a(&seq::nlpa(&cfg_x1(), alpha).canonicalized()),
            pin1,
            "sequential nlpa x=1 drifted: alpha={alpha}"
        );
        assert_eq!(
            fnv1a(&seq::nlpa(&cfg_x4(), alpha).canonicalized()),
            pin4,
            "sequential nlpa x=4 drifted: alpha={alpha}"
        );
    }
}

#[test]
fn nlpa_message_passing_engines_match_the_oracle_for_every_world() {
    for (alpha, pin1, pin4) in NLPA_PINS {
        let opts = GenOptions::default().with_alpha(alpha);
        for nranks in [1usize, 2, 4] {
            for scheme in Scheme::ALL {
                let x1 = par::generate_x1(&cfg_x1(), scheme, nranks, &opts);
                assert_eq!(
                    fnv1a(&x1.edge_list().canonicalized()),
                    pin1,
                    "engine1 nlpa drifted: alpha={alpha} P={nranks} {scheme}"
                );
                let gen4 = par::generate(&cfg_x4(), scheme, nranks, &opts);
                assert_eq!(
                    fnv1a(&gen4.edge_list().canonicalized()),
                    pin4,
                    "engine2 nlpa drifted: alpha={alpha} P={nranks} {scheme}"
                );
            }
        }
    }
}

#[test]
fn nlpa_communication_free_engine_matches_the_oracle_for_every_world() {
    for (alpha, pin1, pin4) in NLPA_PINS {
        let opts = GenOptions::default().with_alpha(alpha);
        for nranks in [1usize, 2, 4] {
            for scheme in Scheme::EXTENDED {
                let gen1 = par::generate3(&cfg_x1(), scheme, nranks, &opts);
                assert_eq!(
                    fnv1a(&gen1.edge_list().canonicalized()),
                    pin1,
                    "engine3 nlpa (x=1) drifted: alpha={alpha} P={nranks} {scheme}"
                );
                let gen4 = par::generate3(&cfg_x4(), scheme, nranks, &opts);
                assert_eq!(
                    fnv1a(&gen4.edge_list().canonicalized()),
                    pin4,
                    "engine3 nlpa (x=4) drifted: alpha={alpha} P={nranks} {scheme}"
                );
            }
        }
    }
}

/// Chaos runs use small buffers and a short service interval so packets
/// are plentiful, plus a generous watchdog (same as `tests/chaos.rs`).
fn chaos_opts(plan: FaultPlan) -> GenOptions {
    GenOptions {
        buffer_capacity: 32,
        service_interval: 16,
        ..GenOptions::default()
    }
    .with_fault_plan(plan)
    .with_stall_timeout(Duration::from_secs(120))
}

#[test]
fn nlpa_chaos_matrix() {
    // Delayed, reordered, duplicated, and dropped-with-recovery packets
    // must not move a single nlpa edge: every fault schedule reproduces
    // the fault-free fingerprint, at both a flattening and a sharpening
    // exponent, through both engines.
    for (alpha, _, pin4) in [NLPA_PINS[0], NLPA_PINS[2]] {
        for scheme in Scheme::ALL {
            for fault_seed in 0..4 {
                let plan = if fault_seed % 2 == 0 {
                    FaultPlan::light(fault_seed)
                } else {
                    FaultPlan::aggressive(fault_seed)
                };
                let opts = chaos_opts(plan).with_alpha(alpha);
                let out = par::generate(&cfg_x4(), scheme, 4, &opts);
                assert_eq!(
                    fnv1a(&out.edge_list().canonicalized()),
                    pin4,
                    "engine2 nlpa diverged under faults: alpha={alpha} {scheme} seed={fault_seed}"
                );
                let out = par::generate3(&cfg_x4(), scheme, 4, &opts);
                assert_eq!(
                    fnv1a(&out.edge_list().canonicalized()),
                    pin4,
                    "engine3 nlpa diverged under faults: alpha={alpha} {scheme} seed={fault_seed}"
                );
            }
        }
    }
}

#[test]
fn nlpa_checkpoint_resume_reproduces_the_oracle() {
    // Kill-and-resume an nlpa run mid-generation: the stitched output
    // must land on the same pinned fingerprint as the uninterrupted run,
    // and the checkpoint must carry the model identity (a PA checkpoint
    // must not resume an nlpa run — `checkpoint.rs` owns that test).
    let alpha = 1.5f64;
    let (_, _, pin4) = NLPA_PINS[2];
    let cfg = cfg_x4();
    let interval = 500u64;
    let opts = GenOptions::default()
        .with_alpha(alpha)
        .with_checkpoint_interval(interval);
    let part = partition::build(Scheme::Rrp, cfg.n, 3);
    let dir = std::env::temp_dir().join(format!("pa_models_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let meta = par::CheckpointMeta {
        world: 3,
        n: cfg.n,
        x: cfg.x,
        p_bits: cfg.p.to_bits(),
        seed: cfg.seed,
        scheme_id: 2,
        engine_id: 3,
        model_id: opts.model.id(),
        interval,
        alpha_bits: opts.model.alpha_bits(),
    };
    assert_eq!(meta.model_id, 1, "nlpa must not masquerade as pa");
    assert_eq!(meta.alpha_bits, alpha.to_bits());

    let ckpt_dir = dir.clone();
    let full: Vec<EdgeList> = World::new(3).run(|mut comm| {
        let store = par::CheckpointStore::new(&ckpt_dir, comm.rank() as u32, meta).unwrap();
        par::generate_rank3_streaming_recoverable(
            &cfg,
            &part,
            &opts,
            &mut comm,
            EdgeList::new(),
            Some(&store),
            None,
        )
        .0
    });
    assert_eq!(
        fnv1a(&EdgeList::concat(full.clone()).canonicalized()),
        pin4,
        "checkpointed nlpa run drifted from the pinned oracle"
    );

    let ckpt_dir = dir.clone();
    let resumed: Vec<EdgeList> = World::new(3).run(|mut comm| {
        let rank = comm.rank();
        let store = par::CheckpointStore::new(&ckpt_dir, rank as u32, meta).unwrap();
        let saved = store.load(store.latest().unwrap() - 1).unwrap();
        let mut sink = EdgeList::new();
        for &(u, v) in &full[rank].as_slice()[..saved.edges as usize] {
            sink.push(u, v);
        }
        par::generate_rank3_streaming_recoverable(
            &cfg,
            &part,
            &opts,
            &mut comm,
            sink,
            None,
            Some(&saved),
        )
        .0
    });
    assert_eq!(
        EdgeList::concat(resumed).canonicalized(),
        EdgeList::concat(full).canonicalized(),
        "resumed nlpa run diverged from the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
