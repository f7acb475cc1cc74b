//! Reproducibility guarantees across the whole stack.

use pa_core::{er, par, partition::Scheme, seq, ws, GenOptions, PaConfig};
use pa_rng::Xoshiro256pp;

#[test]
fn repeated_parallel_runs_are_identical_for_x1() {
    let cfg = PaConfig::new(4_000, 1).with_seed(5);
    let a = par::generate_x1(&cfg, Scheme::Rrp, 6, &GenOptions::default());
    let b = par::generate_x1(&cfg, Scheme::Rrp, 6, &GenOptions::default());
    // Commit *order* within a rank depends on message timing, but the
    // edge *set* is a pure function of the seed.
    assert_eq!(a.edge_list().canonicalized(), b.edge_list().canonicalized());
}

#[test]
fn repeated_single_rank_runs_are_identical_for_any_x() {
    for x in [2u64, 5] {
        let cfg = PaConfig::new(3_000, x).with_seed(5);
        let a = par::generate(&cfg, Scheme::Ucp, 1, &GenOptions::default());
        let b = par::generate(&cfg, Scheme::Ucp, 1, &GenOptions::default());
        assert_eq!(a.edge_list(), b.edge_list());
        assert_eq!(a.edge_list(), seq::copy_model(&cfg));
    }
}

#[test]
fn parallel_x_gt_1_edge_set_is_a_pure_function_of_the_seed() {
    // In-order slot commits give every attempt the sequential generator's
    // exact visibility, so for any x the edge set equals the sequential
    // copy model bit-for-bit — for every rank count and every scheme.
    let cfg = PaConfig::new(5_000, 4).with_seed(8);
    let reference = seq::copy_model(&cfg).canonicalized();
    for nranks in [1usize, 2, 4, 8] {
        for scheme in Scheme::ALL {
            let out = par::generate(&cfg, scheme, nranks, &GenOptions::default());
            assert_eq!(
                out.edge_list().canonicalized(),
                reference,
                "x=4 must be bit-identical: P={nranks} {scheme}"
            );
        }
    }
}

/// FNV-1a over the canonicalized edge list — the fingerprint used to
/// snapshot the pre-unification engines' output.
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
fn unified_driver_reproduces_pre_unification_oracle_hashes() {
    // These fingerprints were captured from the PR-1 codebase, where
    // Algorithms 3.1 and 3.2 each carried their own hand-written
    // service/flush/park loop (engine1/engine2), before both were folded
    // into the shared driver. Every engine, scheme and rank count agreed
    // on them — so the unified driver must keep producing exactly these
    // edge sets, not merely internally consistent ones.
    const ORACLE_X1: u64 = 0xdefa6458a590e3ba;
    const ORACLE_X4: u64 = 0x66b9ce422f65dc31;
    let cfg1 = PaConfig::new(3_000, 1).with_seed(41);
    let cfg4 = PaConfig::new(3_000, 4).with_seed(41);
    assert_eq!(fnv1a(&seq::copy_model(&cfg1).canonicalized()), ORACLE_X1);
    assert_eq!(fnv1a(&seq::copy_model(&cfg4).canonicalized()), ORACLE_X4);
    for nranks in [1usize, 2, 8] {
        for scheme in Scheme::ALL {
            let opts = GenOptions::default();
            let x1 = par::generate_x1(&cfg1, scheme, nranks, &opts);
            assert_eq!(
                fnv1a(&x1.edge_list().canonicalized()),
                ORACLE_X1,
                "x=1 path drifted from the PR-1 oracle: P={nranks} {scheme}"
            );
            let gen1 = par::generate(&cfg1, scheme, nranks, &opts);
            assert_eq!(
                fnv1a(&gen1.edge_list().canonicalized()),
                ORACLE_X1,
                "general path (x=1) drifted from the PR-1 oracle: P={nranks} {scheme}"
            );
            let gen4 = par::generate(&cfg4, scheme, nranks, &opts);
            assert_eq!(
                fnv1a(&gen4.edge_list().canonicalized()),
                ORACLE_X4,
                "general path (x=4) drifted from the PR-1 oracle: P={nranks} {scheme}"
            );
        }
    }
}

#[test]
fn engine3_reproduces_pre_unification_oracle_hashes() {
    // Engine3 never exchanges a single request/resolved message, yet it
    // must land on exactly the PR-1 fingerprints the message-passing
    // engines are pinned to — for every rank count and every scheme the
    // workspace implements (including block-cyclic, which the paper's
    // engines never ran under).
    const ORACLE_X1: u64 = 0xdefa6458a590e3ba;
    const ORACLE_X4: u64 = 0x66b9ce422f65dc31;
    let cfg1 = PaConfig::new(3_000, 1).with_seed(41);
    let cfg4 = PaConfig::new(3_000, 4).with_seed(41);
    for nranks in [1usize, 2, 4, 8] {
        for scheme in Scheme::EXTENDED {
            let opts = GenOptions::default();
            let gen1 = par::generate3(&cfg1, scheme, nranks, &opts);
            assert_eq!(
                fnv1a(&gen1.edge_list().canonicalized()),
                ORACLE_X1,
                "engine3 (x=1) drifted from the PR-1 oracle: P={nranks} {scheme}"
            );
            let gen4 = par::generate3(&cfg4, scheme, nranks, &opts);
            assert_eq!(
                fnv1a(&gen4.edge_list().canonicalized()),
                ORACLE_X4,
                "engine3 (x=4) drifted from the PR-1 oracle: P={nranks} {scheme}"
            );
        }
    }
}

#[test]
fn sequential_generators_are_deterministic() {
    let cfg = PaConfig::new(2_000, 3).with_seed(77);
    assert_eq!(seq::copy_model(&cfg), seq::copy_model(&cfg));
    assert_eq!(
        seq::batagelj_brandes(&cfg, &mut Xoshiro256pp::new(1)),
        seq::batagelj_brandes(&cfg, &mut Xoshiro256pp::new(1))
    );
    assert_eq!(
        seq::naive(&cfg, &mut Xoshiro256pp::new(1)),
        seq::naive(&cfg, &mut Xoshiro256pp::new(1))
    );
}

#[test]
fn extension_generators_are_deterministic() {
    let ercfg = er::ErConfig::new(3_000, 0.01).with_seed(4);
    assert_eq!(er::generate_seq(&ercfg), er::generate_seq(&ercfg));
    assert_eq!(
        er::generate_par(&ercfg, 4).canonicalized(),
        er::generate_seq(&ercfg).canonicalized()
    );
    let wscfg = ws::WsConfig::new(1_000, 4, 0.3);
    assert_eq!(
        ws::generate(&wscfg, &mut Xoshiro256pp::new(2)).canonicalized(),
        ws::generate(&wscfg, &mut Xoshiro256pp::new(2)).canonicalized()
    );
}

#[test]
fn draw_streams_are_stable_across_releases() {
    // Pin a few concrete draw values: if the RNG pipeline ever changes,
    // every "bit-identical across P" guarantee silently becomes
    // "identical to a different network", so fail loudly here instead.
    let c = seq::draw_choice(0, 0.5, 1, 2, 0, 0);
    assert_eq!(c.k, 1, "draw pipeline changed");
    let c = seq::draw_choice(42, 0.5, 4, 100, 1, 0);
    assert!(c.k >= 4 && c.k < 100);
    let again = seq::draw_choice(42, 0.5, 4, 100, 1, 0);
    assert_eq!(c, again);
}
