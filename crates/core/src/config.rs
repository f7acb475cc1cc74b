//! Model and engine configuration.

/// Parameters of a preferential-attachment network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaConfig {
    /// Number of nodes `n`; nodes are labelled `0 .. n`.
    pub n: u64,
    /// Edges contributed by each new node (`x` in the paper). The first
    /// `x` nodes form the seed clique.
    pub x: u64,
    /// Copy-model direct-connection probability `p`. `p = ½` reproduces
    /// the Barabási–Albert degree-proportional attachment exactly; other
    /// values shift the power-law exponent (Kumar et al.).
    pub p: f64,
    /// RNG seed. All randomness is a pure function of `(seed, node, edge,
    /// attempt)`, so runs are reproducible and — for `x = 1` — identical
    /// across any processor count or partitioning scheme.
    pub seed: u64,
}

impl PaConfig {
    /// Configuration with `p = ½` and seed 0.
    ///
    /// # Panics
    ///
    /// Panics unless `n > x >= 1` (the model needs a seed clique of `x`
    /// nodes plus at least one attaching node).
    pub fn new(n: u64, x: u64) -> Self {
        let cfg = Self {
            n,
            x,
            p: 0.5,
            seed: 0,
        };
        cfg.validate();
        cfg
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the copy-model probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn with_p(mut self, p: f64) -> Self {
        self.p = p;
        self.validate();
        self
    }

    /// Check internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (degenerate `n`/`x`, `p` outside
    /// `[0, 1]` or NaN).
    pub fn validate(&self) {
        assert!(self.x >= 1, "x must be at least 1");
        assert!(
            self.n > self.x,
            "n = {} must exceed x = {} (seed clique plus one attaching node)",
            self.n,
            self.x
        );
        assert!(
            self.p >= 0.0 && self.p <= 1.0,
            "p = {} must lie in [0, 1]",
            self.p
        );
    }

    /// Total number of edges the model produces:
    /// `x(x−1)/2` clique edges + `x` edges for every node `t >= x`.
    pub fn expected_edges(&self) -> u64 {
        self.x * (self.x - 1) / 2 + (self.n - self.x) * self.x
    }
}

/// Default chain-memo capacity in *nodes* for the communication-free
/// engine (engine3): unbounded, i.e. one slot for every remote row, so
/// each remote row prefix is recomputed at most once. At `P = 2` that
/// costs as much as the rank's own `F` table (`4·x` bytes per remote
/// node when `n < 2³²`); see [`crate::par::ChainMemoLayout`]. The memo
/// is a pure-function cache, so its size never affects the generated
/// network — only the amount of redundant recomputation.
pub const DEFAULT_CHAIN_MEMO_NODES: u64 = u64::MAX;

/// The default chain-memo capacity under a paged store
/// (`--memory-budget`): `2²⁰` hashed rows (~20 MB per rank at `x = 4`),
/// so a budgeted run's resident memory stays bounded.
pub const BUDGETED_CHAIN_MEMO_NODES: u64 = 1 << 20;

/// Tuning knobs for the parallel engines.
///
/// (`Eq` is not derived: [`GenOptions::fault_plan`] carries the fault
/// schedule's `f64` probabilities. `Copy` is not derived:
/// [`GenOptions::store`] carries a directory path.)
#[derive(Debug, Clone, PartialEq)]
pub struct GenOptions {
    /// Message-buffer capacity per destination (the paper's message
    /// aggregation, §3.5). 1 disables buffering: every logical message is
    /// its own packet.
    pub buffer_capacity: usize,
    /// How many local nodes to generate between servicing rounds of the
    /// incoming-message queue. Small values favour latency (shorter
    /// dependency waits), large values favour throughput.
    pub service_interval: usize,
    /// How long the completion loop blocks on an empty message queue
    /// before re-checking the termination predicate.
    pub idle_wait: std::time::Duration,
    /// Flush outgoing buffers after this many consecutive *idle*
    /// completion-loop iterations (iterations that saw traffic always
    /// flush). Larger values spare quiescent ranks the per-iteration
    /// flush scan.
    pub idle_flush_interval: usize,
    /// Seeded fault-injection schedule. When set, every rank's transport
    /// is wrapped in a [`pa_mpsim::FaultTransport`] that delays,
    /// reorders, duplicates and drops-with-recovery packets according to
    /// the plan — the generated edge set must not change (the chaos
    /// suite's invariant). `None` runs on the clean transport.
    pub fault_plan: Option<pa_mpsim::FaultPlan>,
    /// Stall watchdog: if the global outstanding-work counter stops
    /// moving for this long while work remains, every rank dumps its
    /// progress state (comm stats, outstanding count, waiter depths) and
    /// panics instead of hanging. `None` disables the watchdog (the
    /// default — clean transports cannot stall).
    pub stall_timeout: Option<std::time::Duration>,
    /// Checkpoint epoch length in *node labels*: the driver splits the
    /// label range `[0, n)` into epochs of this many labels and runs each
    /// to global quiescence (barrier-aligned), snapshotting engine state
    /// at every boundary when a checkpoint store is attached. Because
    /// every copy-model dependency points to a **lower** label, a
    /// finished epoch leaves no waiter state and no tracked traffic in
    /// flight — exactly the consistent cut a checkpoint needs. `None`
    /// runs the whole range as a single epoch (no extra barriers).
    pub checkpoint_interval: Option<u64>,
    /// Chain-memo capacity in *nodes* for engine3's local recomputation:
    /// each rank memoizes up to this many recomputed remote row prefixes
    /// so chains sharing a suffix are walked once, not once per
    /// referencing edge. A capacity covering every remote row (the
    /// default, [`DEFAULT_CHAIN_MEMO_NODES`]) gives each its own slot;
    /// a smaller one is a direct-mapped hash table, where a colliding
    /// row overwrites the previous occupant. `0` disables the memo.
    /// Because every memoized row is a pure function of the seed, the
    /// memo size cannot change the generated network (pinned by the
    /// determinism suite).
    pub chain_memo_nodes: u64,
    /// Which attachment model to generate (see [`crate::ModelKind`]).
    /// The default is the paper's copy model; `Nlpa { alpha }` re-weights
    /// the direct-vs-copy coin to `p^alpha` (nonlinear preferential
    /// attachment surrogate), with `alpha = 1` bit-identical to `Pa`.
    pub model: crate::ModelKind,
    /// Where each rank keeps its node tables (committed `F` slots,
    /// attempt counters, node cursors): RAM-resident, or spilled to
    /// fixed-size page files under a byte budget so `n` is bounded by
    /// disk instead of memory (see [`crate::store`]). Because every
    /// table read returns the identical committed values either way,
    /// the store backend can never change the generated network — only
    /// its memory footprint.
    pub store: crate::store::StoreSpec,
}

impl Default for GenOptions {
    fn default() -> Self {
        Self {
            buffer_capacity: 4096,
            service_interval: 4096,
            idle_wait: std::time::Duration::from_micros(200),
            idle_flush_interval: 16,
            fault_plan: None,
            stall_timeout: None,
            checkpoint_interval: None,
            chain_memo_nodes: DEFAULT_CHAIN_MEMO_NODES,
            model: crate::ModelKind::Pa,
            store: crate::store::StoreSpec::Resident,
        }
    }
}

impl GenOptions {
    /// Run every rank's traffic through a fault-injecting transport
    /// driven by `plan` (see [`pa_mpsim::FaultTransport`]).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: pa_mpsim::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Arm the stall watchdog: panic with a progress report if no global
    /// progress happens for `timeout` while work remains.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Split the run into checkpoint epochs of `interval` node labels
    /// (see [`GenOptions::checkpoint_interval`]).
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Replace the engine3 chain-memo capacity (in nodes); `0` disables
    /// the memo (see [`GenOptions::chain_memo_nodes`]).
    #[must_use]
    pub fn with_chain_memo(mut self, nodes: u64) -> Self {
        self.chain_memo_nodes = nodes;
        self
    }

    /// Replace the attachment model (see [`crate::ModelKind`]).
    #[must_use]
    pub fn with_model(mut self, model: crate::ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Select nonlinear preferential attachment with exponent `alpha`
    /// (shorthand for `with_model(ModelKind::Nlpa { alpha })`).
    #[must_use]
    pub fn with_alpha(self, alpha: f64) -> Self {
        self.with_model(crate::ModelKind::Nlpa { alpha })
    }

    /// Replace the node-table store backend (see [`GenOptions::store`]
    /// and [`crate::store::StoreSpec`]).
    #[must_use]
    pub fn with_store(mut self, store: crate::store::StoreSpec) -> Self {
        self.store = store;
        self
    }

    /// Page the node tables to `dir` under `budget_bytes` of cache per
    /// rank (shorthand for `with_store(StoreSpec::paged(..))`).
    #[must_use]
    pub fn with_memory_budget(self, dir: impl Into<std::path::PathBuf>, budget_bytes: u64) -> Self {
        self.with_store(crate::store::StoreSpec::paged(dir, budget_bytes))
    }

    /// Validate option values. The generate entry points call this so
    /// misconfigurations fail before any rank spawns.
    ///
    /// # Panics
    ///
    /// Panics if any knob that must be positive is zero, or if the
    /// model parameters are invalid (negative, NaN or non-finite
    /// `alpha`; see [`crate::ModelKind::check`]).
    pub fn validate(&self) {
        assert!(
            self.buffer_capacity > 0,
            "buffer_capacity must be positive (1 disables aggregation; \
             0 would make every flush a no-op and the run could not send)"
        );
        assert!(
            self.service_interval > 0,
            "service_interval must be positive"
        );
        assert!(
            !self.idle_wait.is_zero(),
            "idle_wait must be positive (a zero wait busy-spins)"
        );
        assert!(
            self.idle_flush_interval > 0,
            "idle_flush_interval must be positive"
        );
        if let Some(plan) = &self.fault_plan {
            plan.validate();
        }
        if let Some(timeout) = self.stall_timeout {
            assert!(
                !timeout.is_zero(),
                "stall_timeout must be positive (a zero timeout fires immediately)"
            );
        }
        if let Some(interval) = self.checkpoint_interval {
            assert!(
                interval > 0,
                "checkpoint_interval must be positive (use None for a single epoch)"
            );
        }
        self.store.validate();
        self.model.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = PaConfig::new(100, 3);
        assert_eq!(cfg.p, 0.5);
        assert_eq!(cfg.seed, 0);
        cfg.validate();
        GenOptions::default().validate();
    }

    #[test]
    fn builder_chains() {
        let cfg = PaConfig::new(10, 2).with_seed(9).with_p(0.25);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.p, 0.25);
    }

    #[test]
    fn expected_edges_matches_model() {
        assert_eq!(PaConfig::new(10, 1).expected_edges(), 9);
        assert_eq!(PaConfig::new(10, 3).expected_edges(), 3 + 21);
        assert_eq!(
            PaConfig::new(10, 3).expected_edges() as usize,
            pa_graph::validate::expected_pa_edges(10, 3)
        );
    }

    #[test]
    #[should_panic(expected = "must exceed x")]
    fn n_not_greater_than_x_panics() {
        let _ = PaConfig::new(3, 3);
    }

    #[test]
    #[should_panic(expected = "x must be at least 1")]
    fn zero_x_panics() {
        let _ = PaConfig::new(3, 0);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn bad_p_panics() {
        let _ = PaConfig::new(10, 1).with_p(1.5);
    }

    #[test]
    fn extreme_p_values_allowed() {
        let _ = PaConfig::new(10, 1).with_p(0.0);
        let _ = PaConfig::new(10, 1).with_p(1.0);
    }

    #[test]
    fn fault_plan_and_stall_timeout_builders() {
        let plan = pa_mpsim::FaultPlan::light(7);
        let opts = GenOptions::default()
            .with_fault_plan(plan)
            .with_stall_timeout(std::time::Duration::from_secs(5));
        assert_eq!(opts.fault_plan, Some(plan));
        assert_eq!(opts.stall_timeout, Some(std::time::Duration::from_secs(5)));
        opts.validate();
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_fault_plan_rejected_by_validate() {
        let plan = pa_mpsim::FaultPlan {
            p_drop: 2.0,
            ..pa_mpsim::FaultPlan::none(0)
        };
        GenOptions {
            fault_plan: Some(plan),
            ..GenOptions::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "stall_timeout must be positive")]
    fn zero_stall_timeout_panics() {
        GenOptions::default()
            .with_stall_timeout(std::time::Duration::ZERO)
            .validate();
    }

    #[test]
    fn chain_memo_builder() {
        assert_eq!(
            GenOptions::default().chain_memo_nodes,
            DEFAULT_CHAIN_MEMO_NODES
        );
        let opts = GenOptions::default().with_chain_memo(0);
        assert_eq!(opts.chain_memo_nodes, 0, "0 disables the memo");
        opts.validate();
        assert_eq!(GenOptions::default().with_chain_memo(7).chain_memo_nodes, 7);
    }

    #[test]
    fn checkpoint_interval_builder() {
        let opts = GenOptions::default().with_checkpoint_interval(1_000);
        assert_eq!(opts.checkpoint_interval, Some(1_000));
        opts.validate();
        assert_eq!(GenOptions::default().checkpoint_interval, None);
    }

    #[test]
    #[should_panic(expected = "checkpoint_interval must be positive")]
    fn zero_checkpoint_interval_panics() {
        GenOptions::default().with_checkpoint_interval(0).validate();
    }

    #[test]
    #[should_panic(expected = "idle_flush_interval")]
    fn zero_idle_flush_interval_panics() {
        GenOptions {
            idle_flush_interval: 0,
            ..GenOptions::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "buffer_capacity must be positive")]
    fn zero_buffer_capacity_panics() {
        GenOptions {
            buffer_capacity: 0,
            ..GenOptions::default()
        }
        .validate();
    }

    #[test]
    fn model_builders() {
        assert_eq!(GenOptions::default().model, crate::ModelKind::Pa);
        let opts = GenOptions::default().with_alpha(1.5);
        assert_eq!(opts.model, crate::ModelKind::Nlpa { alpha: 1.5 });
        opts.validate();
        let opts = GenOptions::default().with_model(crate::ModelKind::Pa);
        assert_eq!(opts.model, crate::ModelKind::Pa);
        GenOptions::default().with_alpha(0.0).validate();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_alpha_rejected_by_validate() {
        GenOptions::default().with_alpha(-0.5).validate();
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_alpha_rejected_by_validate() {
        GenOptions::default().with_alpha(f64::NAN).validate();
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_alpha_rejected_by_validate() {
        GenOptions::default().with_alpha(f64::INFINITY).validate();
    }
}
