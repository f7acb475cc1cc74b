//! The communication-free strategy — local chain recomputation (engine3).
//!
//! Algorithm 3.2 resolves a copy choice `F_k(l)` by *asking the owner* of
//! `k` — a request/resolved round trip per unresolved dependency, which is
//! where the paper's distributed runs spend their wall-clock. But every
//! draw in this workspace is already a pure function of
//! `(seed, node, edge, attempt)` (the counter-based RNG), which is exactly
//! the property Sanders & Schulz exploit in "Scalable Generation of
//! Scale-free Graphs": any rank can *recompute* another rank's row from
//! scratch instead of communicating for it. Engine3 does that: a copy
//! choice referencing a remote node `k` re-runs `k`'s draw/retry loop
//! locally, which may itself reference further (strictly lower-labelled)
//! remote nodes — a dependency chain that bottoms out at a direct choice
//! or at node `x` (whose row is the identity `F_x(l) = l`) after an
//! expected O(log n) steps (the paper's Lemma 3.1). No `request`, no
//! `resolved`: the only things left on the wire are the collectives the
//! driver itself uses (barriers, termination counting).
//!
//! **Determinism.** The recomputed rows replay the sequential generator's
//! attempt loop exactly — same [`crate::seq::draw_choice`] streams, same
//! duplicate-rejection against the row prefix — so every recomputed value
//! equals the value the owner itself commits. The emitted edge set is
//! therefore bit-identical to `seq::copy_model` (and to engines 1/2) for
//! every rank count, scheme, transport, and fault schedule; the
//! determinism and chaos suites pin it to the PR-1 FNV oracles.
//!
//! **Batching and partial rows.** Local nodes generate their whole row
//! of attempt-0 choices in one tight loop over the hoisted per-node key
//! prefix ([`pa_rng::EventKeys`]); retries (rare) re-draw individually
//! but still reuse the hoisted prefix. Recomputed chain frames go the
//! other way: a walk that needs `F_k(l)` computes only slots `0..=l` of
//! `k`'s row — the counter-based RNG addresses each `(edge, attempt)`
//! draw independently, so later slots never have to be touched — and the
//! memo stores the resulting *prefix*. A later reference to a higher
//! slot resumes from the cached prefix instead of starting over (between
//! slots the attempt counter is 0, so a committed prefix is the complete
//! resume state).
//!
//! **Chain memo.** High-`x` runs repeatedly walk chains that share a
//! suffix (hubs are referenced over and over — Lemma 3.4). A memo of
//! recomputed row prefixes deduplicates those shared suffixes. By
//! default it has one untagged slot per *remote* node, indexed by the
//! node's remote ordinal (`base[owner] + local_index(k)`): no slot is
//! spent on the rank's own labels, no collisions, so each remote row
//! prefix is recomputed at most once, and one rank (nothing remote)
//! allocates nothing. A smaller configured capacity (or the default
//! under `--memory-budget`) falls back to `2^b` hashed slots, each
//! tagged with its label, where a colliding insert simply overwrites
//! (losing a cached pure-function value is harmless). Either way the hot
//! path stays allocation-free — where a `HashMap` memo spends more time
//! hashing than recomputing — and cells are `u32` whenever every label
//! fits. The memo caches values of a pure function, so its size —
//! including 0 — cannot change the output, only the amount of redundant
//! recomputation; a determinism test sweeps memo sizes and partitions to
//! pin that invariant. Completed chain frames hand their value
//! *directly* to the waiting parent frame rather than relying on a memo
//! hit, so overwriting (or a disabled memo) can never stall a walk.

use pa_mpsim::Transport;
use pa_rng::EventKeys;

use super::Strategy;
use crate::par::driver::Net;
use crate::par::msg::Msg;
use crate::par::output::EngineCounters;
use crate::par::sink::EdgeSink;
use crate::partition::Partition;
use crate::seq::Choice;
use crate::store::{self, AnyTable, Cell, NodeTable};
use crate::{GenOptions, Model, Node, PaConfig, NILL};

/// One suspended row recomputation in the chain walk: node `k`'s
/// attempt loop, paused while a deeper frame resolves one of its copy
/// choices.
struct Frame {
    /// The node whose row this frame is recomputing (always `> x` and
    /// remote to this rank).
    k: Node,
    /// `k`'s memo slot.
    at: usize,
    /// Hoisted key prefix for `k`'s draws.
    keys: EventKeys,
    /// Committed row values so far (`len()` is the current slot; may
    /// start non-empty when resuming from a memoized prefix).
    row: Vec<Node>,
    /// The slot this walk must reach: the frame is done once
    /// `row.len() == goal + 1`, leaving slots above `goal` undrawn.
    goal: usize,
    /// Retry counter of the current slot.
    attempt: u32,
    /// The copy choice the current slot is waiting on (a child frame is
    /// recomputing its target row).
    pending: Option<Choice>,
}

/// What one stepping of the top frame concluded.
enum Step {
    /// The frame needs node `k`'s row (memo slot `at`) recomputed first.
    NeedChild { k: Node, at: usize },
    /// The frame's row is complete.
    Done,
}

/// How one rank lays out its chain memo — a pure function of the
/// partition, the rank and [`GenOptions::chain_memo_nodes`]. The engine
/// allocates exactly this, and `pagen info` sizes the memo from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainMemoLayout {
    /// No memo: the rank owns every node (nothing is ever recomputed),
    /// or the memo is disabled (`chain_memo_nodes = 0`).
    Off,
    /// One untagged row per remote node, indexed by the node's *remote
    /// ordinal* (its position among the nodes this rank does not own).
    /// Collision-free, so each remote row prefix is recomputed at most
    /// once between checkpoint restores.
    Direct {
        /// Remote node count: `n − size_of(rank)`.
        rows: u64,
    },
    /// Fewer slots than remote rows: `slots` (a power of two) rows,
    /// each tagged with its label and indexed by a label hash; a
    /// colliding insert overwrites.
    Hashed {
        /// Slot count.
        slots: u64,
    },
}

impl ChainMemoLayout {
    /// The layout `rank` uses for a configured capacity of `memo_nodes`
    /// rows ([`GenOptions::chain_memo_nodes`]), with or without a paged
    /// store. The default capacity covers every remote row, except under
    /// a paged store, where it stays at
    /// [`crate::BUDGETED_CHAIN_MEMO_NODES`] rows so a budgeted run's
    /// resident memory stays bounded.
    pub fn plan<P: Partition>(part: &P, rank: usize, memo_nodes: u64, paged: bool) -> Self {
        let remote = part.num_nodes() - part.size_of(rank);
        let cap = if memo_nodes == crate::DEFAULT_CHAIN_MEMO_NODES && paged {
            crate::BUDGETED_CHAIN_MEMO_NODES
        } else {
            memo_nodes
        };
        if cap == 0 || remote == 0 {
            ChainMemoLayout::Off
        } else if cap >= remote {
            ChainMemoLayout::Direct { rows: remote }
        } else {
            ChainMemoLayout::Hashed {
                slots: cap.next_power_of_two(),
            }
        }
    }

    /// Resident bytes of this layout for `n` nodes with `x` edges each:
    /// `x` cells per direct row, `1 + x` (tag + row) per hashed slot,
    /// with [`store::cell_bytes`] per cell.
    pub fn bytes(self, n: u64, x: u64) -> u64 {
        let cell = store::cell_bytes(n.saturating_sub(1));
        match self {
            ChainMemoLayout::Off => 0,
            ChainMemoLayout::Direct { rows } => rows * x * cell,
            ChainMemoLayout::Hashed { slots } => slots * (1 + x) * cell,
        }
    }
}

/// Memo slots: `x` row cells each, preceded by a label tag when slots
/// are shared (hashed layout). Tag and row sit together so a hit costs
/// one memory access; undrawn row cells hold the sentinel.
struct Slots<C: Cell> {
    entries: Vec<C>,
    /// Cells per slot: `x`, plus one when `tagged`.
    stride: usize,
    tagged: bool,
}

impl<C: Cell> Slots<C> {
    fn new(slots: u64, x: u64, tagged: bool) -> Self {
        let stride = x as usize + usize::from(tagged);
        Slots {
            entries: vec![C::NIL; slots as usize * stride],
            stride,
            tagged,
        }
    }

    /// The row cells of slot `at` if they belong to node `k`.
    #[inline]
    fn row(&self, at: usize, k: Node) -> Option<&[C]> {
        let base = at * self.stride;
        if self.tagged {
            (self.entries[base] == C::encode(k))
                .then(|| &self.entries[base + 1..base + self.stride])
        } else {
            Some(&self.entries[base..base + self.stride])
        }
    }

    #[inline]
    fn get_slot(&self, at: usize, k: Node, l: u64) -> Option<Node> {
        let v = self.row(at, k)?[l as usize];
        (v != C::NIL).then(|| v.decode())
    }

    fn copy_prefix_into(&self, at: usize, k: Node, out: &mut Vec<Node>) {
        if let Some(row) = self.row(at, k) {
            out.extend(row.iter().take_while(|&&v| v != C::NIL).map(|v| v.decode()));
        }
    }

    fn insert(&mut self, at: usize, k: Node, row: &[Node]) {
        let base = at * self.stride;
        let cells = if self.tagged {
            self.entries[base] = C::encode(k);
            &mut self.entries[base + 1..base + self.stride]
        } else {
            &mut self.entries[base..base + self.stride]
        };
        for (cell, &v) in cells
            .iter_mut()
            .zip(row.iter().chain(std::iter::repeat(&NILL)))
        {
            *cell = C::encode(v);
        }
    }

    /// Slots holding a row (a cached prefix is never empty, so slot 0 of
    /// the row — or the tag — is set).
    fn occupied(&self) -> usize {
        self.entries
            .chunks_exact(self.stride)
            .filter(|e| e[0] != C::NIL)
            .count()
    }

    fn clear(&mut self) {
        self.entries.fill(C::NIL);
    }
}

/// The memo's cells: none, `u32` when every label fits, else `u64`.
enum Cells {
    Off,
    Compact(Slots<u32>),
    Wide(Slots<u64>),
}

/// How a remote node finds its memo slot.
enum Index {
    /// Direct layout: slot = `base[owner] + local_index(k)`, where
    /// `base[r]` counts the remote nodes owned by ranks below `r`.
    Ordinal(Vec<u64>),
    /// Hashed layout: the middle bits of a golden-ratio product of the
    /// label (multiplicative hashing), masked to the slot count.
    Hashed(usize),
}

/// Cache of recomputed remote row prefixes, laid out per
/// [`ChainMemoLayout`]. A pure-function cache: its size cannot change
/// the output.
struct Memo {
    cells: Cells,
    index: Index,
}

/// Dispatch `$body` over the memo's cell width (`$default` when off).
macro_rules! with_slots {
    ($memo:expr, $s:ident => $body:expr, $default:expr) => {
        match $memo {
            Cells::Off => $default,
            Cells::Compact($s) => $body,
            Cells::Wide($s) => $body,
        }
    };
}

impl Memo {
    fn new<P: Partition>(layout: ChainMemoLayout, part: &P, rank: usize, x: u64) -> Memo {
        let n = part.num_nodes();
        let (slots, index, tagged) = match layout {
            ChainMemoLayout::Off => {
                return Memo {
                    cells: Cells::Off,
                    index: Index::Hashed(0),
                }
            }
            ChainMemoLayout::Direct { rows } => {
                let mut base = Vec::with_capacity(part.nranks());
                let mut acc = 0;
                for r in 0..part.nranks() {
                    base.push(acc);
                    if r != rank {
                        acc += part.size_of(r);
                    }
                }
                debug_assert_eq!(acc, rows, "remote ordinals must cover the remote rows");
                (rows, Index::Ordinal(base), false)
            }
            ChainMemoLayout::Hashed { slots } => (slots, Index::Hashed(slots as usize - 1), true),
        };
        let cells = if store::fits_u32(n - 1) {
            Cells::Compact(Slots::new(slots, x, tagged))
        } else {
            Cells::Wide(Slots::new(slots, x, tagged))
        };
        Memo { cells, index }
    }

    /// The slot of remote node `k`, owned by rank `owner`.
    #[inline]
    fn at<P: Partition>(&self, part: &P, k: Node, owner: usize) -> usize {
        match &self.index {
            Index::Ordinal(base) => (base[owner] + part.local_index(k)) as usize,
            Index::Hashed(mask) => ((k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & mask,
        }
    }

    /// Cached value of slot `l` of `k`'s row (memo slot `at`), if that
    /// prefix has been computed.
    #[inline]
    fn get_slot(&self, at: usize, k: Node, l: u64) -> Option<Node> {
        with_slots!(&self.cells, s => s.get_slot(at, k, l), None)
    }

    /// Append the committed prefix cached for `k` to `out` (nothing when
    /// another node occupies the slot) — the complete resume state for
    /// extending the row to a higher slot.
    fn copy_prefix_into(&self, at: usize, k: Node, out: &mut Vec<Node>) {
        with_slots!(&self.cells, s => s.copy_prefix_into(at, k, out), ())
    }

    /// Cache `row` (a true prefix of `k`'s full row); slots beyond it
    /// are marked undrawn in case a colliding row is being overwritten.
    fn insert(&mut self, at: usize, k: Node, row: &[Node]) {
        with_slots!(&mut self.cells, s => s.insert(at, k, row), ())
    }

    fn occupied(&self) -> usize {
        with_slots!(&self.cells, s => s.occupied(), 0)
    }

    fn clear(&mut self) {
        with_slots!(&mut self.cells, s => s.clear(), ())
    }
}

pub(crate) struct Chain<'a, P: Partition, S: EdgeSink> {
    cfg: &'a PaConfig,
    part: &'a P,
    rank: usize,
    /// The resolved attachment model this rank draws from — and, because
    /// engine3 *recomputes* other ranks' rows, the model it replays for
    /// every remote node too (all ranks resolve the identical model).
    model: Model,
    /// Flattened `F_t(e)` slots for local nodes: `local_index(t)·x + e`.
    /// Resident or disk-paged per [`GenOptions::store`] — this is the
    /// engine's only `O(n/P)`-slot structure, so it takes the whole
    /// memory budget.
    f: AnyTable,
    /// Next edge index each local node must commit (restore bookkeeping
    /// and the stall report; the sweep itself never parks). One word per
    /// node — small enough to stay resident under any budget.
    next_e: Vec<u32>,
    /// Cache of recomputed remote rows. Pure-function cache: its size
    /// cannot affect the output.
    memo: Memo,
    /// Recycled frame allocations (row capacity reuse).
    frame_pool: Vec<Frame>,
    /// Reusable chain-walk stack (empty between walks).
    stack: Vec<Frame>,
    /// Scratch for the local node's batched attempt-0 choices.
    scratch: Vec<Choice>,
    edges: S,
    counters: EngineCounters,
}

impl<'a, P: Partition, S: EdgeSink> Chain<'a, P, S> {
    pub(crate) fn new(
        cfg: &'a PaConfig,
        part: &'a P,
        rank: usize,
        opts: &GenOptions,
        sink: S,
    ) -> Self {
        let size = part.size_of(rank);
        let slots = size * cfg.x;
        // Values are node labels: below n.
        let f = AnyTable::build(&opts.store, rank, "f", slots, NILL, cfg.n - 1)
            .unwrap_or_else(|e| panic!("rank {rank}: opening node table f: {e}"));
        Chain {
            cfg,
            part,
            rank,
            model: Model::resolve(cfg, opts.model),
            f,
            next_e: vec![0; size as usize],
            memo: Memo::new(
                ChainMemoLayout::plan(part, rank, opts.chain_memo_nodes, opts.store.is_paged()),
                part,
                rank,
                cfg.x,
            ),
            frame_pool: Vec::new(),
            stack: Vec::new(),
            scratch: Vec::new(),
            edges: sink,
            counters: EngineCounters {
                nodes: size,
                ..Default::default()
            },
        }
    }

    /// The sink and counters, after [`crate::par::driver::run`] returns.
    pub(crate) fn into_parts(self) -> (S, EngineCounters) {
        (self.edges, self.counters)
    }

    /// Slot index of `(t, e)` on this rank.
    #[inline]
    fn slot(&self, t: Node, e: u32) -> u64 {
        self.part.local_index(t) * self.cfg.x + u64::from(e)
    }

    /// Record `F_t(e) = v` and emit the edge. `li` is `t`'s local index,
    /// hoisted by the caller so per-slot commits don't redo the
    /// partition arithmetic.
    fn commit<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, Msg, T>,
        t: Node,
        e: u32,
        li: usize,
        v: Node,
    ) {
        debug_assert_eq!(li, self.part.local_index(t) as usize, "wrong local index");
        let slot = li as u64 * self.cfg.x + u64::from(e);
        debug_assert_eq!(self.f.get(slot), NILL, "double commit of ({t},{e})");
        debug_assert_eq!(self.next_e[li], e, "out-of-order commit of ({t},{e})");
        self.f.set(slot, v);
        self.next_e[li] = e + 1;
        self.edges.emit(t, v);
        net.complete(1);
    }

    /// A frame primed to recompute node `k`'s row (memo slot `at`) up
    /// to slot `goal`, resuming from the memoized prefix (if any) and
    /// reusing pooled allocations when available.
    fn new_frame(&mut self, k: Node, at: usize, goal: u64) -> Frame {
        let keys = self.model.keys_for(k);
        let mut frame = self.frame_pool.pop().unwrap_or(Frame {
            k,
            at,
            keys,
            row: Vec::new(),
            goal: 0,
            attempt: 0,
            pending: None,
        });
        frame.k = k;
        frame.at = at;
        frame.keys = keys;
        frame.goal = goal as usize;
        frame.row.clear();
        self.memo.copy_prefix_into(at, k, &mut frame.row);
        debug_assert!(frame.row.len() <= frame.goal, "memo hit routed to a walk");
        frame.attempt = 0;
        frame.pending = None;
        frame
    }

    /// Advance the frame until its row reaches its goal slot or it needs
    /// a child.
    fn step_frame(&mut self, frame: &mut Frame, delivered: &mut Option<Node>) -> Step {
        let x = self.cfg.x;
        while frame.row.len() <= frame.goal {
            let e = frame.row.len() as u32;
            let cand = if frame.pending.take().is_some() {
                delivered
                    .take()
                    .expect("resumed frame without a delivered child value")
            } else {
                let c = self
                    .model
                    .draw_keyed(&frame.keys, frame.k, e, frame.attempt);
                if c.direct {
                    c.k
                } else if c.k == x {
                    // Node x's row is the identity: F_x(l) = l.
                    c.l
                } else {
                    let owner = self.part.rank_of(c.k);
                    if owner == self.rank {
                        // Local rows below the walk's origin are always
                        // committed (ascending sweep, full-row commits).
                        let v = self.f.get(self.slot(c.k, c.l as u32));
                        debug_assert_ne!(v, NILL, "chain read an uncommitted local slot");
                        v
                    } else {
                        let at = self.memo.at(self.part, c.k, owner);
                        if let Some(v) = self.memo.get_slot(at, c.k, c.l) {
                            self.counters.chain_memo_hits += 1;
                            v
                        } else {
                            frame.pending = Some(c);
                            return Step::NeedChild { k: c.k, at };
                        }
                    }
                }
            };
            if frame.row.contains(&cand) {
                frame.attempt += 1;
                continue;
            }
            frame.row.push(cand);
            frame.attempt = 0;
        }
        Step::Done
    }

    /// Recompute `F_k0(l0)` for a node `k0 > x` owned by remote rank
    /// `owner` by walking the dependency chain with an explicit frame
    /// stack (labels strictly decrease down the stack, so the walk
    /// terminates and never references a node that is itself
    /// mid-recomputation).
    fn chain_value(&mut self, k0: Node, owner: usize, l0: u64) -> Node {
        let at = self.memo.at(self.part, k0, owner);
        if let Some(v) = self.memo.get_slot(at, k0, l0) {
            self.counters.chain_memo_hits += 1;
            return v;
        }
        let root = self.new_frame(k0, at, l0);
        let mut stack = std::mem::take(&mut self.stack);
        debug_assert!(stack.is_empty(), "chain walks never nest");
        stack.push(root);
        let mut delivered: Option<Node> = None;
        loop {
            self.counters.chain_peak_depth = self.counters.chain_peak_depth.max(stack.len() as u64);
            let mut frame = stack.pop().expect("chain walk on an empty stack");
            match self.step_frame(&mut frame, &mut delivered) {
                Step::NeedChild { k, at } => {
                    let goal = frame
                        .pending
                        .as_ref()
                        .expect("child requested without a pending choice")
                        .l;
                    let child = self.new_frame(k, at, goal);
                    stack.push(frame);
                    stack.push(child);
                }
                Step::Done => {
                    self.counters.chain_rows_recomputed += 1;
                    // Hand the value straight to the parent (or the
                    // caller): the memo is an optimization, never load-
                    // bearing, so eviction cannot stall the walk.
                    let l = match stack.last() {
                        Some(parent) => {
                            parent
                                .pending
                                .as_ref()
                                .expect("parent frame without a pending choice")
                                .l
                        }
                        None => l0,
                    };
                    let value = frame.row[l as usize];
                    self.memo.insert(frame.at, frame.k, &frame.row);
                    self.frame_pool.push(frame);
                    if stack.is_empty() {
                        self.stack = stack;
                        return value;
                    }
                    delivered = Some(value);
                }
            }
        }
    }

    /// Generate local node `t`'s whole row — engine3 never parks, so one
    /// call commits all `x` slots.
    fn generate_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, Msg, T>, t: Node) {
        let x = self.cfg.x;
        let keys = self.model.keys_for(t);
        let mut choices0 = std::mem::take(&mut self.scratch);
        self.model.draw_row(&keys, t, &mut choices0);
        let li = self.part.local_index(t) as usize;
        let row0 = li as u64 * x;
        for e in 0..x as u32 {
            let mut attempt = 0u32;
            let (v, direct) = loop {
                let c = if attempt == 0 {
                    choices0[e as usize]
                } else {
                    self.model.draw_keyed(&keys, t, e, attempt)
                };
                let (cand, direct) = if c.direct {
                    (c.k, true)
                } else if c.k == x {
                    (c.l, false)
                } else {
                    let owner = self.part.rank_of(c.k);
                    if owner == self.rank {
                        self.counters.local_immediate += 1;
                        (self.f.get(self.slot(c.k, c.l as u32)), false)
                    } else {
                        (self.chain_value(c.k, owner, c.l), false)
                    }
                };
                if self.f.row_contains(row0, x, cand) {
                    self.counters.duplicate_retries += 1;
                    attempt += 1;
                    continue;
                }
                break (cand, direct);
            };
            if direct {
                self.counters.direct_edges += 1;
            } else {
                self.counters.copy_edges += 1;
            }
            self.commit(net, t, e, li, v);
        }
        self.scratch = choices0;
    }
}

impl<'a, P: Partition, S: EdgeSink> Strategy for Chain<'a, P, S> {
    type Msg = Msg;

    fn register(&mut self, lo: Node, hi: Node) -> u64 {
        super::register_clique(self.part, self.rank, self.cfg.x, lo, hi, &mut self.edges)
    }

    fn attach_seed_node<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, Msg, T>,
        lo: Node,
        hi: Node,
    ) {
        // Node x attaches deterministically to all seed nodes; every other
        // rank derives F_x analytically.
        let x = self.cfg.x;
        if self.part.num_nodes() > x && (lo..hi).contains(&x) && self.part.rank_of(x) == self.rank {
            let li = self.part.local_index(x) as usize;
            for e in 0..x {
                self.commit(net, x, e as u32, li, e);
            }
        }
    }

    fn start_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, Msg, T>, t: Node) {
        self.generate_node(net, t);
    }

    fn drain_local<T: Transport<Msg>>(&mut self, _net: &mut Net<'_, Msg, T>) {
        // Nothing ever parks: every node completes inside start_node.
    }

    fn handle_msgs<T: Transport<Msg>>(
        &mut self,
        _net: &mut Net<'_, Msg, T>,
        src: usize,
        msgs: &mut Vec<Msg>,
    ) {
        // Engine3 sends no algorithm messages, so none can arrive — not
        // even under fault injection, which only replays *sent* packets.
        panic!(
            "engine3 is communication-free but rank {} received {} message(s) from rank {src}",
            self.rank,
            msgs.len()
        );
    }

    fn finish(&mut self) {
        debug_assert!(
            self.frame_pool.iter().all(|f| f.pending.is_none()),
            "pooled frame retained a pending choice"
        );
    }

    fn sink_mark(&mut self) -> std::io::Result<(u64, u64)> {
        self.edges.checkpoint_mark()
    }

    fn snapshot(&mut self, hi: Node, out: &mut Vec<u8>) {
        // Same epoch-cut argument as engine2: the committed prefix of `f`
        // plus the counters is the whole engine (the memo is a
        // pure-function cache and rebuilds itself).
        let x = self.cfg.x;
        let cnt = self.part.local_count_below(self.rank, hi);
        store::write_table_prefix(&mut self.f, cnt, x, out);
        self.counters.encode(out);
    }

    fn restore(&mut self, hi: Node, payload: &[u8]) -> Result<(), String> {
        let x = self.cfg.x;
        let mut r = payload;
        let expect = self.part.local_count_below(self.rank, hi);
        store::read_table_prefix(&mut self.f, expect, x, &mut r)?;
        self.next_e.fill(0);
        for e in self.next_e.iter_mut().take(expect as usize) {
            *e = x as u32;
        }
        self.counters = EngineCounters::decode(&mut r).ok_or("truncated engine counters")?;
        if !r.is_empty() {
            return Err(format!("{} trailing bytes after the counters", r.len()));
        }
        self.memo.clear();
        Ok(())
    }

    fn stall_report(&mut self) -> String {
        let uncommitted = self
            .next_e
            .iter()
            .filter(|&&e| u64::from(e) < self.cfg.x)
            .count();
        format!(
            "uncommitted_nodes={uncommitted} memo_rows={} rows_recomputed={}",
            self.memo.occupied(),
            self.counters.chain_rows_recomputed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{self, Scheme};

    fn allocated(memo: &Memo) -> u64 {
        let bytes = |cells: usize, width: usize| (cells * width) as u64;
        match &memo.cells {
            Cells::Off => 0,
            Cells::Compact(s) => bytes(s.entries.len(), 4),
            Cells::Wide(s) => bytes(s.entries.len(), 8),
        }
    }

    #[test]
    fn memo_allocates_exactly_the_planned_bytes() {
        let (n, x) = (1_000u64, 3u64);
        for scheme in Scheme::EXTENDED {
            for nranks in [1usize, 2, 3] {
                let part = partition::build(scheme, n, nranks);
                for rank in 0..nranks {
                    let remote = n - part.size_of(rank);
                    for memo_nodes in [0, 1, 100, remote.max(1) - 1, remote, u64::MAX] {
                        for paged in [false, true] {
                            let layout = ChainMemoLayout::plan(&part, rank, memo_nodes, paged);
                            let memo = Memo::new(layout, &part, rank, x);
                            assert_eq!(
                                allocated(&memo),
                                layout.bytes(n, x),
                                "{scheme} P={nranks} rank {rank} memo {memo_nodes} {layout:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn default_memo_covers_every_remote_row_except_under_a_budget() {
        let (n, x) = (4_000_000u64, 4u64);
        let p1 = partition::build(Scheme::Rrp, n, 1);
        let default = crate::DEFAULT_CHAIN_MEMO_NODES;
        assert_eq!(
            ChainMemoLayout::plan(&p1, 0, default, false),
            ChainMemoLayout::Off,
            "a single rank recomputes nothing, so it needs no memo"
        );
        let p2 = partition::build(Scheme::Rrp, n, 2);
        let direct = ChainMemoLayout::plan(&p2, 0, default, false);
        assert_eq!(direct, ChainMemoLayout::Direct { rows: n / 2 });
        // At P = 2 the memo costs what the rank's own u32 F table does.
        assert_eq!(direct.bytes(n, x), n / 2 * x * 4);
        let budgeted = ChainMemoLayout::plan(&p2, 0, default, true);
        assert_eq!(
            budgeted,
            ChainMemoLayout::Hashed {
                slots: crate::BUDGETED_CHAIN_MEMO_NODES
            }
        );
        assert_eq!(budgeted.bytes(n, x), (1 << 20) * (1 + x) * 4);
        // An explicit size is honoured under a budget too.
        assert_eq!(
            ChainMemoLayout::plan(&p2, 0, 1_000, true),
            ChainMemoLayout::Hashed { slots: 1_024 }
        );
        // Labels that do not fit a u32 cell double the cell width.
        assert_eq!(
            ChainMemoLayout::Direct { rows: 10 }.bytes(1 << 33, x),
            10 * x * 8
        );
    }

    #[test]
    fn direct_memo_slots_are_a_bijection_onto_remote_nodes() {
        let n = 777u64;
        for scheme in Scheme::EXTENDED {
            for nranks in [2usize, 3, 4] {
                let part = partition::build(scheme, n, nranks);
                for rank in 0..nranks {
                    let layout = ChainMemoLayout::plan(&part, rank, u64::MAX, false);
                    let ChainMemoLayout::Direct { rows } = layout else {
                        panic!("default layout is {layout:?}");
                    };
                    let memo = Memo::new(layout, &part, rank, 2);
                    let mut seen = vec![false; rows as usize];
                    for k in (0..n).filter(|&k| part.rank_of(k) != rank) {
                        let at = memo.at(&part, k, part.rank_of(k));
                        assert!(!seen[at], "{scheme} P={nranks}: slot {at} reused");
                        seen[at] = true;
                    }
                    assert!(seen.iter().all(|&s| s), "{scheme} P={nranks}: slot unused");
                }
            }
        }
    }
}
