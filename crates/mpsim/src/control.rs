//! The shared control plane: collectives and termination detection.
//!
//! MPI provides global operations (`MPI_Barrier`, `MPI_Allreduce`,
//! `MPI_Allgather`) whose *semantics* are "a value computed from every
//! rank's contribution, visible to every rank". We implement them over a
//! shared, generation-counted rendezvous rather than over the data-plane
//! channels; this keeps algorithm state strictly rank-private while giving
//! the same observable behaviour as the MPI calls (see DESIGN.md §2).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Reduction operators supported by [`ControlPlane::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReduceOp {
    Sum,
    Max,
    Min,
}

struct Rendezvous {
    /// Per-rank contribution slots for the current round.
    slots: Vec<u64>,
    /// Number of ranks that have deposited a value this round.
    arrived: usize,
    /// Number of ranks that have picked up the result this round.
    departed: usize,
    /// Combined value for the round, valid once `arrived == nranks`.
    result: u64,
    /// Full slot snapshot for allgather.
    snapshot: Vec<u64>,
    /// Round parity: ranks may not start round r+1 until all left round r.
    round: u64,
}

/// Shared rendezvous state used to implement barrier/allreduce/allgather.
pub(crate) struct ControlPlane {
    nranks: usize,
    inner: Mutex<Rendezvous>,
    cv: Condvar,
    outstanding: AtomicI64,
}

impl ControlPlane {
    pub(crate) fn new(nranks: usize) -> Arc<Self> {
        Arc::new(Self {
            nranks,
            inner: Mutex::new(Rendezvous {
                slots: vec![0; nranks],
                arrived: 0,
                departed: 0,
                result: 0,
                snapshot: vec![0; nranks],
                round: 0,
            }),
            cv: Condvar::new(),
            outstanding: AtomicI64::new(0),
        })
    }

    /// One collective round: deposit `val`, wait for everyone, read the
    /// combined result, and wait until everyone has read it before the
    /// next round can start. All ranks must call with the same `op`.
    pub(crate) fn collective(&self, rank: usize, val: u64, op: ReduceOp) -> (u64, Vec<u64>) {
        let mut g = lock(&self.inner);
        // A rank may only enter while the round is in its gathering phase;
        // if the previous round is still draining (some ranks have not yet
        // read the result), wait for it to complete.
        while g.departed != 0 {
            g = wait(&self.cv, g);
        }
        let my_round = g.round;
        g.slots[rank] = val;
        g.arrived += 1;
        if g.arrived == self.nranks {
            g.result = match op {
                ReduceOp::Sum => g.slots.iter().copied().fold(0u64, u64::wrapping_add),
                ReduceOp::Max => g.slots.iter().copied().max().unwrap_or(0),
                ReduceOp::Min => g.slots.iter().copied().min().unwrap_or(u64::MAX),
            };
            let slots = std::mem::take(&mut g.slots);
            g.snapshot.clone_from(&slots);
            g.slots = slots;
            self.cv.notify_all();
        } else {
            while g.arrived != self.nranks && g.round == my_round {
                g = wait(&self.cv, g);
            }
        }
        let out = (g.result, g.snapshot.clone());
        g.departed += 1;
        if g.departed == self.nranks {
            g.arrived = 0;
            g.departed = 0;
            g.round = g.round.wrapping_add(1);
            self.cv.notify_all();
        }
        out
    }

    pub(crate) fn termination(self: &Arc<Self>) -> TerminationHandle {
        TerminationHandle::from_backend(Arc::clone(self) as Arc<dyn TerminationBackend>)
    }
}

impl TerminationBackend for ControlPlane {
    fn add(&self, n: u64) {
        self.outstanding.fetch_add(n as i64, Ordering::AcqRel);
    }

    fn complete(&self, n: u64) {
        let prev = self.outstanding.fetch_sub(n as i64, Ordering::AcqRel);
        debug_assert!(prev >= n as i64, "termination counter went negative");
    }

    fn is_done(&self) -> bool {
        self.outstanding.load(Ordering::Acquire) == 0
    }

    fn outstanding(&self) -> i64 {
        self.outstanding.load(Ordering::Acquire)
    }
}

/// Lock, shrugging off poisoning: a panicking rank already fails the run
/// via its joined thread, so cascading poison panics only obscure it.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// The state a [`TerminationHandle`] delegates to.
///
/// The shared-memory runtime backs the handle with a single atomic
/// counter (the private `ControlPlane`); a distributed transport (e.g. the TCP
/// backend in `pa-net`) backs it with a per-rank ledger kept current by
/// control traffic. The *observable* semantics every backend must honour:
///
/// * `add`/`complete` adjust the global outstanding-work count;
/// * `is_done` eventually returns `true` on every rank once adds and
///   completes balance world-wide, and never returns `true` while
///   registered work remains;
/// * adds are only guaranteed *globally* visible after the next
///   transport barrier (the registration pattern is always
///   `add → barrier → observe`; see the `Transport` contract). The
///   shared-memory backend happens to publish adds immediately, but
///   callers must not rely on that;
/// * a `complete` call publishes whatever count it is given, but callers
///   may batch: the engine driver counts completions locally and settles
///   them once per service round, at the end of its sweep, and before
///   each `is_done`/`outstanding` read. A batched completion can only
///   delay `is_done`, never make it true early.
pub trait TerminationBackend: Send + Sync {
    /// Register `n` units of outstanding work.
    fn add(&self, n: u64);
    /// Mark `n` units of work resolved.
    fn complete(&self, n: u64);
    /// True when no outstanding work remains anywhere in the world.
    fn is_done(&self) -> bool;
    /// Current outstanding-work count (diagnostic; may lag on
    /// distributed backends).
    fn outstanding(&self) -> i64;
}

/// A global outstanding-work counter shared by all ranks.
///
/// In the paper's algorithm, a `request` in flight always corresponds to an
/// unresolved `F_t(e)` slot at the requesting rank, so "no unresolved slots
/// anywhere" implies no meaningful traffic remains and every rank may stop
/// its receive loop. A production MPI code detects that condition with a
/// nonblocking-allreduce loop; this handle exposes the identical predicate
/// directly. Ranks *add* work when they create unresolved slots and
/// *complete* it when a slot is finally resolved.
///
/// The handle is a thin clonable front over a [`TerminationBackend`]:
/// an atomic counter for the in-process runtimes, a distributed ledger
/// for socket transports.
#[derive(Clone)]
pub struct TerminationHandle {
    backend: Arc<dyn TerminationBackend>,
}

impl TerminationHandle {
    /// Wrap a backend. Transport implementations outside this crate use
    /// this to plug their own (e.g. distributed) detector into the
    /// engine-facing handle.
    pub fn from_backend(backend: Arc<dyn TerminationBackend>) -> Self {
        Self { backend }
    }

    /// Register `n` units of outstanding work.
    #[inline]
    pub fn add(&self, n: u64) {
        self.backend.add(n);
    }

    /// Mark `n` units of work resolved.
    #[inline]
    pub fn complete(&self, n: u64) {
        self.backend.complete(n);
    }

    /// True when no outstanding work remains anywhere in the world.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.backend.is_done()
    }

    /// Current outstanding-work count (diagnostic).
    #[inline]
    pub fn outstanding(&self) -> i64 {
        self.backend.outstanding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn collective_sum_across_threads() {
        let plane = ControlPlane::new(4);
        thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|r| {
                    let plane = Arc::clone(&plane);
                    s.spawn(move || plane.collective(r, (r as u64 + 1) * 10, ReduceOp::Sum))
                })
                .collect();
            for h in handles {
                let (sum, snap) = h.join().unwrap();
                assert_eq!(sum, 10 + 20 + 30 + 40);
                assert_eq!(snap, vec![10, 20, 30, 40]);
            }
        });
    }

    #[test]
    fn collective_rounds_do_not_interleave() {
        // Run many back-to-back rounds; every rank must observe the same
        // per-round result even with heavy contention.
        let plane = ControlPlane::new(3);
        thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|r| {
                    let plane = Arc::clone(&plane);
                    s.spawn(move || {
                        let mut results = Vec::new();
                        for round in 0..200u64 {
                            let (sum, _) = plane.collective(r, round + r as u64, ReduceOp::Sum);
                            results.push(sum);
                        }
                        results
                    })
                })
                .collect();
            let all: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for round in 0..200usize {
                let expect = (round as u64) * 3 + 3; // sum of (round + r) for r in 0..3
                for res in &all {
                    assert_eq!(res[round], expect, "round {round}");
                }
            }
        });
    }

    #[test]
    fn max_and_min_ops() {
        let plane = ControlPlane::new(2);
        thread::scope(|s| {
            let p1 = Arc::clone(&plane);
            let a = s.spawn(move || p1.collective(0, 7, ReduceOp::Max).0);
            let p2 = Arc::clone(&plane);
            let b = s.spawn(move || p2.collective(1, 3, ReduceOp::Max).0);
            assert_eq!(a.join().unwrap(), 7);
            assert_eq!(b.join().unwrap(), 7);
        });
        thread::scope(|s| {
            let p1 = Arc::clone(&plane);
            let a = s.spawn(move || p1.collective(0, 7, ReduceOp::Min).0);
            let p2 = Arc::clone(&plane);
            let b = s.spawn(move || p2.collective(1, 3, ReduceOp::Min).0);
            assert_eq!(a.join().unwrap(), 3);
            assert_eq!(b.join().unwrap(), 3);
        });
    }

    #[test]
    fn termination_counter_tracks_work() {
        let plane = ControlPlane::new(1);
        let t = plane.termination();
        assert!(t.is_done());
        t.add(3);
        assert!(!t.is_done());
        assert_eq!(t.outstanding(), 3);
        t.complete(2);
        assert!(!t.is_done());
        t.complete(1);
        assert!(t.is_done());
    }

    #[test]
    fn termination_shared_across_clones() {
        let plane = ControlPlane::new(2);
        let a = plane.termination();
        let b = plane.termination();
        a.add(1);
        assert!(!b.is_done());
        b.complete(1);
        assert!(a.is_done());
    }
}
