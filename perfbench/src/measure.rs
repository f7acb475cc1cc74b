//! Measurement helpers: sample statistics, the edge-set oracle hash,
//! process counters read from `/proc`, and the benchmark-side sinks and
//! writers that observe the program's layers from outside.

use pa_core::par::EdgeSink;
use pa_graph::io::Fnv1a;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method)
/// computes them. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(!v.is_empty(), "quartiles of no samples");
    let s = sorted(v);
    let ld = s.len() as i64;
    if ld == 1 {
        return [s[0]; 3];
    }
    let (n, m) = (4i64, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *q = (s[j as usize - 1] * (n - delta) as f64 + s[j as usize] * delta as f64) / n as f64;
    }
    out
}

/// A latency tail: the highest whole percentile (at most p99) whose
/// nearest-rank sample still has at least ten samples above it. Below
/// twenty samples not even the median qualifies; the tail then falls
/// back to the median, reported as p50 so the reader can see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at.
    pub percentile: u32,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly above it in rank order.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// Apply the tail rule of [`Tail`] to `v`.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    let rank = |q: u32| (q as usize * n).div_ceil(100).max(1) - 1;
    for q in (50..=99).rev() {
        let idx = rank(q);
        if n - 1 - idx >= 10 {
            return Tail {
                percentile: q,
                value: s[idx],
                beyond: n - 1 - idx,
                samples: n,
            };
        }
    }
    Tail {
        percentile: 50,
        value: median(v),
        beyond: n.saturating_sub(rank(50) + 1),
        samples: n,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64's finaliser: a bijective 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent fingerprint of an edge multiset: two wrapping sums
/// of independent per-edge mixes plus the edge count. Any permutation of
/// the same edges hashes equal; changing one edge changes both sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeSetHash {
    a: u64,
    b: u64,
    /// Edges folded in.
    pub edges: u64,
}

impl EdgeSetHash {
    /// Fold in edge `(u, v)` (`u` the creating node).
    #[inline]
    pub fn add(&mut self, u: u64, v: u64) {
        let k = mix(u ^ mix(v ^ 0x9E37_79B9_7F4A_7C15));
        self.a = self.a.wrapping_add(k);
        self.b = self.b.wrapping_add(mix(k ^ 0xD1B5_4A32_D192_ED03));
        self.edges += 1;
    }

    /// Combine two disjoint parts (e.g. ranks) of one edge set.
    pub fn merge(mut self, other: EdgeSetHash) -> EdgeSetHash {
        self.a = self.a.wrapping_add(other.a);
        self.b = self.b.wrapping_add(other.b);
        self.edges += other.edges;
        self
    }

    /// The fingerprint of a whole edge list.
    pub fn of_edges(edges: &pa_graph::EdgeList) -> EdgeSetHash {
        let mut h = EdgeSetHash::default();
        for (u, v) in edges.iter() {
            h.add(u, v);
        }
        h
    }
}

/// FNV-1a checksum of `edges` in the `--format bin` layout, the checksum
/// `pagen serve` announces for an artifact holding them in this order.
pub fn bin_checksum(edges: &pa_graph::EdgeList) -> u64 {
    let mut h = Fnv1a::new();
    for (u, v) in edges.iter() {
        h.update(&u.to_le_bytes());
        h.update(&v.to_le_bytes());
    }
    h.digest()
}

/// What reading a `--format bin` edge file back yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinFile {
    /// The file's length in bytes.
    pub bytes: u64,
    /// Edge-set fingerprint of the complete 16-byte records.
    pub set: EdgeSetHash,
    /// Order-dependent digest of every byte, for byte-identity checks.
    pub ordered: u64,
}

/// Read a binary edge file (little-endian `u64` pairs, no header).
///
/// # Errors
///
/// I/O errors from opening or reading the file.
pub fn read_bin_file(path: &Path) -> io::Result<BinFile> {
    let mut f = File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let (mut set, mut ordered, mut bytes, mut fill) = (EdgeSetHash::default(), 0u64, 0u64, 0);
    loop {
        // `fill` < 16 here (only a partial record is carried over), so
        // the read never gets an empty buffer and 0 always means EOF.
        let got = f.read(&mut buf[fill..])?;
        fill += got;
        let whole = fill - fill % 16;
        for rec in buf[..whole].chunks_exact(16) {
            let u = u64::from_le_bytes(rec[..8].try_into().expect("8-byte half"));
            let v = u64::from_le_bytes(rec[8..].try_into().expect("8-byte half"));
            set.add(u, v);
            ordered = mix(ordered ^ u).wrapping_add(v).rotate_left(17);
        }
        bytes += whole as u64;
        if got == 0 {
            for &b in &buf[whole..fill] {
                ordered = mix(ordered ^ u64::from(b));
            }
            bytes += (fill - whole) as u64;
            return Ok(BinFile {
                bytes,
                set,
                ordered,
            });
        }
        buf.copy_within(whole..fill, 0);
        fill -= whole;
    }
}

/// User plus system CPU time of this process so far, all threads
/// (including finished ones), from `/proc/self/stat`.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    Duration::from_millis(10 * f.iter().sum::<u64>())
}

/// This process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak-RSS mark to the current resident set, so set-up work
/// done before the timed phase does not count as the workload's peak.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cumulative I/O counters of this process (`/proc/self/io`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcIo {
    /// Bytes passed to read-type system calls.
    pub rchar: u64,
    /// Bytes passed to write-type system calls.
    pub wchar: u64,
    /// Read-type system calls.
    pub syscr: u64,
    /// Write-type system calls.
    pub syscw: u64,
}

impl ProcIo {
    /// Read the counters now (all zero if `/proc/self/io` is unreadable).
    pub fn now() -> ProcIo {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let get = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        ProcIo {
            rchar: get("rchar:"),
            wchar: get("wchar:"),
            syscr: get("syscr:"),
            syscw: get("syscw:"),
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(self, earlier: ProcIo) -> ProcIo {
        ProcIo {
            rchar: self.rchar - earlier.rchar,
            wchar: self.wchar - earlier.wchar,
            syscr: self.syscr - earlier.syscr,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

/// Emits between two clock reads in a clocked [`ProbeSink`]: reading the
/// clock on every edge would cost more than the engines' per-edge work.
const CLOCK_EVERY: u64 = 1024;

/// The benchmark's edge sink: counts and fingerprints the edges and, on
/// request, samples when the rank emitted its first and last edges (to
/// within [`CLOCK_EVERY`] emits).
#[derive(Debug, Clone, Default)]
pub struct ProbeSink {
    /// Edges received.
    pub edges: u64,
    /// Edge-set fingerprint.
    pub hash: EdgeSetHash,
    /// `(first, last)` emit instants, when clocked.
    pub clock: Option<(Instant, Instant)>,
    clocked: bool,
}

impl ProbeSink {
    /// A sink that counts, fingerprints, and samples emit times when
    /// `clocked`.
    pub fn new(clocked: bool) -> ProbeSink {
        ProbeSink {
            clocked,
            ..ProbeSink::default()
        }
    }
}

impl EdgeSink for ProbeSink {
    #[inline]
    fn emit(&mut self, u: u64, v: u64) {
        self.hash.add(u, v);
        if self.clocked && self.edges.is_multiple_of(CLOCK_EVERY) {
            let now = Instant::now();
            let first = self.clock.map_or(now, |(f, _)| f);
            self.clock = Some((first, now));
        }
        self.edges += 1;
    }
}

/// Totals a [`TimedWriter`] shares with the benchmark after the program
/// has consumed the writer.
#[derive(Debug, Default)]
pub struct WriteTally {
    /// Nanoseconds spent inside `write` calls.
    pub busy_ns: AtomicU64,
    /// `write` calls made.
    pub calls: AtomicU64,
    /// Bytes accepted.
    pub bytes: AtomicU64,
}

/// A `Write` wrapper that times every `write` call the program makes on
/// it and adds the totals to a shared [`WriteTally`].
#[derive(Debug)]
pub struct TimedWriter<W> {
    inner: W,
    tally: Arc<WriteTally>,
}

impl<W: Write> TimedWriter<W> {
    /// Wrap `inner`, adding to `tally`.
    pub fn new(inner: W, tally: Arc<WriteTally>) -> Self {
        TimedWriter { inner, tally }
    }
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.write(buf);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tally.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.tally.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(n) = r {
            self.tally.bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_checksum_is_the_fnv_of_the_binary_file() {
        let mut edges = pa_graph::EdgeList::new();
        for u in 1..100u64 {
            edges.push(u, u / 2);
        }
        let mut bytes = Vec::new();
        pa_graph::io::write_binary(&mut bytes, &edges).unwrap();
        assert_eq!(bin_checksum(&edges), Fnv1a::hash(&bytes));
    }

    #[test]
    fn edge_set_hash_ignores_order_and_sees_one_changed_edge() {
        let edges: Vec<(u64, u64)> = (1..200u64).map(|u| (u, u / 3)).collect();
        let hash = |es: &[(u64, u64)]| {
            let mut h = EdgeSetHash::default();
            for &(u, v) in es {
                h.add(u, v);
            }
            h
        };
        let base = hash(&edges);
        let mut shuffled = edges.clone();
        shuffled.reverse();
        shuffled.swap(3, 150);
        assert_eq!(hash(&shuffled), base);
        let (left, right) = edges.split_at(77);
        assert_eq!(hash(left).merge(hash(right)), base);
        for i in [0, 99, 198] {
            let mut changed = edges.clone();
            changed[i].1 += 1;
            assert_ne!(hash(&changed), base, "edge {i} changed unnoticed");
            let mut swapped = edges.clone();
            swapped[i] = (swapped[i].1, swapped[i].0);
            assert_ne!(hash(&swapped), base, "edge {i} reversed unnoticed");
        }
    }

    #[test]
    fn bin_file_round_trip_matches_in_memory_hash() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e.bin");
        let mut bytes = Vec::new();
        let mut h = EdgeSetHash::default();
        for u in 1..100_000u64 {
            bytes.extend_from_slice(&u.to_le_bytes());
            bytes.extend_from_slice(&(u / 2).to_le_bytes());
            h.add(u, u / 2);
        }
        std::fs::write(&path, &bytes).unwrap();
        let a = read_bin_file(&path).unwrap();
        assert_eq!(a.bytes, bytes.len() as u64);
        assert_eq!(a.set, h);
        bytes.swap(0, 16);
        std::fs::write(&path, &bytes).unwrap();
        let b = read_bin_file(&path).unwrap();
        assert_ne!(b.ordered, a.ordered, "byte order must matter");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[1.0, 9.0, 3.0, 4.0]), 3.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.beyond), (93, 10));
        assert_eq!(t.value, 140.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 99);
        // Twenty samples: p50 is the last percentile with ten above it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!((tail(&v).percentile, tail(&v).beyond), (50, 10));
        // Fewer: no percentile qualifies, so the tail is the median.
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.percentile, t.value, t.samples), (50, 3.0, 3));
    }

    #[test]
    fn probe_sink_counts_hashes_and_clocks() {
        let mut s = ProbeSink::new(true);
        for u in 1..=3000 {
            s.emit(u, 0);
        }
        assert_eq!(s.edges, 3000);
        assert_eq!(s.hash.edges, 3000);
        let (first, last) = s.clock.unwrap();
        assert!(last >= first);
        let plain = ProbeSink::new(false);
        assert!(plain.clock.is_none());
    }
}
