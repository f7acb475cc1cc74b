//! `pagen info` — inspect a PAG container header, or (with `--n` and no
//! `--in`) estimate per-rank resident memory for a planned run.

use crate::args::{Args, CliError};
use pa_core::par::ChainMemoLayout;
use pa_core::partition::{self, Partition};
use pa_graph::container;
use std::io::Write;

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.str("in", "");
    if path.is_empty() {
        return estimate(args, out);
    }
    args.finish()?;
    let (meta, shard_counts) = container::read_meta_file(&path).map_err(CliError::io)?;
    writeln!(out, "PAG container: {path}").map_err(CliError::io)?;
    writeln!(out, "nodes:  {}", meta.n).map_err(CliError::io)?;
    writeln!(
        out,
        "edges:  {} in {} shard(s)",
        shard_counts.iter().sum::<u64>(),
        shard_counts.len()
    )
    .map_err(CliError::io)?;
    if !shard_counts.is_empty() {
        let min = shard_counts.iter().min().unwrap();
        let max = shard_counts.iter().max().unwrap();
        writeln!(out, "shards: {min}..{max} edges each").map_err(CliError::io)?;
    }
    for (k, v) in &meta.attrs {
        writeln!(out, "attr:   {k} = {v}").map_err(CliError::io)?;
    }
    Ok(())
}

/// One table's contribution to the estimate: its name, resident bytes,
/// and bytes under the paged store's cache budget (`None` for state that
/// never pages).
struct TableLine {
    name: &'static str,
    resident: u64,
    budgeted: Option<u64>,
}

/// `pagen info --n <N>` (no `--in`): per-rank resident-memory estimate
/// for a planned `(n, x, ranks, scheme, engine)` run, and what
/// `--memory-budget` would cap the pageable share at. The estimate
/// covers the engines' per-node state — the `O(n/P)` term that dominates
/// at scale — not transient message buffers.
fn estimate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let n = match args.u64("n", 0)? {
        0 => {
            return Err(CliError::usage(
                "pagen info needs --in <file> (inspect a container) or --n <nodes> \
                 (estimate per-rank memory for a planned run)",
            ))
        }
        n => n,
    };
    let x = args.u64("x", 4)?;
    let ranks = args.u64("ranks", 4)? as usize;
    if ranks == 0 {
        return Err(CliError::usage("--ranks must be positive"));
    }
    let scheme = crate::generate::parse_scheme(&args.str("scheme", "rrp"))?;
    let engine = crate::generate::parse_engine(args)?;
    if n <= x || x == 0 {
        return Err(CliError::usage("need n > x >= 1"));
    }
    if engine == 1 && x != 1 {
        return Err(CliError::usage(
            "--engine 1 implements Algorithm 3.1 and requires --x 1",
        ));
    }
    let budget = args.str("memory-budget", "");
    let budget_bytes = if budget.is_empty() {
        None
    } else {
        Some(crate::generate::parse_byte_size("memory-budget", &budget)?)
    };
    let page_bytes = pa_core::store::DEFAULT_PAGE_BYTES as u64;
    let hub_nodes = match args.str("hub-cache", "auto").as_str() {
        "off" => 0,
        "auto" => pa_core::DEFAULT_HUB_CACHE_NODES.min(n),
        v => v.parse::<u64>().map_err(|_| {
            CliError::usage(format!(
                "--hub-cache must be auto, off or a node count, got {v:?}"
            ))
        })?,
    };
    let memo_nodes = args.u64("chain-memo", pa_core::DEFAULT_CHAIN_MEMO_NODES)?;
    args.finish()?;

    let part = partition::build(scheme, n, ranks);
    // Node labels decide the resident cell width of the F tables and
    // the chain memo; the engines declare the same bounds.
    let label_cell = pa_core::store::cell_bytes(n - 1);
    // A paged table's cache holds `budget/page` frames but never fewer
    // than two pages, mirroring `StoreSpec::scaled`; paged slots are
    // always 8 bytes.
    let capped = |share: u64, table_slots: u64| {
        let table_bytes = table_slots * 8;
        Some(share.max(2 * page_bytes).min(table_bytes))
    };

    // Per-engine table inventory for one rank: which per-node state
    // pages to disk (the store-backed tables) and which stays resident
    // regardless.
    let lines_for = |rank: usize| -> Vec<TableLine> {
        let size = part.size_of(rank);
        let slots = size * x;
        match engine {
            1 => vec![TableLine {
                name: "F table (1 slot/node)",
                resident: size * label_cell,
                budgeted: budget_bytes.and_then(|b| capped(b, size)),
            }],
            2 => {
                // The general engine splits one budget across three
                // tables by slot weight: f and attempts get slots each,
                // next_e gets size.
                let total = slots * 2 + size;
                vec![
                    TableLine {
                        name: "F table (x slots/node)",
                        resident: slots * label_cell,
                        budgeted: budget_bytes.and_then(|b| capped(b * slots / total, slots)),
                    },
                    TableLine {
                        name: "attempt counters (u32)",
                        resident: slots * 4,
                        budgeted: budget_bytes.and_then(|b| capped(b * slots / total, slots)),
                    },
                    TableLine {
                        name: "node cursors",
                        resident: size * pa_core::store::cell_bytes(x),
                        budgeted: budget_bytes.and_then(|b| capped(b * size / total, size)),
                    },
                    TableLine {
                        name: "hub cache (replicated)",
                        resident: hub_nodes * x * 8,
                        budgeted: None,
                    },
                ]
            }
            _ => vec![
                TableLine {
                    name: "F table (x slots/node)",
                    resident: slots * label_cell,
                    budgeted: budget_bytes.and_then(|b| capped(b, slots)),
                },
                TableLine {
                    name: "node cursors (u32)",
                    resident: size * 4,
                    budgeted: None,
                },
                TableLine {
                    name: "chain memo",
                    resident: ChainMemoLayout::plan(
                        &part,
                        rank,
                        memo_nodes,
                        budget_bytes.is_some(),
                    )
                    .bytes(n, x),
                    budgeted: None,
                },
            ],
        }
    };
    // Report the rank with the largest resident footprint: it bounds
    // every rank (with an unbalanced scheme the smallest rank can carry
    // the largest chain memo).
    let resident = |lines: &[TableLine]| lines.iter().map(|l| l.resident).sum::<u64>();
    let (rank, lines) = (0..ranks)
        .map(|r| (r, lines_for(r)))
        .max_by_key(|(r, lines)| (resident(lines), std::cmp::Reverse(*r)))
        .expect("ranks > 0");
    let size = part.size_of(rank);
    let slots = size * x;

    writeln!(
        out,
        "per-rank memory estimate: n={n} x={x} ranks={ranks} scheme={scheme} engine={engine}"
    )
    .map_err(CliError::io)?;
    writeln!(
        out,
        "largest footprint: rank {rank}, {size} nodes ({slots} F slots)"
    )
    .map_err(CliError::io)?;
    let mut resident_total = 0u64;
    let mut budgeted_total = 0u64;
    for l in &lines {
        resident_total += l.resident;
        budgeted_total += l.budgeted.unwrap_or(l.resident);
        match l.budgeted {
            Some(b) => writeln!(
                out,
                "  {:<28} {:>14}   {:>14} paged",
                l.name,
                human(l.resident),
                human(b)
            ),
            None => writeln!(out, "  {:<28} {:>14}", l.name, human(l.resident)),
        }
        .map_err(CliError::io)?;
    }
    match budget_bytes {
        Some(b) => writeln!(
            out,
            "total: {} resident | {} under --memory-budget {}",
            human(resident_total),
            human(budgeted_total),
            human(b)
        ),
        None => writeln!(
            out,
            "total: {} resident (add --memory-budget <bytes[k|m|g]> to see the paged plan)",
            human(resident_total)
        ),
    }
    .map_err(CliError::io)?;
    Ok(())
}

/// Render a byte count with a binary-unit suffix.
fn human(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}
