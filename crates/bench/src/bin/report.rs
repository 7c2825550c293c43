//! Regenerates the experiment tables of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p duc-bench --bin report --release -- all
//! cargo run -p duc-bench --bin report --release -- e1 e6 e7
//! cargo run -p duc-bench --bin report --release -- --json all
//! ```
//!
//! With `--json`, additionally writes `BENCH_seed.json`: one record per
//! experiment (always all of them, independent of the table selection)
//! with the median latency (first `ms` column) and median gas (first
//! `gas` column) of each table — the seed of the repository's
//! performance trajectory. Each experiment runs at most once per
//! invocation; table output and JSON share the results.

use duc_bench::experiments;
use duc_bench::Table;

const JSON_PATH: &str = "BENCH_seed.json";

/// One registry entry: experiment name plus its runner.
type Experiment = (&'static str, fn() -> Vec<Table>);

/// The single registry every consumer (table output, JSON, the usage
/// message) derives from.
const EXPERIMENTS: &[Experiment] = &[
    ("e1", experiments::e1_pod_initiation),
    ("e2", experiments::e2_resource_initiation),
    ("e3", experiments::e3_indexing),
    ("e4", experiments::e4_access),
    ("e5", experiments::e5_propagation),
    ("e6", experiments::e6_monitoring),
    ("e7", experiments::e7_gas_table),
    ("e8", experiments::e8_robustness),
    ("e9", experiments::e9_privacy),
    ("e10", experiments::e10_baseline),
    ("e11", experiments::e11_enforcement),
    ("e12", experiments::e12_chain_scale),
    ("e13", experiments::e13_backends),
    ("e14", experiments::e14_deadline_enforcement),
    ("e15", experiments::e15_population),
    ("e16", experiments::e16_storage),
    ("e18", experiments::e18_runtime),
    ("e19", experiments::e19_paged_state),
];

/// Runs experiment `index` on first use, then serves the cached tables.
fn tables(cache: &mut [Option<Vec<Table>>], index: usize) -> &[Table] {
    cache[index].get_or_insert_with(EXPERIMENTS[index].1)
}

fn main() {
    let mut json = false;
    let mut selected: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        selected.push("all".to_string());
    }
    let indices: Vec<usize> = selected
        .iter()
        .flat_map(|name| {
            if name == "all" {
                return (0..EXPERIMENTS.len()).collect();
            }
            match EXPERIMENTS.iter().position(|(n, _)| n == name) {
                Some(index) => vec![index],
                None => {
                    eprintln!(
                        "unknown experiment {name:?}; use {}..{} or all",
                        EXPERIMENTS[0].0,
                        EXPERIMENTS[EXPERIMENTS.len() - 1].0
                    );
                    std::process::exit(2);
                }
            }
        })
        .collect();

    let mut cache: Vec<Option<Vec<Table>>> = (0..EXPERIMENTS.len()).map(|_| None).collect();
    println!("# solid-usage-control experiment report");
    println!("(deterministic simulation; see EXPERIMENTS.md for interpretation)");
    for index in indices {
        for table in tables(&mut cache, index) {
            print!("{table}");
        }
    }
    if json {
        let document = json_document(&mut cache);
        std::fs::write(JSON_PATH, document).unwrap_or_else(|e| panic!("writing {JSON_PATH}: {e}"));
        eprintln!("wrote {JSON_PATH}");
    }
}

fn json_document(cache: &mut [Option<Vec<Table>>]) -> String {
    let mut out = String::from("{\n  \"schema\": \"duc-bench-v1\",\n  \"experiments\": {\n");
    for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
        let tables = tables(cache, i);
        out.push_str(&format!("    {}: [\n", json_string(name)));
        for (j, table) in tables.iter().enumerate() {
            out.push_str("      {\n");
            out.push_str(&format!(
                "        \"table\": {},\n",
                json_string(table.title())
            ));
            // Backend-comparison (and enforcement-mode) tables report
            // per-row records instead of medians: a median over mixed
            // rows would track the row selection, not performance.
            let mut rows = backend_rows(table);
            if rows.is_empty() {
                rows = mode_rows(table);
            }
            if rows.is_empty() {
                rows = population_rows(table);
            }
            if rows.is_empty() {
                rows = storage_rows(table);
            }
            if rows.is_empty() {
                rows = runtime_rows(table);
            }
            if rows.is_empty() {
                rows = paging_rows(table);
            }
            if rows.is_empty() {
                rows = residency_rows(table);
            }
            let median = |needle| {
                if rows.is_empty() {
                    json_number(median_of_column(table, needle))
                } else {
                    "null".to_string()
                }
            };
            out.push_str(&format!(
                "        \"median_latency_ms\": {},\n",
                median("ms")
            ));
            out.push_str(&format!("        \"median_gas\": {}", median("gas")));
            out.push_str(&rows);
            out.push('\n');
            out.push_str(if j + 1 < tables.len() {
                "      },\n"
            } else {
                "      }\n"
            });
        }
        out.push_str(if i + 1 < EXPERIMENTS.len() {
            "    ],\n"
        } else {
            "    ]\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

/// For tables comparing ledger backends (a `backend` plus a `shards`
/// column, e.g. E13): one JSON record per row, so BENCH_*.json tracks
/// single-vs-sharded throughput across PRs. Empty for every other table.
fn backend_rows(table: &Table) -> String {
    let col = |needle: &str| {
        table
            .columns()
            .iter()
            .position(|c| c.to_lowercase().contains(needle))
    };
    let (Some(backend), Some(shards)) = (col("backend"), col("shards")) else {
        return String::new();
    };
    let numeric = |row: &[String], idx: Option<usize>| -> String {
        json_number(
            idx.and_then(|i| row.get(i))
                .and_then(|c| c.trim().parse().ok()),
        )
    };
    let mut out = String::from(",\n        \"backends\": [\n");
    for (i, row) in table.rows().iter().enumerate() {
        out.push_str(&format!(
            "          {{\"backend\": {}, \"shards\": {}, \"makespan_ms\": {}, \"req_per_s\": {}, \"speedup\": {}}}{}\n",
            json_string(row.get(backend).map_or("", String::as_str)),
            numeric(row, Some(shards)),
            numeric(row, col("makespan")),
            numeric(row, col("req/s")),
            numeric(row, col("speedup")),
            if i + 1 < table.rows().len() { "," } else { "" },
        ));
    }
    out.push_str("        ]");
    out
}

/// For tables comparing enforcement modes (a `mode` plus a `mean lag`
/// column, e.g. E14a): one JSON record per row, so BENCH_*.json tracks
/// round-based vs deadline-driven enforcement latency across PRs. Empty
/// for every other table.
fn mode_rows(table: &Table) -> String {
    let col = |needle: &str| {
        table
            .columns()
            .iter()
            .position(|c| c.to_lowercase().contains(needle))
    };
    let (Some(mode), Some(mean)) = (col("mode"), col("mean lag")) else {
        return String::new();
    };
    let numeric = |row: &[String], idx: Option<usize>| -> String {
        json_number(
            idx.and_then(|i| row.get(i))
                .and_then(|c| c.trim().parse().ok()),
        )
    };
    let mut out = String::from(",\n        \"modes\": [\n");
    for (i, row) in table.rows().iter().enumerate() {
        out.push_str(&format!(
            "          {{\"mode\": {}, \"mean_lag_ms\": {}, \"max_lag_ms\": {}, \"deletions\": {}}}{}\n",
            json_string(row.get(mode).map_or("", String::as_str)),
            numeric(row, Some(mean)),
            numeric(row, col("max lag")),
            numeric(row, col("deletions")),
            if i + 1 < table.rows().len() { "," } else { "" },
        ));
    }
    out.push_str("        ]");
    out
}

/// For the population-scale table (an `owners` plus a `req/s` column,
/// e.g. E15): one JSON record per row, so BENCH_*.json tracks throughput,
/// tail latency and peak memory across population sizes and PRs. Empty
/// for every other table. Wall-clock req/s is host-dependent; the JSON
/// records it for trend context, while the in-run superlinearity gate is
/// what CI enforces.
fn population_rows(table: &Table) -> String {
    let col = |needle: &str| {
        table
            .columns()
            .iter()
            .position(|c| c.to_lowercase().contains(needle))
    };
    let (Some(owners), Some(req_s)) = (col("owners"), col("req/s")) else {
        return String::new();
    };
    let numeric = |row: &[String], idx: Option<usize>| -> String {
        json_number(
            idx.and_then(|i| row.get(i))
                .and_then(|c| c.trim().parse().ok()),
        )
    };
    let mut out = String::from(",\n        \"population\": [\n");
    for (i, row) in table.rows().iter().enumerate() {
        out.push_str(&format!(
            "          {{\"owners\": {}, \"requests\": {}, \"req_per_s\": {}, \"p99_ms\": {}, \"peak_rss_mib\": {}}}{}\n",
            numeric(row, Some(owners)),
            numeric(row, col("requests")),
            numeric(row, Some(req_s)),
            numeric(row, col("p99")),
            numeric(row, col("rss")),
            if i + 1 < table.rows().len() { "," } else { "" },
        ));
    }
    out.push_str("        ]");
    out
}

/// For the storage sweep (a `waves` plus a `retained (prune)` column,
/// e.g. E16): two JSON records per table row — one per storage
/// configuration — so BENCH_*.json tracks retained blocks and peak memory
/// for the pruned and the full run separately across PRs. Empty for every
/// other table.
fn storage_rows(table: &Table) -> String {
    let col = |needle: &str| {
        table
            .columns()
            .iter()
            .position(|c| c.to_lowercase().contains(needle))
    };
    let (Some(waves), Some(_)) = (col("waves"), col("retained (prune)")) else {
        return String::new();
    };
    let numeric = |row: &[String], idx: Option<usize>| -> Option<f64> {
        idx.and_then(|i| row.get(i))
            .and_then(|c| c.trim().parse().ok())
    };
    let rss_bytes = |row: &[String], idx: Option<usize>| -> String {
        json_number(numeric(row, idx).map(|mib| mib * 1024.0 * 1024.0))
    };
    let mut out = String::from(",\n        \"storage\": [\n");
    for (i, row) in table.rows().iter().enumerate() {
        for (j, config) in ["pruned", "full"].iter().enumerate() {
            let needle = if *config == "pruned" {
                "(prune)"
            } else {
                "(full)"
            };
            out.push_str(&format!(
                "          {{\"config\": {}, \"owners\": {}, \"waves\": {}, \"requests\": {}, \"blocks\": {}, \"retained_blocks\": {}, \"peak_rss_bytes\": {}}}{}\n",
                json_string(config),
                json_number(numeric(row, col("owners"))),
                json_number(numeric(row, Some(waves))),
                json_number(numeric(row, col("requests"))),
                json_number(numeric(row, col("blocks"))),
                json_number(numeric(row, col(&format!("retained {needle}")))),
                rss_bytes(row, col(&format!("peak rss mib {needle}"))),
                if i + 1 < table.rows().len() || j == 0 { "," } else { "" },
            ));
        }
    }
    out.push_str("        ]");
    out
}

/// For the execution-runtime comparison (a `runtime mode` plus a `req/s`
/// column, e.g. E18): one JSON record per row, so BENCH_*.json tracks
/// sim-mode compute throughput and wall-mode paced throughput across PRs.
/// Wall req/s is host- and compression-dependent; the JSON records it for
/// trend context, while the outcome-set identity and scrape gates inside
/// the experiment are what CI enforces. Empty for every other table.
fn runtime_rows(table: &Table) -> String {
    let col = |needle: &str| {
        table
            .columns()
            .iter()
            .position(|c| c.to_lowercase().contains(needle))
    };
    let (Some(mode), Some(req_s)) = (col("runtime mode"), col("req/s")) else {
        return String::new();
    };
    let numeric = |row: &[String], idx: Option<usize>| -> String {
        json_number(
            idx.and_then(|i| row.get(i))
                .and_then(|c| c.trim().parse().ok()),
        )
    };
    let mut out = String::from(",\n        \"runtime_modes\": [\n");
    for (i, row) in table.rows().iter().enumerate() {
        out.push_str(&format!(
            "          {{\"mode\": {}, \"requests\": {}, \"real_ms\": {}, \"req_per_s\": {}}}{}\n",
            json_string(row.get(mode).map_or("", String::as_str)),
            numeric(row, col("requests")),
            numeric(row, col("real ms")),
            numeric(row, Some(req_s)),
            if i + 1 < table.rows().len() { "," } else { "" },
        ));
    }
    out.push_str("        ]");
    out
}

/// For the paging identity sweep (a `cache` plus a `fault-ins` column,
/// e.g. E19a): one JSON record per cache size, so BENCH_*.json tracks
/// eviction/fault-in pressure and resident footprint per cache
/// configuration across PRs. The fingerprint-identity gates run inside
/// the experiment; the JSON records the cost of each cache size. Empty
/// for every other table.
fn paging_rows(table: &Table) -> String {
    let col = |needle: &str| {
        table
            .columns()
            .iter()
            .position(|c| c.to_lowercase().contains(needle))
    };
    let (Some(cache), Some(fault_ins)) = (col("cache"), col("fault-ins")) else {
        return String::new();
    };
    let numeric = |row: &[String], idx: Option<usize>| -> String {
        json_number(
            idx.and_then(|i| row.get(i))
                .and_then(|c| c.trim().parse().ok()),
        )
    };
    let mut out = String::from(",\n        \"caches\": [\n");
    for (i, row) in table.rows().iter().enumerate() {
        out.push_str(&format!(
            "          {{\"cache\": {}, \"requests\": {}, \"evictions\": {}, \"fault_ins\": {}, \"resident_pages\": {}, \"resident_kib\": {}, \"wall_ms\": {}}}{}\n",
            json_string(row.get(cache).map_or("", String::as_str)),
            numeric(row, col("requests")),
            numeric(row, col("evictions")),
            numeric(row, Some(fault_ins)),
            numeric(row, col("resident pages")),
            numeric(row, col("resident kib")),
            numeric(row, col("wall ms")),
            if i + 1 < table.rows().len() { "," } else { "" },
        ));
    }
    out.push_str("        ]");
    out
}

/// For the state-residency comparison (a `config` plus a `bytes/owner`
/// column, e.g. E19b): one JSON record per row, so BENCH_*.json tracks
/// the per-owner resident footprint of the paged and unpaged stores
/// across PRs. Empty for every other table.
fn residency_rows(table: &Table) -> String {
    let col = |needle: &str| {
        table
            .columns()
            .iter()
            .position(|c| c.to_lowercase().contains(needle))
    };
    let (Some(config), Some(per_owner)) = (col("config"), col("bytes/owner")) else {
        return String::new();
    };
    let numeric = |row: &[String], idx: Option<usize>| -> Option<f64> {
        idx.and_then(|i| row.get(i))
            .and_then(|c| c.trim().parse().ok())
    };
    let kib_bytes = |row: &[String], idx: Option<usize>| -> String {
        json_number(numeric(row, idx).map(|kib| kib * 1024.0))
    };
    let mut out = String::from(",\n        \"residency\": [\n");
    for (i, row) in table.rows().iter().enumerate() {
        out.push_str(&format!(
            "          {{\"config\": {}, \"owners\": {}, \"resident_bytes\": {}, \"bytes_per_owner\": {}, \"evictions\": {}, \"peak_rss_mib\": {}}}{}\n",
            json_string(row.get(config).map_or("", String::as_str)),
            json_number(numeric(row, col("owners"))),
            kib_bytes(row, col("resident kib")),
            json_number(numeric(row, Some(per_owner))),
            json_number(numeric(row, col("evictions"))),
            json_number(numeric(row, col("rss"))),
            if i + 1 < table.rows().len() { "," } else { "" },
        ));
    }
    out.push_str("        ]");
    out
}

/// Median of the first column whose header contains `needle`, ignoring
/// cells that do not parse as numbers. `None` when the table has no such
/// column or no numeric cells.
fn median_of_column(table: &Table, needle: &str) -> Option<f64> {
    let index = table
        .columns()
        .iter()
        .position(|c| c.to_lowercase().contains(needle))?;
    let mut values: Vec<f64> = table
        .rows()
        .iter()
        .filter_map(|row| row.get(index))
        .filter_map(|cell| cell.trim().parse().ok())
        .collect();
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite medians"));
    let mid = values.len() / 2;
    Some(if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    })
}

fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) => {
            // Four decimals is below measurement resolution; trimming the
            // tail keeps binary-float noise out of the committed file.
            let fixed = format!("{v:.4}");
            let trimmed = fixed.trim_end_matches('0').trim_end_matches('.');
            trimmed.to_string()
        }
        None => "null".to_string(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
