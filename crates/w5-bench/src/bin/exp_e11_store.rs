//! E11 — labeled store scaling (paper §2 storage path).
//!
//! Query latency versus table size and label diversity (how many distinct
//! users' rows share the table), for the W5 filtered store against the
//! naive unlabeled scan. The per-row label check is the marginal cost of
//! commingling everyone's data in one table — the aggregation-over-
//! isolation bet of §5.
//!
//! Since the storage engine became label-partitioned, every configuration
//! runs on both executors: **reference** (the seed per-row scan) and
//! **partitioned** (one flow check per partition, pruning, sorted-run
//! indexes). The rows/s column is the number the paper's bet depends on —
//! partitioning is what keeps the shared table competitive with per-user
//! silos as label diversity grows.

use std::sync::Arc;
use std::time::Duration;
use w5_difc::{LabelPair, TagRegistry};
use w5_store::{Database, QueryCost, QueryMode, Subject};
use w5_sim::Table;

fn main() {
    w5_bench::banner("E11", "labeled store: scan cost vs rows and label diversity", "§2, §5");
    let budget = Duration::from_millis(300);

    let mut table = Table::new([
        "rows",
        "distinct users",
        "executor",
        "mode",
        "scan latency",
        "rows/s",
    ]);

    for &(rows, users) in &[(1_000usize, 1usize), (10_000, 1), (10_000, 10), (10_000, 100), (50_000, 100)] {
        for (exec_name, db) in [("reference", Database::reference()), ("partitioned", Database::new())] {
            // A fresh registry per arm keeps tag allocation identical.
            let reg = Arc::new(TagRegistry::new());
            w5_bench::labeled_items(&db, rows, users, &reg);
            let reader = Subject::new(LabelPair::public(), reg.effective(&w5_difc::CapSet::empty()));
            for (mode_name, mode) in [("w5 filtered", QueryMode::Filtered), ("naive", QueryMode::Naive)] {
                let t = w5_bench::harness::time(budget, 1, || {
                    let out = db.execute(&reader, mode, QueryCost::unlimited(),
                        &LabelPair::public(), w5_bench::EVEN_ITEMS);
                    out.unwrap().scanned
                });
                table.row([
                    rows.to_string(),
                    users.to_string(),
                    exec_name.to_string(),
                    mode_name.to_string(),
                    format!("{:.2}ms", t.ns_per_op() / 1e6),
                    t.rate(rows as u64),
                ]);
            }
        }
    }
    println!("{table}");
    println!("shape check: both executors scale linearly in rows here (every partition is");
    println!("             readable-with-taint, so nothing prunes); the partitioned engine's");
    println!("             win is one flow check per partition instead of per row. The");
    println!("             pruning and index wins are measured by bench_store_json.");
}
