//! BENCH_store — label-partitioned storage vs the seed per-row scan.
//!
//! Every scenario builds two identical worlds and runs the same query
//! stream against both executors:
//!
//! - **reference**: [`w5_store::ReferenceExec`] — the seed engine kept
//!   verbatim: every row visited in insertion order, one memoized flow
//!   check and one budget unit per row.
//! - **partitioned**: [`w5_store::PartitionedExec`] — rows grouped into
//!   label partitions (one flow check per partition, unreadable
//!   partitions skipped at flat cost) with per-partition sorted runs
//!   serving indexed `WHERE` clauses.
//!
//! Three shapes, at 1k and 100k rows:
//!
//! - `point_lookup` — indexed `WHERE id = k` by one owner among many:
//!   index probe + partition pruning vs full scan.
//! - `range_scan` — indexed range over a public table: pure index win,
//!   no label skew.
//! - `label_skew` — full aggregate by an owner who can read 1 of 100
//!   partitions: pure pruning win, no index.
//!
//! Emits `BENCH_store.json` through `w5_bench::harness`, which describes
//! the flags and gate rules. Gates: every paired speedup within 5x of the
//! committed baseline (a `--short` run covers 1k and 10k rows, so it lacks
//! the baseline's 100k pairings), and, in full runs only, acceptance
//! floors of ≥5x on the 100k-row label-skewed scan and ≥10x on 100k-row
//! indexed point lookups.

use std::sync::Arc;
use std::time::Duration;
use w5_bench::harness::{self, Better, Gate, Names, Timer};
use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
use w5_store::{Database, QueryCost, QueryMode, Subject};

/// The whole artifact. Entries record rows/s: the rows a query logically
/// covers (table size × query rate) — how fast the table feels for scans.
#[derive(serde::Serialize)]
struct BenchStore {
    short: bool,
    entries: Vec<harness::Entry>,
    speedups: Vec<harness::Speedup>,
}

/// Fill `items` with `rows` rows spread over `labels` round-robin
/// (`labels.len()` partitions), unique indexed `id`, then index it.
fn build(db: &Database, rows: usize, labels: &[LabelPair]) {
    let trusted = Subject::anonymous();
    db.execute(
        &trusted,
        QueryMode::Filtered,
        QueryCost::unlimited(),
        &LabelPair::public(),
        "CREATE TABLE items (id INTEGER, v INTEGER, owner INTEGER)",
    )
    .unwrap();
    for (u, l) in labels.iter().enumerate() {
        // Owner u's rows are the ids ≡ u (mod owners), batched.
        let ids: Vec<usize> = (0..rows).filter(|i| i % labels.len() == u).collect();
        for chunk in ids.chunks(500) {
            let values: Vec<String> =
                chunk.iter().map(|i| format!("({i}, {}, {u})", i * 7 % 1000)).collect();
            db.execute(
                &trusted,
                QueryMode::Filtered,
                QueryCost::unlimited(),
                l,
                &format!("INSERT INTO items VALUES {}", values.join(",")),
            )
            .unwrap();
        }
    }
    db.create_index("items", "id").unwrap();
}

fn select(db: &Database, reader: &Subject, sql: &str) -> u64 {
    let out = db
        .execute(reader, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(), sql)
        .unwrap();
    std::hint::black_box(out.scanned)
}

fn main() {
    let flags = harness::flags(&["--short", "--check <baseline.json>"]);
    let short = flags.short;
    w5_bench::banner(
        "BENCH_store",
        "label-partitioned storage vs seed per-row scan",
        "§3.5",
    );
    let budget = Duration::from_millis(if short { 40 } else { 300 });
    let mut h = Timer::new(budget, ["reference", "partitioned"]);

    const OWNERS: usize = 100;
    let reg = Arc::new(TagRegistry::new());
    // Owner labels are read-protected: only the tag holder sees the rows.
    let mut owner_caps = Vec::new();
    let owner_labels: Vec<LabelPair> = (0..OWNERS)
        .map(|i| {
            let (t, caps) = reg.create_tag(TagKind::ReadProtect, &format!("bench:u{i}"));
            owner_caps.push(caps);
            LabelPair::new(Label::singleton(t), Label::empty())
        })
        .collect();
    let owner0 = Subject::new(LabelPair::public(), reg.effective(&owner_caps[0]));
    let public_reader = Subject::new(LabelPair::public(), reg.effective(&CapSet::empty()));

    let sizes: &[usize] = if short { &[1_000, 10_000] } else { &[1_000, 100_000] };
    for &rows in sizes {
        h.rows = Some(rows as u64);
        // --- Indexed point lookups by one owner among 100. ---
        let rdb = Database::reference();
        let pdb = Database::new();
        build(&rdb, rows, &owner_labels);
        build(&pdb, rows, &owner_labels);
        // Rotate over owner 0's own ids (i ≡ 0 mod OWNERS), one counter
        // per arm so both see the same id sequence.
        let (mut kr, mut kp) = (0usize, 0usize);
        h.pair(
            &format!("point_lookup_{rows}"),
            1,
            || {
                let id = (kr * OWNERS) % rows;
                kr += 1;
                select(&rdb, &owner0, &format!("SELECT v FROM items WHERE id = {id}"));
            },
            || {
                let id = (kp * OWNERS) % rows;
                kp += 1;
                select(&pdb, &owner0, &format!("SELECT v FROM items WHERE id = {id}"));
            },
        );

        // --- Label-skewed full scan: owner 0 aggregates a table that is
        // 99% other people's partitions. ---
        h.pair(
            &format!("label_skew_{rows}"),
            1,
            || select(&rdb, &owner0, "SELECT COUNT(*), SUM(v) FROM items"),
            || select(&pdb, &owner0, "SELECT COUNT(*), SUM(v) FROM items"),
        );

        // --- Indexed range scan over an all-public table: the pure index
        // win, no label skew at all. ---
        let rpub = Database::reference();
        let ppub = Database::new();
        build(&rpub, rows, std::slice::from_ref(&LabelPair::public()));
        build(&ppub, rows, std::slice::from_ref(&LabelPair::public()));
        let (mut ar, mut ap) = (0usize, 0usize);
        let range_sql = |a: usize| {
            let lo = (a * 131) % rows;
            let hi = (lo + 100).min(rows);
            format!("SELECT COUNT(*), SUM(v) FROM items WHERE id >= {lo} AND id < {hi}")
        };
        h.pair(
            &format!("range_scan_{rows}"),
            1,
            || {
                select(&rpub, &public_reader, &range_sql(ar));
                ar += 1;
            },
            || {
                select(&ppub, &public_reader, &range_sql(ap));
                ap += 1;
            },
        );
    }

    let out = BenchStore { short, entries: h.entries, speedups: h.speedups };
    let floor = |name, limit| Gate::Limit { name, limit, better: Better::Higher, full_only: true };
    harness::finish(
        "BENCH_store",
        &out,
        &flags,
        harness::SPEEDUPS,
        &[
            floor("label_skew_100000", 5.0),
            floor("point_lookup_100000", 10.0),
            Gate::Baseline { factor: 5.0, better: Better::Higher, names: Names::EveryInFullRuns },
        ],
    );
}
