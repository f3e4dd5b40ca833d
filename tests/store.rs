//! Integration suite for the label-partitioned store: the four-arm
//! differential oracle over fixed seeds, plus a property-based
//! differential that drives both executors through random statement
//! sequences — with chaos fault storms and DML interleaved with index
//! builds — and demands identical observable outcomes.
//!
//! `QueryOutput::scanned` is the one field the executors legitimately
//! disagree on (pruning is the point); every comparison below zeroes it
//! out and instead asserts the direction: partitioned never charges more
//! than reference.

use proptest::prelude::*;
use std::sync::Arc;
use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
use w5_sim::diff::check;
use w5_sim::StoreSpec;
use w5_store::{Database, QueryCost, QueryError, QueryMode, QueryOutput, Subject};

/// The full four-arm check (reference/partitioned × serial/concurrent)
/// over several seeds, calm and stormy. This is what CI's store job runs.
#[test]
fn four_arm_differential_over_seeds() {
    for (seed, fault_rate) in [(20070824u64, 0.05), (5, 0.0), (77, 0.25)] {
        check(&StoreSpec {
            seed,
            threads: 4,
            ops_per_thread: 120,
            fault_rate,
        });
    }
}

/// More threads than tables is pointless (one table per thread), but more
/// threads than cores is exactly the contention the RwLock sees in
/// production. Keep one heavier spec pinned.
#[test]
fn four_arm_differential_under_contention() {
    check(&StoreSpec {
        seed: 424242,
        threads: 8,
        ops_per_thread: 80,
        fault_rate: 0.1,
    });
}

// ---------------------------------------------------------------------
// Property-based differential: single-threaded, but with arbitrary
// statement sequences rather than a weighted schedule.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum StoreOp {
    /// Owner INSERT at label kind 0/1/2 (public / secret / guarded).
    Insert { kind: u8, id: u8, v: u16 },
    /// Point lookup on the (maybe) indexed key.
    Point { stranger: bool, id: u8 },
    /// Range scan on the payload column.
    Range { stranger: bool, lo: u16, span: u16 },
    /// Aggregates over everything visible.
    Agg { stranger: bool },
    /// Owner update of the payload.
    Update { id: u8, v: u16 },
    /// Owner update that rewrites the indexed key (forces run rebuilds).
    Shift { id: u8 },
    /// Stranger blanket write — deterministically denied once a guarded
    /// row matches.
    StrangerUpdate { v: u16 },
    /// Owner point delete (empties partitions).
    Delete { id: u8 },
    /// CREATE INDEX interleaved with the DML above.
    Index { on_v: bool },
}

fn arb_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (0u8..3, any::<u8>(), 0u16..1000)
            .prop_map(|(kind, id, v)| StoreOp::Insert { kind, id: id % 24, v }),
        (any::<bool>(), any::<u8>())
            .prop_map(|(stranger, id)| StoreOp::Point { stranger, id: id % 24 }),
        (any::<bool>(), 0u16..900, 1u16..300)
            .prop_map(|(stranger, lo, span)| StoreOp::Range { stranger, lo, span }),
        any::<bool>().prop_map(|stranger| StoreOp::Agg { stranger }),
        (any::<u8>(), 0u16..1000).prop_map(|(id, v)| StoreOp::Update { id: id % 24, v }),
        any::<u8>().prop_map(|id| StoreOp::Shift { id: id % 24 }),
        (0u16..1000).prop_map(|v| StoreOp::StrangerUpdate { v }),
        any::<u8>().prop_map(|id| StoreOp::Delete { id: id % 24 }),
        any::<bool>().prop_map(|on_v| StoreOp::Index { on_v }),
    ]
}

struct DiffWorld {
    owner: Subject,
    stranger: Subject,
    secret: LabelPair,
    guarded: LabelPair,
}

/// One registry shared by both arms: identical subjects, identical tags.
fn diff_world() -> DiffWorld {
    let reg = Arc::new(TagRegistry::new());
    let (e, mut caps) = reg.create_tag(TagKind::ReadProtect, "store-prop:r");
    let (w, wc) = reg.create_tag(TagKind::WriteProtect, "store-prop:w");
    caps.extend(&wc);
    DiffWorld {
        owner: Subject::new(
            LabelPair::new(Label::empty(), Label::singleton(w)),
            reg.effective(&caps),
        ),
        stranger: Subject::new(LabelPair::public(), reg.effective(&CapSet::empty())),
        secret: LabelPair::new(Label::singleton(e), Label::singleton(w)),
        guarded: LabelPair::new(Label::empty(), Label::singleton(w)),
    }
}

/// Apply the sequence to one database. Setup runs outside the injector
/// scope (it must never abort); the ops run inside it, so both arms see
/// the identical seeded fault stream. Returns per-statement outcomes
/// with `scanned` zeroed, plus the total cost actually charged.
fn apply(
    db: &Database,
    w: &DiffWorld,
    ops: &[StoreOp],
    chaos_seed: u64,
    fault_rate: f64,
) -> (Vec<Result<QueryOutput, QueryError>>, u64) {
    let run = |subj: &Subject, mode: QueryMode, labels: &LabelPair, sql: &str| {
        db.execute(subj, mode, QueryCost::unlimited(), labels, sql)
    };
    run(&w.owner, QueryMode::Filtered, &LabelPair::public(), "CREATE TABLE p (id INTEGER, v INTEGER, s TEXT)")
        .expect("setup: create");
    for i in 0..9i64 {
        let labels = match i % 3 {
            0 => LabelPair::public(),
            1 => w.secret.clone(),
            _ => w.guarded.clone(),
        };
        run(
            &w.owner,
            QueryMode::Filtered,
            &labels,
            &format!("INSERT INTO p VALUES ({}, {}, 'seed{i}')", i % 24, i * 111 % 1000),
        )
        .expect("setup: seed");
    }
    db.create_index("p", "id").expect("setup: index");

    let inj = w5_chaos::Injector::new(
        w5_chaos::FaultPlan::new(chaos_seed).with(w5_chaos::Site::SqlQuery, fault_rate),
    );
    let _chaos = w5_chaos::with_injector(inj);
    let mut scanned = 0u64;
    let outcomes = ops
        .iter()
        .map(|op| {
            let public = LabelPair::public();
            let r = match op {
                StoreOp::Insert { kind, id, v } => {
                    let labels = match kind % 3 {
                        0 => public,
                        1 => w.secret.clone(),
                        _ => w.guarded.clone(),
                    };
                    run(
                        &w.owner,
                        QueryMode::Filtered,
                        &labels,
                        &format!("INSERT INTO p VALUES ({id}, {v}, 'r{id}')"),
                    )
                }
                StoreOp::Point { stranger, id } => run(
                    if *stranger { &w.stranger } else { &w.owner },
                    QueryMode::Filtered,
                    &public,
                    &format!("SELECT id, v, s FROM p WHERE id = {id}"),
                ),
                StoreOp::Range { stranger, lo, span } => run(
                    if *stranger { &w.stranger } else { &w.owner },
                    QueryMode::Filtered,
                    &public,
                    &format!(
                        "SELECT id, v FROM p WHERE v >= {lo} AND v < {} ORDER BY id",
                        lo + span
                    ),
                ),
                StoreOp::Agg { stranger } => run(
                    if *stranger { &w.stranger } else { &w.owner },
                    QueryMode::Filtered,
                    &public,
                    "SELECT COUNT(*), SUM(v), MIN(id), MAX(v) FROM p",
                ),
                StoreOp::Update { id, v } => run(
                    &w.owner,
                    QueryMode::Filtered,
                    &public,
                    &format!("UPDATE p SET v = {v} WHERE id = {id}"),
                ),
                StoreOp::Shift { id } => run(
                    &w.owner,
                    QueryMode::Filtered,
                    &public,
                    &format!("UPDATE p SET id = id + 24 WHERE id = {id}"),
                ),
                StoreOp::StrangerUpdate { v } => run(
                    &w.stranger,
                    QueryMode::Filtered,
                    &public,
                    &format!("UPDATE p SET s = 'x' WHERE v >= {v}"),
                ),
                StoreOp::Delete { id } => run(
                    &w.owner,
                    QueryMode::Filtered,
                    &public,
                    &format!("DELETE FROM p WHERE id = {id}"),
                ),
                StoreOp::Index { on_v } => run(
                    &w.owner,
                    QueryMode::Filtered,
                    &public,
                    if *on_v { "CREATE INDEX ON p (v)" } else { "CREATE INDEX ON p (id)" },
                ),
            };
            r.map(|mut out| {
                scanned += out.scanned;
                out.scanned = 0;
                out
            })
        })
        .collect();
    (outcomes, scanned)
}

proptest! {
    /// Arbitrary statement sequences — calm — observe identically under
    /// both executors, and pruning never charges more than scanning.
    #[test]
    fn executors_agree_on_arbitrary_sequences(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let w = diff_world();
        let (ref_out, ref_scanned) = apply(&Database::reference(), &w, &ops, 0, 0.0);
        let (part_out, part_scanned) = apply(&Database::new(), &w, &ops, 0, 0.0);
        prop_assert_eq!(ref_out, part_out);
        prop_assert!(part_scanned <= ref_scanned,
            "pruning charged more than reference ({part_scanned} vs {ref_scanned})");
    }

    /// The same property under a heavy fault storm: injected aborts land
    /// on the same statements in both arms, so outcomes still match.
    #[test]
    fn executors_agree_under_fault_storms(
        ops in proptest::collection::vec(arb_op(), 1..60),
        chaos_seed in any::<u64>(),
    ) {
        let w = diff_world();
        let (ref_out, ref_scanned) = apply(&Database::reference(), &w, &ops, chaos_seed, 0.3);
        let (part_out, part_scanned) = apply(&Database::new(), &w, &ops, chaos_seed, 0.3);
        prop_assert_eq!(ref_out, part_out);
        prop_assert!(part_scanned <= ref_scanned);
    }
}
