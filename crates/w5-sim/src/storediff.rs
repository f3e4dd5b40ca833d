//! Differential storage oracle for the label-partitioned SQL store.
//!
//! The partitioned executor ([`w5_store::PartitionedExec`]) claims to
//! preserve, observable by observable, the behavior of the seed engine's
//! per-row scan ([`w5_store::ReferenceExec`]) — while skipping unreadable
//! partitions wholesale and serving indexed `WHERE` clauses from sorted
//! runs. [`StoreSpec`] is a [`crate::diff::Oracle`]: the four-arm driver
//! replays one seeded statement schedule against both executors, under
//! real OS-thread interleavings and serially, and compares everything a
//! SQL client could see: result rows, resolved row labels, combined
//! output labels, affected counts, and error verdicts.
//!
//! What is deliberately **excluded** from the comparison is
//! `QueryOutput::scanned`, the arm's cost: the two executors charge
//! different costs by design (that is the whole point of partition
//! pruning). The oracle instead asserts the direction — the partitioned
//! engine must never charge *more* than the reference for the same
//! schedule.
//!
//! # Why the schedules are interleaving-invariant
//!
//! * **Ownership** — thread `t` touches only its own table `t{t}` and its
//!   own subjects, so every statement verdict is a pure function of one
//!   thread's deterministic op sequence. Each thread's injector arms only
//!   `Site::SqlQuery`, so its abort stream depends only on `(seed, t)`.
//! * **Pre-created tags** — all tags are created in single-threaded
//!   setup on a fresh [`w5_difc::TagRegistry`] per arm, so raw tag ids
//!   align across arms. Digests always fold *resolved* labels (sorted
//!   raw tags), never interned pair ids, because the intern table is
//!   process-global and allocation order differs between arms.
//!
//! Serial replays additionally expose the run's private
//! [`w5_obs::Ledger::digest`]. Unlike the kernel oracle it is *not*
//! comparable across executors (they perform different numbers of flow
//! checks by design); it is compared across *repeated serial runs of the
//! same executor*, pinning replay determinism.

use crate::diff::{self, Arm, Oracle, Run};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use w5_chaos::{ChaosReport, FaultPlan, Site};
use w5_difc::{CapSet, Label, LabelPair, Tag, TagKind, TagRegistry};
use w5_obs::{fnv, Ledger};
use w5_store::{Database, QueryCost, QueryError, QueryMode, QueryOutput, Subject};
use w5_sync::lockdep::Recorder;

/// Seed rows inserted per table before the op streams start.
const SEED_ROWS: usize = 12;
/// Insert/point ids are drawn from this domain, small enough that point
/// lookups, updates and deletes regularly collide with live rows.
const ID_DOMAIN: i64 = 48;

/// One differential run: a schedule seed, a thread count, a length, and a
/// storm rate for the `SqlQuery` fault site.
#[derive(Clone, Copy, Debug)]
pub struct StoreSpec {
    /// Seeds every thread's op stream and fault plan.
    pub seed: u64,
    /// Worker threads; each owns one table.
    pub threads: usize,
    /// Statements each thread executes.
    pub ops_per_thread: usize,
    /// Injection probability for `Site::SqlQuery` (0.0 = calm).
    pub fault_rate: f64,
}

impl StoreSpec {
    /// A moderate default: 4 threads, 300 statements each, a light storm.
    pub fn new(seed: u64) -> StoreSpec {
        StoreSpec { seed, threads: 4, ops_per_thread: 300, fault_rate: 0.05 }
    }
}

/// The observable outcome of one run. Two arms replaying the same
/// [`StoreSpec`] must compare equal, whatever the executor or
/// interleaving.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StoreOutcome {
    /// Per-thread FNV-1a digests folded over every statement outcome
    /// (rows, resolved labels, affected counts, error verdicts — never
    /// `scanned`).
    pub digests: Vec<u64>,
    /// Final rendered rows of every table, sorted (a trusted full dump).
    pub tables: BTreeMap<String, Vec<String>>,
    /// Per-thread fault-injection tallies, in thread order.
    pub faults: Vec<ChaosReport>,
}

/// One arm's result. Its cost is the total rows scanned across all
/// successful statements, checked directionally, not for equality; its
/// ledger digest is deterministic for serial runs of one executor and
/// meaningless to compare across executors.
pub type StoreRun = Run<StoreSpec>;

/// One statement of a thread's schedule.
#[derive(Clone, Debug)]
pub enum Op {
    /// Owner INSERT at one of the three label kinds (public / secret /
    /// guarded-integrity).
    Insert { kind: u8, id: i64, v: i64 },
    /// Indexed-column point lookup, as owner or stranger.
    PointSelect { stranger: bool, id: i64 },
    /// Range scan over the (sometimes) indexed `v` column.
    RangeSelect { stranger: bool, lo: i64, span: i64 },
    /// Full-table aggregates.
    Agg { stranger: bool },
    /// ORDER BY + LIMIT over a non-key column (exercises tie-breaking).
    OrderLimit { stranger: bool, limit: usize },
    /// Owner point update of the unindexed payload column.
    Update { id: i64, v: i64 },
    /// Owner update that rewrites the indexed key column (forces a
    /// sorted-run rebuild mid-schedule).
    Shift { id: i64 },
    /// Stranger blanket update: write-protected rows it can *read* but
    /// not write make this surface `WriteDenied` deterministically.
    StrangerUpdate { v: i64 },
    /// Owner point delete (empties partitions over time).
    Delete { id: i64 },
    /// Stranger scan in `Naive` mode — the covert-channel baseline path.
    NaiveScan,
    /// `CREATE INDEX` interleaved with DML (idempotent; chaos can abort
    /// it like any other statement).
    CreateIndex { col: u8 },
}

/// One thread's working set: its table and the two subjects that drive it.
pub struct ThreadCtx {
    table: String,
    /// Owns the thread's tags: reads its secret rows, writes its
    /// write-protected rows.
    owner: Subject,
    /// Public labels, no capabilities: secret rows are invisible,
    /// guarded rows are readable but unwritable.
    stranger: Subject,
    /// `S={e_t}, I={w_t}` — invisible to the stranger.
    secret: LabelPair,
    /// `S={}, I={w_t}` — stranger-visible, owner-only writable.
    guarded: LabelPair,
}

impl ThreadCtx {
    fn insert_label(&self, kind: u8) -> LabelPair {
        match kind % 3 {
            0 => LabelPair::public(),
            1 => self.secret.clone(),
            _ => self.guarded.clone(),
        }
    }
}

/// Resolved-label signature: sorted raw tags, arm-stable because tags are
/// allocated in identical order on each arm's fresh registry.
fn label_sig(l: &LabelPair) -> String {
    let mut s: Vec<u64> = l.secrecy.iter().map(Tag::raw).collect();
    s.sort_unstable();
    let mut i: Vec<u64> = l.integrity.iter().map(Tag::raw).collect();
    i.sort_unstable();
    format!("{s:?}/{i:?}")
}

fn err_code(e: &QueryError) -> u8 {
    match e {
        QueryError::Sql(_) => 0,
        QueryError::NoSuchTable(_) => 1,
        QueryError::NoSuchColumn(_) => 2,
        QueryError::TypeMismatch { .. } => 3,
        QueryError::WriteDenied => 4,
        QueryError::BudgetExhausted => 5,
        QueryError::Eval(_) => 6,
        QueryError::TableExists(_) => 7,
        QueryError::Aborted => 8,
    }
}

/// Fold one statement outcome into a thread digest. Everything a client
/// can see goes in — except `scanned`, which is executor-dependent by
/// design and checked directionally instead.
fn fold_result(h: &mut u64, i: usize, r: &Result<QueryOutput, QueryError>) {
    fnv::fold(h, &(i as u64).to_le_bytes());
    match r {
        Ok(out) => {
            fnv::fold(h, b"ok");
            fnv::fold(h, &(out.affected as u64).to_le_bytes());
            fnv::fold(h, label_sig(&out.labels).as_bytes());
            for row in &out.rows {
                for v in &row.values {
                    fnv::fold(h, format!("{v:?}").as_bytes());
                    fnv::fold(h, b"|");
                }
                fnv::fold(h, label_sig(&row.labels).as_bytes());
                fnv::fold(h, b";");
            }
        }
        Err(e) => {
            fnv::fold(h, b"err");
            fnv::fold(h, &[err_code(e)]);
        }
    }
}

/// Trusted full dump of one table (Naive mode sees every row), rendered
/// and sorted so row order cannot leak into the comparison.
fn dump(db: &Database, table: &str) -> Vec<String> {
    let out = db
        .execute(
            &Subject::anonymous(),
            QueryMode::Naive,
            QueryCost::unlimited(),
            &LabelPair::public(),
            &format!("SELECT * FROM {table}"),
        )
        .expect("dump never fails");
    let mut rows: Vec<String> = out
        .rows
        .iter()
        .map(|r| format!("{:?} @ {}", r.values, label_sig(&r.labels)))
        .collect();
    rows.sort();
    rows
}

impl Oracle for StoreSpec {
    const HARNESS: &'static str = "storediff";
    const ENGINES: [&'static str; 2] = ["reference", "partitioned"];
    type Engine = Database;
    type Thread = ThreadCtx;
    type Op = Op;
    /// Per-thread statement digest and rows scanned.
    type Report = (u64, u64);
    type Outcome = StoreOutcome;
    /// Rows scanned across the whole schedule.
    type Cost = u64;

    fn seed(&self) -> u64 {
        self.seed
    }

    fn gen_ops(&self, rng: &mut StdRng) -> Vec<Op> {
        (0..self.ops_per_thread)
            .map(|_| match rng.gen_range(0..100u32) {
                0..=24 => Op::Insert {
                    kind: rng.gen_range(0..3u32) as u8,
                    id: rng.gen_range(0..ID_DOMAIN),
                    v: rng.gen_range(0..1000),
                },
                25..=39 => Op::PointSelect {
                    stranger: rng.gen_range(0..2u32) == 0,
                    id: rng.gen_range(0..ID_DOMAIN),
                },
                40..=51 => Op::RangeSelect {
                    stranger: rng.gen_range(0..2u32) == 0,
                    lo: rng.gen_range(0..900),
                    span: rng.gen_range(1..200),
                },
                52..=59 => Op::Agg { stranger: rng.gen_range(0..2u32) == 0 },
                60..=67 => Op::OrderLimit {
                    stranger: rng.gen_range(0..2u32) == 0,
                    limit: rng.gen_range(1..8u32) as usize,
                },
                68..=77 => {
                    Op::Update { id: rng.gen_range(0..ID_DOMAIN), v: rng.gen_range(0..1000) }
                }
                78..=82 => Op::Shift { id: rng.gen_range(0..ID_DOMAIN) },
                83..=86 => Op::StrangerUpdate { v: rng.gen_range(0..1000) },
                87..=93 => Op::Delete { id: rng.gen_range(0..ID_DOMAIN) },
                94..=96 => Op::NaiveScan,
                _ => Op::CreateIndex { col: rng.gen_range(0..2u32) as u8 },
            })
            .collect()
    }

    fn faults(&self, plan: FaultPlan) -> FaultPlan {
        plan.with(Site::SqlQuery, self.fault_rate)
    }

    /// The arm's executor, then per-thread tags on a fresh registry (so
    /// raw tag ids align), one table per thread with a deterministic seed
    /// population, and an `id` index on even threads so the schedule
    /// starts with a mix of indexed and unindexed tables.
    fn setup(&self, arm: Arm, _locks: &Recorder) -> (Database, Vec<ThreadCtx>) {
        let db = if arm.candidate() { Database::new() } else { Database::reference() };
        let reg = Arc::new(TagRegistry::new());
        let ctxs = (0..self.threads)
            .map(|t| {
                let (e, mut caps) = reg.create_tag(TagKind::ReadProtect, &format!("store:r{t}"));
                let (w, wc) = reg.create_tag(TagKind::WriteProtect, &format!("store:w{t}"));
                caps.extend(&wc);
                let ctx = ThreadCtx {
                    table: format!("t{t}"),
                    owner: Subject::new(
                        LabelPair::new(Label::empty(), Label::singleton(w)),
                        reg.effective(&caps),
                    ),
                    stranger: Subject::new(LabelPair::public(), reg.effective(&CapSet::empty())),
                    secret: LabelPair::new(Label::singleton(e), Label::singleton(w)),
                    guarded: LabelPair::new(Label::empty(), Label::singleton(w)),
                };
                let exec = |labels: &LabelPair, sql: String| {
                    let (mode, cost) = (QueryMode::Filtered, QueryCost::unlimited());
                    db.execute(&ctx.owner, mode, cost, labels, &sql)
                };
                let create = format!("CREATE TABLE {} (id INTEGER, v INTEGER, s TEXT)", ctx.table);
                exec(&LabelPair::public(), create).expect("setup: create table");
                for i in 0..SEED_ROWS {
                    let (id, v) = (i as i64 % ID_DOMAIN, (i as i64) * 37 % 1000);
                    let sql = format!("INSERT INTO {} VALUES ({id}, {v}, 'seed{i}')", ctx.table);
                    exec(&ctx.insert_label(i as u8), sql).expect("setup: seed row");
                }
                if t % 2 == 0 {
                    db.create_index(&ctx.table, "id").expect("setup: index");
                }
                ctx
            })
            .collect();
        (db, ctxs)
    }

    fn apply(&self, db: &Database, ctx: &mut ThreadCtx, ops: &[Op]) -> (u64, u64) {
        let mut h = fnv::OFFSET;
        let mut scanned = 0u64;
        let t = &ctx.table;
        let reader = |stranger: bool| if stranger { &ctx.stranger } else { &ctx.owner };
        for (i, op) in ops.iter().enumerate() {
            let (subj, sql) = match op {
                Op::Insert { id, v, .. } => {
                    (&ctx.owner, format!("INSERT INTO {t} VALUES ({id}, {v}, 'r{id}')"))
                }
                Op::PointSelect { stranger, id } => {
                    (reader(*stranger), format!("SELECT id, v, s FROM {t} WHERE id = {id}"))
                }
                Op::RangeSelect { stranger, lo, span } => (
                    reader(*stranger),
                    format!(
                        "SELECT id, v FROM {t} WHERE v >= {lo} AND v < {} ORDER BY id",
                        lo + span
                    ),
                ),
                Op::Agg { stranger } => (
                    reader(*stranger),
                    format!("SELECT COUNT(*), SUM(v), MIN(v), MAX(id) FROM {t}"),
                ),
                Op::OrderLimit { stranger, limit } => (
                    reader(*stranger),
                    format!("SELECT id, v FROM {t} ORDER BY v DESC LIMIT {limit}"),
                ),
                Op::Update { id, v } => {
                    (&ctx.owner, format!("UPDATE {t} SET v = {v} WHERE id = {id}"))
                }
                Op::Shift { id } => {
                    (&ctx.owner, format!("UPDATE {t} SET id = id + {ID_DOMAIN} WHERE id = {id}"))
                }
                Op::StrangerUpdate { v } => {
                    (&ctx.stranger, format!("UPDATE {t} SET s = 'x' WHERE v >= {v}"))
                }
                Op::Delete { id } => (&ctx.owner, format!("DELETE FROM {t} WHERE id = {id}")),
                Op::NaiveScan => {
                    (&ctx.stranger, format!("SELECT id, v, s FROM {t} ORDER BY id LIMIT 20"))
                }
                Op::CreateIndex { col } => (
                    &ctx.owner,
                    format!("CREATE INDEX ON {t} ({})", if *col == 0 { "id" } else { "v" }),
                ),
            };
            let labels = match op {
                Op::Insert { kind, .. } => ctx.insert_label(*kind),
                _ => LabelPair::public(),
            };
            let mode =
                if matches!(op, Op::NaiveScan) { QueryMode::Naive } else { QueryMode::Filtered };
            let r = db.execute(subj, mode, QueryCost::unlimited(), &labels, &sql);
            if let Ok(out) = &r {
                scanned += out.scanned;
            }
            fold_result(&mut h, i, &r);
        }
        (h, scanned)
    }

    fn collect(
        &self,
        db: &Database,
        ctxs: &[ThreadCtx],
        reports: Vec<(u64, u64)>,
        faults: Vec<ChaosReport>,
        _ledger: &Ledger,
    ) -> (StoreOutcome, u64) {
        let tables = ctxs.iter().map(|ctx| (ctx.table.clone(), dump(db, &ctx.table))).collect();
        let scanned = reports.iter().map(|r| r.1).sum();
        let digests = reports.into_iter().map(|r| r.0).collect();
        (StoreOutcome { digests, tables, faults }, scanned)
    }

    /// The executors perform different numbers of flow checks by design,
    /// so ledger digests compare only across replays of one executor, and
    /// pruning may only ever lower the scan cost.
    fn check_serial(&self, reference: &StoreRun, partitioned: &StoreRun) {
        assert!(
            partitioned.cost <= reference.cost,
            "partition pruning charged more ({}) than the reference scan ({})",
            partitioned.cost,
            reference.cost,
        );
        diff::assert_replays(self, reference);
        diff::assert_replays(self, partitioned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{check, run};

    #[test]
    fn four_arms_agree_on_default_spec() {
        check(&StoreSpec { seed: 2007, threads: 4, ops_per_thread: 150, fault_rate: 0.05 });
    }

    #[test]
    fn calm_run_agrees_without_faults() {
        let spec = StoreSpec { seed: 11, threads: 2, ops_per_thread: 120, fault_rate: 0.0 };
        check(&spec);
        let out = run(&spec, Arm::CandidateSerial);
        assert_eq!(
            out.outcome.faults.iter().map(|f| f.total_injected()).sum::<u64>(),
            0
        );
    }

    #[test]
    fn workload_actually_exercises_the_store() {
        let spec = StoreSpec::new(20070824);
        let partitioned = run(&spec, Arm::CandidateSerial);
        assert!(
            partitioned.outcome.tables.values().any(|rows| !rows.is_empty()),
            "tables must end non-empty"
        );
        assert!(
            partitioned.outcome.faults.iter().map(|f| f.total_injected()).sum::<u64>() > 0,
            "storm must fire"
        );
        // Pruning must actually pay off on this schedule, not merely tie.
        let reference = run(&spec, Arm::ReferenceSerial);
        assert!(
            partitioned.cost < reference.cost,
            "partitioned run should visit fewer rows ({} vs {})",
            partitioned.cost,
            reference.cost,
        );
    }
}
