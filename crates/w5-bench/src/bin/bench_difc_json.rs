//! BENCH_difc — interned label hot path vs the pre-interning cost model.
//!
//! Every pairing runs two arms over the *same* harness:
//!
//! - **naive**: the pre-PR cost model. Set algebra on `Vec<Tag>`
//!   ([`w5_difc::naive`]), the full privileged flow rules per message
//!   ([`w5_difc::can_flow_with`] / `Subject::may_read`, both retained
//!   unchanged), and the per-row label/value clones `exec.rs::select`
//!   paid before rows carried interned ids.
//! - **interned**: the current hot path — [`w5_difc::intern`] id
//!   compares against the packed subset cache, and
//!   [`w5_store::FlowMemo`] hash probes with zero clones. Both arms
//!   tick the audit ledger identically (`count_check` parity is part of
//!   the design), so the delta is pure label-machinery cost.
//!
//! Emits `BENCH_difc.json` through `w5_bench::harness`, which describes
//! the flags and gate rules. Gates: every paired speedup within 5x of the
//! committed baseline, and ≥2x acceptance floors on repeated `can_flow`
//! and the 100k-row labeled scan — the two shapes interning exists for —
//! in every run, `--short` included.

use std::sync::Arc;
use std::time::Duration;
use w5_bench::harness::{self, Better, Gate, Names, Timer};
use w5_bench::EVEN_ITEMS;
use w5_difc::{intern, naive, CapSet, InternStats, Label, LabelPair, Tag, TagRegistry};
use w5_store::{Database, QueryCost, QueryMode, Subject};

/// The whole artifact.
#[derive(serde::Serialize)]
struct BenchDifc {
    short: bool,
    entries: Vec<harness::Entry>,
    speedups: Vec<harness::Speedup>,
    intern: InternStats,
}

/// Inner batch for nanosecond-scale ops (see [`harness::time`]).
const BATCH: u32 = 64;

fn label(n: usize, offset: u64) -> Label {
    Label::from_iter((0..n as u64).map(|i| Tag::from_raw(offset + i * 2 + 1)))
}

/// The pre-PR stored row: an owned label pair per row, cloned on every
/// visit, values cloned out for every row the subject may read.
struct NaiveRow {
    labels: LabelPair,
    values: Vec<i64>,
}

fn scan_pair(h: &mut Timer, rows: usize, users: usize) {
    // `users` distinct secrecy labels spread across `rows` rows, read by a
    // subject already raised over all of them (the feed-render shape: one
    // accumulated tag per friend). Every row passes, so both arms pay the
    // check *and* the accept path on each row.
    let user_labels: Vec<Label> =
        (0..users as u64).map(|u| Label::singleton(Tag::from_raw(500_000 + u))).collect();
    let all: Label = user_labels.iter().fold(Label::empty(), |acc, l| acc.union(l));
    let subject = Subject::new(LabelPair::new(all, Label::empty()), CapSet::empty());

    let naive_rows: Vec<NaiveRow> = (0..rows)
        .map(|i| NaiveRow {
            labels: LabelPair::new(user_labels[i % users].clone(), Label::empty()),
            values: vec![i as i64, (i * 2) as i64],
        })
        .collect();
    let interned_rows: Vec<(w5_difc::PairId, Vec<i64>)> =
        naive_rows.iter().map(|r| (r.labels.interned(), r.values.clone())).collect();

    let name = format!("labeled_scan_{rows}");
    h.pair(
        &name,
        1,
        || {
            // Pre-PR select loop: clone the row's label pair, run the full
            // read rule (which clones the subject's accumulated secrecy on
            // every allowed row), clone values on accept.
            let mut hits = 0usize;
            let mut acc = 0i64;
            for row in &naive_rows {
                let pair = row.labels.clone();
                if subject.may_read(&pair) {
                    let values = row.values.clone();
                    acc += values[0];
                    hits += 1;
                }
            }
            std::hint::black_box((hits, acc));
        },
        || {
            // Current select loop: memoized check on a Copy id, borrowed
            // values, no clones.
            let mut memo = subject.memo();
            let mut hits = 0usize;
            let mut acc = 0i64;
            for (id, values) in &interned_rows {
                if memo.may_read(*id) {
                    acc += values[0];
                    hits += 1;
                }
            }
            std::hint::black_box((hits, acc));
        },
    );
}

/// Real end-to-end SELECT over the labeled store at `rows`, for context
/// (parse + plan + scan + projection; the scan pair above isolates the
/// per-row label cost this PR targets).
fn store_select(h: &mut Timer, rows: usize, reg: &Arc<TagRegistry>) {
    let db = Database::new();
    w5_bench::labeled_items(&db, rows, 50, reg);
    let reader = Subject::new(LabelPair::public(), reg.effective(&CapSet::empty()));
    h.bench(&format!("store_select_{rows}"), 1, || {
        let public = LabelPair::public();
        let cost = QueryCost::unlimited();
        db.execute(&reader, QueryMode::Filtered, cost, &public, EVEN_ITEMS).unwrap().scanned
    });
}

/// End-to-end platform request cost over the default read-heavy mix.
fn platform_request(h: &mut Timer, short: bool) {
    use bytes::Bytes;
    use w5_platform::Platform;
    let pop = w5_sim::PopulationConfig {
        users: if short { 8 } else { 20 },
        ..Default::default()
    };
    let world = w5_sim::build_population(Platform::new_default("w5-bench"), pop);
    let reqs = w5_sim::workload::generate(
        &world,
        w5_sim::workload::MixWeights::default(),
        if short { 40 } else { 200 },
        7,
    );
    let mut ix = 0usize;
    h.bench("platform_request", 1, || {
        let r = &reqs[ix % reqs.len()];
        ix += 1;
        let params: Vec<(&str, &str)> =
            r.params.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let viewer = &world.accounts[r.viewer];
        let req = Platform::make_request(r.method, r.action, &params, Some(viewer), Bytes::new());
        let out = world.platform.invoke(Some(viewer), &r.app, req);
        assert!(out.status == 200 || out.status == 403, "status {}", out.status);
        std::hint::black_box(out.status);
    });
}

fn main() {
    let flags = harness::flags(&["--short", "--check <baseline.json>"]);
    let short = flags.short;
    w5_bench::banner("BENCH_difc", "interned labels vs pre-interning cost model", "§2, §3.1");
    let budget = Duration::from_millis(if short { 25 } else { 200 });
    let mut h = Timer::new(budget, ["naive", "interned"]);

    // --- Label set algebra, small (2 tags) and accumulated (32 tags). ---
    for &n in &[2usize, 32] {
        let a = label(n, 1);
        let b = label(n, 3);
        let (ta, tb) = (naive::tags_of(&a), naive::tags_of(&b));
        let (ia, ib) = (intern::intern(&a), intern::intern(&b));
        h.pair(&format!("union_{n}"), BATCH, || naive::union(&ta, &tb), || intern::union(ia, ib));
        h.pair(
            &format!("intersect_{n}"),
            BATCH,
            || naive::intersect(&ta, &tb),
            || intern::intersect(ia, ib),
        );
        let sup = a.union(&b);
        let (tsup, isup) = (naive::tags_of(&sup), intern::intern(&sup));
        h.pair(
            &format!("subset_{n}"),
            BATCH,
            || naive::subset(&ta, &tsup),
            || intern::subset(ia, isup),
        );
    }

    // --- Repeated can_flow: one kernel send, checked per message. The
    // sender carries accumulated taint (32 tags — the feed/aggregator
    // shape §2 cares about); the receiver is raised above it. ---
    {
        let src = label(32, 101);
        let dst = src.union(&label(8, 901));
        let empty = CapSet::empty();
        let (isrc, idst) = (intern::intern(&src), intern::intern(&dst));
        let int_id = intern::intern(&Label::empty());
        h.pair(
            "can_flow_repeated",
            BATCH,
            || {
                // Pre-PR send_strict body: full privileged secrecy +
                // integrity rules on owned labels, every message.
                let ok = w5_difc::can_flow_with(&src, &empty, &dst, &empty).is_ok()
                    && w5_difc::rules::integrity_flow_with(
                        &Label::empty(),
                        &empty,
                        &Label::empty(),
                        &empty,
                    )
                    .is_ok();
                std::hint::black_box(ok);
            },
            || {
                // Current fast path: two id subset probes, same ledger tick.
                let ok = intern::subset(isrc, idst) && intern::subset(int_id, int_id);
                w5_obs::count_check("flow", ok, &isrc.to_obs());
                std::hint::black_box(ok);
            },
        );
    }

    // --- Subset cache: hot pair (hit) vs a cold streak of fresh pairs. ---
    {
        let hot_a = intern::intern(&label(8, 301));
        let hot_b = intern::intern(&label(8, 303));
        intern::subset(hot_a, hot_b); // prime
        h.bench("flow_cache_hit", BATCH, || intern::subset(hot_a, hot_b));
        // Cold: each (a, b) pair is checked exactly once. Measured by a
        // single timed pass, since a repeat would turn misses into hits.
        let fresh = if short { 2_000 } else { 20_000 };
        let ids: Vec<_> =
            (0..fresh as u64).map(|i| intern::intern(&label(2, 700_000 + i * 8))).collect();
        let before = intern::stats();
        let t = harness::time_once((ids.len() - 1) as u64, || {
            for w in ids.windows(2) {
                std::hint::black_box(intern::subset(w[0], w[1]));
            }
        });
        h.record("flow_cache_miss", t);
        let misses = intern::stats().flow_misses - before.flow_misses;
        println!("  {:<34} {misses} cache misses", "flow_cache_miss");
    }

    // --- Labeled scans: the per-row hot loop, naive vs memoized. ---
    scan_pair(&mut h, 10_000, 100);
    scan_pair(&mut h, 100_000, 100);

    // --- Real store SELECTs and an end-to-end platform request. ---
    let reg = Arc::new(TagRegistry::new());
    store_select(&mut h, 10_000, &reg);
    if !short {
        store_select(&mut h, 100_000, &reg);
    }
    platform_request(&mut h, short);

    let out =
        BenchDifc { short, entries: h.entries, speedups: h.speedups, intern: intern::stats() };
    let floor = |name| Gate::Limit { name, limit: 2.0, better: Better::Higher, full_only: false };
    harness::finish(
        "BENCH_difc",
        &out,
        &flags,
        harness::SPEEDUPS,
        &[
            floor("can_flow_repeated"),
            floor("labeled_scan_100000"),
            Gate::Baseline { factor: 5.0, better: Better::Higher, names: Names::Every },
        ],
    );
}
