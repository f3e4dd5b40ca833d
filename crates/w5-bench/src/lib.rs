//! # w5-bench — the evaluation harness
//!
//! The paper has no evaluation section (it is a HotNets position paper);
//! `DESIGN.md` §4 defines the experiment suite this crate implements. Each
//! `exp_*` binary regenerates one experiment's table, and each
//! `bench_*_json` binary writes a `BENCH_*.json` baseline that CI checks.
//! `EXPERIMENTS.md` records claim vs measurement for each.
//!
//! This library holds the helpers the binaries share; [`harness`] is the
//! one flag parser, timing loop and gate set behind every `bench_*_json`.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};
use w5_difc::{Label, LabelPair, TagKind, TagRegistry};
use w5_sim::Histogram;
use w5_store::{Database, QueryCost, QueryMode, Subject};

pub mod harness;
pub mod metrics;

/// Time a closure `n` times into a histogram, after `warmup` unmeasured
/// runs.
pub fn measure<F: FnMut()>(warmup: usize, n: usize, mut f: F) -> Histogram {
    for _ in 0..warmup {
        f();
    }
    let mut h = Histogram::new();
    for _ in 0..n {
        let t = Instant::now();
        f();
        h.record(t.elapsed());
    }
    h
}

/// Run a closure repeatedly for at least `budget`, returning
/// (iterations, elapsed).
pub fn throughput<F: FnMut()>(budget: Duration, mut f: F) -> (u64, Duration) {
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        f();
        iters += 1;
    }
    (iters, start.elapsed())
}

/// Format ops/sec.
pub fn ops_per_sec(iters: u64, elapsed: Duration) -> String {
    if elapsed.is_zero() {
        return "inf".to_string();
    }
    let rate = iters as f64 / elapsed.as_secs_f64();
    if rate >= 1e6 {
        format!("{:.2}M/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k/s", rate / 1e3)
    } else {
        format!("{rate:.1}/s")
    }
}

/// The labeled-scan query over [`labeled_items`]: every row is visited.
pub const EVEN_ITEMS: &str = "SELECT COUNT(*) FROM items WHERE n % 2 = 0";

/// Create `items (n, owner)` in `db` holding `rows` rows split evenly
/// over `users` owners, each owner's rows under a fresh export-protect
/// tag and inserted in batches of 500.
pub fn labeled_items(db: &Database, rows: usize, users: usize, reg: &TagRegistry) {
    let trusted = Subject::anonymous();
    let run = |labels: &LabelPair, sql: &str| {
        db.execute(&trusted, QueryMode::Filtered, QueryCost::unlimited(), labels, sql)
            .expect("fixture statement");
    };
    run(&LabelPair::public(), "CREATE TABLE items (n INTEGER, owner INTEGER)");
    for u in 0..users {
        let (tag, _) = reg.create_tag(TagKind::ExportProtect, &format!("u{u}"));
        let labels = LabelPair::new(Label::singleton(tag), Label::empty());
        let ns: Vec<usize> = (0..rows / users).collect();
        for chunk in ns.chunks(500) {
            let values: Vec<String> = chunk.iter().map(|n| format!("({n}, {u})")).collect();
            run(&labels, &format!("INSERT INTO items VALUES {}", values.join(",")));
        }
    }
}

/// Print a standard experiment header.
pub fn banner(id: &str, title: &str, anchor: &str) {
    println!("=== {id}: {title}");
    println!("    paper anchor: {anchor}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_records_n_samples() {
        let h = measure(2, 10, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn throughput_runs_at_least_once() {
        let (iters, elapsed) = throughput(Duration::from_millis(5), || {
            std::hint::black_box(2 * 2);
        });
        assert!(iters >= 1);
        assert!(elapsed >= Duration::from_millis(5));
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(ops_per_sec(2_000_000, Duration::from_secs(1)), "2.00M/s");
        assert_eq!(ops_per_sec(5_000, Duration::from_secs(1)), "5.0k/s");
        assert_eq!(ops_per_sec(10, Duration::from_secs(1)), "10.0/s");
    }
}
