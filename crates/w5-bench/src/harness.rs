//! One harness for the `bench_*_json` binaries: flag parsing, timing,
//! records, artifact writing and CI gates, each written once. A binary
//! keeps only its workloads and its list of [`Gate`]s.
//!
//! # Flags
//!
//! Each binary passes [`flags`] the flags it accepts:
//!
//! - `--short` — smaller budgets and sizes, for CI smoke runs on shared
//!   hardware.
//! - `--check <baseline.json>` — compare this run against a committed
//!   baseline ([`Gate::Baseline`]).
//! - `--check-scaling <ratio>` — the floor for [`Gate::Scaling`].
//!
//! An unknown flag, a flag the binary does not accept, a missing value or
//! a value that does not parse prints usage to stderr and exits 2.
//!
//! # Artifacts
//!
//! [`finish`] writes `<name>.json` through [`metrics::write_metrics`]
//! (`W5_METRICS_DIR` redirects it), adding the host core count as
//! `cores`. It then evaluates the gates, prints a `FAIL:` line to stderr
//! for each failure and exits 1 if there was any.
//!
//! # Gates
//!
//! Gates read *named ratios*: the `name` and one number of each record in
//! one list of the artifact, picked by a [`Ratios`] selector (e.g.
//! `speedups[].speedup`). `--check` reads the baseline with the same
//! selector; a baseline without `cores` still reads, and when it has one
//! the check prints it next to this host's.
//!
//! - [`Gate::Limit`] — a floor (fails below it) or a ceiling (fails at or
//!   above it) on one named ratio, in every run or in full runs only. A
//!   name the run lacks fails.
//! - [`Gate::Baseline`] — with `--check`: each compared baseline ratio
//!   fails if this run's value is worse than the baseline's by more than
//!   `factor`. [`Names`] says which baseline names are compared and
//!   whether a `--short` run may lack some. A check that compares no
//!   name fails.
//! - [`Gate::Scaling`] — with `--check-scaling <ratio>`: every named ratio
//!   (a 4-thread/1-thread scaling factor) must reach `ratio`. Below 4
//!   cores the check prints `SKIP` and passes: 4-thread scaling means
//!   nothing there.

use crate::metrics;
use serde::Serialize;
use serde_json::Value;
use std::time::{Duration, Instant};

/// The flags a binary was run with.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Flags {
    /// `--short`.
    pub short: bool,
    /// `--check <baseline.json>`.
    pub check: Option<String>,
    /// `--check-scaling <ratio>`.
    pub check_scaling: Option<f64>,
}

/// Parse `args` (program name excluded), allowing only `accepted` flags.
fn parse_flags(accepted: &[&str], args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let ok = accepted.iter().any(|a| a.split(' ').next() == Some(flag.as_str()));
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--short" if ok => flags.short = true,
            "--check" if ok => flags.check = Some(value()?.clone()),
            "--check-scaling" if ok => {
                let v = value()?;
                flags.check_scaling =
                    Some(v.parse().map_err(|_| format!("{flag} {v}: not a number"))?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

/// Parse the process arguments, accepting only the `accepted` flags,
/// each listed with its value for the usage line (e.g.
/// `"--check <baseline.json>"`). On an error print it with usage to
/// stderr and exit 2.
pub fn flags(accepted: &[&str]) -> Flags {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse_flags(accepted, &args.collect::<Vec<_>>()).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {bin} [{}]", accepted.join("] ["));
        std::process::exit(2)
    })
}

/// `ops` operations that took `elapsed`.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Operations completed.
    pub ops: u64,
    /// Wall time they took.
    pub elapsed: Duration,
}

impl Timing {
    /// Mean nanoseconds per operation.
    pub fn ns_per_op(self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.ops as f64
    }

    /// `ops × per_op` per second.
    pub fn per_sec(self, per_op: u64) -> f64 {
        (self.ops * per_op) as f64 / self.elapsed.as_secs_f64()
    }

    /// [`per_sec`](Self::per_sec) formatted for a table, e.g. `2.00M/s`.
    pub fn rate(self, per_op: u64) -> String {
        crate::ops_per_sec(self.ops * per_op, self.elapsed)
    }
}

/// Run `f` for at least `budget`, calling it `batch` times per clock read
/// so the read stays off nanosecond-scale ops. Each result goes through
/// `black_box`, so the compiler cannot skip the work that produced it.
pub fn time<R, F: FnMut() -> R>(budget: Duration, batch: u32, mut f: F) -> Timing {
    let (iters, elapsed) =
        crate::throughput(budget, || (0..batch).for_each(|_| drop(std::hint::black_box(f()))));
    Timing { ops: iters * u64::from(batch), elapsed }
}

/// Time one pass of `f`, which performs `ops` operations — for ops a
/// repeat would change, such as cache misses that turn into hits.
pub fn time_once<F: FnOnce()>(ops: u64, f: F) -> Timing {
    let start = Instant::now();
    f();
    Timing { ops, elapsed: start.elapsed() }
}

/// Exact p50 of `iters` timed calls of `f` after `warmup` untimed ones,
/// in ns. The shared log-bucket histogram is too coarse to resolve a 5%
/// delta.
pub fn p50_ns<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> u64 {
    (0..warmup).for_each(|_| f());
    let mut ns: Vec<u64> =
        (0..iters).map(|_| time_once(1, &mut f).elapsed.as_nanos() as u64).collect();
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// One measured operation.
#[derive(Clone, Debug)]
pub struct Entry {
    /// What was measured, e.g. `"union_2 (naive)"`.
    pub name: String,
    /// Mean nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Rows the operation logically covers per second; written only when
    /// the [`Timer`] was given rows.
    pub rows_per_sec: Option<f64>,
}

impl Serialize for Entry {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("name".to_string(), self.name.to_json()),
            ("ns_per_op".to_string(), self.ns_per_op.to_json()),
            ("ops_per_sec".to_string(), self.ops_per_sec.to_json()),
        ];
        fields.extend(self.rows_per_sec.map(|r| ("rows_per_sec".to_string(), r.to_json())));
        Value::Obj(fields)
    }
}

/// A paired comparison: the first arm's ns/op over the second's.
#[derive(Clone, Debug, Serialize)]
pub struct Speedup {
    /// The pairing, e.g. `"union_2"`.
    pub name: String,
    /// First-arm ns / second-arm ns.
    pub speedup: f64,
}

/// Budgeted timing that records [`Entry`]s and paired [`Speedup`]s.
pub struct Timer {
    budget: Duration,
    /// The labels of a pair's two arms, e.g. `["naive", "interned"]`.
    arms: [&'static str; 2],
    /// Rows each operation covers; when set, entries record rows/s.
    pub rows: Option<u64>,
    /// Every entry so far.
    pub entries: Vec<Entry>,
    /// Every pairing so far.
    pub speedups: Vec<Speedup>,
}

impl Timer {
    /// A timer running each bench for `budget`.
    pub fn new(budget: Duration, arms: [&'static str; 2]) -> Timer {
        Timer { budget, arms, rows: None, entries: Vec::new(), speedups: Vec::new() }
    }

    /// Print and record `t` as `name`, returning its ns/op.
    pub fn record(&mut self, name: &str, t: Timing) -> f64 {
        let rows = self.rows.map(|r| format!("  {:>12} rows/s", t.rate(r))).unwrap_or_default();
        println!("  {name:<34} {:>12}  {:>12.1} ns/op{rows}", t.rate(1), t.ns_per_op());
        let (ns_per_op, ops_per_sec) = (t.ns_per_op(), t.per_sec(1));
        let rows_per_sec = self.rows.map(|r| t.per_sec(r));
        self.entries.push(Entry { name: name.to_string(), ns_per_op, ops_per_sec, rows_per_sec });
        ns_per_op
    }

    /// Time `f` (see [`time`]) and record it as `name`, returning ns/op.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, batch: u32, f: F) -> f64 {
        let t = time(self.budget, batch, f);
        self.record(name, t)
    }

    /// Bench both arms of pairing `name` and record their speedup.
    pub fn pair<RA, RB, A, B>(&mut self, name: &str, batch: u32, a: A, b: B)
    where
        A: FnMut() -> RA,
        B: FnMut() -> RB,
    {
        let [first, second] = self.arms;
        let a = self.bench(&format!("{name} ({first})"), batch, a);
        let speedup = a / self.bench(&format!("{name} ({second})"), batch, b);
        println!("  {name:<34} speedup {speedup:.1}x");
        self.speedups.push(Speedup { name: name.to_string(), speedup });
    }
}

/// The host's core count, as recorded in every artifact.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Write `artifact` as `<name>.json` with `cores` added, returning the
/// JSON written.
pub fn write<T: Serialize>(name: &str, artifact: &T) -> Value {
    let mut json = artifact.to_json();
    if let Value::Obj(fields) = &mut json {
        fields.push(("cores".to_string(), cores().to_json()));
    }
    let path = metrics::write_metrics(name, &json).expect("write metrics");
    println!("\nwrote {}", path.display());
    json
}

/// Where an artifact keeps its named ratios: the record list's key and
/// the key of each record's number (each record also has a `name`).
pub type Ratios = (&'static str, &'static str);

/// Paired speedups (`BENCH_difc`, `BENCH_store`).
pub const SPEEDUPS: Ratios = ("speedups", "speedup");
/// Contended p99 over alone p99 per engine (`BENCH_net`).
pub const FAIRNESS: Ratios = ("fairness", "ratio");
/// 4-thread over 1-thread throughput per mix (`BENCH_kernel_mt`).
pub const SCALING: Ratios = ("mixes", "scaling_4t");

/// What the gates read from an artifact: this run's or a baseline's.
#[derive(Debug)]
struct Snapshot {
    /// Recorded host cores; `None` for baselines that predate the field.
    cores: Option<u64>,
    /// The named ratios, in artifact order.
    ratios: Vec<(String, f64)>,
}

impl Snapshot {
    /// Read the named ratios `(list, value)` picks out of `json`.
    fn from_json(json: &Value, (list, value): Ratios) -> Result<Snapshot, String> {
        let records = json.get(list).and_then(Value::as_arr).ok_or(format!("no `{list}` list"))?;
        let ratios = records.iter().map(|r| {
            let name = r.get("name").and_then(Value::as_str).map(String::from);
            name.zip(r.get(value).and_then(Value::as_f64))
                .ok_or(format!("a `{list}` record lacks `name` or `{value}`"))
        });
        Ok(Snapshot {
            cores: json.get("cores").and_then(Value::as_u64),
            ratios: ratios.collect::<Result<_, _>>()?,
        })
    }

    /// Read a committed baseline file.
    fn read(path: &str, sel: Ratios) -> Result<Snapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let json: Value = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
        Snapshot::from_json(&json, sel).map_err(|e| format!("{path}: {e}"))
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.ratios.iter().find(|(n, _)| n == name).map(|&(_, x)| x)
    }
}

/// Which direction of a named ratio is better.
#[derive(Clone, Copy, Debug)]
pub enum Better {
    /// Speedups and scaling factors.
    Higher,
    /// Slowdowns such as fairness ratios.
    Lower,
}

/// Which baseline names a [`Gate::Baseline`] compares.
#[derive(Clone, Copy, Debug)]
pub enum Names {
    /// Every name; one the run lacks fails.
    Every,
    /// Every name, but a `--short` run (smaller sizes) may lack some.
    EveryInFullRuns,
    /// This name alone; the run lacking it fails.
    Only(&'static str),
}

/// One pass/fail rule over a run's named ratios.
#[derive(Clone, Copy, Debug)]
pub enum Gate {
    /// `Higher`: `name` must be at least `limit`. `Lower`: it must stay
    /// below `limit`. `full_only` skips the gate in `--short` runs.
    Limit { name: &'static str, limit: f64, better: Better, full_only: bool },
    /// With `--check`: no compared ratio may be worse than its baseline
    /// value by more than `factor`.
    Baseline { factor: f64, better: Better, names: Names },
    /// With `--check-scaling <ratio>`: every named ratio must reach
    /// `ratio`; skipped below 4 cores.
    Scaling,
}

/// Evaluate `gates` on `run`, with `baseline` read from `flags.check`.
/// Returns the notes to print and one line per failure.
fn evaluate(
    gates: &[Gate],
    flags: &Flags,
    run: &Snapshot,
    baseline: Option<&Snapshot>,
) -> (Vec<String>, Vec<String>) {
    let (mut notes, mut fails) = (Vec::new(), Vec::new());
    let missing = |name: &str| format!("{name}: missing from this run");
    for &gate in gates {
        let failed = fails.len();
        match gate {
            Gate::Limit { full_only: true, .. } if flags.short => {}
            Gate::Limit { name, limit, better, .. } => match (run.get(name), better) {
                (None, _) => fails.push(missing(name)),
                (Some(x), Better::Higher) if x < limit => {
                    fails.push(format!("{name}: {x:.2} < {limit} acceptance floor"))
                }
                (Some(x), Better::Lower) if x >= limit => {
                    fails.push(format!("{name}: {x:.2} >= {limit} acceptance ceiling"))
                }
                _ => {}
            },
            Gate::Baseline { factor, better, names } => {
                let (Some(path), Some(base)) = (&flags.check, baseline) else { continue };
                if let (Some(here), Some(there)) = (run.cores, base.cores) {
                    notes.push(format!("check vs {path}: {here} cores here, {there} in baseline"));
                }
                let mut compared = 0;
                for (name, b) in &base.ratios {
                    let x = match (run.get(name), names) {
                        (_, Names::Only(only)) if only != name => continue,
                        (None, Names::EveryInFullRuns) if flags.short => continue,
                        (None, _) => {
                            fails.push(missing(name));
                            continue;
                        }
                        (Some(x), _) => x,
                    };
                    compared += 1;
                    match better {
                        Better::Higher if x < b / factor => fails
                            .push(format!("{name}: {x:.2} is >{factor}x below baseline {b:.2}")),
                        Better::Lower if x > b * factor => fails
                            .push(format!("{name}: {x:.2} is >{factor}x above baseline {b:.2}")),
                        _ => {}
                    }
                }
                if compared == 0 {
                    fails.push(format!("no named ratio compared with {path}"));
                } else if fails.len() == failed {
                    notes.push(format!("check vs {path}: ok ({compared} compared)"));
                }
            }
            Gate::Scaling => {
                let Some(floor) = flags.check_scaling else { continue };
                let cores = run.cores.unwrap_or(0);
                if cores < 4 {
                    notes.push(format!(
                        "SKIP: --check-scaling {floor} not enforced — host has {cores} core(s), \
                         4-thread scaling is meaningless below 4"
                    ));
                    continue;
                }
                for (name, x) in run.ratios.iter().filter(|(_, x)| *x < floor) {
                    fails.push(format!(
                        "{name}: scaled {x:.2}x at 4 threads, below the {floor}x floor"
                    ));
                }
                if fails.len() == failed {
                    notes.push(format!("check: all scaled >= {floor}x at 4 threads"));
                }
            }
        }
    }
    (notes, fails)
}

/// Write the artifact (see [`write`]), then evaluate `gates` on the
/// named ratios `sel` picks out, reading `--check`'s baseline with the
/// same selector; exit 1 if any gate failed.
pub fn finish<T: Serialize>(name: &str, artifact: &T, flags: &Flags, sel: Ratios, gates: &[Gate]) {
    let run = Snapshot::from_json(&write(name, artifact), sel);
    let baseline = flags.check.as_deref().map(|path| Snapshot::read(path, sel)).transpose();
    let (notes, fails) = match (run, baseline) {
        (Ok(run), Ok(baseline)) => evaluate(gates, flags, &run, baseline.as_ref()),
        (Err(e), _) | (_, Err(e)) => (Vec::new(), vec![e]),
    };
    notes.iter().for_each(|n| println!("{n}"));
    fails.iter().for_each(|f| eprintln!("FAIL: {f}"));
    if !fails.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn snap(cores: u64, ratios: &[(&str, f64)]) -> Snapshot {
        let ratios = ratios.iter().map(|&(n, x)| (n.to_string(), x)).collect();
        Snapshot { cores: Some(cores), ratios }
    }

    fn check(short: bool) -> Flags {
        Flags { short, check: Some("BASE.json".into()), check_scaling: None }
    }

    fn passes(gates: &[Gate], flags: &Flags, run: &Snapshot, base: Option<&Snapshot>) -> bool {
        evaluate(gates, flags, run, base).1.is_empty()
    }

    const DIFC: [Gate; 3] = [
        Gate::Limit {
            name: "can_flow_repeated",
            limit: 2.0,
            better: Better::Higher,
            full_only: false,
        },
        Gate::Limit {
            name: "labeled_scan_100000",
            limit: 2.0,
            better: Better::Higher,
            full_only: false,
        },
        Gate::Baseline { factor: 5.0, better: Better::Higher, names: Names::Every },
    ];
    const STORE: [Gate; 3] = [
        Gate::Limit {
            name: "label_skew_100000",
            limit: 5.0,
            better: Better::Higher,
            full_only: true,
        },
        Gate::Limit {
            name: "point_lookup_100000",
            limit: 10.0,
            better: Better::Higher,
            full_only: true,
        },
        Gate::Baseline { factor: 5.0, better: Better::Higher, names: Names::EveryInFullRuns },
    ];
    const NET: [Gate; 2] = [
        Gate::Limit {
            name: "fairness_pipeline",
            limit: 2.0,
            better: Better::Lower,
            full_only: true,
        },
        Gate::Baseline {
            factor: 4.0,
            better: Better::Lower,
            names: Names::Only("fairness_pipeline"),
        },
    ];

    #[test]
    fn flags_parse_what_the_binary_accepts() {
        let all = ["--short", "--check <baseline.json>", "--check-scaling <ratio>"];
        let f = parse_flags(&all, &args("--short --check B.json --check-scaling 1.5")).unwrap();
        assert_eq!(
            f,
            Flags { short: true, check: Some("B.json".into()), check_scaling: Some(1.5) }
        );
        assert_eq!(parse_flags(&all, &[]).unwrap(), Flags::default());
    }

    #[test]
    fn flags_reject_unknown_unaccepted_valueless_and_unparsable() {
        let mt = ["--short", "--check-scaling <ratio>"];
        for bad in ["--check-scalling 1.5", "--verbose", "--short extra"] {
            assert!(parse_flags(&mt, &args(bad)).is_err(), "{bad}");
        }
        // A flag the harness knows but this binary does not accept.
        assert!(parse_flags(&["--short"], &args("--short --check X.json")).is_err());
        assert!(parse_flags(&["--check"], &args("--check")).unwrap_err().contains("needs a value"));
        assert!(parse_flags(&mt, &args("--check-scaling")).is_err());
        assert!(parse_flags(&mt, &args("--check-scaling fast"))
            .unwrap_err()
            .contains("not a number"));
    }

    #[test]
    fn speedup_just_under_baseline_over_factor_fails() {
        let base = snap(4, &[("can_flow_repeated", 10.0), ("labeled_scan_100000", 10.0)]);
        let at = snap(2, &[("can_flow_repeated", 2.0), ("labeled_scan_100000", 2.0)]);
        assert!(passes(&DIFC, &check(true), &at, Some(&base)));
        let under = snap(2, &[("can_flow_repeated", 1.99), ("labeled_scan_100000", 2.0)]);
        let v = evaluate(&DIFC[2..], &check(true), &under, Some(&base));
        assert_eq!(v.1.len(), 1, "{v:?}");
        assert!(v.1[0].contains(">5x below baseline"), "{v:?}");
        assert!(v.0.iter().any(|n| n.contains("2 cores here, 4 in baseline")), "{v:?}");
    }

    #[test]
    fn difc_name_missing_from_a_short_run_fails() {
        let base =
            snap(1, &[("union_2", 0.5), ("can_flow_repeated", 4.0), ("labeled_scan_100000", 4.0)]);
        let run = snap(1, &[("can_flow_repeated", 4.0), ("labeled_scan_100000", 4.0)]);
        let v = evaluate(&DIFC, &check(true), &run, Some(&base));
        assert_eq!(v.1, ["union_2: missing from this run"]);
    }

    #[test]
    fn short_store_run_may_lack_the_full_sizes() {
        let base = snap(1, &[("point_lookup_1000", 4.0), ("point_lookup_100000", 375.0)]);
        let short = snap(1, &[("point_lookup_1000", 4.5), ("point_lookup_10000", 38.0)]);
        assert!(passes(&STORE, &check(true), &short, Some(&base)));
        // A full run must cover every baseline name (and meets the floors
        // only if it has them).
        assert!(!passes(&STORE[2..], &check(false), &short, Some(&base)));
    }

    #[test]
    fn a_check_that_compares_nothing_fails() {
        let base = snap(1, &[("point_lookup_100000", 375.0)]);
        let run = snap(1, &[("point_lookup_1000", 4.5)]);
        let v = evaluate(&STORE, &check(true), &run, Some(&base));
        assert_eq!(v.1, ["no named ratio compared with BASE.json"]);
        assert!(!passes(&DIFC[2..], &check(true), &run, Some(&snap(1, &[]))));
    }

    #[test]
    fn net_gates_only_the_pipeline_at_four_times_baseline() {
        let base = snap(1, &[("fairness_reference", 29.0), ("fairness_pipeline", 1.35)]);
        // The reference ratio may move freely, and the full-only ceiling
        // does not apply to --short runs.
        let ok = snap(1, &[("fairness_reference", 900.0), ("fairness_pipeline", 5.4)]);
        assert!(passes(&NET, &check(true), &ok, Some(&base)));
        let bad = snap(1, &[("fairness_reference", 1.0), ("fairness_pipeline", 5.41)]);
        let v = evaluate(&NET, &check(true), &bad, Some(&base));
        assert_eq!(v.1.len(), 1, "{v:?}");
        assert!(v.1[0].starts_with("fairness_pipeline:") && v.1[0].contains(">4x above"));
        let v = evaluate(&NET, &check(true), &snap(1, &[("fairness_reference", 1.0)]), Some(&base));
        assert_eq!(v.1.len(), 2, "{v:?}");
    }

    #[test]
    fn full_only_floors_skip_short_runs_and_difc_floors_always_apply() {
        let no_check = |short| Flags { short, ..Flags::default() };
        let slow_store = snap(1, &[("label_skew_100000", 4.9), ("point_lookup_100000", 9.9)]);
        assert!(passes(&STORE, &no_check(true), &slow_store, None));
        let v = evaluate(&STORE, &no_check(false), &slow_store, None);
        assert_eq!(v.1.len(), 2, "{v:?}");
        let slow_difc = snap(1, &[("can_flow_repeated", 1.99), ("labeled_scan_100000", 2.0)]);
        for short in [true, false] {
            let v = evaluate(&DIFC, &no_check(short), &slow_difc, None);
            assert_eq!(v.1, ["can_flow_repeated: 1.99 < 2 acceptance floor"]);
        }
        let unfair = snap(1, &[("fairness_pipeline", 2.0)]);
        assert!(passes(&NET, &no_check(true), &unfair, None));
        assert!(!passes(&NET, &no_check(false), &unfair, None));
    }

    #[test]
    fn scaling_skips_below_four_cores() {
        let flags = Flags { short: true, check_scaling: Some(1.5), ..Flags::default() };
        let flat = |cores| snap(cores, &[("send_recv", 0.9), ("mixed", 1.6)]);
        let v = evaluate(&[Gate::Scaling], &flags, &flat(2), None);
        assert!(v.1.is_empty() && v.0[0].starts_with("SKIP"), "{v:?}");
        let v = evaluate(&[Gate::Scaling], &flags, &flat(4), None);
        assert_eq!(v.1, ["send_recv: scaled 0.90x at 4 threads, below the 1.5x floor"]);
        assert!(passes(&[Gate::Scaling], &Flags::default(), &flat(4), None));
    }

    #[test]
    fn committed_baselines_read_through_the_harness() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for (file, sel, n) in
            [("BENCH_difc", SPEEDUPS, 9), ("BENCH_store", SPEEDUPS, 6), ("BENCH_net", FAIRNESS, 2)]
        {
            let base = Snapshot::read(&format!("{root}/{file}.json"), sel).unwrap();
            assert_eq!(base.ratios.len(), n, "{file}");
            assert!(base.ratios.iter().all(|(_, x)| x.is_finite() && *x > 0.0), "{file}");
        }
        let mt = Snapshot::read(&format!("{root}/BENCH_kernel_mt.json"), SCALING).unwrap();
        assert_eq!((mt.cores, mt.ratios.len()), (Some(1), 2));
    }

    #[test]
    fn entries_write_rows_only_when_set() {
        let entry = |rows_per_sec| Entry {
            name: "x".into(),
            ns_per_op: 1.0,
            ops_per_sec: 1e9,
            rows_per_sec,
        };
        assert!(entry(None).to_json().get("rows_per_sec").is_none());
        assert_eq!(
            entry(Some(5.0)).to_json().get("rows_per_sec").and_then(Value::as_f64),
            Some(5.0)
        );
    }
}
