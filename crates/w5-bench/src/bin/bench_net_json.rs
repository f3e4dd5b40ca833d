//! BENCH_net — staged pipeline vs the seed thread-per-connection path
//! under a rogue-tenant flood.
//!
//! Every scenario drives one [`w5_net::Serve`] engine with a CPU-bound
//! handler and measures an honest tenant's request latency:
//!
//! - **reference**: [`w5_net::InlineServe`] — the seed dispatch kept
//!   verbatim: every client runs the handler on its own thread,
//!   concurrency bounded only by connection count.
//! - **pipeline**: [`w5_net::Pipeline`] — a fixed two-worker pool fed by
//!   bounded per-class queues with deficit-round-robin fair dequeue.
//!
//! Two workloads per engine:
//!
//! - `honest_alone` — one honest client issuing moderate requests
//!   sequentially: the baseline p99.
//! - `honest_vs_rogue` — the same honest client while a rogue tenant
//!   floods from many concurrent connections, each request cheap but
//!   endless (the classic volumetric shape). The **fairness ratio** is
//!   contended p99 / baseline p99, per engine.
//!
//! On the reference engine every rogue connection gets the handler
//! directly, so the flood oversubscribes the CPU and the honest tenant
//! degrades with rogue connection count — unboundedly. On the pipeline
//! the rogue is confined to the worker pool and DRR interleaves the
//! honest class every rotation, so the honest tenant waits at most the
//! residual of one cheap rogue job: the PR's acceptance floor is a
//! fairness ratio **< 2.0** on the pipeline in full mode.
//!
//! Emits `BENCH_net.json` (via `w5_bench::metrics`, so `W5_METRICS_DIR`
//! redirects it). `--short` shrinks measurement windows for CI smoke
//! runs; `--check <baseline.json>` exits non-zero if the pipeline's
//! fairness ratio regressed more than 4x against the committed baseline.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use w5_net::{
    Admission, ChargeDenied, ChargePoint, Handler, InlineServe, Pipeline, PipelineConfig,
    PrincipalClass, Request, Response, Serve,
};
use w5_obs::{fnv, Histogram};

/// FNV-1a steps per honest request (~a moderate dynamic page).
const HONEST_ITERS: u64 = 600_000;
/// FNV-1a steps per rogue request — cheap on purpose: the flood's power
/// is connection count, not per-request weight.
const ROGUE_ITERS: u64 = 60_000;

fn spin(iters: u64) -> u64 {
    let mut h = fnv::OFFSET;
    for i in 0..iters {
        fnv::fold_word(&mut h, i);
    }
    std::hint::black_box(h)
}

/// CPU-bound handler: `/honest/…` does moderate work, `/rogue/…` cheap
/// work. No shared state, so latency is pure scheduling + cycles.
struct SpinHandler;

impl Handler for SpinHandler {
    fn handle(&self, request: Request, _peer: SocketAddr) -> Response {
        let work = if request.path.starts_with("/honest") { HONEST_ITERS } else { ROGUE_ITERS };
        Response::text(format!("{:x}", spin(work)))
    }
}

/// Principal classes by first path segment; never charges (quota
/// refusals are the boundary tests' subject, not this bench's).
struct ClassByPath;

impl Admission for ClassByPath {
    fn classify(&self, request: &Request, _peer: SocketAddr) -> PrincipalClass {
        let seg = request.path.split('/').find(|s| !s.is_empty()).unwrap_or("");
        PrincipalClass::App(seg.to_string())
    }

    fn charge(
        &self,
        _class: &PrincipalClass,
        _point: ChargePoint,
        _bytes: u64,
    ) -> Result<(), ChargeDenied> {
        Ok(())
    }
}

fn peer() -> SocketAddr {
    "127.0.0.1:4200".parse().unwrap()
}

/// One measured workload.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct BenchEntry {
    name: String,
    /// Honest requests completed in the window.
    honest_requests: u64,
    /// Honest latency percentiles, microseconds.
    honest_p50_us: f64,
    honest_p99_us: f64,
    /// Honest completions per second.
    honest_rps: f64,
    /// Rogue completions per second (0 for the alone workloads).
    rogue_rps: f64,
}

/// contended honest p99 / baseline honest p99, per engine.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct Fairness {
    name: String,
    ratio: f64,
}

#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct BenchNet {
    short: bool,
    entries: Vec<BenchEntry>,
    fairness: Vec<Fairness>,
}

/// Drive `engine` for `window`: one honest client measuring per-request
/// latency, `rogue_threads` rogue clients flooding as fast as responses
/// return. Returns the honest histogram plus both completion counts.
fn run_workload(
    engine: &Arc<dyn Serve>,
    rogue_threads: usize,
    window: Duration,
) -> (Histogram, u64, u64) {
    let stop = AtomicBool::new(false);
    let rogue_done = AtomicU64::new(0);
    let mut hist = Histogram::new();
    let mut honest_done = 0u64;

    thread::scope(|s| {
        for _ in 0..rogue_threads {
            let engine = Arc::clone(engine);
            let stop = &stop;
            let rogue_done = &rogue_done;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let resp = engine.serve(Request::get("/rogue/flood"), peer());
                    assert_eq!(resp.status.0, 200, "rogue request failed");
                    rogue_done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Let the flood reach steady state before measuring.
        let warm = window / 10;
        let warm_end = Instant::now() + warm;
        while Instant::now() < warm_end {
            engine.serve(Request::get("/honest/page"), peer());
        }
        let end = Instant::now() + window;
        while Instant::now() < end {
            let t0 = Instant::now();
            let resp = engine.serve(Request::get("/honest/page"), peer());
            hist.record(t0.elapsed());
            assert_eq!(resp.status.0, 200, "honest request failed");
            honest_done += 1;
        }
        stop.store(true, Ordering::Relaxed);
    });

    (hist, honest_done, rogue_done.load(Ordering::Relaxed))
}

fn record(
    entries: &mut Vec<BenchEntry>,
    name: &str,
    window: Duration,
    result: (Histogram, u64, u64),
) -> f64 {
    let (hist, honest, rogue) = result;
    let p50 = hist.percentile_ns(0.50) as f64 / 1_000.0;
    let p99 = hist.percentile_ns(0.99) as f64 / 1_000.0;
    let secs = window.as_secs_f64();
    println!(
        "  {name:<34} honest p50 {p50:>9.1} µs  p99 {p99:>9.1} µs  {:>8.0} rps  (rogue {:>9.0} rps)",
        honest as f64 / secs,
        rogue as f64 / secs,
    );
    entries.push(BenchEntry {
        name: name.to_string(),
        honest_requests: honest,
        honest_p50_us: p50,
        honest_p99_us: p99,
        honest_rps: honest as f64 / secs,
        rogue_rps: rogue as f64 / secs,
    });
    p99
}

fn check_against(baseline_path: &str, current: &BenchNet) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("read {baseline_path}: {e}"))?;
    let baseline: BenchNet =
        serde_json::from_str(&text).map_err(|e| format!("parse {baseline_path}: {e}"))?;
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for base in &baseline.fairness {
        // The reference engine's ratio is hardware-dependent contrast
        // data, not a guarantee — only the pipeline's is gated.
        if base.name != "fairness_pipeline" {
            continue;
        }
        let Some(cur) = current.fairness.iter().find(|f| f.name == base.name) else {
            failures.push(format!("{}: missing from current run", base.name));
            continue;
        };
        compared += 1;
        if cur.ratio > base.ratio * 4.0 {
            failures.push(format!(
                "{}: fairness ratio {:.2} is >4x above baseline {:.2}",
                base.name, cur.ratio, base.ratio
            ));
        }
    }
    if failures.is_empty() {
        if compared == 0 {
            return Err(format!("no gated pairings with {baseline_path}"));
        }
        println!("check vs {baseline_path}: ok ({compared} pairings)");
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let short = args.iter().any(|a| a == "--short");
    let check = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check needs a path").clone());

    w5_bench::banner(
        "BENCH_net",
        "staged pipeline vs thread-per-connection under a rogue flood",
        "§3.5",
    );

    let window = if short { Duration::from_millis(250) } else { Duration::from_millis(1500) };
    // Enough rogue connections to oversubscribe any plausible core count
    // — the reference engine runs them all at once, the pipeline never
    // runs more than its worker pool.
    let rogue_threads = 2 * thread::available_parallelism().map(|n| n.get()).unwrap_or(8).max(8);
    println!("  window {window:?}, rogue connections {rogue_threads}\n");

    let mut entries = Vec::new();
    let mut fairness = Vec::new();

    // --- Reference: the seed dispatch, every connection its own thread.
    let reference: Arc<dyn Serve> = Arc::new(InlineServe::new(Arc::new(SpinHandler)));
    let base = record(&mut entries, "reference honest_alone", window, run_workload(&reference, 0, window));
    let cont = record(
        &mut entries,
        "reference honest_vs_rogue",
        window,
        run_workload(&reference, rogue_threads, window),
    );
    let ref_ratio = cont / base;
    println!("  {:<34} fairness ratio {ref_ratio:.2} (contrast only)\n", "reference");
    fairness.push(Fairness { name: "fairness_reference".into(), ratio: ref_ratio });

    // --- Pipeline: two workers, one shard, quantum 1 — the rogue class
    // gets one cheap job per rotation, never the whole pool.
    let pipeline = Pipeline::start(
        PipelineConfig { workers: 2, shards: 1, quantum: 1, ..PipelineConfig::default() },
        Arc::new(SpinHandler),
        Arc::new(ClassByPath),
    );
    let engine: Arc<dyn Serve> = Arc::clone(&pipeline) as Arc<dyn Serve>;
    let base = record(&mut entries, "pipeline honest_alone", window, run_workload(&engine, 0, window));
    let cont = record(
        &mut entries,
        "pipeline honest_vs_rogue",
        window,
        run_workload(&engine, rogue_threads, window),
    );
    let pipe_ratio = cont / base;
    let snap = pipeline.stats.snapshot();
    pipeline.stop();
    println!("  {:<34} fairness ratio {pipe_ratio:.2}", "pipeline");
    println!(
        "  {:<34} admitted {} shed {} served {}\n",
        "pipeline stats", snap.admitted, snap.shed, snap.served
    );
    fairness.push(Fairness { name: "fairness_pipeline".into(), ratio: pipe_ratio });

    let out = BenchNet { short, entries, fairness };
    let path = w5_bench::metrics::write_metrics("BENCH_net", &out).expect("write metrics");
    println!("wrote {}", path.display());

    // Acceptance floor (full runs only — --short windows are CI smoke on
    // shared hardware): the honest tenant's p99 must degrade < 2x under
    // the flood when the pipeline schedules it.
    if !short && pipe_ratio >= 2.0 {
        eprintln!("FAIL: pipeline fairness ratio {pipe_ratio:.2} >= 2.0 acceptance floor");
        std::process::exit(1);
    }

    if let Some(baseline) = check {
        if let Err(e) = check_against(&baseline, &out) {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    }
}
