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
//! Emits `BENCH_net.json` through `w5_bench::harness`, which describes
//! the flags and gate rules. Gates: the pipeline's fairness ratio within
//! 4x of the committed baseline — the reference engine's ratio is
//! hardware-dependent contrast data, not a guarantee, so it is never
//! gated — and the < 2.0 floor above in full runs only, since `--short`
//! windows are CI smoke on shared hardware.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use w5_bench::harness::{self, Better, Gate, Names};
use w5_net::{
    Admission, Handler, InlineServe, Pipeline, PipelineConfig, PrincipalClass, Request, Response,
    Serve,
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

/// Principal classes by first path segment.
struct ClassByPath;

impl Admission for ClassByPath {
    fn classify(&self, request: &Request, _peer: SocketAddr) -> PrincipalClass {
        let seg = request.path.split('/').find(|s| !s.is_empty()).unwrap_or("");
        PrincipalClass::App(seg.to_string())
    }
}

fn peer() -> SocketAddr {
    "127.0.0.1:4200".parse().unwrap()
}

/// One measured workload.
#[derive(serde::Serialize)]
struct BenchEntry {
    name: String,
    /// Honest requests completed in the window.
    honest_requests: u64,
    /// Honest latency percentiles, microseconds.
    honest_p50_us: f64,
    honest_p99_us: f64,
    /// Honest completions per second.
    honest_rps: f64,
    /// Rogue completions per second inside the measured window (0 for
    /// the alone workloads).
    rogue_rps: f64,
}

/// contended honest p99 / baseline honest p99, per engine.
#[derive(serde::Serialize)]
struct Fairness {
    name: String,
    ratio: f64,
}

#[derive(serde::Serialize)]
struct BenchNet {
    short: bool,
    entries: Vec<BenchEntry>,
    fairness: Vec<Fairness>,
}

/// Drive `engine` for `window`: one honest client measuring per-request
/// latency, `rogue_threads` rogue clients flooding as fast as responses
/// return. Returns the honest histogram plus both completion counts,
/// each counting only completions inside the measured window.
fn run_workload(
    engine: &Arc<dyn Serve>,
    rogue_threads: usize,
    window: Duration,
) -> (Histogram, u64, u64) {
    let stop = AtomicBool::new(false);
    let rogue_done = AtomicU64::new(0);
    let mut hist = Histogram::new();
    let mut honest_done = 0u64;

    let rogue_in_window = thread::scope(|s| {
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
        let rogue_before = rogue_done.load(Ordering::Relaxed);
        let end = Instant::now() + window;
        while Instant::now() < end {
            let t0 = Instant::now();
            let resp = engine.serve(Request::get("/honest/page"), peer());
            hist.record(t0.elapsed());
            assert_eq!(resp.status.0, 200, "honest request failed");
            honest_done += 1;
        }
        let rogue_in_window = rogue_done.load(Ordering::Relaxed) - rogue_before;
        stop.store(true, Ordering::Relaxed);
        rogue_in_window
    });

    (hist, honest_done, rogue_in_window)
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

fn main() {
    let flags = harness::flags(&["--short", "--check <baseline.json>"]);
    let short = flags.short;
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

    // Reference: the seed dispatch, every connection its own thread; its
    // ratio is contrast only. Pipeline: two workers, one shard, quantum 1
    // — the rogue class gets one cheap job per rotation, never the whole
    // pool.
    let reference: Arc<dyn Serve> = Arc::new(InlineServe::new(Arc::new(SpinHandler)));
    let pipeline = Pipeline::start(
        PipelineConfig { workers: 2, shards: 1, quantum: 1, ..PipelineConfig::default() },
        Arc::new(SpinHandler),
        Arc::new(ClassByPath),
    );
    for (name, engine) in [("reference", reference), ("pipeline", Arc::clone(&pipeline) as _)] {
        let alone = run_workload(&engine, 0, window);
        let base = record(&mut entries, &format!("{name} honest_alone"), window, alone);
        let flood = run_workload(&engine, rogue_threads, window);
        let ratio = record(&mut entries, &format!("{name} honest_vs_rogue"), window, flood) / base;
        println!("  {name:<34} fairness ratio {ratio:.2}\n");
        fairness.push(Fairness { name: format!("fairness_{name}"), ratio });
    }
    let snap = pipeline.stats.snapshot();
    pipeline.stop();
    println!(
        "  {:<34} admitted {} shed {} served {}",
        "pipeline stats", snap.admitted, snap.shed, snap.served
    );

    let out = BenchNet { short, entries, fairness };
    let pipeline = "fairness_pipeline";
    harness::finish(
        "BENCH_net",
        &out,
        &flags,
        harness::FAIRNESS,
        &[
            Gate::Limit { name: pipeline, limit: 2.0, better: Better::Lower, full_only: true },
            Gate::Baseline { factor: 4.0, better: Better::Lower, names: Names::Only(pipeline) },
        ],
    );
}
