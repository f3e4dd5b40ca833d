//! BENCH_trace — what causal tracing costs on the hot path.
//!
//! Every workload runs on identical scoped ledgers, varying exactly one
//! knob. Three arms:
//!
//! - **baseline**: no active trace at all — `span_if_active` sees an
//!   empty stack and returns immediately. The pre-tracing cost model.
//! - **unsampled**: under a root span the head sampler rejected
//!   (rate 0.0). This is the always-on production posture for the vast
//!   majority of requests; its overhead over baseline is the permanent
//!   tax of having tracing wired in. Target: <5% p50 on the
//!   kernel.send flow-check path (interned subset probe, `count_check`
//!   parity, mailbox move).
//! - **sampled**: rate 1.0, every span recorded. The price a sampled
//!   request pays for an actual trace — expected to be well above the
//!   unsampled tax, reported honestly rather than gated.
//!
//! Emits `BENCH_trace.json` through `w5_bench::harness`, which describes
//! the flags. It accepts `--short` only and has no gate: an always-on tax
//! above the 5% target prints a warning.

use bytes::Bytes;
use std::sync::Arc;
use w5_bench::harness;
use w5_difc::{CapSet, LabelPair, TagRegistry};
use w5_kernel::{Kernel, ResourceLimits};
use w5_platform::Platform;
use w5_sim::{build_population, PopulationConfig};

/// Sends per measured batch: keeps the clock read off the per-op cost.
const BATCH: u64 = 64;

/// How the workload relates to the tracer.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// No root span: the instrumentation's fast-out path.
    Baseline,
    /// Root span exists but the sampler rejected the trace.
    Unsampled,
    /// Every span recorded.
    Sampled,
}

#[derive(serde::Serialize)]
struct OverheadEntry {
    name: String,
    p50_baseline_ns: u64,
    p50_unsampled_ns: u64,
    p50_sampled_ns: u64,
    /// Unsampled vs baseline, in percent — the always-on tax (the <5%
    /// target). Negative = noise.
    unsampled_overhead_pct: f64,
    /// Sampled vs baseline, in percent — the cost of recording.
    sampled_overhead_pct: f64,
}

/// p50 ns per send on the kernel flow-check path.
fn kernel_send_arm(arm: Arm, iters: usize) -> u64 {
    let registry = Arc::new(TagRegistry::new());
    let kernel = Kernel::new(Arc::clone(&registry));
    let a = kernel.create_process(
        "bench-a",
        LabelPair::public(),
        CapSet::empty(),
        ResourceLimits::unlimited(),
    );
    let b = kernel.create_process(
        "bench-b",
        LabelPair::public(),
        CapSet::empty(),
        ResourceLimits::unlimited(),
    );
    let payload = Bytes::from_static(b"trace-bench");

    let p50_batch = harness::p50_ns(iters / 10 + 1, iters, || {
        let _root = (arm != Arm::Baseline).then(|| {
            w5_obs::span("bench.root", w5_obs::Layer::Kernel, &w5_obs::ObsLabel::empty())
        });
        for _ in 0..BATCH {
            kernel.send_strict(a, b, payload.clone(), CapSet::empty()).unwrap();
            let _ = kernel.recv(b).unwrap();
        }
    });
    p50_batch / BATCH
}

/// p50 ns per full app invocation. `invoke` opens its own root span, so
/// the baseline arm is identical to the unsampled one here — both are
/// measured anyway to keep the table uniform.
fn invoke_arm(iters: usize) -> u64 {
    let world = build_population(
        Platform::new_default("bench-trace"),
        PopulationConfig { users: 1, photos_per_user: 1, ..Default::default() },
    );
    let platform = Arc::clone(&world.platform);
    let user = &world.accounts[0];

    harness::p50_ns(iters / 10 + 1, iters, || {
        let req = Platform::make_request(
            "GET",
            "view",
            &[("user", user.username.as_str()), ("name", "photo0")],
            Some(user),
            Bytes::new(),
        );
        let resp = platform.invoke(Some(user), "devA/photos", req);
        assert_eq!(resp.status, 200);
    })
}

/// Measure `p50` for each arm, each on a private scoped ledger that
/// samples at the arm's rate, and print the overheads.
fn entry(name: &str, p50: impl Fn(Arm) -> u64) -> OverheadEntry {
    let [baseline, unsampled, sampled] = [Arm::Baseline, Arm::Unsampled, Arm::Sampled].map(|arm| {
        let ledger = Arc::new(w5_obs::Ledger::new());
        ledger.set_trace_sampling(if arm == Arm::Sampled { 1.0 } else { 0.0 }, 7);
        let _scope = w5_obs::scoped(ledger);
        p50(arm)
    });
    let pct = |arm: u64| {
        if baseline == 0 {
            0.0
        } else {
            (arm as f64 - baseline as f64) / baseline as f64 * 100.0
        }
    };
    let e = OverheadEntry {
        name: name.to_string(),
        p50_baseline_ns: baseline,
        p50_unsampled_ns: unsampled,
        p50_sampled_ns: sampled,
        unsampled_overhead_pct: pct(unsampled),
        sampled_overhead_pct: pct(sampled),
    };
    println!(
        "{name:<16} baseline {baseline:>8}ns   unsampled {unsampled:>8}ns ({:+.1}%)   sampled {sampled:>8}ns ({:+.1}%)",
        e.unsampled_overhead_pct, e.sampled_overhead_pct
    );
    e
}

#[derive(serde::Serialize)]
struct BenchTrace {
    short: bool,
    entries: Vec<OverheadEntry>,
}

fn main() {
    let short = harness::flags(&["--short"]).short;
    w5_bench::banner("TRACE-OVERHEAD", "tracing cost on the flow-check hot path", "§3.5");

    let (send_iters, invoke_iters) = if short { (200, 40) } else { (2000, 300) };

    let entries = vec![
        entry("kernel.send", |arm| kernel_send_arm(arm, send_iters)),
        entry("platform.invoke", |_| invoke_arm(invoke_iters)),
    ];
    let tax = entries[0].unsampled_overhead_pct;
    if tax >= 5.0 {
        println!("warning: kernel.send always-on tax {tax:.1}% exceeds the 5% target");
    }

    harness::write("BENCH_trace", &BenchTrace { short, entries });
}
