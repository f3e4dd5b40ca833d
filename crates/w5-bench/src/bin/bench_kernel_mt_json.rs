//! BENCH_kernel_mt — multi-core load harness for the sharded kernel.
//!
//! Closed-loop throughput: N worker threads, each owning a pool of
//! processes on one shared [`w5_kernel::Kernel`], hammer syscalls until
//! a fixed deadline. Two mixes:
//!
//! - **send_recv**: the flow-check hot path alone — `send` to a random
//!   process anywhere in the world (so a large fraction of sends take
//!   two shard locks, in both orders) interleaved with `recv` on the
//!   worker's own mailboxes.
//! - **mixed**: adds the rest of the syscall surface at realistic
//!   ratios — spawn/exit/reap churn, `taint_for_read` + `check_write`
//!   label traffic, and capability drops — so shard-map writes contend
//!   with the read-mostly flow path.
//!
//! Each worker installs a private scoped [`w5_obs::Ledger`] so the
//! bench measures kernel contention, not the global observability
//! ring's mutex. The schedule is seeded per worker; only the *amount*
//! of work done before the deadline varies between runs.
//!
//! Emits `BENCH_kernel_mt.json` through `w5_bench::harness`, which
//! describes the flags and gate rules, with per-thread-count points and
//! the 4-thread/1-thread scaling ratio per mix. Its one gate is
//! `--check-scaling`: scaling numbers from a 1-core box are honest but
//! meaningless, so the gate needs a host with at least 4 cores.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};
use w5_bench::harness::{self, Gate};
use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
use w5_kernel::{Kernel, ProcessId, ResourceLimits, SpawnSpec};
use w5_obs::Ledger;

/// One measured (mix, threads) point.
#[derive(serde::Serialize)]
struct Point {
    threads: usize,
    ops: u64,
    secs: f64,
    ops_per_sec: f64,
}

#[derive(serde::Serialize)]
struct MixResult {
    name: String,
    points: Vec<Point>,
    /// 4-thread throughput / 1-thread throughput (0.0 if 4 wasn't run).
    scaling_4t: f64,
}

/// The whole artifact.
#[derive(serde::Serialize)]
struct BenchKernelMt {
    short: bool,
    shards: usize,
    threads: Vec<usize>,
    mixes: Vec<MixResult>,
}

const PROCS_PER_WORKER: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mix {
    SendRecv,
    Mixed,
}

/// One worker's closed loop: run ops against the shared kernel until
/// `deadline`, returning how many completed. `world` is every worker's
/// starting pids, so sends cross worker (and shard) boundaries.
fn worker(
    k: &Kernel,
    mix: Mix,
    me: usize,
    own: &[ProcessId],
    world: &[ProcessId],
    seed: u64,
    deadline: Instant,
) -> u64 {
    let _scope = w5_obs::scoped(Arc::new(Ledger::new()));
    let mut rng = StdRng::seed_from_u64(seed ^ (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let payload = Bytes::from_static(b"bench");
    let taint = LabelPair::new(
        Label::singleton(k.create_tag(own[0], TagKind::ExportProtect, &format!("mt{me}")).unwrap()),
        Label::empty(),
    );
    let mut spawned: Vec<ProcessId> = Vec::new();
    let mut ops = 0u64;
    // Check the clock every CHUNK ops, not every op.
    const CHUNK: u32 = 256;
    loop {
        for _ in 0..CHUNK {
            let src = own[rng.gen_range(0..own.len())];
            match (mix, rng.gen_range(0u32..100)) {
                (Mix::SendRecv, 0..=49) | (Mix::Mixed, 0..=39) => {
                    let dst = world[rng.gen_range(0..world.len())];
                    let _ = k.send(src, dst, payload.clone(), CapSet::empty());
                }
                (Mix::SendRecv, _) | (Mix::Mixed, 40..=69) => {
                    let _ = k.recv(src);
                }
                (Mix::Mixed, 70..=79) => {
                    // Spawn churn: create, then retire an older child so
                    // the process table stays bounded.
                    if let Ok(child) = k.spawn(
                        src,
                        SpawnSpec {
                            name: format!("w{me}.s"),
                            labels: LabelPair::public(),
                            grant: CapSet::empty(),
                            limits: ResourceLimits::sandbox_default(),
                        },
                    ) {
                        spawned.push(child);
                    }
                    if spawned.len() > 8 {
                        let old = spawned.remove(0);
                        let _ = k.exit(old);
                        let _ = k.reap(old);
                    }
                }
                (Mix::Mixed, 80..=89) => {
                    // Label traffic on a *spawned* (private) process so the
                    // shared world stays public for everyone else's sends.
                    if let Some(&p) = spawned.first() {
                        let _ = k.taint_for_read(p, &taint);
                        let _ = k.check_write(p, &LabelPair::public());
                    }
                }
                (Mix::Mixed, _) => {
                    let _ = k.labels(src);
                    let _ = k.check_write(src, &LabelPair::public());
                }
            }
            ops += 1;
        }
        if Instant::now() >= deadline {
            return ops;
        }
    }
}

/// One (mix, threads) measurement over a fresh kernel.
fn run_point(mix: Mix, threads: usize, budget: Duration, shards: usize) -> Point {
    let k = Kernel::with_shards(shards, Arc::new(TagRegistry::new()));
    let pools: Vec<Vec<ProcessId>> = (0..threads)
        .map(|t| {
            (0..PROCS_PER_WORKER)
                .map(|i| {
                    k.create_process(
                        &format!("w{t}.p{i}"),
                        LabelPair::public(),
                        CapSet::empty(),
                        ResourceLimits::unlimited(),
                    )
                })
                .collect()
        })
        .collect();
    let world: Vec<ProcessId> = pools.iter().flatten().copied().collect();

    let start = Instant::now();
    let deadline = start + budget;
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let k = k.clone();
                let own = &pools[t];
                let world = &world;
                s.spawn(move || worker(&k, mix, t, own, world, 20070824, deadline))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    Point { threads, ops: total, secs, ops_per_sec: total as f64 / secs }
}

fn main() {
    let flags = harness::flags(&["--short", "--check-scaling <ratio>"]);
    let short = flags.short;
    let cores = harness::cores();
    let shards = w5_kernel::DEFAULT_SHARDS;
    let thread_counts = vec![1usize, 2, 4, 8];
    let budget = if short { Duration::from_millis(150) } else { Duration::from_millis(600) };

    w5_bench::banner(
        "BENCH_kernel_mt",
        "sharded kernel under multi-threaded closed-loop load",
        "DESIGN.md §14",
    );
    println!("  host cores: {cores}   shards: {shards}   budget: {budget:?}/point");

    let mut mixes = Vec::new();
    for (mix, name) in [(Mix::SendRecv, "send_recv"), (Mix::Mixed, "mixed")] {
        println!("  mix {name}:");
        let mut points = Vec::new();
        for &t in &thread_counts {
            let p = run_point(mix, t, budget, shards);
            println!(
                "    {t} thread{} {:>12}",
                if t == 1 { " " } else { "s" },
                w5_bench::ops_per_sec(p.ops, Duration::from_secs_f64(p.secs)),
            );
            points.push(p);
        }
        let one = points.iter().find(|p| p.threads == 1).map(|p| p.ops_per_sec).unwrap_or(0.0);
        let four = points.iter().find(|p| p.threads == 4).map(|p| p.ops_per_sec).unwrap_or(0.0);
        let scaling_4t = if one > 0.0 { four / one } else { 0.0 };
        println!("    4-thread scaling {scaling_4t:.2}x");
        mixes.push(MixResult { name: name.to_string(), points, scaling_4t });
    }

    let out = BenchKernelMt { short, shards, threads: thread_counts, mixes };
    harness::finish("BENCH_kernel_mt", &out, &flags, harness::SCALING, &[Gate::Scaling]);
}
