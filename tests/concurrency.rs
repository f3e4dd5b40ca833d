//! The sharded kernel against its single-lock reference, under real
//! thread interleavings — the tier-1 face of `w5_sim::concurrency`.
//!
//! Four claims:
//!
//! 1. **Differential equivalence** (property) — for any seeded schedule
//!    (2–8 threads, mixed send/spawn/taint/declass/cap traffic, with or
//!    without a `w5-chaos` fault storm), the sharded kernel's final
//!    observable state — labels, capability bags, mailbox depths,
//!    counters, ledger aggregates, per-thread fault tallies — is
//!    identical to the single-lock reference kernel's, concurrently and
//!    serially.
//! 2. **Lock ordering** (unit) — the two-shard ordered locking path
//!    cannot deadlock: opposite-direction cross-shard sends, self-sends
//!    and spawns into foreign shards all complete under contention.
//! 3. **No lost taint** — a taint applied through one shard is visible
//!    to every subsequent send through another shard; concurrency never
//!    launders a label.
//! 4. **Digest regression** — for fixed seeds, the serial replay digest
//!    of the private obs ledger is bit-identical between the reference
//!    and sharded kernels (they emit the same event stream, not merely
//!    the same counts), and the platform-level `ChaosOutcome` digest
//!    still replays bit-identically on top of the sharded kernel.
//!
//! Seeding is explicit everywhere: outcomes depend only on the specs
//! below, never on `RUST_TEST_THREADS` or scheduler timing.

use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
use w5_kernel::{Delivery, Kernel, ProcessId, ResourceLimits, SpawnSpec};
use w5_sim::concurrency::ConcSpec;
use w5_sim::diff::{check, run, Arm};
use w5_sim::{run_chaos, ChaosSpec};

fn mk(k: &Kernel, name: &str) -> ProcessId {
    k.create_process(name, LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited())
}

// ---- 1. differential equivalence ----

#[test]
fn differential_fixed_seeds_calm_and_stormy() {
    for (seed, threads, rate) in
        [(1u64, 2usize, 0.0), (42, 4, 0.05), (20070824, 8, 0.10)]
    {
        check(&ConcSpec {
            seed,
            threads,
            ops_per_thread: 200,
            fault_rate: rate,
            shards: 16,
        });
    }
}

#[test]
fn differential_survives_degenerate_shard_counts() {
    // 1 shard (every pair same-shard) and 64 shards (nearly every pair
    // cross-shard) must behave identically to the reference too.
    for shards in [1usize, 2, 64] {
        check(&ConcSpec {
            seed: 7,
            threads: 4,
            ops_per_thread: 120,
            fault_rate: 0.05,
            shards,
        });
    }
}

mod properties {
    //! Random schedules: proptest picks the shape, every shape must
    //! agree across all four arms — including under fault storms.
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_schedule_agrees_across_kernels(
            seed in any::<u64>(),
            threads in 2usize..=8,
            ops in 30usize..120,
            rate_pct in 0u32..25,
            shards in prop_oneof![Just(1usize), Just(4), Just(16), Just(64)],
        ) {
            check(&ConcSpec {
                seed,
                threads,
                ops_per_thread: ops,
                fault_rate: rate_pct as f64 / 100.0,
                shards,
            });
        }
    }
}

// ---- 2. lock-ordering / deadlock freedom ----

/// Two pids in *different* shards of a 2-shard kernel, for exercising
/// both lock-acquisition orders.
fn cross_shard_pair(k: &Kernel) -> (ProcessId, ProcessId) {
    let a = mk(k, "a");
    let b = mk(k, "b");
    assert_ne!(a.0 % 2, b.0 % 2, "consecutive pids land in different shards of 2");
    (a, b)
}

#[test]
fn opposite_direction_cross_shard_sends_never_deadlock() {
    // Thread 1 sends a→b (locks shard(a) then shard(b) by index order),
    // thread 2 sends b→a (same index order, opposite roles). Unordered
    // locking would deadlock here almost immediately.
    let k = Kernel::with_shards(2, Arc::new(TagRegistry::new()));
    let (a, b) = cross_shard_pair(&k);
    const N: usize = 5_000;
    let barrier = Barrier::new(2);
    thread::scope(|s| {
        let k1 = k.clone();
        let k2 = k.clone();
        let b1 = &barrier;
        s.spawn(move || {
            b1.wait();
            for _ in 0..N {
                k1.send_strict(a, b, Bytes::from_static(b"->"), CapSet::empty()).unwrap();
            }
        });
        let b2 = &barrier;
        s.spawn(move || {
            b2.wait();
            for _ in 0..N {
                k2.send_strict(b, a, Bytes::from_static(b"<-"), CapSet::empty()).unwrap();
            }
        });
    });
    assert_eq!(k.stats().sends_checked, 2 * N as u64);
    assert_eq!(k.process_info(a).unwrap().mailbox_len, N);
    assert_eq!(k.process_info(b).unwrap().mailbox_len, N);
}

#[test]
fn self_send_takes_single_shard() {
    let k = Kernel::with_shards(2, Arc::new(TagRegistry::new()));
    let a = mk(&k, "loop");
    for _ in 0..1_000 {
        k.send_strict(a, a, Bytes::from_static(b"echo"), CapSet::empty()).unwrap();
    }
    assert_eq!(k.process_info(a).unwrap().mailbox_len, 1_000);
}

#[test]
fn concurrent_spawns_into_foreign_shards() {
    // Parents spawn children whose pids stripe across every shard while
    // cross-shard sends run; spawn drops the parent guard before taking
    // the child's shard, so this must complete without deadlock and
    // every parent link must be intact.
    let k = Kernel::with_shards(4, Arc::new(TagRegistry::new()));
    let parents: Vec<ProcessId> = (0..4).map(|i| mk(&k, &format!("p{i}"))).collect();
    const SPAWNS: usize = 400;
    thread::scope(|s| {
        for &parent in &parents {
            let k = k.clone();
            s.spawn(move || {
                for i in 0..SPAWNS {
                    let child = k
                        .spawn(
                            parent,
                            SpawnSpec {
                                name: format!("c{}-{i}", parent.0),
                                labels: LabelPair::public(),
                                grant: CapSet::empty(),
                                limits: ResourceLimits::sandbox_default(),
                            },
                        )
                        .unwrap();
                    assert_eq!(k.process_info(child).unwrap().parent, Some(parent));
                }
            });
        }
        let k2 = k.clone();
        let (a, b) = (parents[0], parents[1]);
        s.spawn(move || {
            for _ in 0..2_000 {
                k2.send_strict(a, b, Bytes::from_static(b"x"), CapSet::empty()).unwrap();
            }
        });
    });
    assert_eq!(k.live_processes(), 4 + 4 * SPAWNS);
}

#[test]
fn exhaustive_two_shard_interleavings_stay_ordered() {
    // Every direction assignment of 2 and then 3 threads over one
    // 2-shard kernel, barrier-aligned per round so all threads enter
    // their cross-shard send at the same instant. A scoped lockdep
    // recorder watches every acquisition; the moment any thread takes
    // shard 0 while holding shard 1 the assertion below names the
    // inverted pair, the thread mask and the source line — no need to
    // wait for an actual deadlock to hang the suite.
    use w5_sync::lockdep;
    for threads in [2usize, 3] {
        for mask in 0u32..(1 << threads) {
            let rec = Arc::new(lockdep::Recorder::new());
            let k = Kernel::with_shards(2, Arc::new(TagRegistry::new()));
            let (a, b) = cross_shard_pair(&k);
            const ROUNDS: usize = 150;
            let barrier = Barrier::new(threads);
            thread::scope(|s| {
                for t in 0..threads {
                    let k = k.clone();
                    let rec = Arc::clone(&rec);
                    let barrier = &barrier;
                    // Bit t of the mask picks this thread's direction, so
                    // the loop covers all-same, all-opposed and every
                    // mixed assignment.
                    let (from, to) = if mask >> t & 1 == 0 { (a, b) } else { (b, a) };
                    s.spawn(move || {
                        let _rec = lockdep::scoped(rec);
                        for _ in 0..ROUNDS {
                            barrier.wait();
                            k.send_strict(from, to, Bytes::from_static(b"x"), CapSet::empty())
                                .unwrap();
                        }
                    });
                }
            });
            let run = rec.snapshot();
            assert!(
                run.same_class.iter().any(|e| e.class == "kernel.shard"),
                "threads={threads} mask={mask:#05b}: cross-shard sends must nest shard locks"
            );
            for ev in &run.same_class {
                if ev.class != "kernel.shard" {
                    continue;
                }
                assert!(
                    ev.acquired_index > ev.held_index,
                    "inverted acquisition: shard {} taken while holding shard {} \
                     (threads={threads}, mask={mask:#05b}, at {})",
                    ev.acquired_index,
                    ev.held_index,
                    ev.site,
                );
            }
        }
    }
}

// ---- 3. no lost taint across shards ----

#[test]
fn taint_applied_in_one_shard_is_seen_by_sends_from_another() {
    // One thread taints the sender (sender's shard lock); the main
    // thread keeps sending sender→sink (both shard locks). From the
    // moment the tainting thread observes its taint_for_read returned,
    // every *subsequent* send must be dropped — a delivered message
    // after that point would be a lost-taint race.
    for trial in 0..20u64 {
        let k = Kernel::with_shards(2, Arc::new(TagRegistry::new()));
        let owner = mk(&k, "owner");
        let sender = mk(&k, "sender");
        let sink = mk(&k, "sink");
        let e = k.create_tag(owner, TagKind::ExportProtect, &format!("t{trial}")).unwrap();
        let data = LabelPair::new(Label::singleton(e), Label::empty());
        let tainted = Arc::new(AtomicBool::new(false));

        thread::scope(|s| {
            let kt = k.clone();
            let flag = Arc::clone(&tainted);
            s.spawn(move || {
                // `sender` holds no e-: after this, public sinks are
                // unreachable from it, forever (nothing declassifies).
                kt.taint_for_read(sender, &data).unwrap();
                flag.store(true, Ordering::Release);
            });
            let mut saw_taint = false;
            loop {
                let taint_known = tainted.load(Ordering::Acquire);
                let d = k.send(sender, sink, Bytes::from_static(b"s"), CapSet::empty()).unwrap();
                if taint_known {
                    assert_eq!(
                        d,
                        Delivery::Dropped,
                        "trial {trial}: send delivered after taint was acknowledged"
                    );
                    if saw_taint {
                        break; // two post-taint sends verified
                    }
                    saw_taint = true;
                }
            }
        });
        assert_eq!(k.labels(sender).unwrap().secrecy, Label::singleton(e));
    }
}

// ---- 4. digest regressions ----

#[test]
fn serial_ledger_digest_identical_between_kernels() {
    // Stronger than equal aggregates: the reference and sharded kernels
    // must emit the *same event stream* (FNV digest over events, ring
    // order and counters) when driven serially by the same schedule.
    for seed in [1u64, 42, 1007, 20070824] {
        let spec = ConcSpec { seed, threads: 4, ops_per_thread: 250, fault_rate: 0.08, shards: 16 };
        let reference = run(&spec, Arm::ReferenceSerial);
        let sharded = run(&spec, Arm::CandidateSerial);
        assert_eq!(reference.outcome, sharded.outcome, "seed {seed}: serial outcomes diverged");
        assert_eq!(
            reference.ledger_digest, sharded.ledger_digest,
            "seed {seed}: ledger digest changed under sharding"
        );
    }
}

#[test]
fn chaos_outcome_digest_replays_on_sharded_kernel() {
    // The platform now runs on the sharded kernel; the chaos harness's
    // whole-run FNV digest must still be a pure function of its seeds.
    let spec = ChaosSpec { seed: 22325, steps: 250, fault_rate: 0.08 };
    let first = run_chaos(&spec);
    let second = run_chaos(&spec);
    assert_eq!(first, second, "ChaosOutcome must replay bit-identically on the sharded kernel");
    assert!(first.violations.is_empty(), "{:?}", first.violations);
    assert!(first.faults.total_injected() > 0, "storm never fired");
}

#[test]
fn concurrent_outcome_independent_of_run_order() {
    // Same spec, run concurrently twice plus serially once: all equal.
    // Catches timing-dependence smuggled into the outcome type itself.
    let spec = ConcSpec { seed: 1007, threads: 6, ops_per_thread: 180, fault_rate: 0.06, shards: 16 };
    let a = run(&spec, Arm::CandidateConcurrent).outcome;
    let b = run(&spec, Arm::CandidateConcurrent).outcome;
    let c = run(&spec, Arm::CandidateSerial).outcome;
    assert_eq!(a, b, "two concurrent runs of one spec diverged");
    assert_eq!(a, c, "concurrent run diverged from serial replay");
}
