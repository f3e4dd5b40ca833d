//! Differential concurrency oracle for the sharded kernel.
//!
//! The sharded [`w5_kernel::Kernel`] claims to preserve, observable by
//! observable, the behavior of the single-lock
//! [`w5_kernel::ReferenceKernel`] it replaced. [`ConcSpec`] is a
//! [`crate::diff::Oracle`]: the four-arm driver replays one seeded
//! operation schedule against both kernels, under real OS-thread
//! interleavings and serially, and compares everything a syscall client
//! or an auditor could see: per-process labels, capability bags, mailbox
//! depths, lifecycle states, flow-decision counters, obs-ledger
//! aggregates, and per-thread fault-injection reports.
//!
//! # Why the schedules are interleaving-invariant
//!
//! * **Ownership** — thread `t` performs label changes, taints,
//!   capability edits, receives and spawns *only* on its own processes.
//!   Every per-process observable is therefore a pure function of one
//!   thread's deterministic op sequence.
//! * **Hubs** — the only cross-thread traffic is sends to per-thread
//!   "hub" processes whose labels never change (public, never tainted,
//!   never receive-drained). A send verdict depends on the sender's
//!   labels (own-thread-deterministic) and the hub's (constant), so
//!   every delivery/drop verdict — and thus every counter — is fixed
//!   before the threads even start. Only the *order* of messages in a
//!   hub mailbox is timing-dependent, so the oracle compares mailbox
//!   depths, not contents.
//! * **Pre-created tags** — all tags are created in single-threaded
//!   setup, so the shared [`w5_difc::TagRegistry`] allocates identical
//!   tag ids in every arm.
//!
//! Process *ids* are still racy (threads interleave allocations), which
//! is why the oracle keys state by process *name* and maps parent links
//! back to names.
//!
//! Serial replays additionally expose the run's private
//! [`w5_obs::Ledger::digest`]: with one thread the event stream itself
//! is deterministic, so reference-serial and sharded-serial must agree
//! bit-for-bit — the kernel oracle's serial policy, and the chaos-digest
//! regression the tests pin.

use crate::diff::{Arm, Oracle, Run};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;
use w5_chaos::{ChaosReport, FaultPlan, Site};
use w5_difc::{CapSet, Capability, Label, LabelPair, Privilege, Tag, TagKind, TagRegistry};
use w5_kernel::{
    Kernel, KernelStats, ProcessId, ReferenceKernel, ResourceLimits, SpawnSpec, Syscalls,
};
use w5_obs::Ledger;
use w5_sync::lockdep;

/// Per-thread process count at setup; op indices are taken modulo the
/// live list, which grows as the thread spawns children.
const PROCS_PER_THREAD: usize = 4;

/// One differential run: a schedule seed, a thread count, a length, a
/// storm rate for the kernel fault sites, and the shard count for the
/// sharded arm.
#[derive(Clone, Copy, Debug)]
pub struct ConcSpec {
    /// Seeds every thread's op stream and fault plan.
    pub seed: u64,
    /// Worker threads (the paper's "many users at once"); 2–8 in tests.
    pub threads: usize,
    /// Ops each thread executes.
    pub ops_per_thread: usize,
    /// Injection probability for `KernelSend`/`KernelSpawn` (0.0 = calm).
    pub fault_rate: f64,
    /// Shard count for the sharded kernel arm.
    pub shards: usize,
}

impl ConcSpec {
    /// A moderate default: 4 threads, 400 ops each, a light fault storm.
    pub fn new(seed: u64) -> ConcSpec {
        ConcSpec { seed, threads: 4, ops_per_thread: 400, fault_rate: 0.05, shards: 16 }
    }
}

/// Everything observable about one process at the end of a run, keyed by
/// audit name (pids are interleaving-dependent; names are not).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcState {
    /// Sorted raw secrecy tags.
    pub secrecy: Vec<u64>,
    /// Sorted raw integrity tags.
    pub integrity: Vec<u64>,
    /// Sorted `(tag, is_minus)` private capability bag.
    pub caps: Vec<(u64, bool)>,
    /// Lifecycle state, `Debug`-rendered.
    pub state: String,
    /// Queued messages.
    pub mailbox_len: usize,
    /// Parent's audit name, if spawned.
    pub parent: Option<String>,
}

/// The full observable outcome of one run. Two arms replaying the same
/// [`ConcSpec`] must compare equal, whatever the interleaving.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ConcOutcome {
    /// Final state of every process, by name.
    pub procs: BTreeMap<String, ProcState>,
    /// Kernel flow-decision counters.
    pub stats: KernelStats,
    /// Obs-ledger events recorded per layer (exact atomics).
    pub ledger_events: BTreeMap<String, u64>,
    /// Obs-ledger denials per layer (exact atomics).
    pub ledger_denied: BTreeMap<String, u64>,
    /// Per-thread fault-injection tallies, in thread order.
    pub faults: Vec<ChaosReport>,
}

/// One step of a thread's schedule. All indices are taken modulo the
/// thread's live process list at execution time.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Send between two of the thread's own processes (flow verdict
    /// depends on both ends — both own-thread-deterministic).
    SendOwn { from: usize, to: usize },
    /// Send to another thread's hub (the only cross-thread traffic).
    SendHub { from: usize, hub: usize },
    /// Drain one message from an own process.
    Recv { who: usize },
    /// Taint an own process with the thread's tag (`t+` is global for
    /// `ExportProtect`).
    Taint { who: usize },
    /// Attempt declassification back to public; succeeds only while the
    /// process holds the thread's `t-`.
    Declass { who: usize },
    /// Spawn a child at the parent's current labels; the child joins the
    /// thread's process list.
    Spawn { from: usize },
    /// Shed the thread tag's `t-` from an own process.
    DropMinus { who: usize },
    /// Grant the thread tag's `t-` to an own process.
    GrantMinus { who: usize },
}

/// One thread's working set: its tag, the global hub list, and its own
/// (name, pid) process list: the setup processes, then each spawned
/// child in order.
pub struct ThreadCtx {
    t: usize,
    tag: Tag,
    hubs: Vec<ProcessId>,
    procs: Vec<(String, ProcessId)>,
}

impl Oracle for ConcSpec {
    const HARNESS: &'static str = "concurrency";
    const ENGINES: [&'static str; 2] = ["reference", "sharded"];
    type Engine = Box<dyn Syscalls>;
    type Thread = ThreadCtx;
    type Op = Op;
    type Report = ();
    type Outcome = ConcOutcome;
    type Cost = ();

    fn seed(&self) -> u64 {
        self.seed
    }

    fn gen_ops(&self, rng: &mut StdRng) -> Vec<Op> {
        (0..self.ops_per_thread)
            .map(|_| match rng.gen_range(0..100u32) {
                0..=49 => Op::SendOwn { from: rng.gen_range(0..64), to: rng.gen_range(0..64) },
                50..=64 => Op::SendHub { from: rng.gen_range(0..64), hub: rng.gen_range(0..64) },
                65..=74 => Op::Recv { who: rng.gen_range(0..64) },
                75..=81 => Op::Taint { who: rng.gen_range(0..64) },
                82..=86 => Op::Declass { who: rng.gen_range(0..64) },
                87..=91 => Op::Spawn { from: rng.gen_range(0..64) },
                92..=95 => Op::DropMinus { who: rng.gen_range(0..64) },
                _ => Op::GrantMinus { who: rng.gen_range(0..64) },
            })
            .collect()
    }

    fn faults(&self, plan: FaultPlan) -> FaultPlan {
        plan.with(Site::KernelSend, self.fault_rate).with(Site::KernelSpawn, self.fault_rate)
    }

    /// Builds the arm's kernel, then hubs, per-thread processes and
    /// per-thread tags in thread order, so pid streams and registry tag
    /// ids start out aligned.
    fn setup(&self, arm: Arm, locks: &lockdep::Recorder) -> (Box<dyn Syscalls>, Vec<ThreadCtx>) {
        let registry = Arc::new(TagRegistry::new());
        let k: Box<dyn Syscalls> = if arm.candidate() {
            let k = Kernel::with_shards(self.shards, registry);
            // New lock-order edges are labeled with the sharded kernel's
            // relaxed-atomic counters, lock-free by construction. The
            // reference kernel gets no provider: its stats live under the
            // very lock whose acquisitions are being recorded.
            let stats = k.clone();
            locks.set_context_provider(Box::new(move || {
                w5_obs::snapshot_json(&stats).unwrap_or_default()
            }));
            Box::new(k)
        } else {
            Box::new(ReferenceKernel::new(registry))
        };
        let public = |name: &str| {
            let (labels, caps) = (LabelPair::public(), CapSet::empty());
            k.create_process(name, labels, caps, ResourceLimits::unlimited())
        };
        let hubs: Vec<ProcessId> = (0..self.threads).map(|t| public(&format!("hub{t}"))).collect();
        let ctxs = (0..self.threads)
            .map(|t| {
                let procs: Vec<(String, ProcessId)> = (0..PROCS_PER_THREAD)
                    .map(|i| {
                        let name = format!("t{t}.p{i}");
                        let pid = public(&name);
                        (name, pid)
                    })
                    .collect();
                // p0 creates the thread's tag and so holds its `t-`; siblings
                // start without it (only Taint/Grant/Drop ops move it later).
                let tag = k
                    .create_tag(procs[0].1, TagKind::ExportProtect, &format!("conc:t{t}"))
                    .expect("fresh process can create a tag");
                ThreadCtx { t, tag, hubs: hubs.clone(), procs }
            })
            .collect();
        (k, ctxs)
    }

    fn apply(&self, k: &Box<dyn Syscalls>, ctx: &mut ThreadCtx, ops: &[Op]) {
        let payload = Bytes::from_static(b"conc");
        let mut minus = CapSet::empty();
        minus.insert(Capability::minus(ctx.tag));
        for op in ops {
            let own = |i: usize| ctx.procs[i % ctx.procs.len()].1;
            match *op {
                Op::SendOwn { from, to } => {
                    let _ = k.send(own(from), own(to), payload.clone(), CapSet::empty());
                }
                Op::SendHub { from, hub } => {
                    let h = ctx.hubs[hub % ctx.hubs.len()];
                    let _ = k.send(own(from), h, payload.clone(), CapSet::empty());
                }
                Op::Recv { who } => {
                    let _ = k.recv(own(who));
                }
                Op::Taint { who } => {
                    let data = LabelPair::new(Label::singleton(ctx.tag), Label::empty());
                    let _ = k.taint_for_read(own(who), &data);
                }
                Op::Declass { who } => {
                    let _ = k.change_labels(own(who), LabelPair::public());
                }
                Op::Spawn { from } => {
                    let parent = own(from);
                    let Ok(labels) = k.labels(parent) else { continue };
                    let name = format!("t{}.c{}", ctx.t, ctx.procs.len() - PROCS_PER_THREAD);
                    let spec = SpawnSpec {
                        name: name.clone(),
                        labels,
                        grant: CapSet::empty(),
                        limits: ResourceLimits::sandbox_default(),
                    };
                    if let Ok(pid) = k.spawn(parent, spec) {
                        ctx.procs.push((name, pid));
                    }
                }
                Op::DropMinus { who } => {
                    let _ = k.drop_caps(own(who), &minus);
                }
                Op::GrantMinus { who } => {
                    let _ = k.grant_caps(own(who), &minus);
                }
            }
        }
    }

    fn collect(
        &self,
        k: &Box<dyn Syscalls>,
        ctxs: &[ThreadCtx],
        _reports: Vec<()>,
        faults: Vec<ChaosReport>,
        ledger: &Ledger,
    ) -> (ConcOutcome, ()) {
        let mut all: Vec<(String, ProcessId)> = Vec::new();
        for (t, ctx) in ctxs.iter().enumerate() {
            all.push((format!("hub{t}"), ctx.hubs[t]));
            all.extend(ctx.procs.iter().cloned());
        }
        let names: HashMap<ProcessId, String> =
            all.iter().map(|(n, p)| (*p, n.clone())).collect();
        let procs = all
            .iter()
            .map(|(name, pid)| {
                let info = k.process_info(*pid).expect("workload never reaps");
                let caps = k.caps(*pid).expect("workload never reaps");
                let mut bag: Vec<(u64, bool)> = caps
                    .iter()
                    .map(|c| (c.tag.raw(), c.privilege == Privilege::Minus))
                    .collect();
                bag.sort_unstable();
                (
                    name.clone(),
                    ProcState {
                        secrecy: info.labels.secrecy.iter().map(Tag::raw).collect(),
                        integrity: info.labels.integrity.iter().map(Tag::raw).collect(),
                        caps: bag,
                        state: format!("{:?}", info.state),
                        mailbox_len: info.mailbox_len,
                        parent: info.parent.map(|p| names[&p].clone()),
                    },
                )
            })
            .collect();
        let agg = ledger.aggregate();
        let outcome = ConcOutcome {
            procs,
            stats: k.stats(),
            ledger_events: agg.events,
            ledger_denied: agg.denied,
            faults,
        };
        (outcome, ())
    }

    /// Both kernels must emit the *same event stream*, not merely the
    /// same counts, when driven serially by one schedule.
    fn check_serial(&self, reference: &Run<Self>, sharded: &Run<Self>) {
        assert_eq!(
            reference.ledger_digest, sharded.ledger_digest,
            "serial ledger digests diverged: the kernels emitted different event streams"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{check, run};

    #[test]
    fn four_arms_agree_on_default_spec() {
        check(&ConcSpec { seed: 2007, threads: 4, ops_per_thread: 150, fault_rate: 0.05, shards: 16 });
    }

    #[test]
    fn calm_run_agrees_without_faults() {
        let spec = ConcSpec { seed: 9, threads: 2, ops_per_thread: 120, fault_rate: 0.0, shards: 4 };
        check(&spec);
        let out = run(&spec, Arm::CandidateSerial).outcome;
        assert_eq!(out.faults.iter().map(|f| f.total_injected()).sum::<u64>(), 0);
    }

    #[test]
    fn workload_actually_exercises_flow_machinery() {
        let spec = ConcSpec::new(20070824);
        let out = run(&spec, Arm::CandidateSerial).outcome;
        assert!(out.stats.sends_checked > 0);
        assert!(out.stats.sends_dropped > 0, "taint must force some drops");
        assert!(out.stats.label_changes_denied > 0, "declass without t- must be denied");
        assert!(
            out.procs.values().any(|p| !p.secrecy.is_empty()),
            "some process must end tainted"
        );
        assert!(
            out.faults.iter().map(|f| f.total_injected()).sum::<u64>() > 0,
            "storm must fire"
        );
    }
}
