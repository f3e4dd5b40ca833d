//! The four-arm differential driver behind the kernel
//! ([`crate::concurrency`]), store ([`crate::storediff`]) and net
//! ([`crate::netdiff`]) oracles; DESIGN.md §14 describes the method.
//!
//! Each oracle replays one seeded per-thread schedule against a reference
//! and a candidate engine, serially and on real threads, and compares
//! what a client could see. An [`Oracle`] impl supplies the workload; the
//! driver owns the skeleton: the seed derivations (thread `t`'s ops from
//! `seed ^ (t + 1) · 0x9E37_79B9_7F4A_7C15`, its fault plan from
//! `seed ^ (t + 1) · 0xD6E8_FEB8_6659_FD93`), the arm's private ledger and
//! lock-order recorder (installed before setup and re-installed in every
//! worker), one injector scope per thread schedule, and the lockgate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::sync::Arc;
use std::thread;
use w5_chaos::{ChaosReport, FaultPlan, Injector};
use w5_obs::Ledger;
use w5_sync::lockdep::{self, Recorder};

/// One of the four arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Reference engine, serial replay of the thread schedules.
    ReferenceSerial,
    /// Candidate engine, serial replay.
    CandidateSerial,
    /// Reference engine, one OS thread per schedule.
    ReferenceConcurrent,
    /// Candidate engine, one OS thread per schedule.
    CandidateConcurrent,
}

impl Arm {
    /// Does this arm drive the candidate engine?
    pub fn candidate(self) -> bool {
        matches!(self, Arm::CandidateSerial | Arm::CandidateConcurrent)
    }
}

/// The workload half of a differential oracle, implemented by its spec.
pub trait Oracle: Sync + Sized {
    /// Harness name for lockgate notes and panic messages.
    const HARNESS: &'static str;
    /// Names of the reference and the candidate engine.
    const ENGINES: [&'static str; 2];
    /// One arm's engine.
    type Engine: Sync;
    /// One thread's working set.
    type Thread: Send;
    /// One step of a thread's schedule.
    type Op: Sync;
    /// What one thread's [`Oracle::apply`] returns.
    type Report: Send;
    /// The interleaving-invariant observable surface, equal in all arms.
    type Outcome: PartialEq + Debug;
    /// An engine-dependent measurement, equal across one engine's arms.
    type Cost: PartialEq + Debug;

    /// Seeds every thread's op stream and fault plan.
    fn seed(&self) -> u64;
    /// One thread's op sequence, drawn from its seeded generator.
    fn gen_ops(&self, rng: &mut StdRng) -> Vec<Self::Op>;
    /// Arm the oracle's fault sites on one thread's seeded plan.
    fn faults(&self, plan: FaultPlan) -> FaultPlan;
    /// Build the arm's engine and run the identical single-threaded setup,
    /// returning one working set per thread. `locks` is the arm's recorder.
    fn setup(&self, arm: Arm, locks: &Recorder) -> (Self::Engine, Vec<Self::Thread>);
    /// Run one thread's ops.
    fn apply(&self, engine: &Self::Engine, thread: &mut Self::Thread, ops: &[Self::Op])
        -> Self::Report;
    /// Gather the outcome and cost once every thread has finished.
    fn collect(
        &self,
        engine: &Self::Engine,
        threads: &[Self::Thread],
        reports: Vec<Self::Report>,
        faults: Vec<ChaosReport>,
        ledger: &Ledger,
    ) -> (Self::Outcome, Self::Cost);
    /// The arm's ledger digest.
    fn digest(&self, ledger: &Ledger) -> u64 {
        ledger.digest()
    }
    /// The oracle's own checks on the serial arms, once their outcomes
    /// compared equal.
    fn check_serial(&self, reference: &Run<Self>, candidate: &Run<Self>);
}

/// One arm's result.
#[derive(Debug)]
pub struct Run<O: Oracle> {
    /// The arm that produced it.
    pub arm: Arm,
    /// The interleaving-invariant observable surface.
    pub outcome: O::Outcome,
    /// The engine-dependent measurement.
    pub cost: O::Cost,
    /// [`Oracle::digest`] of the arm's private ledger; comparable only
    /// between serial runs, since thread timing orders the events.
    pub ledger_digest: u64,
}

/// Thread `t`'s op sequence.
pub fn ops<O: Oracle>(oracle: &O, t: usize) -> Vec<O::Op> {
    let seed = oracle.seed() ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    oracle.gen_ops(&mut StdRng::seed_from_u64(seed))
}

/// Drive one arm through the oracle's schedule.
pub fn run<O: Oracle>(oracle: &O, arm: Arm) -> Run<O> {
    let ledger = Arc::new(Ledger::new());
    let _obs = w5_obs::scoped(Arc::clone(&ledger));
    let recorder = Arc::new(Recorder::new());
    let _locks = lockdep::scoped(Arc::clone(&recorder));

    let (engine, mut states) = oracle.setup(arm, &recorder);
    assert!(!states.is_empty(), "need at least one thread");
    let schedules: Vec<(Vec<O::Op>, Arc<Injector>)> = (0..states.len())
        .map(|t| {
            let seed = oracle.seed() ^ (t as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            (ops(oracle, t), Injector::new(oracle.faults(FaultPlan::new(seed))))
        })
        .collect();
    // A fresh injector scope per schedule, so a serial replay hands each
    // sequence the same fault stream its own thread saw.
    let replay = |state: &mut O::Thread, (ops, injector): &(Vec<O::Op>, Arc<Injector>)| {
        let _chaos = w5_chaos::with_injector(Arc::clone(injector));
        (oracle.apply(&engine, state, ops), injector.report())
    };
    let work = states.iter_mut().zip(&schedules);
    let concurrent = matches!(arm, Arm::ReferenceConcurrent | Arm::CandidateConcurrent);
    let results: Vec<(O::Report, ChaosReport)> = if concurrent {
        thread::scope(|s| {
            let handles: Vec<_> = work
                .map(|(state, schedule)| {
                    let (ledger, recorder, replay) =
                        (Arc::clone(&ledger), Arc::clone(&recorder), &replay);
                    s.spawn(move || {
                        let _obs = w5_obs::scoped(ledger);
                        let _locks = lockdep::scoped(recorder);
                        replay(state, schedule)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        })
    } else {
        work.map(|(state, schedule)| replay(state, schedule)).collect()
    };

    let (reports, faults) = results.into_iter().unzip();
    let (outcome, cost) = oracle.collect(&engine, &states, reports, faults, &ledger);
    recorder.note("harness", O::HARNESS);
    recorder.note("engine", O::ENGINES[usize::from(arm.candidate())]);
    recorder.note("threads", &states.len().to_string());
    crate::lockgate::enforce(&recorder, O::HARNESS);
    Run { arm, outcome, cost, ledger_digest: oracle.digest(&ledger) }
}

/// Replay determinism: a second run of `first`'s serial arm must emit a
/// bit-identical private event stream.
pub fn assert_replays<O: Oracle>(oracle: &O, first: &Run<O>) {
    assert_eq!(
        first.ledger_digest,
        run(oracle, first.arm).ledger_digest,
        "{}: {:?} ledger digest is not replay-deterministic",
        O::HARNESS,
        first.arm,
    );
}

/// The four-arm check: both serial arms agree and pass the oracle's own
/// serial checks, the candidate under threads matches the serial oracle
/// at the same cost, and the reference under threads matches its own
/// serial replay. Panics with a labeled diff on the first mismatch.
pub fn check<O: Oracle>(oracle: &O) {
    let ([reference, candidate], harness) = (O::ENGINES, O::HARNESS);
    let ref_serial = run(oracle, Arm::ReferenceSerial);
    let cand_serial = run(oracle, Arm::CandidateSerial);
    assert_eq!(
        ref_serial.outcome, cand_serial.outcome,
        "{harness}: serial replay diverged between the {reference} and {candidate} engines"
    );
    oracle.check_serial(&ref_serial, &cand_serial);
    let cand_conc = run(oracle, Arm::CandidateConcurrent);
    assert_eq!(
        ref_serial.outcome, cand_conc.outcome,
        "{harness}: {candidate} engine under threads diverged from the serial oracle"
    );
    assert_eq!(cand_serial.cost, cand_conc.cost, "{harness}: {candidate} cost depends on timing");
    let ref_conc = run(oracle, Arm::ReferenceConcurrent);
    assert_eq!(
        ref_serial.outcome, ref_conc.outcome,
        "{harness}: {reference} engine under threads diverged from its own serial replay \
         (schedule is not interleaving-invariant — harness bug)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use w5_chaos::Site;

    /// Four threads each sum their unfaulted ops; `Sum(true)` breaks the
    /// candidate engine by adding one per op.
    struct Sum(bool);

    impl Oracle for Sum {
        const HARNESS: &'static str = "diff-unit";
        const ENGINES: [&'static str; 2] = ["reference", "candidate"];
        type Engine = u64;
        type Thread = u64;
        type Op = u8;
        type Report = ();
        type Outcome = (Vec<u64>, Vec<ChaosReport>);
        type Cost = ();

        fn seed(&self) -> u64 {
            2007
        }
        fn gen_ops(&self, rng: &mut StdRng) -> Vec<u8> {
            (0..40).map(|_| rng.gen_range(0..256u32) as u8).collect()
        }
        fn faults(&self, plan: FaultPlan) -> FaultPlan {
            plan.with(Site::SqlQuery, 0.2)
        }
        fn setup(&self, arm: Arm, _locks: &Recorder) -> (u64, Vec<u64>) {
            (u64::from(self.0 && arm.candidate()), vec![0; 4])
        }
        fn apply(&self, bias: &u64, sum: &mut u64, ops: &[u8]) {
            for &op in ops.iter().filter(|_| w5_chaos::inject(Site::SqlQuery).is_none()) {
                *sum += u64::from(op) + bias;
            }
        }
        fn collect(
            &self,
            _: &u64,
            sums: &[u64],
            _: Vec<()>,
            faults: Vec<ChaosReport>,
            _: &Ledger,
        ) -> (Self::Outcome, ()) {
            ((sums.to_vec(), faults), ())
        }
        fn check_serial(&self, _: &Run<Self>, _: &Run<Self>) {}
    }

    #[test]
    fn schedules_follow_the_pinned_seed_derivation() {
        for t in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(2007 ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            assert_eq!(ops(&Sum(false), t as usize), Sum(false).gen_ops(&mut rng));
        }
        for (t, faults) in run(&Sum(false), Arm::CandidateConcurrent).outcome.1.iter().enumerate() {
            let plan = FaultPlan::new(2007 ^ (t as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
            let injector = Injector::new(Sum(false).faults(plan));
            let _scope = w5_chaos::with_injector(Arc::clone(&injector));
            for _ in 0..40 {
                let _ = w5_chaos::inject(Site::SqlQuery);
            }
            assert_eq!(&injector.report(), faults, "thread {t}'s fault stream");
            assert!(faults.total_injected() > 0, "thread {t}'s storm must fire");
        }
        check(&Sum(false));
    }

    #[test]
    #[should_panic(expected = "serial replay diverged between the reference and candidate")]
    fn divergent_candidate_fails_the_check() {
        check(&Sum(true));
    }
}
