//! Differential request-path oracle for the staged net pipeline.
//!
//! The staged pipeline ([`w5_net::Pipeline`]) claims to preserve, response
//! by response, the behavior of the seed's thread-per-connection dispatch
//! (kept verbatim as [`w5_net::InlineServe`] behind the [`w5_net::Serve`]
//! trait) — while adding bounded per-class queues, deficit-round-robin
//! fairness and admission control in front of the handler. [`NetSpec`] is
//! a [`crate::diff::Oracle`]: the four-arm driver replays one seeded
//! request schedule through both engines, under real OS threads and
//! serially, and compares everything an HTTP client could see: status
//! codes, bodies, and the platform's retained fault log.
//!
//! What is deliberately **excluded** from the comparison is the queue
//! metadata the pipeline emits into the obs ledger (`QueueAdmit`,
//! `QueueShed`, `WorkerOccupancy`): the reference engine has no queues,
//! so those events exist on one side by design. Serial ledger digests are
//! therefore compared through [`w5_obs::Ledger::digest_where`] with the
//! queue events filtered out — queue telemetry aside, both engines must
//! drive the platform through a bit-identical event stream.
//!
//! # Why the schedules are interleaving-invariant
//!
//! * **Ownership** — client `c` targets only its own app `nd{c}/app{c}`
//!   and that app touches only its own table `ndt{c}`, so every response
//!   is a pure function of one client's deterministic request sequence.
//! * **Per-client chaos follows the job** — each client's injector arms
//!   `Site::SqlQuery`. The pipeline captures the submitter's ambient
//!   injector per job and re-installs it on the worker, so the abort
//!   stream a client's handlers experience depends only on
//!   `(seed, client)`, whichever thread runs them.
//! * **Per-app admission** — the oracle arms classify requests by target
//!   app, so DRR fairness and per-class queues are really exercised, and
//!   a class is a pure function of the request.
//!
//! A separate storm entry point ([`run_pipeline_storm`]) arms the
//! pipeline's *own* fault sites (`net.queue_full`, `net.slow_worker`)
//! via [`w5_net::PipelineConfig::chaos`] and asserts graceful
//! degradation: every shed is a well-formed 503 with a `Retry-After`
//! header and a labeled fault-report body — never a hang, never a
//! malformed response.

use crate::diff::{self, Arm, Oracle, Run};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use w5_chaos::{ChaosReport, FaultPlan, Injector, Site};
use w5_difc::LabelPair;
use w5_net::{
    Admission, Handler, InlineServe, Pipeline, PipelineConfig, PipelineSnapshot, PrincipalClass,
    Request, Response, Serve,
};
use w5_obs::{fnv, EventKind, Ledger};
use w5_platform::{
    ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, Gateway, Platform, PlatformApi,
    W5App,
};
use w5_store::{QueryCost, QueryMode, Subject};
use w5_sync::lockdep::Recorder;

/// Insert/point ids are drawn from this domain, small enough that gets,
/// deletes and re-inserts regularly collide with live rows.
const ID_DOMAIN: i64 = 24;

/// One differential run: a schedule seed, a client count, a length, and a
/// storm rate for the handler-stage `SqlQuery` fault site.
#[derive(Clone, Copy, Debug)]
pub struct NetSpec {
    /// Seeds every client's request stream and fault plan.
    pub seed: u64,
    /// Concurrent clients; each owns one app and one table.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Injection probability for `Site::SqlQuery` (0.0 = calm).
    pub fault_rate: f64,
}

impl NetSpec {
    /// A moderate default: 4 clients, 40 requests each, a light storm.
    pub fn new(seed: u64) -> NetSpec {
        NetSpec { seed, clients: 4, requests_per_client: 40, fault_rate: 0.05 }
    }
}

/// The observable outcome of one run. Two arms replaying the same
/// [`NetSpec`] must compare equal, whatever the engine or interleaving.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct NetOutcome {
    /// Per-client FNV-1a digests folded over every response (status and
    /// body — never queue position or timing).
    pub digests: Vec<u64>,
    /// Status-code tallies summed over all clients (each client's tally
    /// is deterministic, so the sum is interleaving-invariant).
    pub statuses: BTreeMap<u16, u64>,
    /// The platform's retained fault log, rendered and sorted (client
    /// completion order must not leak into the comparison).
    pub faults: Vec<String>,
}

/// One arm's result. Its ledger digest is `Ledger::digest_where` over
/// everything except `QueueAdmit` / `QueueShed` / `WorkerOccupancy` —
/// comparable across engines for serial arms, and across repeated serial
/// runs of one engine.
pub type NetRun = Run<NetSpec>;

/// One request of a client's schedule.
#[derive(Clone, Debug)]
pub enum Op {
    /// `PUT`-shaped insert into the client's own table.
    Put { id: i64, v: i64 },
    /// Point lookup.
    Get { id: i64 },
    /// Full-table aggregate.
    Sum,
    /// Point delete.
    Del { id: i64 },
    /// Handler panic — the pipeline worker and the platform must both
    /// survive and answer 500.
    Boom,
    /// A static provider route (`GET /registry`).
    Registry,
    /// A route that matches nothing (404 path).
    Missing,
}

/// The per-client harness application: four SQL actions on the client's
/// own table plus a deliberate panic. Every response body is a pure
/// function of the table state the client's own requests built.
struct NdApp {
    table: String,
}

impl W5App for NdApp {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let t = &self.table;
        let param = |k: &str| -> i64 {
            req.params.get(k).and_then(|v| v.parse().ok()).unwrap_or(0)
        };
        let mut query = |sql: String| api.query(&sql, CreateLabels::Derived);
        let body = match req.action.as_str() {
            "put" => {
                let (id, v) = (param("id"), param("v"));
                format!("put {}", query(format!("INSERT INTO {t} VALUES ({id}, {v})"))?.affected)
            }
            "get" => {
                let id = param("id");
                let out = query(format!("SELECT v FROM {t} WHERE id = {id} ORDER BY v"))?;
                let vals: Vec<String> =
                    out.rows.iter().map(|r| format!("{:?}", r.values)).collect();
                vals.join(";")
            }
            "sum" => {
                let out = query(format!("SELECT COUNT(*), SUM(v) FROM {t}"))?;
                format!("{:?}", out.rows[0].values)
            }
            "del" => {
                let out = query(format!("DELETE FROM {t} WHERE id = {}", param("id")))?;
                format!("del {}", out.affected)
            }
            "boom" => panic!("netdiff boom"),
            other => format!("noop {other}"),
        };
        Ok(AppResponse::text(body))
    }

    fn source_lines(&self) -> usize {
        40
    }
}

/// One table, one manifest and one installed app per client, created in
/// client order so tag and version allocation aligns across arms.
fn install(platform: &Platform, clients: usize) {
    let trusted = Subject::anonymous();
    for c in 0..clients {
        platform
            .db
            .execute(
                &trusted,
                QueryMode::Filtered,
                QueryCost::unlimited(),
                &LabelPair::public(),
                &format!("CREATE TABLE ndt{c} (id INTEGER, v INTEGER)"),
            )
            .expect("setup: create table");
        platform
            .apps
            .publish(AppManifest {
                name: format!("app{c}"),
                developer: format!("nd{c}"),
                version: 1,
                description: "netdiff harness app".into(),
                module_slots: vec![],
                imports: vec![],
                forked_from: None,
                source: None,
            })
            .expect("setup: publish");
        platform.install_app(&format!("nd{c}/app{c}"), Arc::new(NdApp { table: format!("ndt{c}") }));
    }
}

/// Requests to `/app/:dev/:app/…` queue under that app's class,
/// everything else is anonymous. Keeps the DRR scheduler honest.
struct AppAdmission;

impl Admission for AppAdmission {
    fn classify(&self, request: &Request, _peer: SocketAddr) -> PrincipalClass {
        let mut segs = request.path.split('/').filter(|s| !s.is_empty());
        if segs.next() == Some("app") {
            if let (Some(dev), Some(app)) = (segs.next(), segs.next()) {
                return PrincipalClass::App(format!("{dev}/{app}"));
            }
        }
        PrincipalClass::Anonymous
    }
}

/// Build the HTTP request for one op. `Request::get` does not split a
/// query string off the path, so `query_raw` is set explicitly.
fn build_request(c: usize, op: &Op) -> Request {
    let (path, query) = match op {
        Op::Put { id, v } => (format!("/app/nd{c}/app{c}/put"), format!("id={id}&v={v}")),
        Op::Get { id } => (format!("/app/nd{c}/app{c}/get"), format!("id={id}")),
        Op::Sum => (format!("/app/nd{c}/app{c}/sum"), String::new()),
        Op::Del { id } => (format!("/app/nd{c}/app{c}/del"), format!("id={id}")),
        Op::Boom => (format!("/app/nd{c}/app{c}/boom"), String::new()),
        Op::Registry => ("/registry".to_string(), String::new()),
        Op::Missing => ("/definitely/nosuch".to_string(), String::new()),
    };
    let mut req = Request::get(&path);
    req.query_raw = query;
    req
}

fn peer(c: usize) -> SocketAddr {
    format!("127.0.0.1:{}", 40_000 + c).parse().expect("static addr")
}

/// One pass over a client's schedule: a digest folded over every response
/// (status and body, nothing that could encode queue position or timing)
/// plus a human-readable status tally.
fn drive_client(engine: &dyn Serve, c: usize, ops: &[Op]) -> (u64, BTreeMap<u16, u64>) {
    let mut h = fnv::OFFSET;
    let mut counts = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        let resp = engine.serve(build_request(c, op), peer(c));
        fnv::fold(&mut h, &(i as u64).to_le_bytes());
        fnv::fold(&mut h, &resp.status.0.to_le_bytes());
        fnv::fold(&mut h, &resp.body);
        fnv::fold(&mut h, b"|");
        *counts.entry(resp.status.0).or_insert(0) += 1;
    }
    (h, counts)
}

/// One arm's engine: the platform behind a gateway, served inline
/// (reference) or through a staged pipeline (candidate).
pub struct NetEngine {
    platform: Arc<Platform>,
    pipeline: Option<Arc<Pipeline>>,
    serve: Arc<dyn Serve>,
}

impl Oracle for NetSpec {
    const HARNESS: &'static str = "netdiff";
    const ENGINES: [&'static str; 2] = ["reference", "pipelined"];
    type Engine = NetEngine;
    type Thread = usize;
    type Op = Op;
    /// Per-client response digest and status tally.
    type Report = (u64, BTreeMap<u16, u64>);
    type Outcome = NetOutcome;
    type Cost = ();

    fn seed(&self) -> u64 {
        self.seed
    }

    fn gen_ops(&self, rng: &mut StdRng) -> Vec<Op> {
        (0..self.requests_per_client)
            .map(|_| match rng.gen_range(0..100u32) {
                0..=29 => Op::Put { id: rng.gen_range(0..ID_DOMAIN), v: rng.gen_range(0..1000) },
                30..=54 => Op::Get { id: rng.gen_range(0..ID_DOMAIN) },
                55..=66 => Op::Sum,
                67..=81 => Op::Del { id: rng.gen_range(0..ID_DOMAIN) },
                82..=87 => Op::Boom,
                88..=93 => Op::Registry,
                _ => Op::Missing,
            })
            .collect()
    }

    fn faults(&self, plan: FaultPlan) -> FaultPlan {
        plan.with(Site::SqlQuery, self.fault_rate)
    }

    /// Runs inside the arm's scoped ledger and recorder, so pipeline
    /// workers (spawned here) record handler activity into this arm. Each
    /// thread's working set is its client index.
    fn setup(&self, arm: Arm, _locks: &Recorder) -> (NetEngine, Vec<usize>) {
        let platform = Platform::new_default("netdiff");
        install(&platform, self.clients);
        let gateway: Arc<dyn Handler> = Arc::new(Gateway::new(Arc::clone(&platform)));
        let pipeline = arm.candidate().then(|| {
            Pipeline::start(
                PipelineConfig { workers: 4, shards: 2, chaos: None, ..PipelineConfig::default() },
                Arc::clone(&gateway),
                Arc::new(AppAdmission),
            )
        });
        let serve: Arc<dyn Serve> = match &pipeline {
            Some(p) => Arc::clone(p) as Arc<dyn Serve>,
            None => Arc::new(InlineServe::new(gateway)),
        };
        (NetEngine { platform, pipeline, serve }, (0..self.clients).collect())
    }

    fn apply(&self, engine: &NetEngine, c: &mut usize, ops: &[Op]) -> (u64, BTreeMap<u16, u64>) {
        drive_client(engine.serve.as_ref(), *c, ops)
    }

    fn collect(
        &self,
        engine: &NetEngine,
        _clients: &[usize],
        reports: Vec<(u64, BTreeMap<u16, u64>)>,
        _faults: Vec<ChaosReport>,
        _ledger: &Ledger,
    ) -> (NetOutcome, ()) {
        if let Some(p) = &engine.pipeline {
            p.stop();
            let snap = p.stats.snapshot();
            assert_eq!(snap.shed, 0, "oracle arms must never shed (queues sized for the load)");
        }
        let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
        for (_, counts) in &reports {
            for (status, n) in counts {
                *statuses.entry(*status).or_insert(0) += n;
            }
        }
        let digests = reports.into_iter().map(|(d, _)| d).collect();
        let mut faults: Vec<String> =
            engine.platform.fault_reports().iter().map(|f| f.to_log_line()).collect();
        faults.sort();
        (NetOutcome { digests, statuses, faults }, ())
    }

    /// Excludes the events the pipeline emits about its own queues: the
    /// reference engine has no queues to report on.
    fn digest(&self, ledger: &Ledger) -> u64 {
        ledger.digest_where(|kind| {
            !matches!(
                kind,
                EventKind::QueueAdmit { .. }
                    | EventKind::QueueShed { .. }
                    | EventKind::WorkerOccupancy { .. }
            )
        })
    }

    /// Queue metadata aside, the pipeline must drive the platform through
    /// the same event stream the reference does, and each engine's serial
    /// stream must replay bit for bit.
    fn check_serial(&self, reference: &NetRun, pipelined: &NetRun) {
        assert_eq!(
            reference.ledger_digest, pipelined.ledger_digest,
            "serial ledger streams diverged between engines (beyond queue metadata)"
        );
        diff::assert_replays(self, reference);
        diff::assert_replays(self, pipelined);
    }
}

/// Storm verdict: the pipeline's own fault sites armed, overload forced,
/// and every degraded answer still well-formed.
#[derive(Clone, Debug)]
pub struct StormReport {
    /// Final pipeline counters.
    pub stats: PipelineSnapshot,
    /// Faults the injector actually fired.
    pub injected: u64,
    /// Responses observed, by status.
    pub statuses: BTreeMap<u16, u64>,
}

/// Drive the pipelined engine with `net.queue_full` / `net.slow_worker`
/// armed through [`PipelineConfig::chaos`] and a deliberately tiny queue,
/// asserting graceful degradation: every response carries a known status,
/// and every 503 carries a positive `Retry-After` and a labeled
/// fault-report body. Panics on the first malformed answer.
pub fn run_pipeline_storm(spec: &NetSpec) -> StormReport {
    let injector = Injector::new(
        FaultPlan::new(spec.seed).with(Site::NetQueueFull, 0.15).with(Site::NetSlowWorker, 0.10),
    );
    let platform = Platform::new_default("netdiff-storm");
    install(&platform, spec.clients);
    let pipeline = Pipeline::start(
        PipelineConfig {
            workers: 2,
            shards: 1,
            queue_depth: 2,
            chaos: Some(Arc::clone(&injector)),
            ..PipelineConfig::default()
        },
        Arc::new(Gateway::new(Arc::clone(&platform))),
        Arc::new(AppAdmission),
    );
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    thread::scope(|s| {
        let clients: Vec<_> = (0..spec.clients)
            .map(|c| {
                let (pipeline, ops) = (&pipeline, diff::ops(spec, c));
                s.spawn(move || {
                    let serve = |op| storm_status(pipeline.serve(build_request(c, op), peer(c)));
                    ops.iter().map(serve).collect::<Vec<u16>>()
                })
            })
            .collect();
        for status in clients.into_iter().flat_map(|h| h.join().expect("storm client panicked")) {
            *statuses.entry(status).or_insert(0) += 1;
        }
    });
    pipeline.stop();
    StormReport {
        stats: pipeline.stats.snapshot(),
        injected: injector.report().total_injected(),
        statuses,
    }
}

/// One storm response's status, once it is known to have degraded
/// gracefully.
fn storm_status(resp: Response) -> u16 {
    let status = resp.status.0;
    assert!(
        matches!(status, 200 | 400 | 404 | 429 | 500 | 503),
        "storm produced unexpected status {status}"
    );
    if status == 503 {
        let retry: u64 = resp
            .header("retry-after")
            .expect("503 must carry Retry-After")
            .parse()
            .expect("Retry-After must be integral seconds");
        assert!(retry >= 1, "Retry-After must be positive");
        let body = String::from_utf8_lossy(&resp.body);
        assert!(
            body.contains("fault app=net/pipeline"),
            "503 body must be a labeled fault report, got: {body}"
        );
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{check, run};

    #[test]
    fn four_arms_agree_on_default_spec() {
        check(&NetSpec {
            seed: 2007,
            clients: 4,
            requests_per_client: 30,
            fault_rate: 0.05,
        });
    }

    #[test]
    fn calm_run_agrees_without_faults() {
        let spec = NetSpec { seed: 11, clients: 2, requests_per_client: 25, fault_rate: 0.0 };
        check(&spec);
    }

    #[test]
    fn workload_actually_exercises_the_stack() {
        let spec = NetSpec::new(20070824);
        let pipelined = run(&spec, Arm::CandidateSerial);
        assert!(pipelined.outcome.statuses.contains_key(&200), "some requests must succeed");
        assert!(pipelined.outcome.statuses.contains_key(&404), "missing route must 404");
        assert!(pipelined.outcome.statuses.contains_key(&500), "boom must crash to 500");
        assert!(
            pipelined.outcome.faults.iter().any(|f| f.contains("kind=crash")),
            "crash faults must be retained for developers"
        );
        assert!(
            pipelined.outcome.faults.iter().any(|f| f.contains("kind=infrastructure")),
            "sql chaos must surface as infrastructure faults"
        );
    }

    #[test]
    fn storm_degrades_gracefully() {
        let report = run_pipeline_storm(&NetSpec {
            seed: 4242,
            clients: 4,
            requests_per_client: 40,
            fault_rate: 0.0,
        });
        assert!(report.injected > 0, "storm must fire");
        assert!(report.stats.shed > 0, "forced queue-full faults must shed");
        assert!(report.statuses.contains_key(&503), "sheds must surface as 503s");
        assert!(report.statuses.contains_key(&200), "healthy requests must still succeed");
    }
}
