//! The traced run: per-layer numbers by layer peeling.
//!
//! The same seeded stream is replayed against one traced world, entering
//! the stack at each public boundary in turn — socket, `Serve::serve` on
//! the server's pipeline, `Handler::handle` on the gateway,
//! `Platform::invoke` — and a layer's self time is the difference between
//! the median at its boundary and the median one boundary further in.
//! Kernel, store and HTTP codec costs are direct calls into each module's
//! public functions on the stream's own inputs. All timing happens in this
//! file and in a wrapper app installed over each app key of the traced
//! world; nothing is added inside the program.

use crate::client::drive;
use crate::e2e::WARM;
use crate::report::{Check, Metrics};
use crate::stats::{median, p50_us, p99_us, percentile};
use crate::world::{app_request, ConnMode, Engine, Stack, Stream, Workload};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use w5_difc::{CapSet, Capability, LabelPair};
use w5_net::{Handler, Request, Serve, ServerConfig};
use w5_obs::{Layer, ObsLabel};
use w5_platform::{
    sql_escape, Account, ApiError, AppRequest, AppResponse, Platform, PlatformApi, W5App,
};
use w5_sim::workload::GenRequest;
use w5_store::{QueryMode, Subject};

/// Each pass of the traced run times this share of the untraced run's
/// requests.
const TRACE_SHARE: f64 = 0.25;

/// Boundary passes that replay the stream, writes included, against the
/// traced world: three socket passes, pipeline, gateway and invoke.
const BOUNDARY_PASSES: usize = 6;

/// Times `W5App::handle` around the installed app.
struct TimedApp {
    inner: Arc<dyn W5App>,
    ns: Arc<Mutex<Vec<u64>>>,
}

impl W5App for TimedApp {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let t = Instant::now();
        let out = self.inner.handle(req, api);
        let ns = t.elapsed().as_nanos() as u64;
        self.ns.lock().expect("app timing lock").push(ns);
        out
    }

    fn source_lines(&self) -> usize {
        self.inner.source_lines()
    }
}

/// A `Write` sink that counts `write` calls: one per syscall on an
/// unbuffered socket.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    calls: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One in-process pass: per-request latency of the timed positions and
/// the status of every position.
struct Pass {
    ns: Vec<u64>,
    statuses: Vec<Option<u16>>,
}

/// Call `call` on each position's prepared input from one thread, timing
/// only the call. Positions before `WARM` are untimed.
fn pass<T>(
    n: usize,
    mut prepare: impl FnMut(usize) -> T,
    mut call: impl FnMut(usize, T) -> u16,
) -> Pass {
    let mut p = Pass {
        ns: Vec::with_capacity(n),
        statuses: Vec::with_capacity(n),
    };
    for i in 0..n {
        let input = prepare(i);
        let t = Instant::now();
        let status = call(i, input);
        let ns = t.elapsed().as_nanos() as u64;
        if i >= WARM {
            p.ns.push(ns);
        }
        p.statuses.push(Some(status));
    }
    p
}

fn timed_part(ns: Vec<(usize, u64)>) -> Vec<u64> {
    ns.into_iter()
        .filter(|&(i, _)| i >= WARM)
        .map(|(_, ns)| ns)
        .collect()
}

pub fn run(w: &Workload, seed: u64, seconds: u64) -> (Metrics, Check) {
    let len = WARM + (seconds as f64 * w.nominal_rps * TRACE_SHARE).ceil() as usize;
    let stream = Stream::new(w, seed, len);
    let peer: SocketAddr = "127.0.0.1:1".parse().expect("literal address");
    let mut check = Check::default();
    let mut m = Metrics::default();

    // Untraced reference: the workload's own socket mode on a plain stack.
    let untraced_p50 = {
        let plain = Stack::start(w, Engine::Default, None);
        let rows = plain.world.platform.db.total_rows();
        let d = drive(
            plain.addr(),
            &plain.wire_requests(&stream),
            w.conn,
            WARM,
            1,
        );
        check.statuses(d.outcomes.iter().map(|o| o.status), &stream.expected);
        check.equal(
            "untraced store",
            plain.world.platform.db.total_rows(),
            rows + stream.rows_added,
        );
        p50_us(&timed_ns(&d.outcomes))
    };

    let app_ns = Arc::new(Mutex::new(Vec::new()));
    let wrap = |inner: Arc<dyn W5App>| -> Arc<dyn W5App> {
        Arc::new(TimedApp {
            inner,
            ns: Arc::clone(&app_ns),
        })
    };
    let stack = Stack::start(w, Engine::Observed, Some(&wrap));
    let world = &stack.world;
    let platform: &Platform = &world.platform;
    let rows_start = platform.db.total_rows();
    let requests = stack.wire_requests(&stream);

    // Socket passes. The first, in the workload's own client mode, also
    // gives the ledger's per-request span and event counts.
    let ledger = w5_obs::global();
    let clearance = ObsLabel::from_tags(1..=platform.registry.tag_count() as u64);
    let (spans0, events0) = (ledger.spans_recorded(), layer_events(&clearance));
    let own = drive(stack.addr(), &requests, w.conn, WARM, 1);
    let (spans1, events1) = (ledger.spans_recorded(), layer_events(&clearance));
    let keep_alive = drive(stack.addr(), &requests, ConnMode::KeepAlive, WARM, 1);
    let per_request = drive(stack.addr(), &requests, ConnMode::PerRequest, WARM, 1);
    for d in [&own, &keep_alive, &per_request] {
        check.statuses(d.outcomes.iter().map(|o| o.status), &stream.expected);
    }

    // In-process passes, one boundary further in each time.
    let pipeline = stack
        .pipeline
        .clone()
        .expect("observed stack keeps its pipeline");
    let via_pipeline = pass(
        len,
        |i| requests[i].clone(),
        |_, r| pipeline.serve(r, peer).status.0,
    );
    let mut responses = Vec::with_capacity(len);
    let via_gateway = pass(
        len,
        |i| requests[i].clone(),
        |_, r| {
            let resp = stack.gateway.handle(r, peer);
            let status = resp.status.0;
            responses.push(resp);
            status
        },
    );
    app_ns.lock().expect("app timing lock").clear();
    let via_invoke = pass(
        len,
        |i| app_request(world, &stream.requests[i]),
        |i, req| {
            let g = &stream.requests[i];
            platform
                .invoke(Some(&world.accounts[g.viewer]), &g.app, req)
                .status
        },
    );
    // One app call per invoke, so the last `len - WARM` samples pair with
    // the timed invokes.
    let app = {
        let mut all = std::mem::take(&mut *app_ns.lock().expect("app timing lock"));
        all.split_off(all.len().saturating_sub(len - WARM))
    };
    for p in [&via_pipeline, &via_gateway, &via_invoke] {
        check.statuses(p.statuses.iter().copied(), &stream.expected);
    }

    m.put(
        "net.wire_us",
        self_us(&timed_ns(&keep_alive.outcomes), &via_pipeline.ns),
        "us",
    );
    m.put(
        "net.connect_us",
        self_us(
            &timed_ns(&per_request.outcomes),
            &timed_ns(&keep_alive.outcomes),
        ),
        "us",
    );
    m.put(
        "net.reconnects",
        (own.reconnects + keep_alive.reconnects) as f64,
        "count",
    );
    codec(&mut m, &mut check, &requests, &responses);

    m.put(
        "pipeline.handoff_us",
        self_us(&via_pipeline.ns, &via_gateway.ns),
        "us",
    );
    let snap = pipeline.stats.snapshot();
    m.put("pipeline.admitted", snap.admitted as f64, "count");
    m.put("pipeline.shed", snap.shed as f64, "count");
    m.put("pipeline.served", snap.served as f64, "count");

    m.put(
        "gateway.self_us",
        self_us(&via_gateway.ns, &via_invoke.ns),
        "us",
    );
    m.put("platform.invoke_us", p50_us(&via_invoke.ns), "us");
    m.put("platform.invoke_p99_us", p99_us(&via_invoke.ns), "us");
    m.put("app.handle_us", p50_us(&app), "us");
    m.put("app.handle_p99_us", p99_us(&app), "us");
    m.put("platform.self_us", self_us(&via_invoke.ns, &app), "us");

    kernel(&mut m, world, &stream.requests);
    let inserted = store(&mut m, &mut check, world, &stream);
    let stats = platform.stats_view();
    m.put(
        "platform.exports_blocked_ratio",
        stats.exports_blocked as f64 / stats.invocations.max(1) as f64,
        "ratio",
    );
    m.put(
        "kernel.live_processes_after",
        platform.kernel.live_processes() as f64,
        "count",
    );
    let rows_end = platform.db.total_rows();
    check.equal(
        "traced store",
        rows_end,
        rows_start + BOUNDARY_PASSES * stream.rows_added + inserted,
    );
    check.equal("store pass inserts", inserted, stream.rows_added);
    m.put("store.rows_end", rows_end as f64, "count");

    let n = len as f64;
    m.put(
        "obs.spans_per_request",
        (spans1 - spans0) as f64 / n,
        "count",
    );
    for (layer, (e0, e1)) in Layer::ALL.iter().zip(events0.iter().zip(&events1)) {
        m.put(
            format!("obs.events_per_request.{}", layer.name()),
            (e1 - e0) as f64 / n,
            "count",
        );
    }
    m.put(
        "trace_overhead",
        p50_us(&timed_ns(&own.outcomes)) / untraced_p50,
        "ratio",
    );
    println!(
        "trace: stream={len} warmup={WARM} writes_per_pass={} reconnects={}+{} rows_start={rows_start} rows_end={rows_end}",
        stream.rows_added, own.reconnects, keep_alive.reconnects
    );
    (m, check)
}

fn timed_ns(outcomes: &[crate::client::Outcome]) -> Vec<u64> {
    outcomes[WARM..].iter().map(|o| o.ns).collect()
}

/// A layer's self time: the median, over the stream's requests, of the
/// time entering at the layer's boundary minus the time entering one
/// boundary further in. Both passes replay the same requests in the same
/// order, so position `i` is the same request in each.
fn self_us(outer: &[u64], inner: &[u64]) -> f64 {
    assert_eq!(outer.len(), inner.len(), "passes over the same stream");
    let diffs: Vec<f64> = outer
        .iter()
        .zip(inner)
        .map(|(&o, &i)| (o as f64 - i as f64) / 1e3)
        .collect();
    median(&diffs)
}

/// Per-layer event totals from the full-clearance ledger view.
fn layer_events(clearance: &ObsLabel) -> Vec<u64> {
    let view = w5_obs::global().view(clearance);
    if view.redacted {
        eprintln!(
            "warning: the full-clearance ledger view is redacted; event counts are quantized"
        );
    }
    Layer::ALL
        .iter()
        .map(|l| view.aggregate.events.get(l.name()).copied().unwrap_or(0))
        .collect()
}

/// HTTP codec costs on the stream's own requests and the gateway's
/// responses to them.
fn codec(m: &mut Metrics, check: &mut Check, requests: &[Request], responses: &[w5_net::Response]) {
    let limits = ServerConfig::default().limits;
    let (mut parse_ns, mut write_ns) = (Vec::new(), Vec::new());
    let (mut req_calls, mut resp_calls, mut resp_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut buf = Vec::with_capacity(64 * 1024);
    for (i, (req, resp)) in requests.iter().zip(responses).enumerate() {
        let mut wire = CountingWriter::default();
        req.write_to(&mut wire).expect("write to memory");
        let t = Instant::now();
        let parsed = Request::read_from(&mut &wire.bytes[..], &limits);
        let ns = t.elapsed().as_nanos() as u64;
        if !parsed.is_ok_and(|p| p.path == req.path && p.query_raw == req.query_raw) {
            check.error(format!("request {i} does not re-parse to itself"));
        }
        let mut out = CountingWriter::default();
        resp.write_to(&mut out, true).expect("write to memory");
        buf.clear();
        let t = Instant::now();
        resp.write_to(&mut buf, true).expect("write to memory");
        let wns = t.elapsed().as_nanos() as u64;
        if i >= WARM {
            parse_ns.push(ns);
            write_ns.push(wns);
            req_calls.push(wire.calls);
            resp_calls.push(out.calls);
            resp_bytes.push(out.bytes.len() as u64);
        }
    }
    m.put("net.request_parse_us", p50_us(&parse_ns), "us");
    m.put("net.response_write_us", p50_us(&write_ns), "us");
    m.put(
        "net.request_write_calls",
        percentile(&req_calls, 50.0) as f64,
        "count",
    );
    m.put(
        "net.response_write_calls",
        percentile(&resp_calls, 50.0) as f64,
        "count",
    );
    m.put(
        "net.response_bytes",
        percentile(&resp_bytes, 50.0) as f64,
        "bytes",
    );
}

/// The capability grant `Platform::invoke` gives an app instance.
fn launch_grant(platform: &Platform, viewer: &Account, app: &str) -> CapSet {
    let policy = platform.policies.get(viewer.id);
    let mut grant = CapSet::empty();
    if policy.write_delegations.contains(app) {
        grant.insert(Capability::plus(viewer.write_tag));
    }
    if policy.read_delegations.contains(app) {
        if let Some(r) = viewer.read_tag {
            grant.insert(Capability::plus(r));
        }
    }
    grant
}

/// `create_process` + `exit` + `reap` with the launcher's grant shape.
fn kernel(m: &mut Metrics, world: &w5_sim::World, requests: &[GenRequest]) {
    let platform = &world.platform;
    let limits = platform.config.app_limits;
    let mut ns = Vec::new();
    for (i, g) in requests.iter().enumerate() {
        let name = format!("app:{}", g.app);
        let grant = launch_grant(platform, &world.accounts[g.viewer], &g.app);
        let t = Instant::now();
        let pid = platform
            .kernel
            .create_process(&name, LabelPair::public(), grant, limits);
        let _ = platform.kernel.exit(pid);
        let _ = platform.kernel.reap(pid);
        ns.push((i, t.elapsed().as_nanos() as u64));
    }
    m.put("kernel.spawn_exit_reap_us", p50_us(&timed_part(ns)), "us");
}

/// The SQL an app issues for `g` (the first statement of the action), and
/// whether it is a write.
fn app_sql(g: &GenRequest, viewer: &Account) -> Option<(String, bool)> {
    let param = |k: &str| {
        g.params
            .iter()
            .find(|(pk, _)| pk == k)
            .map(|(_, v)| v.as_str())
    };
    match (g.app.as_str(), g.action) {
        ("devB/blog", "list") => Some((
            format!(
                "SELECT title FROM blog_posts WHERE owner = '{}' ORDER BY title",
                sql_escape(param("user").unwrap_or(&viewer.username))
            ),
            false,
        )),
        ("devB/blog", "post") => Some((
            format!(
                "INSERT INTO blog_posts (owner, title, body) VALUES ('{}', '{}', '{}')",
                sql_escape(&viewer.username),
                sql_escape(param("title").unwrap_or("untitled")),
                sql_escape(param("body").unwrap_or(""))
            ),
            true,
        )),
        ("devC/social", "feed") => Some((
            format!(
                "SELECT friend FROM w5_friends WHERE owner = '{}' ORDER BY friend",
                sql_escape(&viewer.username)
            ),
            false,
        )),
        _ => None,
    }
}

/// Store costs under the viewer-app subject: SQL parse and execute for
/// blog and feed actions, labeled-file reads for photo views. Returns the
/// rows the pass inserted.
fn store(m: &mut Metrics, check: &mut Check, world: &w5_sim::World, stream: &Stream) -> usize {
    let platform = &world.platform;
    let kernel = &platform.kernel;
    let (mut parse_ns, mut exec_ns, mut fs_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut scanned, mut returned, mut inserted) = (0u64, 0u64, 0usize);
    for (i, g) in stream.requests.iter().enumerate() {
        let viewer = &world.accounts[g.viewer];
        let pid = kernel.create_process(
            &format!("app:{}", g.app),
            LabelPair::public(),
            launch_grant(platform, viewer, &g.app),
            platform.config.app_limits,
        );
        let subject = Subject::new(
            kernel.labels(pid).expect("fresh process has labels"),
            kernel
                .effective_caps(pid)
                .expect("fresh process has capabilities"),
        );
        let _ = kernel.exit(pid);
        let _ = kernel.reap(pid);
        let ok_expected = stream.expected[i] == 200;

        if (g.app.as_str(), g.action) == ("devA/photos", "view") {
            let param = |k: &str| {
                g.params
                    .iter()
                    .find(|(pk, _)| pk == k)
                    .map(|(_, v)| v.clone())
            };
            let path = format!(
                "/photos/{}/{}",
                param("user").unwrap_or_default(),
                param("name").unwrap_or_default()
            );
            let t = Instant::now();
            let read = platform.fs.read(&subject, &path);
            fs_ns.push((i, t.elapsed().as_nanos() as u64));
            if ok_expected && read.is_err() {
                check.error(format!("photo read failed for request {i}"));
            }
            continue;
        }
        let Some((sql, write)) = app_sql(g, viewer) else {
            continue;
        };
        let insert_labels = if write {
            viewer.data_labels()
        } else {
            subject.labels.clone()
        };
        let t = Instant::now();
        let stmt = w5_store::sql::parse(&sql);
        parse_ns.push((i, t.elapsed().as_nanos() as u64));
        let Ok(stmt) = stmt else {
            check.error(format!("SQL of request {i} does not parse"));
            continue;
        };
        let t = Instant::now();
        let out = platform.db.execute_stmt(
            &subject,
            QueryMode::Filtered,
            platform.config.query_cost,
            &insert_labels,
            stmt,
        );
        exec_ns.push((i, t.elapsed().as_nanos() as u64));
        match out {
            Ok(out) if write => inserted += out.affected,
            Ok(out) if i >= WARM => {
                scanned += out.scanned;
                returned += out.rows.len() as u64;
            }
            Ok(_) => {}
            Err(e) if ok_expected => check.error(format!("SQL of request {i} failed: {e}")),
            Err(_) => {}
        }
    }
    let exec = timed_part(exec_ns);
    m.put("store.sql_parse_us", p50_us(&timed_part(parse_ns)), "us");
    m.put("store.sql_execute_us", p50_us(&exec), "us");
    m.put("store.sql_execute_p99_us", p99_us(&exec), "us");
    m.put(
        "store.scanned_per_row",
        scanned as f64 / returned.max(1) as f64,
        "ratio",
    );
    m.put("store.fs_read_us", p50_us(&timed_part(fs_ns)), "us");
    inserted
}
