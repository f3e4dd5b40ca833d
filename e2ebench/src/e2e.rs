//! The untraced run: end-to-end metrics a user of the system sees.

use crate::client::{drive, Round};
use crate::report::{Check, Metrics};
use crate::stats::{median, p50_us, p99_us};
use crate::world::{Engine, Stack, Stream, Workload};
use std::time::Instant;

/// `setup_s` is the median of at least `MIN_SETUPS` set-ups, repeated up
/// to `MAX_SETUPS` times until they add up to `SETUP_BUDGET_S`, so that a
/// set-up of a few milliseconds is not one scheduler tick's worth of noise.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET_S: f64 = 1.0;
/// Untimed requests at the head of every stream.
pub const WARM: usize = 500;
/// The timed requests are cut into rounds of `ROUND_S` seconds of nominal
/// work, and every end-to-end timing pools the samples of the quietest
/// `1 / QUIET_SHARE`
/// of the rounds: those in which the hypervisor stole the least CPU time
/// from this machine. On a shared host stolen time comes in bursts of a
/// fraction of a second to many seconds; it only ever adds to a request,
/// and a burst moves p99 several-fold. Rounds are chosen by the host's
/// steal counter, never by their own timings, so the choice does not
/// favour fast requests.
const ROUND_S: f64 = 0.0625;
const QUIET_SHARE: usize = 4;

pub fn run(w: &Workload, seed: u64, seconds: u64) -> (Metrics, Check) {
    let timed = (seconds as f64 * w.nominal_rps).ceil() as usize;
    let rounds = ((seconds as f64 / ROUND_S) as usize).max(1);
    let stream = Stream::new(w, seed, WARM + timed);

    let mut setup_s: Vec<f64> = Vec::new();
    let mut stack = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(stack.take());
        let t = Instant::now();
        stack = Some(Stack::start(w, Engine::Default, None));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let stack = stack.expect("at least one set-up");
    let rows_start = stack.world.platform.db.total_rows();
    let requests = stack.wire_requests(&stream);

    let time_wait = tcp_time_wait();
    let d = drive(stack.addr(), &requests, w.conn, WARM, rounds);

    let mut check = Check::default();
    check.statuses(d.outcomes.iter().map(|o| o.status), &stream.expected);
    check.equal(
        "store",
        stack.world.platform.db.total_rows(),
        rows_start + stream.rows_added,
    );
    drop(stack);

    // Among equally quiet rounds, every `QUIET_SHARE`-th comes first, so
    // that on a quiet host the pooled rounds span the whole run (the store
    // grows as it goes) rather than its start.
    let mut order: Vec<usize> = (0..rounds).collect();
    order.sort_by(|&a, &b| {
        let share = |k: usize| d.rounds[k].steal_share();
        share(a)
            .total_cmp(&share(b))
            .then((a % QUIET_SHARE, a).cmp(&(b % QUIET_SHARE, b)))
    });
    let quiet: Vec<&Round> = order[..rounds.div_ceil(QUIET_SHARE)]
        .iter()
        .map(|&k| &d.rounds[k])
        .collect();
    let positions: Vec<usize> = quiet.iter().flat_map(|r| r.range.clone()).collect();
    let all: Vec<u64> = positions.iter().map(|&i| d.outcomes[i].ns).collect();
    let writes: Vec<u64> = positions
        .iter()
        .filter(|&&i| stream.requests[i].method == "POST")
        .map(|&i| d.outcomes[i].ns)
        .collect();
    let wall_s: f64 = quiet.iter().map(|r| r.wall_s).sum();

    let mut m = Metrics::default();
    m.put("throughput_rps", all.len() as f64 / wall_s, "1/s");
    m.put("latency_p50_us", p50_us(&all), "us");
    m.put("latency_p99_us", p99_us(&all), "us");
    m.put("write_latency_p50_us", p50_us(&writes), "us");
    m.put("setup_s", median(&setup_s), "s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    let steal = |rs: &[&Round]| {
        rs.iter().map(|r| r.steal_ticks).sum::<u64>() as f64
            / rs.iter().map(|r| r.cpu_ticks).sum::<u64>().max(1) as f64
    };
    println!(
        "e2e: timed={timed} warmup={WARM} rounds={rounds} quiet_rounds={} samples={} write_samples={} reconnects={} setups={} time_wait_at_start={time_wait} host_steal_share={} quiet_steal_share={}",
        quiet.len(),
        all.len(),
        writes.len(),
        d.reconnects,
        setup_s.len(),
        steal(&d.rounds.iter().collect::<Vec<_>>()),
        steal(&quiet),
    );
    (m, check)
}

/// TCP sockets of this machine in TIME_WAIT (`/proc/net/sockstat`). A run
/// that opens a connection per request leaves tens of thousands for a
/// minute, and a run that starts among them connects measurably slower.
fn tcp_time_wait() -> u64 {
    let stat = std::fs::read_to_string("/proc/net/sockstat").unwrap_or_default();
    stat.lines()
        .find_map(|l| l.strip_prefix("TCP:"))
        .and_then(|l| l.split_whitespace().skip_while(|&f| f != "tw").nth(1))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// The process's peak resident set (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
