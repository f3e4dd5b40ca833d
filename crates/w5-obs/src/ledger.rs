//! The flow ledger: event ring, counters, latency registry and
//! clearance-gated views.
//!
//! Writes are cheap: per-layer counters are lock-free atomics; the bounded
//! event ring and the latency registry take one short `obs.ledger`-classed
//! `w5_sync` mutex each (instances ring=0, latencies=1, published=2,
//! spans=3; never nested). Reads are **labeled operations**: [`Ledger::view`] takes the
//! viewer's clearance (their secrecy label, as an [`ObsLabel`]) and
//!
//! * returns verbatim only events whose secrecy label is a subset of the
//!   clearance (the no-privilege secrecy-flow rule);
//! * replaces everything else with label-aggregated per-layer counts that
//!   are **quantized** (floored to a coarse granularity) and
//!   **rate-limited** (republished only every [`REFRESH_EVERY`] recorded
//!   events, so a low-clearance poller sees a stale snapshot, not a live
//!   signal);
//! * re-issues sequence numbers densely whenever anything was withheld,
//!   so gaps in `seq` cannot leak the exact count of hidden events.
//!
//! Without those three measures the ledger would be precisely the §3.5
//! covert channel: a tainted app could modulate secret bits into event
//! counts and an untainted reader could poll them out.

use crate::event::{Event, EventKind, Layer};
use crate::fnv;
use crate::histogram::{Histogram, HistogramSummary};
use crate::label::ObsLabel;
use crate::trace::{redact_spans, sample_decision, SpanRecord, TraceView};
use w5_sync::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Ring capacity (events retained for cleared viewers).
const DEFAULT_RING_CAP: usize = 4096;

/// Span ring capacity (completed spans retained for trace viewers).
const DEFAULT_SPAN_CAP: usize = 4096;

/// Redacted aggregates are republished every this many recorded events.
pub const REFRESH_EVERY: u64 = 64;

/// Redacted counts are floored to a multiple of this.
pub const QUANTUM: u64 = 16;

/// Pass-outcome flow checks are written to the ring once per this many
/// checks (denials always are).
const CHECK_SAMPLE: u64 = 16;

#[derive(Default)]
struct LayerCounters {
    events: AtomicU64,
    denied: AtomicU64,
}

/// Per-layer event totals.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Aggregate {
    /// Events recorded per layer, keyed by [`Layer::name`].
    pub events: BTreeMap<String, u64>,
    /// Denials recorded per layer.
    pub denied: BTreeMap<String, u64>,
}

struct LatencySeries {
    secrecy: ObsLabel,
    hist: Histogram,
}

/// The published (stale, quantized) aggregate a redacted viewer sees.
struct Published {
    agg: Aggregate,
    /// Events recorded when `agg` was built.
    at: u64,
}

/// The label-aware flow ledger.
pub struct Ledger {
    seq: AtomicU64,
    counters: [LayerCounters; 5],
    checks: AtomicU64,
    ring: Mutex<VecDeque<Event>>,
    ring_cap: usize,
    latencies: Mutex<BTreeMap<String, LatencySeries>>,
    published: Mutex<Published>,
    /// Completed spans, oldest first (see `crate::trace`).
    spans: Mutex<VecDeque<SpanRecord>>,
    span_cap: usize,
    /// Spans recorded per layer (index = `Layer::index`), survives ring
    /// eviction; mixed into `digest`.
    span_counters: [AtomicU64; 5],
    spans_recorded: AtomicU64,
    /// Trace and span id allocator; 0 is reserved for "none".
    ids: AtomicU64,
    /// Head-based sampling: a trace is recorded iff
    /// `sample_decision(trace, seed, threshold)`.
    sample_threshold: AtomicU64,
    sample_seed: AtomicU64,
    /// Base for span timestamps (µs since this instant).
    epoch: Instant,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

impl Ledger {
    /// A fresh ledger with default capacity.
    pub fn new() -> Ledger {
        Ledger::with_capacity(DEFAULT_RING_CAP)
    }

    /// A fresh ledger retaining at most `ring_cap` events.
    pub fn with_capacity(ring_cap: usize) -> Ledger {
        assert!(ring_cap > 0, "ring capacity must be positive");
        Ledger {
            seq: AtomicU64::new(0),
            counters: Default::default(),
            checks: AtomicU64::new(0),
            ring: Mutex::with_index("obs.ledger", 0, VecDeque::with_capacity(ring_cap.min(1024))),
            ring_cap,
            latencies: Mutex::with_index("obs.ledger", 1, BTreeMap::new()),
            published: Mutex::with_index("obs.ledger", 2, Published { agg: Aggregate::default(), at: 0 }),
            spans: Mutex::with_index("obs.ledger", 3, VecDeque::with_capacity(DEFAULT_SPAN_CAP.min(1024))),
            span_cap: DEFAULT_SPAN_CAP,
            span_counters: Default::default(),
            spans_recorded: AtomicU64::new(0),
            ids: AtomicU64::new(0),
            sample_threshold: AtomicU64::new(u64::MAX),
            sample_seed: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Record one event. Counters always tick; the event enters the ring.
    pub fn record(&self, secrecy: &ObsLabel, kind: EventKind) {
        let seq = self.count(&kind);
        self.push_ring(Event { seq, secrecy: secrecy.clone(), kind });
    }

    /// Hot-path accounting for flow checks (`w5-difc::rules`). Counters
    /// always tick; denials are always written to the ring; passes are
    /// ring-sampled once per [`CHECK_SAMPLE`] checks so per-message rule
    /// evaluation stays a couple of atomic ops.
    pub fn count_check(&self, op: &'static str, allowed: bool, secrecy: &ObsLabel) {
        let nth = self.checks.fetch_add(1, Ordering::Relaxed);
        if allowed && !nth.is_multiple_of(CHECK_SAMPLE) {
            // Counters only.
            let c = &self.counters[Layer::Difc.index()];
            c.events.fetch_add(1, Ordering::Relaxed);
            self.seq.fetch_add(1, Ordering::Relaxed);
            self.maybe_republish();
            return;
        }
        self.record(secrecy, EventKind::LabelCheck { op: op.to_string(), allowed });
    }

    /// Record a latency sample for a named operation. The series' label is
    /// the union of every sample's label: a viewer may see the histogram
    /// only if cleared for everything that flowed through it (timing is a
    /// side channel).
    pub fn time(&self, op: &str, secrecy: &ObsLabel, d: std::time::Duration) {
        let mut lat = self.latencies.lock();
        match lat.get_mut(op) {
            Some(series) => {
                if !secrecy.is_subset(&series.secrecy) {
                    series.secrecy = series.secrecy.union(secrecy);
                }
                series.hist.record(d);
            }
            None => {
                let mut hist = Histogram::new();
                hist.record(d);
                lat.insert(op.to_string(), LatencySeries { secrecy: secrecy.clone(), hist });
            }
        }
    }

    /// Total events recorded (all layers, including ring-sampled checks).
    pub fn events_recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Exact live per-layer aggregate (trusted/test use; [`Ledger::view`]
    /// is the clearance-gated path).
    pub fn aggregate(&self) -> Aggregate {
        let mut agg = Aggregate::default();
        for layer in Layer::ALL {
            let c = &self.counters[layer.index()];
            agg.events.insert(layer.name().to_string(), c.events.load(Ordering::Relaxed));
            agg.denied.insert(layer.name().to_string(), c.denied.load(Ordering::Relaxed));
        }
        agg
    }

    /// Read the ledger with the given clearance. This is the **only** path
    /// untrusted viewers get.
    pub fn view(&self, clearance: &ObsLabel) -> LedgerView {
        let ring = self.ring.lock();
        let mut events = Vec::new();
        let mut withheld = 0u64;
        for e in ring.iter() {
            if e.secrecy.is_subset(clearance) {
                events.push(e.clone());
            } else {
                withheld += 1;
            }
        }
        drop(ring);

        let redacted = withheld > 0;
        if redacted {
            // Dense re-issue: seq gaps would count hidden events exactly.
            for (i, e) in events.iter_mut().enumerate() {
                e.seq = i as u64;
            }
        }

        let aggregate = if redacted {
            // Stale + quantized: the published snapshot, floored to QUANTUM.
            self.published.lock().agg.clone()
        } else {
            self.aggregate()
        };

        let lat = self.latencies.lock();
        let mut latencies = BTreeMap::new();
        let mut latencies_withheld = 0u64;
        for (name, series) in lat.iter() {
            if series.secrecy.is_subset(clearance) {
                latencies.insert(name.clone(), series.hist.digest());
            } else {
                latencies_withheld += 1;
            }
        }
        drop(lat);

        LedgerView {
            clearance: clearance.clone(),
            events,
            redacted,
            aggregate,
            latencies,
            latencies_withheld,
        }
    }

    /// JSON snapshot of a clearance-gated view (the exporter).
    pub fn snapshot_json(&self, clearance: &ObsLabel) -> serde_json::Result<String> {
        serde_json::to_string_pretty(&self.view(clearance))
    }

    // ---- causal tracing (see `crate::trace`) ----

    /// Microseconds since this ledger's epoch (span timestamp base).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Allocate a fresh trace or span id (never 0). Ids are ledger-local
    /// and, on a single-threaded scoped ledger, fully deterministic — the
    /// chaos harness relies on that.
    pub fn alloc_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Configure head-based trace sampling: `rate` in `[0.0, 1.0]` (the
    /// approximate fraction of traces recorded) and a seed. The decision
    /// per trace is the pure function [`sample_decision`], so a replay
    /// with the same seed samples the same traces.
    pub fn set_trace_sampling(&self, rate: f64, seed: u64) {
        let threshold = (rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        self.sample_threshold.store(threshold, Ordering::Relaxed);
        self.sample_seed.store(seed, Ordering::Relaxed);
    }

    /// The sampling decision for a trace id under the current config.
    pub fn trace_sampled(&self, trace: u64) -> bool {
        sample_decision(
            trace,
            self.sample_seed.load(Ordering::Relaxed),
            self.sample_threshold.load(Ordering::Relaxed),
        )
    }

    /// Record one completed span. Counters always tick; the span enters
    /// the bounded span ring.
    pub fn record_span(&self, span: SpanRecord) {
        self.span_counters[span.layer.index()].fetch_add(1, Ordering::Relaxed);
        self.spans_recorded.fetch_add(1, Ordering::Relaxed);
        let mut spans = self.spans.lock();
        if spans.len() >= self.span_cap {
            spans.pop_front();
        }
        spans.push_back(span);
    }

    /// Total spans recorded (all layers, including ring-evicted ones).
    pub fn spans_recorded(&self) -> u64 {
        self.spans_recorded.load(Ordering::Relaxed)
    }

    /// Read the span ring with the given clearance: spans the clearance
    /// covers come back verbatim, everything else in redacted form (name
    /// hidden, label hidden, timings floored — see
    /// [`SpanRecord::redacted`]). This is the only trace path untrusted
    /// viewers get.
    pub fn trace_view(&self, clearance: &ObsLabel) -> TraceView {
        let spans: Vec<SpanRecord> = self.spans.lock().iter().cloned().collect();
        let (spans, redacted_spans) = redact_spans(&spans, clearance);
        TraceView { clearance: clearance.clone(), spans, redacted_spans }
    }

    /// JSON export of a clearance-gated trace view (what `w5trace` reads).
    pub fn traces_json(&self, clearance: &ObsLabel) -> serde_json::Result<String> {
        serde_json::to_string_pretty(&self.trace_view(clearance))
    }

    /// A stable 64-bit digest (FNV-1a) over the ledger's observable state:
    /// total events recorded, the per-layer counters, every retained ring
    /// event in order, and the *structure* of every retained span (ids,
    /// parent edges, names, layers, labels — everything except wall-clock
    /// timestamps, which legitimately vary between replays). Two runs
    /// that produced the same event and span streams produce the same
    /// digest; the chaos harness uses this to prove that a fault schedule
    /// replays bit-identically from its seed, tracing included.
    pub fn digest(&self) -> u64 {
        let mut h = fnv::OFFSET;
        fnv::fold(&mut h, &self.events_recorded().to_le_bytes());
        let agg = self.aggregate();
        for (layer, count) in agg.events.iter().chain(agg.denied.iter()) {
            fnv::fold(&mut h, layer.as_bytes());
            fnv::fold(&mut h, &count.to_le_bytes());
        }
        let ring = self.ring.lock();
        for e in ring.iter() {
            fnv::fold(&mut h, &e.seq.to_le_bytes());
            for tag in e.secrecy.iter() {
                fnv::fold(&mut h, &tag.to_le_bytes());
            }
            // EventKind serializes to JSON with a stable field order.
            let kind = serde_json::to_string(&e.kind).expect("event kinds always serialize");
            fnv::fold(&mut h, kind.as_bytes());
        }
        drop(ring);
        fnv::fold(&mut h, &self.spans_recorded().to_le_bytes());
        for (layer, counter) in Layer::ALL.iter().zip(&self.span_counters) {
            fnv::fold(&mut h, layer.name().as_bytes());
            fnv::fold(&mut h, &counter.load(Ordering::Relaxed).to_le_bytes());
        }
        let spans = self.spans.lock();
        for s in spans.iter() {
            fnv::fold(&mut h, &s.trace.to_le_bytes());
            fnv::fold(&mut h, &s.id.to_le_bytes());
            fnv::fold(&mut h, &s.parent.unwrap_or(0).to_le_bytes());
            fnv::fold(&mut h, s.name.as_bytes());
            fnv::fold(&mut h, s.layer.name().as_bytes());
            for tag in s.secrecy.iter() {
                fnv::fold(&mut h, &tag.to_le_bytes());
            }
            // Deliberately NOT start_us/end_us: wall time is the one
            // thing a bit-identical replay cannot reproduce.
        }
        h
    }

    /// Like [`Ledger::digest`], but folds only the ring events `keep`
    /// admits, with sequence numbers re-issued densely over the retained
    /// stream, and skips the per-layer aggregates (which would count the
    /// excluded events). Span structure is folded as in `digest`.
    ///
    /// This exists for differential oracles whose two arms legitimately
    /// differ in *executor-dependent metadata* — e.g. the pipelined HTTP
    /// engine emits `QueueAdmit`/`WorkerOccupancy` gauges the reference
    /// thread-per-connection engine never does — while the handler-visible
    /// event stream must still match event for event.
    pub fn digest_where(&self, keep: impl Fn(&EventKind) -> bool) -> u64 {
        let mut h = fnv::OFFSET;
        let ring = self.ring.lock();
        let mut reissued = 0u64;
        for e in ring.iter() {
            if !keep(&e.kind) {
                continue;
            }
            // Dense re-issue, exactly like a redacted view: the original
            // seq would count the excluded events.
            fnv::fold(&mut h, &reissued.to_le_bytes());
            reissued += 1;
            for tag in e.secrecy.iter() {
                fnv::fold(&mut h, &tag.to_le_bytes());
            }
            let kind = serde_json::to_string(&e.kind).expect("event kinds always serialize");
            fnv::fold(&mut h, kind.as_bytes());
        }
        drop(ring);
        let spans = self.spans.lock();
        for s in spans.iter() {
            fnv::fold(&mut h, &s.trace.to_le_bytes());
            fnv::fold(&mut h, &s.id.to_le_bytes());
            fnv::fold(&mut h, &s.parent.unwrap_or(0).to_le_bytes());
            fnv::fold(&mut h, s.name.as_bytes());
            fnv::fold(&mut h, s.layer.name().as_bytes());
            for tag in s.secrecy.iter() {
                fnv::fold(&mut h, &tag.to_le_bytes());
            }
        }
        h
    }

    fn count(&self, kind: &EventKind) -> u64 {
        let c = &self.counters[kind.layer().index()];
        c.events.fetch_add(1, Ordering::Relaxed);
        if kind.denied() {
            c.denied.fetch_add(1, Ordering::Relaxed);
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.maybe_republish();
        seq
    }

    fn push_ring(&self, event: Event) {
        let mut ring = self.ring.lock();
        if ring.len() >= self.ring_cap {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Republish the quantized aggregate at most once per [`REFRESH_EVERY`]
    /// recorded events. Between refreshes, redacted viewers read a stale
    /// snapshot — that staleness *is* the rate limit.
    fn maybe_republish(&self) {
        let now = self.seq.load(Ordering::Relaxed);
        let mut published = self.published.lock();
        if now < published.at + REFRESH_EVERY && published.at != 0 {
            return;
        }
        let mut agg = self.aggregate();
        for v in agg.events.values_mut() {
            *v -= *v % QUANTUM;
        }
        for v in agg.denied.values_mut() {
            *v -= *v % QUANTUM;
        }
        published.agg = agg;
        published.at = now.max(1);
    }
}

/// What a viewer with some clearance gets back.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct LedgerView {
    /// The clearance this view was computed for.
    pub clearance: ObsLabel,
    /// Events the clearance covers, oldest first. When `redacted`, `seq`
    /// is re-issued densely.
    pub events: Vec<Event>,
    /// True when any event or series was withheld; the aggregate is then
    /// the stale quantized snapshot rather than live counters.
    pub redacted: bool,
    /// Per-layer counts (live and exact iff `redacted == false`).
    pub aggregate: Aggregate,
    /// Latency digests for series whose label the clearance covers.
    pub latencies: BTreeMap<String, HistogramSummary>,
    /// Number of latency series withheld.
    pub latencies_withheld: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_kind(pid: u64) -> EventKind {
        EventKind::ProcSpawn { pid, parent: 0, name: format!("p{pid}") }
    }

    #[test]
    fn record_and_full_view() {
        let l = Ledger::new();
        l.record(&ObsLabel::empty(), spawn_kind(1));
        l.record(&ObsLabel::singleton(7), EventKind::StoreRead {
            path: "/photos/bob/cat.jpg".into(),
            bytes: 4,
            allowed: true,
        });
        let omniscient = ObsLabel::from_tags([7]);
        let v = l.view(&omniscient);
        assert!(!v.redacted);
        assert_eq!(v.events.len(), 2);
        assert_eq!(v.aggregate.events["kernel"], 1);
        assert_eq!(v.aggregate.events["store"], 1);
        // Full views keep original sequence numbers.
        assert_eq!(v.events[0].seq, 0);
        assert_eq!(v.events[1].seq, 1);
    }

    #[test]
    fn low_clearance_cannot_recover_labeled_events() {
        let l = Ledger::new();
        // 5 public events, 3 secret ones (tag 9).
        for i in 0..5 {
            l.record(&ObsLabel::empty(), spawn_kind(i));
        }
        for _ in 0..3 {
            l.record(&ObsLabel::singleton(9), EventKind::StoreRead {
                path: "/diary/alice.txt".into(),
                bytes: 10,
                allowed: true,
            });
        }
        let v = l.view(&ObsLabel::empty());
        assert!(v.redacted);
        assert_eq!(v.events.len(), 5, "only public events visible");
        assert!(v.events.iter().all(|e| e.secrecy.is_empty()));
        assert!(
            v.events.iter().all(|e| !format!("{:?}", e.kind).contains("diary")),
            "no secret payload may appear"
        );
        // Sequence numbers are dense — gaps cannot count hidden events.
        for (i, e) in v.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // The aggregate is quantized: 8 total events floored to QUANTUM.
        let store = v.aggregate.events.get("store").copied().unwrap_or(0);
        assert_eq!(store % QUANTUM, 0, "redacted counts must be quantized");
        // The cleared viewer, by contrast, sees everything.
        let v9 = l.view(&ObsLabel::singleton(9));
        assert!(!v9.redacted);
        assert_eq!(v9.events.len(), 8);
        assert_eq!(v9.aggregate.events["store"], 3);
    }

    #[test]
    fn redacted_aggregate_is_rate_limited() {
        let l = Ledger::new();
        l.record(&ObsLabel::singleton(5), spawn_kind(0));
        let before = l.view(&ObsLabel::empty()).aggregate.clone();
        // Record fewer than REFRESH_EVERY further events: the published
        // snapshot must not move, no matter how often we poll.
        for i in 0..(REFRESH_EVERY - 2) {
            l.record(&ObsLabel::singleton(5), spawn_kind(i));
            assert_eq!(l.view(&ObsLabel::empty()).aggregate, before, "snapshot moved early");
        }
        // Crossing the refresh boundary (plus quantization slack) updates it.
        for i in 0..(REFRESH_EVERY + QUANTUM) {
            l.record(&ObsLabel::singleton(5), spawn_kind(i));
        }
        let after = l.view(&ObsLabel::empty()).aggregate;
        assert!(after.events["kernel"] > before.events["kernel"]);
        assert_eq!(after.events["kernel"] % QUANTUM, 0);
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let l = Ledger::with_capacity(4);
        for i in 0..10 {
            l.record(&ObsLabel::empty(), spawn_kind(i));
        }
        let v = l.view(&ObsLabel::empty());
        assert_eq!(v.events.len(), 4);
        let pids: Vec<u64> = v
            .events
            .iter()
            .map(|e| match &e.kind {
                EventKind::ProcSpawn { pid, .. } => *pid,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(pids, vec![6, 7, 8, 9], "oldest entries evicted, order kept");
        // Counters survive eviction.
        assert_eq!(v.aggregate.events["kernel"], 10);
    }

    #[test]
    fn check_sampling_always_keeps_denials() {
        let l = Ledger::new();
        for _ in 0..100 {
            l.count_check("flow", true, &ObsLabel::empty());
        }
        for _ in 0..3 {
            l.count_check("flow", false, &ObsLabel::singleton(2));
        }
        // Counters are exact.
        let agg = l.aggregate();
        assert_eq!(agg.events["difc"], 103);
        assert_eq!(agg.denied["difc"], 3);
        // Ring holds all denials but only sampled passes.
        let v = l.view(&ObsLabel::from_tags([2]));
        let denials = v
            .events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::LabelCheck { allowed: false, .. }))
            .count();
        let passes = v
            .events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::LabelCheck { allowed: true, .. }))
            .count();
        assert_eq!(denials, 3);
        assert!(passes < 100 && passes >= 100 / CHECK_SAMPLE as usize, "{passes}");
    }

    #[test]
    fn latency_series_gated_by_union_label() {
        let l = Ledger::new();
        let d = std::time::Duration::from_micros(10);
        l.time("net.http", &ObsLabel::empty(), d);
        l.time("platform.export_check", &ObsLabel::singleton(4), d);
        l.time("platform.export_check", &ObsLabel::empty(), d);
        let low = l.view(&ObsLabel::empty());
        assert!(low.latencies.contains_key("net.http"));
        assert!(
            !low.latencies.contains_key("platform.export_check"),
            "series that ever carried tag 4 is hidden from empty clearance"
        );
        assert_eq!(low.latencies_withheld, 1);
        let high = l.view(&ObsLabel::singleton(4));
        assert_eq!(high.latencies["platform.export_check"].count, 2);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let l = Ledger::new();
        l.record(&ObsLabel::empty(), EventKind::HttpRequest {
            method: "GET".into(),
            path: "/app/photos".into(),
            status: 200,
            micros: 123,
        });
        l.time("net.http", &ObsLabel::empty(), std::time::Duration::from_micros(123));
        let json = l.snapshot_json(&ObsLabel::empty()).unwrap();
        let back: LedgerView = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events.len(), 1);
        assert_eq!(back.latencies["net.http"].count, 1);
        assert!(!back.redacted);
    }
}
