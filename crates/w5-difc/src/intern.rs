//! Label interning and memoized flow checks.
//!
//! The paper's design only works if label checks are cheap enough to run on
//! *every* IPC send, file access and database row visit (§2, §3.5). This
//! module makes the steady-state cost of those checks a couple of integer
//! operations:
//!
//! * A **global intern table** maps each canonical tag set to a small
//!   [`LabelId`]. The table is sharded and lock-striped so concurrent
//!   interning from the kernel, store and platform does not serialize.
//!   Label equality between interned labels is a `u32` compare.
//! * **Memoized subset checks**: `can_flow`'s underlying `S_src ⊆ S_dst`
//!   test is cached in a bounded, direct-mapped, lock-free two-key cache
//!   keyed by `(LabelId, LabelId)`. Each slot is a single `AtomicU64`
//!   packing both keys and the result, so readers can never observe a torn
//!   key/value pair.
//! * **Memoized set algebra**: union / intersection / pair-combine results
//!   are cached in small bounded maps, so folding the labels of a 100k-row
//!   scan touches the allocator only once per *distinct* label pair.
//!
//! ## Why memoization is sound
//!
//! Interned ids name immutable tag sets, and the table is **append-only**:
//! an id, once handed out, forever resolves to the same set. The
//! [`crate::TagRegistry`] likewise only grows — tags are never deleted or
//! renumbered, and tag *meaning* (who holds which capability) lives outside
//! the label itself. A cached `a ⊆ b` or `a ∪ b` is therefore valid for the
//! lifetime of the process; no invalidation protocol exists because none is
//! needed. Checks that depend on *capabilities* (which do change) are never
//! cached here — callers memoize those per-scan against a fixed subject
//! (see `w5_store`).
//!
//! ## Determinism
//!
//! Interning consumes no randomness and fires no `w5-chaos` sites, so
//! fault-schedule replays are unaffected. Id *values* depend on arrival
//! order and may differ across runs; nothing semantic is derived from the
//! numeric value of an id, and ids never cross the process boundary (the
//! wire format resolves ids back to tag sets — see [`crate::wire`]).

use crate::label::Label;
use crate::LabelPair;
use w5_sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use w5_obs::{fnv, ObsLabel};

/// Interned label handle: an index into the global intern table.
///
/// Ids are 31-bit (the top bit is reserved for cache packing), which caps
/// the process at ~2 billion *distinct* labels — far beyond any plausible
/// tag population.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(u32);

impl LabelId {
    /// The empty (public) label, pre-interned at id 0.
    pub const EMPTY: LabelId = LabelId(0);

    /// The raw table index (diagnostics only; carries no meaning).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// True iff this is the empty label (no table lookup).
    pub fn is_empty(self) -> bool {
        self == LabelId::EMPTY
    }

    /// Resolve back to the tag set. Cheap: a shard-free indexed read plus
    /// an allocation-free clone for inline (0–2 tag) labels.
    pub fn resolve(self) -> Label {
        table().resolve(self)
    }

    /// The ledger-side image, computed once per id and cached.
    pub fn to_obs(self) -> ObsLabel {
        table().resolve_obs(self)
    }
}

/// An interned secrecy/integrity pair — the complete flow-control state of
/// a passive entity, as two integers. `Copy`, 8 bytes, hashes fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairId {
    /// Interned secrecy label.
    pub secrecy: LabelId,
    /// Interned integrity label.
    pub integrity: LabelId,
}

/// FNV-1a hasher for [`PairId`]/[`LabelId`] keys. Interned ids are two
/// small dense integers, so SipHash's DoS resistance buys nothing and its
/// cost dominates the probes hot paths exist to make cheap. Shared by the
/// store's flow memo and its partition directory.
#[derive(Default)]
pub struct PairIdHasher(u64);

impl std::hash::Hasher for PairIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        fnv::fold(&mut self.0, bytes);
    }

    fn write_u32(&mut self, v: u32) {
        fnv::fold_word(&mut self.0, u64::from(v));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by [`PairId`] using the cheap FNV hasher — the map
/// shape every per-label side table (flow memos, partition directories,
/// label resolution caches) wants.
pub type PairIdMap<V> =
    HashMap<PairId, V, std::hash::BuildHasherDefault<PairIdHasher>>;

impl PairId {
    /// The public (empty/empty) pair.
    pub const PUBLIC: PairId = PairId { secrecy: LabelId::EMPTY, integrity: LabelId::EMPTY };

    /// Intern both halves of a pair.
    pub fn intern(pair: &LabelPair) -> PairId {
        PairId { secrecy: intern(&pair.secrecy), integrity: intern(&pair.integrity) }
    }

    /// Resolve back to owned labels.
    pub fn resolve(self) -> LabelPair {
        LabelPair { secrecy: self.secrecy.resolve(), integrity: self.integrity.resolve() }
    }

    /// The pair of data derived from both inputs: secrecy accumulates
    /// (union), integrity degrades (intersection). Memoized; folding many
    /// identical pairs (the common scan shape) never leaves the fast path.
    pub fn combine(self, other: PairId) -> PairId {
        if self == other {
            return self;
        }
        PairId {
            secrecy: union(self.secrecy, other.secrecy),
            integrity: intersect(self.integrity, other.integrity),
        }
    }

    /// True if both labels are empty.
    pub fn is_public(self) -> bool {
        self == PairId::PUBLIC
    }
}

/// Intern a label, returning its stable id. O(1) amortized: one hash, one
/// striped read lock on the hit path.
pub fn intern(label: &Label) -> LabelId {
    table().intern(label)
}

/// Memoized `a ⊆ b` on interned labels — the `can_flow` fast path.
pub fn subset(a: LabelId, b: LabelId) -> bool {
    if a == b || a.is_empty() {
        return true;
    }
    table().subset(a, b)
}

/// Memoized union of interned labels.
pub fn union(a: LabelId, b: LabelId) -> LabelId {
    if a == b || b.is_empty() {
        return a;
    }
    if a.is_empty() {
        return b;
    }
    table().binop(OpKind::Union, a, b)
}

/// Memoized intersection of interned labels.
pub fn intersect(a: LabelId, b: LabelId) -> LabelId {
    if a == b {
        return a;
    }
    if a.is_empty() || b.is_empty() {
        return LabelId::EMPTY;
    }
    table().binop(OpKind::Intersect, a, b)
}

/// Counters for the intern table and its caches (hit rates feed the bench
/// suite and the observability snapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct InternStats {
    /// Distinct labels interned so far.
    pub labels: u64,
    /// Intern calls answered from the table.
    pub intern_hits: u64,
    /// Intern calls that inserted a new label.
    pub intern_misses: u64,
    /// Subset queries answered from the flow cache.
    pub flow_hits: u64,
    /// Subset queries that had to run the merge.
    pub flow_misses: u64,
    /// Union/intersection queries answered from the op cache.
    pub op_hits: u64,
    /// Union/intersection queries that had to run the merge.
    pub op_misses: u64,
}

/// Snapshot of the global intern/cache counters.
pub fn stats() -> InternStats {
    table().stats()
}

// ------------------------------------------------------------------ table

const SHARD_COUNT: usize = 16;
/// Flow-cache slots. 2^16 × 8 bytes = 512 KiB; direct-mapped, lossy.
const FLOW_CACHE_SLOTS: usize = 1 << 16;
/// Bounded op-cache entries per op before it is cleared (lossy, like the
/// flow cache: dropping memo entries affects speed, never results).
const OP_CACHE_CAP: usize = 1 << 14;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum OpKind {
    Union,
    Intersect,
}

struct Shard {
    map: RwLock<HashMap<Label, u32>>,
}

struct Interner {
    shards: Vec<Shard>,
    /// id → (label, cached obs image). Append-only.
    labels: RwLock<Vec<(Label, ObsLabel)>>,
    /// Direct-mapped subset cache. Slot layout (one `AtomicU64`):
    /// `[63] valid, [62] result, [61:31] a, [30:0] b`.
    flow: Vec<AtomicU64>,
    ops: Mutex<HashMap<(OpKind, u32, u32), u32>>,
    intern_hits: AtomicU64,
    intern_misses: AtomicU64,
    flow_hits: AtomicU64,
    flow_misses: AtomicU64,
    op_hits: AtomicU64,
    op_misses: AtomicU64,
}

fn table() -> &'static Interner {
    static TABLE: OnceLock<Interner> = OnceLock::new();
    TABLE.get_or_init(Interner::new)
}

impl Interner {
    fn new() -> Interner {
        let empty = Label::empty();
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        for i in 0..SHARD_COUNT {
            shards.push(Shard { map: RwLock::with_index("difc.intern.shard", i as u32, HashMap::new()) });
        }
        // Pre-intern the empty label at id 0 so `LabelId::EMPTY` is valid.
        shards[Self::shard_of(&empty)].map.write().insert(empty.clone(), 0);
        let obs = empty.to_obs_uncached();
        let mut flow = Vec::with_capacity(FLOW_CACHE_SLOTS);
        flow.resize_with(FLOW_CACHE_SLOTS, || AtomicU64::new(0));
        Interner {
            shards,
            labels: RwLock::new("difc.intern.table", vec![(empty, obs)]),
            flow,
            ops: Mutex::new("difc.intern.ops", HashMap::new()),
            intern_hits: AtomicU64::new(0),
            intern_misses: AtomicU64::new(0),
            flow_hits: AtomicU64::new(0),
            flow_misses: AtomicU64::new(0),
            op_hits: AtomicU64::new(0),
            op_misses: AtomicU64::new(0),
        }
    }

    fn shard_of(label: &Label) -> usize {
        let mut h = fnv::OFFSET;
        for t in label.iter() {
            fnv::fold_word(&mut h, t.raw());
        }
        (h as usize) & (SHARD_COUNT - 1)
    }

    fn intern(&self, label: &Label) -> LabelId {
        if label.is_empty() {
            return LabelId::EMPTY;
        }
        let shard = &self.shards[Self::shard_of(label)];
        if let Some(&id) = shard.map.read().get(label) {
            self.intern_hits.fetch_add(1, Ordering::Relaxed);
            return LabelId(id);
        }
        // Miss: take the shard write lock, re-check, then append. Lock
        // order is always shard → labels, so stripes cannot deadlock.
        let mut map = shard.map.write();
        if let Some(&id) = map.get(label) {
            self.intern_hits.fetch_add(1, Ordering::Relaxed);
            return LabelId(id);
        }
        let mut labels = self.labels.write();
        let id = labels.len() as u32;
        assert!(id <= i32::MAX as u32, "label intern table overflow");
        labels.push((label.clone(), label.to_obs_uncached()));
        drop(labels);
        map.insert(label.clone(), id);
        self.intern_misses.fetch_add(1, Ordering::Relaxed);
        LabelId(id)
    }

    fn resolve(&self, id: LabelId) -> Label {
        self.labels.read()[id.0 as usize].0.clone()
    }

    fn resolve_obs(&self, id: LabelId) -> ObsLabel {
        self.labels.read()[id.0 as usize].1.clone()
    }

    fn subset(&self, a: LabelId, b: LabelId) -> bool {
        let key_a = a.0 as u64;
        let key_b = b.0 as u64;
        let mut h = fnv::OFFSET;
        fnv::fold_word(&mut h, key_a);
        fnv::fold_word(&mut h, key_b);
        let slot_ix = (h as usize) & (FLOW_CACHE_SLOTS - 1);
        let slot = &self.flow[slot_ix];
        let packed = slot.load(Ordering::Relaxed);
        let key = (key_a << 31) | key_b;
        if packed & (1 << 63) != 0 && packed & ((1 << 62) - 1) == key {
            self.flow_hits.fetch_add(1, Ordering::Relaxed);
            return packed & (1 << 62) != 0;
        }
        self.flow_misses.fetch_add(1, Ordering::Relaxed);
        let result = {
            let labels = self.labels.read();
            labels[a.0 as usize].0.is_subset(&labels[b.0 as usize].0)
        };
        let entry = (1 << 63) | (u64::from(result) << 62) | key;
        slot.store(entry, Ordering::Relaxed);
        result
    }

    fn binop(&self, op: OpKind, a: LabelId, b: LabelId) -> LabelId {
        // Union/intersection are commutative: canonicalize the key.
        let (x, y) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        {
            let ops = self.ops.lock();
            if let Some(&id) = ops.get(&(op, x, y)) {
                self.op_hits.fetch_add(1, Ordering::Relaxed);
                return LabelId(id);
            }
        }
        self.op_misses.fetch_add(1, Ordering::Relaxed);
        let result = {
            let labels = self.labels.read();
            let (la, lb) = (&labels[a.0 as usize].0, &labels[b.0 as usize].0);
            match op {
                OpKind::Union => la.union(lb),
                OpKind::Intersect => la.intersection(lb),
            }
        };
        let id = self.intern(&result);
        let mut ops = self.ops.lock();
        if ops.len() >= OP_CACHE_CAP {
            // Bounded: dump the memo rather than growing without limit.
            ops.clear();
        }
        ops.insert((op, x, y), id.0);
        id
    }

    fn stats(&self) -> InternStats {
        InternStats {
            labels: self.labels.read().len() as u64,
            intern_hits: self.intern_hits.load(Ordering::Relaxed),
            intern_misses: self.intern_misses.load(Ordering::Relaxed),
            flow_hits: self.flow_hits.load(Ordering::Relaxed),
            flow_misses: self.flow_misses.load(Ordering::Relaxed),
            op_hits: self.op_hits.load(Ordering::Relaxed),
            op_misses: self.op_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;

    fn l(ids: &[u64]) -> Label {
        Label::from_iter(ids.iter().map(|&i| Tag::from_raw(i)))
    }

    #[test]
    fn intern_is_stable_and_deduplicating() {
        let a = intern(&l(&[100_001, 100_002]));
        let b = intern(&l(&[100_002, 100_001]));
        assert_eq!(a, b, "same set, same id");
        assert_eq!(a.resolve(), l(&[100_001, 100_002]));
        let c = intern(&l(&[100_003]));
        assert_ne!(a, c);
    }

    #[test]
    fn empty_is_id_zero() {
        assert_eq!(intern(&Label::empty()), LabelId::EMPTY);
        assert!(LabelId::EMPTY.is_empty());
        assert!(LabelId::EMPTY.resolve().is_empty());
    }

    #[test]
    fn subset_agrees_with_labels_and_caches() {
        let a = intern(&l(&[200_001]));
        let b = intern(&l(&[200_001, 200_002]));
        // Run twice: second round must come from the cache with the same
        // answer.
        for _ in 0..2 {
            assert!(subset(a, b));
            assert!(!subset(b, a));
            assert!(subset(a, a));
            assert!(subset(LabelId::EMPTY, a));
        }
    }

    #[test]
    fn union_and_intersect_match_label_algebra() {
        let a = intern(&l(&[300_001, 300_002]));
        let b = intern(&l(&[300_002, 300_003]));
        assert_eq!(union(a, b).resolve(), l(&[300_001, 300_002, 300_003]));
        assert_eq!(intersect(a, b).resolve(), l(&[300_002]));
        assert_eq!(union(a, LabelId::EMPTY), a);
        assert_eq!(intersect(a, LabelId::EMPTY), LabelId::EMPTY);
        // Memoized second round.
        assert_eq!(union(a, b), union(b, a));
        assert_eq!(intersect(a, b), intersect(b, a));
    }

    #[test]
    fn pair_combine_matches_labelpair_combine() {
        let pa = LabelPair::new(l(&[400_001]), l(&[400_008, 400_009]));
        let pb = LabelPair::new(l(&[400_002]), l(&[400_009]));
        let ia = PairId::intern(&pa);
        let ib = PairId::intern(&pb);
        assert_eq!(ia.combine(ib).resolve(), pa.combine(&pb));
        assert_eq!(ia.combine(ia), ia, "self-combine is the identity");
        assert!(PairId::PUBLIC.is_public());
        assert_eq!(PairId::intern(&LabelPair::public()), PairId::PUBLIC);
    }

    #[test]
    fn obs_image_is_cached_and_correct() {
        let lab = l(&[500_001, 500_002]);
        let id = intern(&lab);
        assert_eq!(id.to_obs(), lab.to_obs_uncached());
        assert_eq!(lab.to_obs(), lab.to_obs_uncached());
    }

    #[test]
    fn concurrent_interning_yields_one_id_per_set() {
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(std::thread::spawn(|| {
                (0..64u64)
                    .map(|i| intern(&l(&[600_000 + i, 600_100 + i])))
                    .collect::<Vec<_>>()
            }));
        }
        let all: Vec<Vec<LabelId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &all[1..] {
            assert_eq!(ids, &all[0], "every thread sees the same ids");
        }
    }

    #[test]
    fn stats_move() {
        let before = stats();
        let _ = intern(&l(&[700_001]));
        let _ = intern(&l(&[700_001]));
        let after = stats();
        assert!(after.labels >= before.labels);
        assert!(
            after.intern_hits + after.intern_misses
                > before.intern_hits + before.intern_misses
        );
    }
}
