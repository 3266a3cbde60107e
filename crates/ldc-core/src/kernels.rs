//! Shared solver kernels: packed color sets and the per-solve type cache.
//!
//! The round engine stopped being the bottleneck in PR 2 — on dense
//! instances virtually all wall time is spent in per-node solver kernels
//! (`conflict_weight` merges, `SeededSubset::select` draws, per-color
//! membership probes). The Maus–Tonoyan machinery behind Lemma 3.5 says
//! candidate sets are a pure function of a node's **type**
//! `(init_color, list, attempt)`, and conflict verdicts are pure functions
//! of the two candidate sets involved — so in dense instances (few
//! distinct types, or many repeated pairwise checks) almost all of that
//! work recomputes identical answers. This module removes the
//! recomputation without changing a single output byte:
//!
//! * [`PackedSet`] — a bitset over the (offset-normalized) color span of a
//!   sorted list. Membership is O(1) (vs. a binary search), `μ_g` is a
//!   masked popcount over the `[x−g, x+g]` window, and `g = 0`
//!   intersection weight is a word-parallel popcount of `A & B`.
//! * [`conflict_weight_at_least`] — the general `g ≥ 0` conflict test as a
//!   two-pointer merge that exits as soon as the running weight reaches
//!   `τ` (the exact weight above the threshold is never needed).
//! * [`TypeCache`] — a per-solve memo: color lists are interned by
//!   fingerprint (collision-checked, so a hash collision can only cost a
//!   missed hit, never a wrong answer), `SeededSubset::select` runs once
//!   per `(init_color, list, k, attempt)` type, and pairwise
//!   `τ&g`-conflict verdicts are cached per unordered candidate-set pair.
//!   Candidate sets produced by the cache are shared `Arc`s, so a set's
//!   address is a stable identity for the lifetime of the solve (the
//!   cache holds every `Arc` it ever returned) and both the packed-set
//!   table and the verdict table key on it.
//!
//! * One batched API ([`TypeCache::select_batch`],
//!   [`TypeCache::conflict_batch`], [`TypeCache::best_color_batch`]) that
//!   fans the *pure* miss computations out over the `ldc_sim::pool`
//!   workers and publishes results in request order — byte-identical to
//!   issuing the requests one at a time, at every thread count — plus
//!   [`TypeCache::prune`], Theorem 1.1's per-node Phase I pruning.
//! * [`SharedTypeCache`] — an optional fleet-wide layer behind a sharded
//!   lock map: selections and conflict verdicts interned by *content*
//!   keys (strategy seed, list/set bytes, thresholds), so same-shaped
//!   jobs in a batch warm each other. A shared hit never changes private
//!   counter streams — it only skips recomputation.
//!
//! The solvers choose a [`KernelConfig`] once and never look at its
//! [`KernelMode`]: only [`TypeCache`] does. `KernelMode::Reference` routes
//! every kernel through its naive counterpart — [`crate::conflict`] /
//! [`crate::cover`], plus this module's `reference_prune` and
//! `reference_best_color` loops — with no memoization, and the seeded
//! equivalence suite asserts byte-identical solver outputs between the
//! two modes (`tests/kernels.rs`).

use crate::conflict::{mu_g, tau_g_conflict};
use crate::cover::{list_fingerprint, SeededSubset};
use crate::problem::Color;
use ldc_sim::pool::{pool_execute, DisjointChunks, MAX_CHUNKS};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

/// A pair of interned candidate sets, as gathered for
/// [`TypeCache::conflict_batch`] — both halves are `Arc` clones of lists
/// previously returned by the selection kernels, so a batch holds them
/// without copying color data.
pub type ListPair = (Arc<[Color]>, Arc<[Color]>);

/// Which kernel implementations a solver run uses.
///
/// `Fast` is the default everywhere; `Reference` re-routes every kernel
/// through the naive implementations with no memoization, for differential
/// testing (outputs must be byte-identical) and for recording the pre-cache
/// baseline in `BENCH_solver.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Packed sets + type-keyed memoization (production default).
    #[default]
    Fast,
    /// Naive kernels, no memoization (differential baseline).
    Reference,
}

/// A bitset over the color span of a sorted list, offset-normalized so
/// that the base is a multiple of 64 — two packed sets over the same color
/// space are therefore always word-aligned and intersection reduces to
/// `popcount(A & B)` over the overlapping word range.
#[derive(Debug, Clone)]
pub struct PackedSet {
    /// Base color of word 0 (always a multiple of 64).
    offset: u64,
    words: Vec<u64>,
    len: u64,
}

impl PackedSet {
    /// Build from a sorted, deduplicated color slice.
    pub fn from_sorted(colors: &[Color]) -> Self {
        debug_assert!(colors.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        let offset = colors.first().map_or(0, |&c| c & !63);
        let span = colors.last().map_or(0, |&c| c - offset + 1);
        let mut words = vec![0u64; span.div_ceil(64) as usize];
        for &c in colors {
            let r = c - offset;
            words[(r / 64) as usize] |= 1u64 << (r % 64);
        }
        PackedSet {
            offset,
            words,
            len: colors.len() as u64,
        }
    }

    /// Number of colors in the set.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) membership test (the packed replacement for `binary_search`).
    pub fn contains(&self, c: Color) -> bool {
        if c < self.offset {
            return false;
        }
        let r = c - self.offset;
        let w = (r / 64) as usize;
        w < self.words.len() && self.words[w] >> (r % 64) & 1 == 1
    }

    /// `|{c ∈ self : lo ≤ c ≤ hi}|` as a masked popcount — the packed
    /// `μ_g(x, ·)` with `lo = x−g`, `hi = x+g` (see [`crate::conflict::mu_g`]).
    pub fn count_range(&self, lo: Color, hi: Color) -> u64 {
        if self.words.is_empty() || hi < self.offset {
            return 0;
        }
        let top = self.offset + 64 * self.words.len() as u64 - 1;
        let lo = lo.max(self.offset);
        let hi = hi.min(top);
        if lo > hi {
            return 0;
        }
        let (rl, rh) = (lo - self.offset, hi - self.offset);
        let (wl, wh) = ((rl / 64) as usize, (rh / 64) as usize);
        let mask_lo = u64::MAX << (rl % 64);
        // `rh % 64 == 63` must keep all bits; shift by 63 − pos, never 64.
        let mask_hi = u64::MAX >> (63 - rh % 64);
        if wl == wh {
            return (self.words[wl] & mask_lo & mask_hi).count_ones() as u64;
        }
        let mut total = (self.words[wl] & mask_lo).count_ones() as u64;
        for w in &self.words[wl + 1..wh] {
            total += w.count_ones() as u64;
        }
        total + (self.words[wh] & mask_hi).count_ones() as u64
    }

    /// `|A ∩ B|` by word-parallel popcount — `conflict_weight(A, B, 0)`.
    pub fn intersection_size(&self, other: &Self) -> u64 {
        let (a, b) = if self.offset <= other.offset {
            (self, other)
        } else {
            (other, self)
        };
        // Offsets are multiples of 64, so the shift is whole words.
        let shift = ((b.offset - a.offset) / 64) as usize;
        if shift >= a.words.len() {
            return 0;
        }
        a.words[shift..]
            .iter()
            .zip(&b.words)
            .map(|(x, y)| (x & y).count_ones() as u64)
            .sum()
    }

    /// Words this set occupies (cost estimate for the adaptive conflict
    /// kernel).
    fn word_count(&self) -> usize {
        self.words.len()
    }
}

/// `conflict_weight(c1, c2, g) ≥ tau`, computed by a single merge-style
/// sweep over both sorted lists that stops the moment the running weight
/// reaches `tau` — the verification loops only ever need the verdict, not
/// the exact weight. Equivalent to [`tau_g_conflict`] (property-tested).
pub fn conflict_weight_at_least(c1: &[Color], c2: &[Color], tau: u64, g: u64) -> bool {
    if tau == 0 {
        return true;
    }
    let mut lo = 0usize;
    let mut hi = 0usize;
    let mut total = 0u64;
    for &x in c1 {
        let lbound = x.saturating_sub(g);
        let ubound = x.saturating_add(g);
        while lo < c2.len() && c2[lo] < lbound {
            lo += 1;
        }
        if hi < lo {
            hi = lo;
        }
        while hi < c2.len() && c2[hi] <= ubound {
            hi += 1;
        }
        total += (hi - lo) as u64;
        if total >= tau {
            return true;
        }
    }
    false
}

/// Definition 3.3 with early exits on both levels: member conflicts are
/// decided by [`conflict_weight_at_least`] and the scan stops at `τ'`
/// conflicting members. Equivalent to [`crate::conflict::psi_g`].
pub fn psi_g_fast(k1: &[Vec<Color>], k2: &[Vec<Color>], tau_prime: u64, tau: u64, g: u64) -> bool {
    let mut conflicting = 0u64;
    for c in k1 {
        if k2.iter().any(|c2| conflict_weight_at_least(c, c2, tau, g)) {
            conflicting += 1;
            if conflicting >= tau_prime {
                return true;
            }
        }
    }
    false
}

/// Hit/miss accounting of a [`TypeCache`].
///
/// The call/miss/distinct/eviction counters are deterministic — pure
/// functions of the instance and the request sequence, so they byte-diff
/// across runs, thread counts, and with the shared cache on or off
/// (experiment E18 tabulates them). `shared_hits` / `shared_misses`
/// split the same private misses by whether the fleet-shared cache
/// resolved them; that split depends on job scheduling once fleet shards
/// overlap, so it is kept out of byte-diffed artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Candidate-set selections requested.
    pub select_calls: u64,
    /// Selections actually computed (misses; hits = calls − misses).
    pub select_misses: u64,
    /// Pairwise `τ&g`-conflict verdicts requested.
    pub conflict_calls: u64,
    /// Verdicts actually computed.
    pub conflict_misses: u64,
    /// Distinct interned `(list)` types seen.
    pub distinct_lists: u64,
    /// Distinct candidate sets packed.
    pub distinct_sets: u64,
    /// Interned lists dropped by capacity-bound epoch resets.
    pub evictions: u64,
    /// Private misses resolved from the fleet-shared cache
    /// (scheduling-dependent; see the struct docs).
    pub shared_hits: u64,
    /// Private misses the fleet-shared cache also missed (computed
    /// locally, then published to it).
    pub shared_misses: u64,
}

impl KernelStats {
    /// Fold another cache's counters into this one (a Theorem 1.1 solve
    /// aggregates the auxiliary instance's cache and the main one).
    pub fn absorb(&mut self, other: &KernelStats) {
        self.select_calls += other.select_calls;
        self.select_misses += other.select_misses;
        self.conflict_calls += other.conflict_calls;
        self.conflict_misses += other.conflict_misses;
        self.distinct_lists += other.distinct_lists;
        self.distinct_sets += other.distinct_sets;
        self.evictions += other.evictions;
        self.shared_hits += other.shared_hits;
        self.shared_misses += other.shared_misses;
    }
}

/// Key of a memoized selection: the node type `(init_color, list)` —
/// with the list replaced by its interned id — plus `(k, attempt)`.
type SelectKey = (u64, u32, u64, u32);

/// Deterministic FxHash-style hasher for the kernel maps. The shared
/// cache must pick the same shard for the same key in every process (so
/// no `RandomState`), and the per-call memo probes are small fixed-shape
/// keys where SipHash costs more than the bucket walk it guards.
#[derive(Default)]
pub struct DetHasher(u64);

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Hash map with deterministic, cross-process-stable hashing.
type DetMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// Default bound on interned lists per [`TypeCache`]: generous enough
/// that no benchmark workload short of the adversarial all-distinct-lists
/// one ever trips it, small enough that a long fleet run cannot leak.
pub const DEFAULT_LIST_CAPACITY: usize = 1 << 15;

/// Work threshold (in total color slots) below which a batched kernel
/// phase runs inline — the same idiom as the engine's slots-per-chunk
/// constant: fan-out only pays once a phase carries real volume.
const PAR_WORK_THRESHOLD: u64 = 1 << 15;

/// How a solve runs its kernels: implementation mode, worker threads for
/// the batched phases, the interned-list capacity bound, and an optional
/// fleet-shared cache. `KernelConfig::from(mode)` reproduces the
/// historical sequential, private-cache behavior exactly.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Kernel implementations (fast vs. reference).
    pub mode: KernelMode,
    /// Worker threads for the batched kernel phases (1 = sequential; the
    /// outputs are byte-identical at every value).
    pub threads: usize,
    /// Interned-list capacity; reaching it triggers a deterministic
    /// epoch reset (see [`TypeCache`]).
    pub list_capacity: usize,
    /// Fleet-shared kernel cache, if any.
    pub shared: Option<Arc<SharedTypeCache>>,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            mode: KernelMode::default(),
            threads: 1,
            list_capacity: DEFAULT_LIST_CAPACITY,
            shared: None,
        }
    }
}

impl From<KernelMode> for KernelConfig {
    fn from(mode: KernelMode) -> Self {
        KernelConfig {
            mode,
            ..KernelConfig::default()
        }
    }
}

impl KernelConfig {
    /// Set the worker-thread count for the batched phases.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the interned-list capacity bound.
    pub fn with_list_capacity(mut self, cap: usize) -> Self {
        self.list_capacity = cap.max(1);
        self
    }

    /// Attach a fleet-shared cache.
    pub fn with_shared(mut self, shared: Arc<SharedTypeCache>) -> Self {
        self.shared = Some(shared);
        self
    }
}

/// Merged totals of a [`SharedTypeCache`] (shards folded in index order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries currently resident (selections + verdicts).
    pub entries: u64,
    /// Entries dropped by per-shard epoch resets.
    pub evictions: u64,
}

/// Shared selection key: `(strategy seed, init_color, k, attempt, list)`
/// — everything `SeededSubset::select` is a function of, with the list
/// compared by contents (`Arc<[Color]>` hashes and compares through the
/// slice), so a hit is always byte-identical to recomputation.
type SharedSelectKey = (u64, u64, u64, u32, Arc<[Color]>);

/// Shared verdict key: `(τ, g, smaller set, larger set)` with the pair
/// ordered lexicographically by contents (`conflict_weight` is
/// symmetric).
type SharedVerdictKey = (u64, u64, Arc<[Color]>, Arc<[Color]>);

#[derive(Default)]
struct SharedShard {
    select: DetMap<SharedSelectKey, Arc<[Color]>>,
    verdicts: DetMap<SharedVerdictKey, bool>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A fleet-wide kernel cache: candidate-set selections and conflict
/// verdicts interned behind a sharded lock map so same-shaped jobs in a
/// batch warm each other's subset-selection and conflict-verdict
/// entries.
///
/// Keys embed everything the kernels are functions of (see
/// `SharedSelectKey` / `SharedVerdictKey`), so one cache can serve
/// solver invocations with different seeds, thresholds, and spacings.
/// The shard of a key is its deterministic [`DetHasher`] hash modulo the
/// shard count; each shard's maps are capacity-bounded with a clear-all
/// epoch reset, and [`SharedTypeCache::snapshot`] merges per-shard stats
/// in shard-index order.
///
/// The shared layer never alters private [`KernelStats`] accounting: a
/// shared hit still counts as a private miss (only the recomputation is
/// skipped and the result is installed into the private memo), so every
/// per-job stat row byte-matches with the shared cache on or off. Only
/// the `shared_hits` / `shared_misses` split — and this cache's own
/// [`SharedCacheStats`] — reveal sharing, and those are
/// scheduling-dependent once fleet shards overlap in time.
pub struct SharedTypeCache {
    shards: Vec<Mutex<SharedShard>>,
    shard_capacity: usize,
}

impl std::fmt::Debug for SharedTypeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTypeCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .finish()
    }
}

impl SharedTypeCache {
    /// A cache with `shards` lock shards, each holding at most
    /// `shard_capacity` entries per map (selections and verdicts are
    /// bounded independently; reaching a bound clears that map).
    pub fn new(shards: usize, shard_capacity: usize) -> Arc<Self> {
        Arc::new(SharedTypeCache {
            shards: (0..shards.clamp(1, 256))
                .map(|_| Mutex::new(SharedShard::default()))
                .collect(),
            shard_capacity: shard_capacity.max(1),
        })
    }

    /// The default fleet configuration: 16 shards × 2¹⁴ entries.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(16, 1 << 14)
    }

    fn hash_key<K: std::hash::Hash>(key: &K) -> u64 {
        let mut h = DetHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    fn shard(&self, hash: u64) -> std::sync::MutexGuard<'_, SharedShard> {
        let i = (hash % self.shards.len() as u64) as usize;
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn select_get(&self, key: &SharedSelectKey) -> Option<Arc<[Color]>> {
        let mut s = self.shard(Self::hash_key(key));
        match s.select.get(key) {
            Some(set) => {
                let set = set.clone();
                s.hits += 1;
                Some(set)
            }
            None => {
                s.misses += 1;
                None
            }
        }
    }

    fn select_put(&self, key: SharedSelectKey, set: Arc<[Color]>) {
        let cap = self.shard_capacity;
        let mut s = self.shard(Self::hash_key(&key));
        if s.select.len() >= cap {
            s.evictions += s.select.len() as u64;
            s.select.clear();
        }
        s.select.insert(key, set);
    }

    fn verdict_key(tau: u64, g: u64, a: &Arc<[Color]>, b: &Arc<[Color]>) -> SharedVerdictKey {
        if a.as_ref() <= b.as_ref() {
            (tau, g, a.clone(), b.clone())
        } else {
            (tau, g, b.clone(), a.clone())
        }
    }

    fn verdict_get(&self, key: &SharedVerdictKey) -> Option<bool> {
        let mut s = self.shard(Self::hash_key(key));
        match s.verdicts.get(key).copied() {
            Some(v) => {
                s.hits += 1;
                Some(v)
            }
            None => {
                s.misses += 1;
                None
            }
        }
    }

    fn verdict_put(&self, key: SharedVerdictKey, verdict: bool) {
        let cap = self.shard_capacity;
        let mut s = self.shard(Self::hash_key(&key));
        if s.verdicts.len() >= cap {
            s.evictions += s.verdicts.len() as u64;
            s.verdicts.clear();
        }
        s.verdicts.insert(key, verdict);
    }

    /// Merged totals over all shards, folded in shard-index order
    /// (deterministic once the fleet is quiescent).
    pub fn snapshot(&self) -> SharedCacheStats {
        let mut out = SharedCacheStats::default();
        for m in &self.shards {
            let s = m.lock().unwrap_or_else(|e| e.into_inner());
            out.hits += s.hits;
            out.misses += s.misses;
            out.entries += (s.select.len() + s.verdicts.len()) as u64;
            out.evictions += s.evictions;
        }
        out
    }
}

/// Chunk boundaries splitting `items` into `chunks` near-equal ranges.
fn chunk_bounds(items: usize, chunks: usize) -> Vec<usize> {
    (0..=chunks).map(|c| c * items / chunks).collect()
}

/// Per-solve memoization of the type-keyed solver kernels.
///
/// One cache serves one solver invocation (one `(seed, τ, g)` regime);
/// everything it returns is a pure function of its inputs, so routing a
/// solver through it cannot change any output byte — it only skips
/// recomputation. See the module docs for the keying discipline.
pub struct TypeCache {
    mode: KernelMode,
    strategy: SeededSubset,
    tau: u64,
    g: u64,
    /// Worker threads for the batched phases (1 = always inline).
    threads: usize,
    /// Interned-list capacity; reaching it resets the list epoch.
    list_capacity: usize,
    /// Bumped on every capacity-bound epoch reset.
    list_epoch: u64,
    /// Fleet-shared cache, consulted on private misses.
    shared: Option<Arc<SharedTypeCache>>,
    /// fingerprint → interned list ids with that fingerprint (equality is
    /// verified on lookup, so collisions cannot alias two types).
    list_ids: HashMap<u64, Vec<u32>>,
    list_store: Vec<Arc<[Color]>>,
    select_memo: HashMap<SelectKey, Arc<[Color]>>,
    /// `Arc` address → packed id. Valid because `arcs` pins every interned
    /// allocation for the cache's lifetime.
    packed_ids: HashMap<usize, u32>,
    packed: Vec<PackedSet>,
    arcs: Vec<Arc<[Color]>>,
    verdicts: HashMap<(u32, u32), bool>,
    /// Per-node scratch of [`Self::prune`]: packed ids of the ports
    /// (sorted), then the same ids run-length grouped.
    group_scratch: Vec<u32>,
    groups: Vec<(u32, u64)>,
    /// Counters (see [`KernelStats`]).
    pub stats: KernelStats,
}

impl TypeCache {
    /// A cache for one solve under `(strategy, τ, g)`, run as `cfg` says
    /// (mode, threads, list capacity, shared cache).
    pub fn new(strategy: SeededSubset, tau: u64, g: u64, cfg: &KernelConfig) -> Self {
        TypeCache {
            mode: cfg.mode,
            strategy,
            tau,
            g,
            threads: cfg.threads.max(1),
            list_capacity: cfg.list_capacity.max(1),
            list_epoch: 0,
            shared: cfg.shared.clone(),
            list_ids: HashMap::new(),
            list_store: Vec::new(),
            select_memo: HashMap::new(),
            packed_ids: HashMap::new(),
            packed: Vec::new(),
            arcs: Vec::new(),
            verdicts: HashMap::new(),
            group_scratch: Vec::new(),
            groups: Vec::new(),
            stats: KernelStats::default(),
        }
    }

    /// The raw verdict of two interned sets: adaptive popcount when `g`
    /// is 0 and the word spans are cheaper than the merge, the early-exit
    /// merge otherwise. Same verdict either way (both equal
    /// `conflict_weight ≥ τ`). `&self` only — callable from the parallel
    /// batch pass.
    fn compute_verdict(&self, ia: u32, ib: u32) -> bool {
        let (a, b) = (&self.arcs[ia as usize], &self.arcs[ib as usize]);
        if self.g == 0 {
            let (pa, pb) = (&self.packed[ia as usize], &self.packed[ib as usize]);
            let words = pa.word_count().min(pb.word_count());
            if words <= a.len() + b.len() {
                return pa.intersection_size(pb) >= self.tau;
            }
        }
        conflict_weight_at_least(a, b, self.tau, self.g)
    }

    /// Intern a candidate set by address and return its packed id
    /// (`Fast` mode only). The id indexes a dense table, so the hot
    /// per-color loops pay array indexing instead of hashing.
    fn packed_id(&mut self, set: &Arc<[Color]>) -> u32 {
        let key = Arc::as_ptr(set) as *const Color as usize;
        if let Some(&id) = self.packed_ids.get(&key) {
            return id;
        }
        let id = self.packed.len() as u32;
        self.packed.push(PackedSet::from_sorted(set));
        self.arcs.push(set.clone());
        self.packed_ids.insert(key, id);
        self.stats.distinct_sets += 1;
        id
    }

    /// Theorem 1.1's Phase I pruning of one node's list: drop every color
    /// that more than `budget` of `sets` contain (`sets` yields one
    /// candidate set per lower-class out-port).
    ///
    /// `Fast` groups the ports by distinct candidate set, so ports sharing
    /// a set add their multiplicity per hit and membership is one packed
    /// probe; the count compared to `budget` is the same sum
    /// `reference_prune` accumulates port by port.
    pub fn prune<'p>(
        &mut self,
        list: &mut Vec<Color>,
        budget: u64,
        sets: impl Iterator<Item = &'p Arc<[Color]>>,
    ) {
        if self.mode == KernelMode::Reference {
            reference_prune(list, budget, &sets.collect::<Vec<_>>());
            return;
        }
        let mut ids = std::mem::take(&mut self.group_scratch);
        ids.clear();
        ids.extend(sets.map(|cu| self.packed_id(cu)));
        ids.sort_unstable();
        self.groups.clear();
        for &id in &ids {
            match self.groups.last_mut() {
                Some((gid, mult)) if *gid == id => *mult += 1,
                _ => self.groups.push((id, 1)),
            }
        }
        self.group_scratch = ids;
        let (packed, groups) = (&self.packed, &self.groups);
        list.retain(|&x| {
            let mut cnt = 0u64;
            for &(id, mult) in groups {
                if packed[id as usize].contains(x) {
                    cnt += mult;
                    if cnt > budget {
                        return false;
                    }
                }
            }
            true
        });
    }

    /// The `Fast` frequency pass of [`Self::best_color_batch`], over one
    /// job's gathered inputs: `ids` / `decided` are the (unsorted) packed
    /// ids and decided colors of the node's relevant ports; `freq` is
    /// scratch. It computes, for each candidate color `x`, the frequency
    /// `f(x) = #{decided ports: |c − x| ≤ g} + Σ_{undecided sets} μ_g(x, C)`
    /// and picks the minimizing `(f, x)` (ties toward the smaller color) —
    /// exactly the scan of `reference_best_color`, regrouped twice:
    /// ports sharing a candidate set contribute `multiplicity · μ_g` in
    /// one probe, and the set loop is outermost so each packed set streams
    /// through one frequency array instead of being re-probed per color
    /// (`f` is a commutative `u64` sum, so the regrouping is byte-exact).
    fn best_color_core(
        packed: &[PackedSet],
        g: u64,
        cand: &[Color],
        ids: &mut [u32],
        decided: &mut [Color],
        freq: &mut Vec<u64>,
    ) -> Option<(u64, Color)> {
        freq.clear();
        freq.resize(cand.len(), 0);
        decided.sort_unstable();
        ids.sort_unstable();
        let mut at = 0usize;
        while at < ids.len() {
            let id = ids[at];
            let mut mult = 0u64;
            while at < ids.len() && ids[at] == id {
                mult += 1;
                at += 1;
            }
            let set = &packed[id as usize];
            if g == 0 {
                for (f, &x) in freq.iter_mut().zip(cand) {
                    *f += mult * u64::from(set.contains(x));
                }
            } else {
                for (f, &x) in freq.iter_mut().zip(cand) {
                    *f += mult * set.count_range(x.saturating_sub(g), x.saturating_add(g));
                }
            }
        }
        let mut best: Option<(u64, Color)> = None;
        for (&x, &fs) in cand.iter().zip(freq.iter()) {
            let lo = x.saturating_sub(g);
            let hi = x.saturating_add(g);
            let start = decided.partition_point(|&c| c < lo);
            let end = decided.partition_point(|&c| c <= hi);
            let f = fs + (end - start) as u64;
            if best.map_or(true, |(bf, bx)| f < bf || (f == bf && x < bx)) {
                best = Some((f, x));
            }
        }
        best
    }

    /// Interning of a color list (by contents, not address): fingerprint
    /// lookup plus an equality check against every stored list sharing the
    /// fingerprint.
    fn intern_list(&mut self, list: &[Color]) -> u32 {
        let fp = list_fingerprint(list);
        if let Some(bucket) = self.list_ids.get(&fp) {
            for &id in bucket.iter() {
                if *self.list_store[id as usize] == *list {
                    return id;
                }
            }
        }
        // A new list at the capacity bound resets the list epoch: the
        // interned lists, their fingerprint buckets, and the select memo
        // (its keys embed list ids) are dropped together. The reset is a
        // pure function of the interning sequence, so thread counts and
        // shared-cache state cannot change when it fires.
        if self.list_store.len() >= self.list_capacity {
            self.stats.evictions += self.list_store.len() as u64;
            self.list_epoch += 1;
            self.list_ids.clear();
            self.list_store.clear();
            self.select_memo.clear();
        }
        let id = self.list_store.len() as u32;
        self.list_store.push(Arc::from(list));
        self.list_ids.entry(fp).or_default().push(id);
        self.stats.distinct_lists += 1;
        id
    }

    /// Chunk count for a batched phase over `items` units carrying `work`
    /// total color slots: 1 (inline) unless the configured thread count
    /// and the work volume justify fan-out.
    fn par_chunks(&self, items: usize, work: u64) -> usize {
        if self.threads <= 1 || items < 2 || work < PAR_WORK_THRESHOLD {
            1
        } else {
            self.threads.min(MAX_CHUNKS).min(items)
        }
    }

    /// `f` over `items`, in item order: inline, or fanned out over the pool
    /// when the configured threads and the `work` volume (total color
    /// slots) justify it. Each chunk gets its own `scratch()` and writes a
    /// disjoint output range, so for a pure `f` no thread count or chunk
    /// completion order can change a result.
    fn par_map<T: Sync, S, R: Send>(
        &self,
        items: &[T],
        work: u64,
        scratch: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, &T) -> R + Sync,
    ) -> Vec<R> {
        let chunks = self.par_chunks(items.len(), work);
        let bounds = chunk_bounds(items.len(), chunks);
        let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let slots = DisjointChunks::new(&mut out, &bounds);
        pool_execute(self.threads, chunks, |c| {
            let mut s = scratch();
            for (slot, item) in slots.take(c).iter_mut().zip(&items[bounds[c]..]) {
                *slot = Some(f(&mut s, item));
            }
        });
        out.into_iter().map(|r| r.expect("chunk filled")).collect()
    }

    /// Selections computed from scratch (no memo), in request order.
    fn compute_selections(&self, reqs: &[SelectReq<'_>]) -> Vec<Arc<[Color]>> {
        let work = reqs.iter().map(|r| r.list.len() as u64).sum();
        let strategy = self.strategy;
        self.par_map(reqs, work, Vec::new, |scratch, r| {
            strategy.select_into(r.init_color, r.list, r.k, r.attempt, scratch);
            Arc::from(&scratch[..])
        })
    }

    /// Candidate-set selection, memoized per `(type, k, attempt)`: every
    /// result is byte-identical to `SeededSubset::select` on the request
    /// (a pure function of exactly this key plus the shared seed).
    ///
    /// Results, stats, and memo state equal those of issuing the requests
    /// one at a time in order, but the selections neither memo layer
    /// holds are computed out-of-order across the worker pool and
    /// published in queue order. Two requests with the same key cost one
    /// computation and one miss, exactly as the second one-at-a-time
    /// request would have hit the memo entry of the first.
    pub fn select_batch(&mut self, reqs: &[SelectReq<'_>]) -> Vec<Arc<[Color]>> {
        if self.mode == KernelMode::Reference {
            self.stats.select_calls += reqs.len() as u64;
            self.stats.select_misses += reqs.len() as u64;
            return self.compute_selections(reqs);
        }
        enum Slot {
            Done(Arc<[Color]>),
            Pending(u32),
        }
        // Pass 1 (sequential, request order): count calls, intern lists,
        // probe the private memo and the shared cache, queue the rest.
        let mut slots: Vec<Slot> = Vec::with_capacity(reqs.len());
        let mut pending: Vec<PendingSelect> = Vec::new();
        let mut pending_of: DetMap<SelectKey, u32> = DetMap::default();
        let mut epoch = self.list_epoch;
        for r in reqs {
            self.stats.select_calls += 1;
            let list_id = self.intern_list(r.list);
            if self.list_epoch != epoch {
                // An epoch reset wiped the select memo; queued keys from
                // the old epoch must not alias re-issued list ids, so the
                // key → queue-index map restarts with the epoch (already
                // queued computations still run and resolve their slots).
                epoch = self.list_epoch;
                pending_of.clear();
            }
            let key: SelectKey = (r.init_color, list_id, r.k as u64, r.attempt);
            if let Some(set) = self.select_memo.get(&key) {
                slots.push(Slot::Done(set.clone()));
                continue;
            }
            if let Some(&pi) = pending_of.get(&key) {
                slots.push(Slot::Pending(pi));
                continue;
            }
            self.stats.select_misses += 1;
            let shared_key = if let Some(shared) = self.shared.clone() {
                let skey: SharedSelectKey = (
                    self.strategy.seed,
                    r.init_color,
                    r.k as u64,
                    r.attempt,
                    self.list_store[list_id as usize].clone(),
                );
                if let Some(set) = shared.select_get(&skey) {
                    self.stats.shared_hits += 1;
                    self.select_memo.insert(key, set.clone());
                    slots.push(Slot::Done(set));
                    continue;
                }
                self.stats.shared_misses += 1;
                Some(skey)
            } else {
                None
            };
            pending_of.insert(key, pending.len() as u32);
            slots.push(Slot::Pending(pending.len() as u32));
            pending.push(PendingSelect {
                key,
                epoch,
                req: *r,
                shared_key,
            });
        }
        // Pass 2 (parallel): compute the queued selections.
        let queued: Vec<SelectReq<'_>> = pending.iter().map(|p| p.req).collect();
        let computed = self.compute_selections(&queued);
        // Pass 3 (sequential, queue order): publish. Entries queued
        // before an epoch reset are not re-inserted into the memo — the
        // sequential loop would have inserted and then wiped them.
        for (p, set) in pending.into_iter().zip(computed.iter()) {
            if p.epoch == self.list_epoch {
                self.select_memo.insert(p.key, set.clone());
            }
            if let (Some(skey), Some(shared)) = (p.shared_key, self.shared.as_ref()) {
                shared.select_put(skey, set.clone());
            }
        }
        slots
            .into_iter()
            .map(|s| match s {
                Slot::Done(set) => set,
                Slot::Pending(pi) => computed[pi as usize].clone(),
            })
            .collect()
    }

    /// Pairwise `τ&g`-conflict verdicts (Definition 3.2), cached per
    /// unordered set pair (`conflict_weight` is symmetric). Verdicts,
    /// stats, and memo state equal those of checking `pairs` one at a
    /// time in order; the verdicts neither memo layer holds are pure
    /// functions of the two interned sets and fan out over the pool (the
    /// packed tables are frozen for the pass — `Self::compute_verdict`
    /// takes `&self`).
    pub fn conflict_batch(&mut self, pairs: &[ListPair]) -> Vec<bool> {
        if self.mode == KernelMode::Reference {
            self.stats.conflict_calls += pairs.len() as u64;
            self.stats.conflict_misses += pairs.len() as u64;
            let work = pairs.iter().map(|(a, b)| (a.len() + b.len()) as u64).sum();
            let (tau, g) = (self.tau, self.g);
            return self.par_map(pairs, work, || (), |_, (a, b)| tau_g_conflict(a, b, tau, g));
        }
        enum Slot {
            Done(bool),
            Pending(u32),
        }
        // Pass 1 (sequential, pair order): intern, probe, queue.
        let mut slots: Vec<Slot> = Vec::with_capacity(pairs.len());
        let mut pending: Vec<PendingVerdict> = Vec::new();
        let mut pending_of: DetMap<(u32, u32), u32> = DetMap::default();
        for (a, b) in pairs {
            self.stats.conflict_calls += 1;
            let ia = self.packed_id(a);
            let ib = self.packed_id(b);
            let key = (ia.min(ib), ia.max(ib));
            if let Some(&v) = self.verdicts.get(&key) {
                slots.push(Slot::Done(v));
                continue;
            }
            if let Some(&pi) = pending_of.get(&key) {
                slots.push(Slot::Pending(pi));
                continue;
            }
            self.stats.conflict_misses += 1;
            let shared_key = if let Some(shared) = self.shared.clone() {
                let skey = SharedTypeCache::verdict_key(self.tau, self.g, a, b);
                if let Some(v) = shared.verdict_get(&skey) {
                    self.stats.shared_hits += 1;
                    self.verdicts.insert(key, v);
                    slots.push(Slot::Done(v));
                    continue;
                }
                self.stats.shared_misses += 1;
                Some(skey)
            } else {
                None
            };
            pending_of.insert(key, pending.len() as u32);
            slots.push(Slot::Pending(pending.len() as u32));
            pending.push(PendingVerdict { key, shared_key });
        }
        // Pass 2 (parallel): compute the missing verdicts.
        let work = pending
            .iter()
            .map(|p| (self.arcs[p.key.0 as usize].len() + self.arcs[p.key.1 as usize].len()) as u64)
            .sum();
        let computed = self.par_map(
            &pending,
            work,
            || (),
            |_, p| self.compute_verdict(p.key.0, p.key.1),
        );
        // Pass 3 (sequential, queue order): publish.
        for (p, &v) in pending.into_iter().zip(computed.iter()) {
            self.verdicts.insert(p.key, v);
            if let (Some(skey), Some(shared)) = (p.shared_key, self.shared.as_ref()) {
                shared.verdict_put(skey, v);
            }
        }
        slots
            .into_iter()
            .map(|s| match s {
                Slot::Done(v) => v,
                Slot::Pending(pi) => computed[pi as usize],
            })
            .collect()
    }

    /// Append one node's decision job to `batch`. `ports` yields, per
    /// relevant port, either the neighbor's decided color or its
    /// undecided candidate set. Jobs must be pushed in node order — the
    /// packed-id interning this performs is part of the deterministic
    /// stats stream.
    pub fn push_decision<'p>(
        &mut self,
        batch: &mut DecisionBatch,
        cand: &Arc<[Color]>,
        ports: impl Iterator<Item = (Option<Color>, Option<&'p Arc<[Color]>>)>,
    ) {
        let d0 = batch.decided.len() as u32;
        let s0 = batch.set_count() as u32;
        for (dec, set) in ports {
            match (dec, set) {
                (Some(c), _) => batch.decided.push(c),
                (None, Some(cu)) if self.mode == KernelMode::Reference => {
                    batch.sets.push(cu.clone())
                }
                (None, Some(cu)) => batch.ids.push(self.packed_id(cu)),
                (None, None) => {}
            }
        }
        batch.jobs.push(DecisionJob {
            cand: cand.clone(),
            decided: (d0, batch.decided.len() as u32),
            sets: (s0, batch.set_count() as u32),
        });
    }

    /// Every gathered decision job's best `(frequency, color)` (see
    /// `reference_best_color`), in push order. The frequency pass is a
    /// pure function of the gathered inputs, so per-chunk scratch and
    /// out-of-order chunk execution cannot change any result.
    pub fn best_color_batch(&self, batch: &DecisionBatch) -> Vec<Option<(u64, Color)>> {
        let work = batch
            .jobs
            .iter()
            .map(|j| j.cand.len() as u64 * (1 + u64::from(j.sets.1 - j.sets.0)))
            .sum();
        let scratch = || (Vec::new(), Vec::new(), Vec::new());
        self.par_map(&batch.jobs, work, scratch, |(ids, decided, freq), j| {
            let dec = &batch.decided[j.decided.0 as usize..j.decided.1 as usize];
            let sets = j.sets.0 as usize..j.sets.1 as usize;
            match self.mode {
                KernelMode::Reference => {
                    reference_best_color(&j.cand, self.g, dec, &batch.sets[sets])
                }
                KernelMode::Fast => {
                    ids.clear();
                    ids.extend_from_slice(&batch.ids[sets]);
                    decided.clear();
                    decided.extend_from_slice(dec);
                    Self::best_color_core(&self.packed, self.g, &j.cand, ids, decided, freq)
                }
            }
        })
    }
}

/// The naive Phase I pruning loop, the oracle of [`TypeCache::prune`]:
/// per color, a port-by-port binary search that stops once the count
/// passes `budget`.
fn reference_prune(list: &mut Vec<Color>, budget: u64, sets: &[&Arc<[Color]>]) {
    list.retain(|&x| {
        let mut cnt = 0u64;
        for cu in sets {
            if cu.binary_search(&x).is_ok() {
                cnt += 1;
                if cnt > budget {
                    return false;
                }
            }
        }
        true
    });
}

/// The naive frequency scan, the oracle of [`TypeCache::best_color_batch`]:
/// for each candidate color `x`,
/// `f(x) = #{decided c: |c − x| ≤ g} + Σ_{sets C} μ_g(x, C)`, minimized
/// over `(f, x)` with ties toward the smaller color. One routine serves
/// the §3.2 decisions and Theorem 1.1's Phase II and laggard decisions
/// (which run with `g = 0`, where `|c − x| ≤ g` is `c = x` and `μ_0` is
/// membership).
fn reference_best_color(
    cand: &[Color],
    g: u64,
    decided: &[Color],
    sets: &[Arc<[Color]>],
) -> Option<(u64, Color)> {
    let mut best: Option<(u64, Color)> = None;
    for &x in cand {
        let mut f = 0u64;
        for &c in decided {
            f += u64::from(c.abs_diff(x) <= g);
        }
        for cu in sets {
            f += mu_g(x, cu, g);
        }
        if best.map_or(true, |(bf, bx)| f < bf || (f == bf && x < bx)) {
            best = Some((f, x));
        }
    }
    best
}

/// One request of a batched candidate-set selection
/// ([`TypeCache::select_batch`]).
#[derive(Debug, Clone, Copy)]
pub struct SelectReq<'a> {
    /// The node type's initial color.
    pub init_color: u64,
    /// The node type's (sorted) color list.
    pub list: &'a [Color],
    /// Subset size.
    pub k: usize,
    /// Retry attempt.
    pub attempt: u32,
}

/// A queued selection of [`TypeCache::select_batch`]: the request itself
/// (its list borrows the caller's slice, so it stays valid even if an
/// epoch reset recycles the list's id) plus what publishing needs.
struct PendingSelect<'a> {
    key: SelectKey,
    epoch: u64,
    req: SelectReq<'a>,
    shared_key: Option<SharedSelectKey>,
}

/// A queued verdict of [`TypeCache::conflict_batch`].
struct PendingVerdict {
    key: (u32, u32),
    shared_key: Option<SharedVerdictKey>,
}

/// Gathered decision jobs for [`TypeCache::best_color_batch`]: per job a
/// candidate set plus ranges into shared arenas of decided colors and of
/// undecided neighbor sets — packed ids in `Fast` mode, the sets
/// themselves in `Reference` mode.
#[derive(Default)]
pub struct DecisionBatch {
    jobs: Vec<DecisionJob>,
    decided: Vec<Color>,
    ids: Vec<u32>,
    sets: Vec<Arc<[Color]>>,
}

struct DecisionJob {
    cand: Arc<[Color]>,
    decided: (u32, u32),
    /// Range into `ids` or `sets`, whichever the cache's mode fills.
    sets: (u32, u32),
}

impl DecisionBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all gathered jobs, keeping the arena allocations.
    pub fn clear(&mut self) {
        self.jobs.clear();
        self.decided.clear();
        self.ids.clear();
        self.sets.clear();
    }

    /// Entries in the undecided-set arena (only one mode's arena is ever
    /// filled).
    fn set_count(&self) -> usize {
        self.ids.len() + self.sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::{conflict_weight, mu_g, psi_g};

    fn mk(colors: &[u64]) -> Vec<u64> {
        let mut v = colors.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn packed_membership_matches_binary_search() {
        let list = mk(&[3, 64, 65, 127, 128, 1000, 1001]);
        let set = PackedSet::from_sorted(&list);
        assert_eq!(set.len(), list.len() as u64);
        for x in 0..1100u64 {
            assert_eq!(set.contains(x), list.binary_search(&x).is_ok(), "x = {x}");
        }
    }

    #[test]
    fn packed_count_range_matches_mu() {
        let list = mk(&[0, 1, 63, 64, 65, 127, 200, 201, 202]);
        let set = PackedSet::from_sorted(&list);
        for x in 0..260u64 {
            for g in [0u64, 1, 2, 63, 64, 500] {
                assert_eq!(
                    set.count_range(x.saturating_sub(g), x + g),
                    mu_g(x, &list, g),
                    "x = {x}, g = {g}"
                );
            }
        }
    }

    #[test]
    fn packed_intersection_respects_offsets() {
        // Offset-normalization edge cases: bases far apart, word-boundary
        // straddles, and a high-offset pair (the aux instances live at
        // tiny colors, the main instance anywhere).
        let base = 1u64 << 40;
        let a = mk(&[base + 1, base + 64, base + 65, base + 200]);
        let b = mk(&[base + 64, base + 200, base + 201]);
        let (pa, pb) = (PackedSet::from_sorted(&a), PackedSet::from_sorted(&b));
        assert_eq!(pa.intersection_size(&pb), conflict_weight(&a, &b, 0));
        assert_eq!(pb.intersection_size(&pa), conflict_weight(&a, &b, 0));
        // Disjoint spans.
        let c = mk(&[5, 9]);
        let pc = PackedSet::from_sorted(&c);
        assert_eq!(pa.intersection_size(&pc), 0);
        assert_eq!(pc.intersection_size(&pa), 0);
    }

    #[test]
    fn early_exit_merge_matches_threshold() {
        let a = mk(&[0, 3, 6, 7, 20, 21, 22]);
        let b = mk(&[1, 2, 6, 19, 22, 23]);
        for g in 0..6u64 {
            let w = conflict_weight(&a, &b, g);
            for tau in 0..w + 3 {
                assert_eq!(
                    conflict_weight_at_least(&a, &b, tau, g),
                    w >= tau,
                    "g = {g}, tau = {tau}"
                );
            }
        }
    }

    #[test]
    fn psi_fast_matches_naive() {
        let k1 = vec![mk(&[1, 2]), mk(&[10, 11]), mk(&[20, 21])];
        let k2 = vec![mk(&[1, 2]), mk(&[20, 22])];
        for tp in 1..4 {
            for tau in 1..4 {
                for g in 0..3 {
                    assert_eq!(
                        psi_g_fast(&k1, &k2, tp, tau, g),
                        psi_g(&k1, &k2, tp, tau, g),
                        "τ' = {tp}, τ = {tau}, g = {g}"
                    );
                }
            }
        }
    }

    const MODES: [KernelMode; 2] = [KernelMode::Fast, KernelMode::Reference];
    const THREADS: [usize; 4] = [1, 2, 4, 8];

    fn cfg(mode: KernelMode, threads: usize) -> KernelConfig {
        KernelConfig::from(mode).with_threads(threads)
    }

    fn req(init_color: u64, list: &[u64], k: usize, attempt: u32) -> SelectReq<'_> {
        SelectReq {
            init_color,
            list,
            k,
            attempt,
        }
    }

    /// One selection per batch: the one-at-a-time order every larger
    /// batch must reproduce.
    fn select_one(cache: &mut TypeCache, r: SelectReq<'_>) -> Arc<[u64]> {
        cache.select_batch(&[r]).remove(0)
    }

    /// One verdict per batch (see [`select_one`]).
    fn conflict_one(cache: &mut TypeCache, a: &Arc<[u64]>, b: &Arc<[u64]>) -> bool {
        cache.conflict_batch(&[(a.clone(), b.clone())])[0]
    }

    #[test]
    fn cache_select_is_byte_identical_and_memoized() {
        let strategy = SeededSubset { seed: 99 };
        let list: Vec<u64> = (0..200).map(|i| i * 5).collect();
        let want = strategy.select(7, &list, 12, 0);
        for mode in MODES {
            for threads in THREADS {
                let tag = format!("{mode:?} t={threads}");
                let mut cache = TypeCache::new(strategy, 4, 0, &cfg(mode, threads));
                let a1 = select_one(&mut cache, req(7, &list, 12, 0));
                let a2 = select_one(&mut cache, req(7, &list, 12, 0));
                assert_eq!(&a1[..], &want[..], "{tag}");
                assert_eq!(a1, a2, "{tag}");
                assert_eq!(cache.stats.select_calls, 2, "{tag}");
                // An in-batch duplicate costs what a second call costs.
                let dup = cache.select_batch(&[req(7, &list, 12, 0), req(7, &list, 12, 0)]);
                assert_eq!(cache.stats.select_calls, 4, "{tag}");
                if mode == KernelMode::Fast {
                    assert!(
                        Arc::ptr_eq(&a1, &a2),
                        "{tag}: memo hit returns the same Arc"
                    );
                    assert!(dup.iter().all(|d| Arc::ptr_eq(d, &a1)), "{tag}");
                    assert_eq!(cache.stats.select_misses, 1, "{tag}");
                } else {
                    assert_eq!(
                        cache.stats.select_misses, 4,
                        "{tag}: reference never memoizes"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_conflict_verdicts_match_and_memoize() {
        let strategy = SeededSubset { seed: 5 };
        let a: Arc<[u64]> = Arc::from(&mk(&[1, 4, 9, 16, 25])[..]);
        let b: Arc<[u64]> = Arc::from(&mk(&[2, 3, 5, 8, 13, 21])[..]);
        for g in [0u64, 2] {
            let expect = tau_g_conflict(&a, &b, 3, g);
            for mode in MODES {
                for threads in THREADS {
                    let tag = format!("g={g} {mode:?} t={threads}");
                    let mut cache = TypeCache::new(strategy, 3, g, &cfg(mode, threads));
                    let got =
                        cache.conflict_batch(&[(a.clone(), b.clone()), (b.clone(), a.clone())]);
                    assert_eq!(got, vec![expect; 2], "{tag}");
                    assert_eq!(conflict_one(&mut cache, &b, &a), expect, "{tag}");
                    assert_eq!(cache.stats.conflict_calls, 3, "{tag}");
                    let misses = if mode == KernelMode::Fast { 1 } else { 3 };
                    assert_eq!(cache.stats.conflict_misses, misses, "{tag}: symmetric key");
                }
            }
        }
    }

    #[test]
    fn list_interning_is_collision_checked() {
        let strategy = SeededSubset { seed: 1 };
        let mut cache = TypeCache::new(strategy, 2, 0, &KernelConfig::default());
        let l1: Vec<u64> = (0..50).collect();
        let l2: Vec<u64> = (0..50).map(|i| i + 1).collect();
        let a = cache.intern_list(&l1);
        let b = cache.intern_list(&l2);
        let c = cache.intern_list(&l1);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_eq!(cache.stats.distinct_lists, 2);
    }

    /// A batch of mixed-type requests spanning memo hits, in-batch
    /// duplicates, and misses.
    fn sample_reqs(lists: &[Vec<u64>]) -> Vec<SelectReq<'_>> {
        let mut reqs = Vec::new();
        for round in 0..3u64 {
            for (li, list) in lists.iter().enumerate() {
                let r = req(round * 7 + li as u64, list, 5 + li % 3, (round % 2) as u32);
                // In-batch duplicate of the same type.
                reqs.extend([r, r]);
            }
        }
        reqs
    }

    #[test]
    fn select_batch_matches_sequential_at_every_thread_count() {
        let strategy = SeededSubset { seed: 12 };
        let lists: Vec<Vec<u64>> = (0..6)
            .map(|j| (0..120u64).map(|i| i * 3 + j).collect())
            .collect();
        let reqs = sample_reqs(&lists);
        for mode in MODES {
            let mut seq = TypeCache::new(strategy, 4, 0, &cfg(mode, 1));
            let expected: Vec<Arc<[u64]>> = reqs.iter().map(|&r| select_one(&mut seq, r)).collect();
            for (e, r) in expected.iter().zip(&reqs) {
                let want = strategy.select(r.init_color, r.list, r.k, r.attempt);
                assert_eq!(&e[..], &want[..], "{mode:?}");
            }
            for threads in THREADS {
                let mut batch = TypeCache::new(strategy, 4, 0, &cfg(mode, threads));
                let got = batch.select_batch(&reqs);
                for (g, e) in got.iter().zip(&expected) {
                    assert_eq!(&g[..], &e[..], "threads = {threads}, mode = {mode:?}");
                }
                assert_eq!(
                    batch.stats, seq.stats,
                    "threads = {threads}, mode = {mode:?}"
                );
            }
        }
    }

    #[test]
    fn conflict_batch_matches_sequential_at_every_thread_count() {
        let strategy = SeededSubset { seed: 3 };
        let sets: Vec<Arc<[u64]>> = (0..8)
            .map(|j| {
                let v: Vec<u64> = (0..90u64).map(|i| i * (j + 2)).collect();
                Arc::from(&v[..])
            })
            .collect();
        let mut pairs: Vec<ListPair> = Vec::new();
        for a in &sets {
            for b in &sets {
                pairs.push((a.clone(), b.clone()));
            }
        }
        for g in [0u64, 2] {
            for mode in MODES {
                let mut seq = TypeCache::new(strategy, 5, g, &cfg(mode, 1));
                let expected: Vec<bool> = pairs
                    .iter()
                    .map(|(a, b)| conflict_one(&mut seq, a, b))
                    .collect();
                for ((a, b), &e) in pairs.iter().zip(&expected) {
                    assert_eq!(e, tau_g_conflict(a, b, 5, g), "g = {g}, mode = {mode:?}");
                }
                for threads in THREADS {
                    let tag = format!("g = {g}, mode = {mode:?}, threads = {threads}");
                    let mut batch = TypeCache::new(strategy, 5, g, &cfg(mode, threads));
                    assert_eq!(batch.conflict_batch(&pairs), expected, "{tag}");
                    assert_eq!(batch.stats, seq.stats, "{tag}");
                }
            }
        }
    }

    #[test]
    fn best_color_batch_matches_sequential() {
        let strategy = SeededSubset { seed: 8 };
        let sets: Vec<Arc<[u64]>> = (0..5)
            .map(|j| {
                let v: Vec<u64> = (0..40u64).map(|i| i * 2 + j).collect();
                Arc::from(&v[..])
            })
            .collect();
        let cand: Arc<[u64]> = Arc::from(&(0..30u64).map(|i| i * 3).collect::<Vec<_>>()[..]);
        // Node `node`'s port `p`: a decided color or an undecided set.
        let port = |node: usize, p: usize| -> (Option<u64>, Option<&Arc<[u64]>>) {
            if (node + p) % 3 == 0 {
                (Some((node * 5 + p) as u64), None)
            } else {
                (None, Some(&sets[(node + p) % sets.len()]))
            }
        };
        for g in [0u64, 1] {
            let expected: Vec<Option<(u64, u64)>> = (0..12usize)
                .map(|node| {
                    let ports: Vec<_> = (0..sets.len()).map(|p| port(node, p)).collect();
                    let decided: Vec<u64> = ports.iter().filter_map(|&(c, _)| c).collect();
                    let undecided: Vec<Arc<[u64]>> =
                        ports.iter().filter_map(|&(_, s)| s.cloned()).collect();
                    reference_best_color(&cand, g, &decided, &undecided)
                })
                .collect();
            for mode in MODES {
                let mut stats = None;
                for threads in THREADS {
                    let tag = format!("g = {g}, mode = {mode:?}, threads = {threads}");
                    let mut cache = TypeCache::new(strategy, 3, g, &cfg(mode, threads));
                    let mut batch = DecisionBatch::new();
                    for node in 0..12usize {
                        cache.push_decision(
                            &mut batch,
                            &cand,
                            (0..sets.len()).map(|p| port(node, p)),
                        );
                    }
                    assert_eq!(cache.best_color_batch(&batch), expected, "{tag}");
                    assert_eq!(*stats.get_or_insert(cache.stats), cache.stats, "{tag}");
                }
            }
        }
    }

    #[test]
    fn prune_matches_reference_loop() {
        let strategy = SeededSubset { seed: 6 };
        let sets: Vec<Arc<[u64]>> = (0..6)
            .map(|j| {
                let v: Vec<u64> = (0..50u64).map(|i| i * (j % 3 + 1) + j).collect();
                Arc::from(&v[..])
            })
            .collect();
        let list: Vec<u64> = (0..160).collect();
        // Repeated sets exercise the multiplicity grouping.
        let ports: Vec<&Arc<[u64]>> = [0usize, 1, 1, 2, 3, 3, 3, 4, 5].map(|i| &sets[i]).to_vec();
        for budget in 0..5u64 {
            let mut want = list.clone();
            reference_prune(&mut want, budget, &ports);
            assert!(want.len() < list.len(), "budget {budget} prunes something");
            for mode in MODES {
                let mut cache = TypeCache::new(strategy, 2, 0, &cfg(mode, 1));
                let mut got = list.clone();
                cache.prune(&mut got, budget, ports.iter().copied());
                assert_eq!(got, want, "budget = {budget}, mode = {mode:?}");
            }
        }
    }

    #[test]
    fn shared_cache_warms_across_caches_without_touching_private_counters() {
        let strategy = SeededSubset { seed: 21 };
        let list: Vec<u64> = (0..150u64).map(|i| i * 4).collect();
        let a: Arc<[u64]> = Arc::from(&mk(&[1, 4, 9, 16, 25, 36])[..]);
        let b: Arc<[u64]> = Arc::from(&mk(&[2, 3, 5, 8, 13, 21, 34])[..]);
        let run = |cache: &mut TypeCache| {
            let s = select_one(cache, req(9, &list, 10, 0));
            let v = conflict_one(cache, &a, &b);
            (s, v)
        };
        for mode in MODES {
            for threads in THREADS {
                let tag = format!("{mode:?} t={threads}");
                // Baseline: a private cache, no sharing.
                let mut private = TypeCache::new(strategy, 3, 0, &cfg(mode, threads));
                let (s1, v1) = run(&mut private);

                let shared = SharedTypeCache::new(4, 1024);
                let with_shared = cfg(mode, threads).with_shared(shared.clone());
                let mut first = TypeCache::new(strategy, 3, 0, &with_shared);
                let (fs, fv) = run(&mut first);
                let mut second = TypeCache::new(strategy, 3, 0, &with_shared);
                let (ss, sv) = run(&mut second);
                assert_eq!((&fs[..], fv), (&s1[..], v1), "{tag}");
                assert_eq!(
                    (&ss[..], sv),
                    (&s1[..], v1),
                    "{tag}: shared hit is byte-identical"
                );

                // The deterministic counter stream is identical with sharing
                // on or off: a shared hit is still a private miss.
                for st in [first.stats, second.stats] {
                    assert_eq!(st.select_calls, private.stats.select_calls, "{tag}");
                    assert_eq!(st.select_misses, private.stats.select_misses, "{tag}");
                    assert_eq!(st.conflict_calls, private.stats.conflict_calls, "{tag}");
                    assert_eq!(st.conflict_misses, private.stats.conflict_misses, "{tag}");
                }
                let snap = shared.snapshot();
                if mode == KernelMode::Reference {
                    // The reference kernels never consult the shared layer.
                    assert_eq!(snap, SharedCacheStats::default(), "{tag}");
                    continue;
                }
                assert_eq!(
                    (first.stats.shared_hits, first.stats.shared_misses),
                    (0, 2),
                    "{tag}"
                );
                assert_eq!(
                    (second.stats.shared_hits, second.stats.shared_misses),
                    (2, 0),
                    "{tag}"
                );
                assert_eq!((snap.hits, snap.misses, snap.entries), (2, 2, 2), "{tag}");
            }
        }
    }

    #[test]
    fn list_capacity_bound_evicts_deterministically() {
        let strategy = SeededSubset { seed: 2 };
        let lists: Vec<Vec<u64>> = (0..10)
            .map(|j| (0..40u64).map(|i| i * 2 + j).collect())
            .collect();
        let mut cache = TypeCache::new(
            strategy,
            2,
            0,
            &KernelConfig::default().with_list_capacity(4),
        );
        for list in &lists {
            let got = select_one(&mut cache, req(5, list, 8, 0));
            assert_eq!(&got[..], &strategy.select(5, list, 8, 0)[..]);
        }
        // 10 distinct lists through a 4-slot store: resets at the 5th and
        // 9th interning, dropping 4 lists each time.
        assert_eq!(cache.stats.evictions, 8);
        assert_eq!(cache.stats.select_misses, 10);
        // Correctness survives the reset: a re-interned list still
        // selects the same bytes (and re-misses, since the memo reset).
        let again = select_one(&mut cache, req(5, &lists[0], 8, 0));
        assert_eq!(&again[..], &strategy.select(5, &lists[0], 8, 0)[..]);

        // A run that never reaches capacity reports zero evictions.
        let mut roomy = TypeCache::new(strategy, 2, 0, &KernelConfig::default());
        for list in &lists {
            select_one(&mut roomy, req(5, list, 8, 0));
        }
        assert_eq!(roomy.stats.evictions, 0);
    }

    #[test]
    fn select_batch_survives_mid_batch_epoch_reset() {
        let strategy = SeededSubset { seed: 4 };
        let lists: Vec<Vec<u64>> = (0..9)
            .map(|j| (0..30u64).map(|i| i * 3 + j).collect())
            .collect();
        // Same list revisited across the reset boundary: ids recycle, so
        // the queue map must not alias old and new keys.
        let order = [0usize, 1, 2, 0, 3, 4, 5, 6, 0, 7, 8, 0];
        let reqs: Vec<SelectReq<'_>> = order.iter().map(|&li| req(11, &lists[li], 6, 0)).collect();
        for threads in THREADS {
            let capped = cfg(KernelMode::Fast, threads).with_list_capacity(3);
            let mut seq = TypeCache::new(strategy, 2, 0, &capped);
            let expected: Vec<Arc<[u64]>> = reqs.iter().map(|&r| select_one(&mut seq, r)).collect();
            assert!(seq.stats.evictions > 0, "the reset fires mid-batch");
            let mut batch = TypeCache::new(strategy, 2, 0, &capped);
            let got = batch.select_batch(&reqs);
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(&g[..], &e[..], "threads = {threads}");
            }
            assert_eq!(batch.stats, seq.stats, "threads = {threads}");
        }
    }
}
