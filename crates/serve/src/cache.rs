//! The server's two bounded caches — compiled programs and evaluated
//! results — over one deterministically-evicting map, [`CostLru`].
//!
//! An unbounded `HashMap` is a footgun: a tenant cycling unique
//! programs grows the process without limit. A [`CostLru`] holds at
//! most `cap` entries and evicts by a **cost-aware LRU** rule whose
//! clock is the *admission ordinal* — the dense per-request counter
//! handed out by
//! [`SharedCeiling::take_ordinal`](hac_runtime::governor::SharedCeiling::take_ordinal)
//! — never wall time. Eviction is therefore a pure function of the
//! request sequence: the same workload always evicts the same entries
//! in the same order, at any worker count (admission is sequential).
//!
//! The victim rule: evict the entry minimizing
//! `(last_used + cost, last_used, key)`, where `cost` is a
//! deterministic proxy for how expensive the entry is to rebuild (the
//! number of compiled units). Costlier entries thus survive a few
//! ordinals longer than cheap ones touched at the same time, and the
//! final `key` component makes the choice total even for equal scores.
//!
//! Evicting is never incorrect, only slower: a re-admitted evicted
//! program recompiles from the same source and parameters, and the
//! repo's determinism contract guarantees the rebuilt program behaves
//! bit-identically (the eviction proptests pin this).
//!
//! Each cached [`Compiled`] carries its cost certificate
//! (`Compiled::cert`), so a cache hit reuses the certificate along
//! with the tape — certificate admission never recompiles or re-derives
//! bounds on the hot path.

//! ## The materialized-result cache
//!
//! [`ResultCache`] caches *evaluated outcomes* in one [`CostLru`] on
//! the program cache's ordinal clock: full slots memoize a request's
//! terminal response fields (digests, fuel left, error class), and
//! family slots snapshot the execution state of a `bigupd`-rooted
//! program just before its trailing update so sliding-parameter
//! requests replay only the update (the delta path). Both kinds share
//! the one capacity. Determinism is preserved by doing every
//! membership change — install and eviction — on the sequential
//! admission path; execution threads only *resolve* slots in place
//! (`Pending → Ready/Failed`) and never alter membership or recency.
//! Family snapshots hold real arrays, so their bytes are charged to the
//! shared ceiling by the server at install and refunded on eviction or
//! failure (`ResultCacheStats::resident_bytes` tracks the residency).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use hac_core::pipeline::{Compiled, ExecState};

use crate::Status;

#[derive(Debug)]
struct LruEntry<V> {
    value: V,
    /// Admission ordinal of the last request that used this entry (or
    /// inserted it).
    last_used: u64,
    /// Rebuild-cost proxy, clamped to ≥ 1.
    cost: u64,
}

/// A map bounded by the cost-aware LRU rule (see the module docs).
/// `cap == 0` means unbounded. Not internally synchronized — the
/// server wraps each cache in a `Mutex`.
#[derive(Debug)]
pub(crate) struct CostLru<K, V> {
    cap: usize,
    entries: HashMap<K, LruEntry<V>>,
}

impl<K: Copy + Ord + Hash, V> CostLru<K, V> {
    pub(crate) fn new(cap: usize) -> CostLru<K, V> {
        CostLru {
            cap,
            entries: HashMap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|e| &e.value)
    }

    /// The value under `key`, without touching its recency.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.entries.get_mut(key).map(|e| &mut e.value)
    }

    /// The value under `key`, its recency stamped with `ordinal`.
    pub(crate) fn touch(&mut self, key: &K, ordinal: u64) -> Option<&mut V> {
        self.entries.get_mut(key).map(|e| {
            e.last_used = ordinal;
            &mut e.value
        })
    }

    /// Insert `value` under `key` at `ordinal`. An existing key is
    /// replaced in place and never evicts; its old value is returned
    /// first. A new key first evicts as many victims as the capacity
    /// requires (1 in steady state; more only after a capacity
    /// reconfiguration), returned second.
    pub(crate) fn insert(
        &mut self,
        key: K,
        value: V,
        ordinal: u64,
        cost: u64,
    ) -> (Option<V>, Vec<V>) {
        let entry = LruEntry {
            value,
            last_used: ordinal,
            cost: cost.max(1),
        };
        if let Some(old) = self.entries.get_mut(&key) {
            return (Some(std::mem::replace(old, entry).value), Vec::new());
        }
        let mut evicted = Vec::new();
        while self.cap > 0 && self.entries.len() >= self.cap {
            let (_, _, victim) = self
                .entries
                .iter()
                .map(|(k, e)| (e.last_used + e.cost, e.last_used, *k))
                .min()
                .expect("cap > 0 and len >= cap imply an entry");
            let gone = self.entries.remove(&victim).expect("victim is resident");
            evicted.push(gone.value);
        }
        self.entries.insert(key, entry);
        (None, evicted)
    }
}

/// Counters over the cache's whole life. Reconciliation invariants,
/// enforced by the eviction proptests:
/// `hits + misses == lookups` and `insertions - evictions == live`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Entries currently resident.
    pub live: u64,
    /// The configured capacity (0 = unbounded).
    pub cap: u64,
}

/// The bounded compiled-program cache: a [`CostLru`] plus its lookup
/// ledger. The server wraps it in a `Mutex` (lookups and insertions
/// happen on the sequential admission path, so the lock is uncontended
/// in steady state).
#[derive(Debug)]
pub struct ProgramCache {
    programs: CostLru<u64, Arc<Compiled>>,
    stats: CacheStats,
}

impl ProgramCache {
    /// A cache holding at most `cap` entries; `cap == 0` means
    /// unbounded (available via `--cache-cap 0` for embedders that key
    /// a small closed program set).
    pub fn new(cap: usize) -> ProgramCache {
        ProgramCache {
            programs: CostLru::new(cap),
            stats: CacheStats {
                cap: cap as u64,
                ..CacheStats::default()
            },
        }
    }

    /// Look `key` up, stamping the entry's recency with `ordinal` on a
    /// hit.
    pub fn lookup(&mut self, key: u64, ordinal: u64) -> Option<Arc<Compiled>> {
        self.stats.lookups += 1;
        let hit = self.programs.touch(&key, ordinal).map(|p| Arc::clone(p));
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
    }

    /// Insert a freshly compiled program under `key`, costed at its
    /// compiled unit count. Returns how many entries were evicted to
    /// make room; re-inserting an existing key refreshes it in place
    /// and never evicts.
    pub fn insert(&mut self, key: u64, program: Arc<Compiled>, ordinal: u64) -> u64 {
        let cost = program.units.len() as u64;
        let (replaced, evicted) = self.programs.insert(key, program, ordinal, cost);
        if replaced.is_none() {
            self.stats.insertions += 1;
        }
        self.stats.evictions += evicted.len() as u64;
        evicted.len() as u64
    }

    /// A copy of the life-to-date counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            live: self.programs.len() as u64,
            ..self.stats
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.programs.len() == 0
    }
}

/// Counters over the result cache's whole life. `hits + deltas`
/// counts requests served without a full recomputation;
/// `hits + deltas + misses` equals the routed requests that reached
/// execution (bypassed requests never touch the cache).
/// `resident_bytes` is the memory held by family snapshots — the same
/// number charged against the shared ceiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Admission-time full-key probes (one per routed request).
    pub lookups: u64,
    /// Requests served verbatim from a cached outcome.
    pub hits: u64,
    /// Requests served by replaying only the trailing update over a
    /// family snapshot.
    pub deltas: u64,
    /// Requests that ran the full pipeline (including every fallback).
    pub misses: u64,
    /// Slots resolved `Ready` by their filler.
    pub insertions: u64,
    /// Entries removed by the capacity rule.
    pub evictions: u64,
    /// Entries currently resident (full + family, any state).
    pub live: u64,
    /// The configured capacity (0 = result caching off).
    pub cap: u64,
    /// Bytes held by resident family snapshots.
    pub resident_bytes: u64,
}

/// A memoized terminal outcome: every response field that is a pure
/// function of the full result key. Limits are part of that key, so
/// error outcomes (exhaustions, runtime failures) cache as readily as
/// successes — a hit serves them byte-identically with no budget
/// re-checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedOutcome {
    pub status: Status,
    pub answer_digest: Option<String>,
    pub counters_digest: Option<String>,
    pub fuel_left: Option<u64>,
    pub engine_faults: u64,
    pub error: Option<String>,
}

/// A family snapshot: the execution state of a delta-eligible program
/// after every unit but the trailing update, plus what that prefix
/// charged, so a delta probe can run under `budget − prefix`.
#[derive(Debug)]
pub struct FamilyEntry {
    /// Arrays, scalars, and counters after the prefix (inputs
    /// included — the update reads them from here, never from the
    /// request).
    pub state: ExecState,
    /// Fuel the prefix charged under the filler's meter; `None` when
    /// the filler ran fuel-unlimited (unmeasurable — fuel-capped
    /// requests must then fall back to a full run).
    pub prefix_fuel: Option<u64>,
    /// Bytes the prefix charged; `None` when the filler ran
    /// mem-unlimited.
    pub prefix_mem: Option<u64>,
}

/// A result-cache key. The kind selects the payload: `Full` slots hold
/// a [`CachedOutcome`], `Family` slots a [`FamilyEntry`]. The derived
/// order puts `Full` before `Family`, the victim rule's final
/// tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotKey {
    Full(u64),
    Family(u64),
}

/// What a resolved slot holds.
#[derive(Debug, Clone)]
pub enum Payload {
    Full(Arc<CachedOutcome>),
    Family(Arc<FamilyEntry>),
}

#[derive(Debug)]
enum SlotState {
    Pending,
    Ready(Payload),
    Failed,
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    /// Install token (the installer's admission ordinal): fills and
    /// fails only land when their token matches, so a filler whose
    /// slot was evicted and re-installed cannot resolve the newcomer.
    token: u64,
    /// Ceiling bytes this slot holds: 0 for full slots; for family
    /// slots zeroed when a failure refunds them early, so eviction
    /// never double-refunds.
    bytes: u64,
}

impl Slot {
    fn probe(&self) -> Probe {
        match &self.state {
            SlotState::Pending => Probe::Pending { token: self.token },
            SlotState::Ready(v) => Probe::Ready(v.clone()),
            SlotState::Failed => Probe::Failed,
        }
    }
}

/// What an admission-time probe (or an execution-time peek) found.
#[derive(Debug)]
pub enum Probe {
    Absent,
    /// A filler admitted earlier is still executing; `token`
    /// identifies that install so waiters never block on a
    /// later-admitted re-install.
    Pending {
        token: u64,
    },
    Ready(Payload),
    Failed,
}

/// The materialized-result cache: full outcomes and family snapshots
/// in one [`CostLru`] under one capacity. Like [`ProgramCache`] it is
/// not internally synchronized; the server wraps it in a `Mutex`
/// paired with a `Condvar` for slot waiters.
///
/// Membership and recency change **only** through the admission-path
/// methods ([`ResultCache::probe`], [`ResultCache::install`]) —
/// eviction is therefore a pure function of the admission sequence.
/// Execution threads resolve slots with [`ResultCache::fill`] and
/// [`ResultCache::fail`], which change state in place and never touch
/// membership.
#[derive(Debug)]
pub struct ResultCache {
    slots: CostLru<SlotKey, Slot>,
    stats: ResultCacheStats,
}

impl ResultCache {
    /// A cache holding at most `cap` entries (full + family combined).
    /// `cap == 0` disables result caching — the server bypasses the
    /// cache entirely, so a zero-cap instance only ever reports stats.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            slots: CostLru::new(cap),
            stats: ResultCacheStats {
                cap: cap as u64,
                ..ResultCacheStats::default()
            },
        }
    }

    /// Admission-time probe: stamps recency on `Ready`. A full-key
    /// probe counts one lookup (a request's family probe does not —
    /// its full-key probe already counted it).
    pub fn probe(&mut self, key: SlotKey, ordinal: u64) -> Probe {
        if let SlotKey::Full(_) = key {
            self.stats.lookups += 1;
        }
        let found = self.peek(key);
        if let Probe::Ready(_) = found {
            self.slots.touch(&key, ordinal);
        }
        found
    }

    /// Execution-time peek (no stats, no recency) for waiters parked
    /// on a `Pending` slot.
    pub fn peek(&self, key: SlotKey) -> Probe {
        self.slots.get(&key).map_or(Probe::Absent, Slot::probe)
    }

    /// Install a `Pending` slot holding `bytes` of (already
    /// ceiling-reserved) memory: the installing request becomes the
    /// slot's filler. Re-installing a resident key replaces it in
    /// place; a new key first evicts to capacity. Returns the bytes
    /// the displaced slots held, which the caller refunds.
    pub fn install(&mut self, key: SlotKey, ordinal: u64, cost: u64, bytes: u64) -> u64 {
        let slot = Slot {
            state: SlotState::Pending,
            token: ordinal,
            bytes,
        };
        let (replaced, evicted) = self.slots.insert(key, slot, ordinal, cost);
        self.stats.evictions += evicted.len() as u64;
        let freed: u64 = replaced.iter().chain(&evicted).map(|s| s.bytes).sum();
        self.stats.resident_bytes = self.stats.resident_bytes - freed + bytes;
        freed
    }

    /// The slot `key` still pending for the filler holding `token`.
    fn pending(&mut self, key: SlotKey, token: u64) -> Option<&mut Slot> {
        self.slots
            .get_mut(&key)
            .filter(|slot| slot.token == token && matches!(slot.state, SlotState::Pending))
    }

    /// Resolve a `Pending` slot to `Ready`. Lands only when the slot
    /// still exists, is pending, and carries `token` (otherwise the
    /// slot was evicted or re-installed and the fill is dropped — a
    /// dropped family fill wastes only the snapshot clone, its bytes
    /// were refunded at eviction). Returns whether it landed.
    pub fn fill(&mut self, key: SlotKey, token: u64, value: Payload) -> bool {
        let Some(slot) = self.pending(key, token) else {
            return false;
        };
        slot.state = SlotState::Ready(value);
        self.stats.insertions += 1;
        true
    }

    /// Resolve a `Pending` slot to `Failed` (the filler died without a
    /// payload), releasing its bytes early. Token-gated like
    /// [`ResultCache::fill`]; returns the bytes the caller must refund
    /// to the ceiling (0 when the fail did not land).
    pub fn fail(&mut self, key: SlotKey, token: u64) -> u64 {
        let Some(slot) = self.pending(key, token) else {
            return 0;
        };
        slot.state = SlotState::Failed;
        let bytes = std::mem::take(&mut slot.bytes);
        self.stats.resident_bytes -= bytes;
        bytes
    }

    /// Count one realized hit (served from a cached outcome).
    pub fn record_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Count one realized delta.
    pub fn record_delta(&mut self) {
        self.stats.deltas += 1;
    }

    /// Count one realized miss (full run, including fallbacks).
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// A copy of the life-to-date counters.
    pub fn result_stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            live: self.slots.len() as u64,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_core::pipeline::{compile, CompileOptions};
    use hac_lang::env::ConstEnv;

    fn compiled(n: i64) -> Arc<Compiled> {
        let src = "param n;\nlet a = array (1,2) [ i := n | i <- [1..2] ];\n";
        let program = hac_lang::parser::parse_program(src).unwrap();
        let mut env = ConstEnv::new();
        env.bind("n", n);
        Arc::new(compile(&program, &env, &CompileOptions::default()).unwrap())
    }

    #[test]
    fn capacity_is_respected_and_counters_reconcile() {
        let mut c = ProgramCache::new(3);
        let p = compiled(1);
        for key in 0..10u64 {
            assert!(c.lookup(key, key).is_none());
            c.insert(key, Arc::clone(&p), key);
            assert!(c.len() <= 3, "cap exceeded at key {key}");
        }
        let s = c.stats();
        assert_eq!(s.lookups, 10);
        assert_eq!(s.hits + s.misses, s.lookups);
        assert_eq!(s.insertions - s.evictions, s.live);
        assert_eq!(s.live, 3);
        assert_eq!(s.evictions, 7);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mut c = ProgramCache::new(2);
        let p = compiled(1);
        c.insert(10, Arc::clone(&p), 0);
        c.insert(20, Arc::clone(&p), 1);
        // Touch 10 so 20 becomes the LRU victim.
        assert!(c.lookup(10, 2).is_some());
        c.insert(30, Arc::clone(&p), 3);
        assert!(c.lookup(10, 4).is_some());
        assert!(c.lookup(20, 5).is_none(), "20 was evicted");
        assert!(c.lookup(30, 6).is_some());
    }

    #[test]
    fn zero_cap_is_unbounded() {
        let mut c = ProgramCache::new(0);
        let p = compiled(1);
        for key in 0..100u64 {
            c.insert(key, Arc::clone(&p), key);
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn reinserting_a_key_refreshes_without_eviction() {
        let mut c = ProgramCache::new(2);
        let p = compiled(1);
        c.insert(1, Arc::clone(&p), 0);
        c.insert(2, Arc::clone(&p), 1);
        assert_eq!(c.insert(1, Arc::clone(&p), 2), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().insertions, 2, "refresh is not an insertion");
    }

    #[test]
    fn costlier_entries_outlive_cheap_ones_touched_at_the_same_time() {
        let mut lru = CostLru::new(2);
        lru.insert(1u64, "cheap", 0, 1);
        lru.insert(2u64, "dear", 0, 5);
        let (_, evicted) = lru.insert(3u64, "new", 1, 1);
        assert_eq!(evicted, vec!["cheap"]);
        assert!(lru.get(&2).is_some());
    }

    fn outcome() -> Payload {
        Payload::Full(Arc::new(CachedOutcome {
            status: Status::Ok,
            answer_digest: Some("d".to_string()),
            counters_digest: Some("c".to_string()),
            fuel_left: None,
            engine_faults: 0,
            error: None,
        }))
    }

    fn family() -> Payload {
        Payload::Family(Arc::new(FamilyEntry {
            state: ExecState::default(),
            prefix_fuel: Some(3),
            prefix_mem: None,
        }))
    }

    use SlotKey::{Family, Full};

    #[test]
    fn result_slots_resolve_through_the_pending_protocol() {
        let mut c = ResultCache::new(8);
        assert!(matches!(c.probe(Full(7), 0), Probe::Absent));
        c.install(Full(7), 0, 2, 0);
        assert!(matches!(c.probe(Full(7), 1), Probe::Pending { token: 0 }));
        assert!(c.fill(Full(7), 0, outcome()));
        assert!(matches!(
            c.probe(Full(7), 2),
            Probe::Ready(Payload::Full(_))
        ));
        // A second fill with a stale token is dropped.
        assert!(!c.fill(Full(7), 0, outcome()));
        let s = c.result_stats();
        assert_eq!((s.lookups, s.insertions, s.live), (3, 1, 1));
    }

    #[test]
    fn failed_slots_are_tombstones_until_reinstalled() {
        let mut c = ResultCache::new(8);
        c.install(Full(7), 0, 1, 0);
        c.fail(Full(7), 0);
        assert!(matches!(c.probe(Full(7), 1), Probe::Failed));
        // Re-install in place: no membership change, fresh token.
        assert_eq!(c.install(Full(7), 2, 1, 0), 0);
        assert!(matches!(c.probe(Full(7), 3), Probe::Pending { token: 2 }));
        let s = c.result_stats();
        assert_eq!((s.live, s.evictions), (1, 0));
    }

    #[test]
    fn family_bytes_are_charged_and_refunded_exactly_once() {
        let mut c = ResultCache::new(8);
        c.install(Family(9), 0, 1, 640);
        assert_eq!(c.result_stats().resident_bytes, 640);
        // Failure refunds early; the tombstone holds nothing.
        assert_eq!(c.fail(Family(9), 0), 640);
        assert_eq!(c.result_stats().resident_bytes, 0);
        // A stale fail (wrong token) refunds nothing.
        assert_eq!(c.fail(Family(9), 0), 0);
        // Re-install charges again; fill keeps the charge resident.
        c.install(Family(9), 1, 1, 640);
        assert!(c.fill(Family(9), 1, family()));
        assert_eq!(c.result_stats().resident_bytes, 640);
        assert!(matches!(
            c.probe(Family(9), 2),
            Probe::Ready(Payload::Family(_))
        ));
    }

    #[test]
    fn eviction_spans_both_kinds_and_frees_family_bytes() {
        let mut c = ResultCache::new(2);
        c.install(Full(1), 0, 1, 0);
        assert!(c.fill(Full(1), 0, outcome()));
        c.install(Family(2), 1, 1, 100);
        assert!(c.fill(Family(2), 1, family()));
        // Touch the family entry so the full entry is the victim.
        assert!(matches!(c.probe(Family(2), 2), Probe::Ready(_)));
        assert_eq!(c.install(Full(3), 3, 1, 0), 0);
        assert!(matches!(c.probe(Full(1), 4), Probe::Absent));
        // Now the family snapshot is the stalest; evicting it frees
        // its bytes for the caller to refund.
        assert!(matches!(c.probe(Full(3), 5), Probe::Pending { .. }));
        assert_eq!(c.install(Full(4), 6, 1, 0), 100);
        let s = c.result_stats();
        assert_eq!((s.evictions, s.live, s.resident_bytes), (2, 2, 0));
    }

    #[test]
    fn equal_scores_evict_full_slots_before_family_slots() {
        let mut c = ResultCache::new(2);
        c.install(Family(1), 0, 1, 8);
        c.install(Full(2), 0, 1, 0);
        assert_eq!(c.install(Full(3), 1, 1, 0), 0, "the full slot goes first");
        assert!(matches!(c.peek(Family(1)), Probe::Pending { .. }));
    }

    /// Full-only traffic (no family snapshot ever published) must
    /// still evict at the cap.
    #[test]
    fn full_only_traffic_is_held_at_the_cap() {
        let mut c = ResultCache::new(2);
        for key in 0..5u64 {
            c.install(Full(key), key, 1, 0);
        }
        let s = c.result_stats();
        assert_eq!((s.live, s.evictions), (2, 3));
    }
}
