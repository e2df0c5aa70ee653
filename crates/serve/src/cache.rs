//! A bounded, deterministically-evicting compiled-program cache.
//!
//! The unbounded `HashMap` the server used before this module was a
//! footgun: a tenant cycling unique programs grows the process without
//! limit. `ProgramCache` holds at most `cap` entries and evicts by a
//! **cost-aware LRU** rule whose clock is the *admission ordinal* —
//! the dense per-request counter handed out by
//! [`SharedCeiling::take_ordinal`](hac_runtime::governor::SharedCeiling::take_ordinal)
//! — never wall time. Eviction is therefore a pure function of the
//! request sequence: the same workload always evicts the same entries
//! in the same order, at any worker count (admission is sequential).
//!
//! The victim rule: evict the entry minimizing
//! `(last_used + cost, last_used, key)`, where `cost` is the number of
//! compiled units in the program — a deterministic proxy for how
//! expensive the entry is to rebuild. Costlier programs thus survive a
//! few ordinals longer than cheap ones touched at the same time, and
//! the final `key` component makes the choice total even for equal
//! scores.
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
//! [`ResultCache`] lives next to the program cache and shares its
//! ordinal clock and victim rule, but caches *evaluated outcomes*:
//! full entries memoize a request's terminal response fields (digests,
//! fuel left, error class), and family entries snapshot the execution
//! state of a `bigupd`-rooted program just before its trailing update
//! so sliding-parameter requests replay only the update (the delta
//! path). Determinism is preserved by doing every membership change —
//! install and eviction — on the sequential admission path; execution
//! threads only *resolve* slots in place (`Pending → Ready/Failed`)
//! and never alter membership or recency. Family snapshots hold real
//! arrays, so their bytes are charged to the shared ceiling by the
//! server at install and refunded on eviction or failure
//! (`ResultCacheStats::resident_bytes` tracks the residency).

use std::collections::HashMap;
use std::sync::Arc;

use hac_core::pipeline::{Compiled, ExecState};

use crate::Status;

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

#[derive(Debug)]
struct Entry {
    program: Arc<Compiled>,
    /// Admission ordinal of the last request that looked this entry up
    /// (or inserted it).
    last_used: u64,
    /// Rebuild-cost proxy: compiled unit count, clamped to ≥ 1.
    cost: u64,
}

/// The bounded cache. Not internally synchronized — the server wraps
/// it in a `Mutex` (lookups and insertions happen on the sequential
/// admission path, so the lock is uncontended in steady state).
#[derive(Debug)]
pub struct ProgramCache {
    cap: usize,
    entries: HashMap<u64, Entry>,
    stats: CacheStats,
}

impl ProgramCache {
    /// A cache holding at most `cap` entries; `cap == 0` means
    /// unbounded (the pre-eviction behavior, available via
    /// `--cache-cap 0` for embedders that key a small closed program
    /// set).
    pub fn new(cap: usize) -> ProgramCache {
        ProgramCache {
            cap,
            entries: HashMap::new(),
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
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = ordinal;
                self.stats.hits += 1;
                Some(Arc::clone(&e.program))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly compiled program under `key`, evicting as many
    /// victims as needed to respect the capacity. Returns how many
    /// entries were evicted (0 or 1 in steady state; more only after a
    /// capacity reconfiguration). Re-inserting an existing key
    /// refreshes it in place and never evicts.
    pub fn insert(&mut self, key: u64, program: Arc<Compiled>, ordinal: u64) -> u64 {
        let cost = (program.units.len() as u64).max(1);
        if let Some(e) = self.entries.get_mut(&key) {
            e.program = program;
            e.last_used = ordinal;
            e.cost = cost;
            return 0;
        }
        let mut evicted = 0;
        if self.cap > 0 {
            while self.entries.len() >= self.cap {
                let victim = self
                    .entries
                    .iter()
                    .map(|(k, e)| (e.last_used + e.cost, e.last_used, *k))
                    .min()
                    .expect("cap > 0 and len >= cap imply an entry");
                self.entries.remove(&victim.2);
                self.stats.evictions += 1;
                self.stats.live -= 1;
                evicted += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                program,
                last_used: ordinal,
                cost,
            },
        );
        self.stats.insertions += 1;
        self.stats.live += 1;
        evicted
    }

    /// A copy of the life-to-date counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

#[derive(Debug)]
enum SlotState<T> {
    Pending,
    Ready(Arc<T>),
    Failed,
}

/// One result-cache entry: a full outcome (`Slot<CachedOutcome>`) or a
/// family snapshot (`Slot<FamilyEntry>`).
#[derive(Debug)]
struct Slot<T> {
    state: SlotState<T>,
    /// Install token (the installer's admission ordinal): fills and
    /// fails only land when their token matches, so a filler whose
    /// slot was evicted and re-installed cannot resolve the newcomer.
    token: u64,
    last_used: u64,
    cost: u64,
    /// Ceiling bytes this slot holds: always 0 for full slots; for
    /// family slots zeroed when a failure refunds them early, so
    /// eviction never double-refunds.
    bytes: u64,
}

impl<T> Slot<T> {
    fn probe(&self) -> Probe<T> {
        match &self.state {
            SlotState::Pending => Probe::Pending { token: self.token },
            SlotState::Ready(v) => Probe::Ready(Arc::clone(v)),
            SlotState::Failed => Probe::Failed,
        }
    }
}

/// What an admission-time probe (or an execution-time peek) found.
#[derive(Debug)]
pub enum Probe<T> {
    Absent,
    /// A filler admitted earlier is still executing; `token`
    /// identifies that install so waiters never block on a
    /// later-admitted re-install.
    Pending {
        token: u64,
    },
    Ready(Arc<T>),
    Failed,
}

/// [`Probe`] of a full slot.
pub type FullProbe = Probe<CachedOutcome>;

/// [`Probe`] of a family slot.
pub type FamilyProbe = Probe<FamilyEntry>;

type Slots<T> = HashMap<u64, Slot<T>>;

/// Admission-time probe: stamps recency on `Ready`.
fn probe<T>(slots: &mut Slots<T>, key: u64, ordinal: u64) -> Probe<T> {
    match slots.get_mut(&key) {
        Some(slot) => {
            if matches!(slot.state, SlotState::Ready(_)) {
                slot.last_used = ordinal;
            }
            slot.probe()
        }
        None => Probe::Absent,
    }
}

/// Execution-time peek: no stats, no recency.
fn peek<T>(slots: &Slots<T>, key: u64) -> Probe<T> {
    slots.get(&key).map_or(Probe::Absent, Slot::probe)
}

/// The slot `key` still pending for the filler holding `token`.
fn pending<T>(slots: &mut Slots<T>, key: u64, token: u64) -> Option<&mut Slot<T>> {
    slots
        .get_mut(&key)
        .filter(|slot| slot.token == token && matches!(slot.state, SlotState::Pending))
}

/// What an install displaced: evicted entry count plus any family
/// bytes freed (the server refunds them to the ceiling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evicted {
    pub entries: u64,
    pub bytes: u64,
}

/// The materialized-result cache: full outcomes and family snapshots
/// under one capacity, evicted by the program cache's cost-aware-LRU
/// rule on the shared admission-ordinal clock. Like [`ProgramCache`]
/// it is not internally synchronized; the server wraps it in a
/// `Mutex` paired with a `Condvar` for slot waiters.
///
/// Membership and recency change **only** through the admission-path
/// methods ([`ResultCache::probe_full`], [`ResultCache::install_full`],
/// [`ResultCache::probe_family`], [`ResultCache::install_family`]) —
/// eviction is therefore a pure function of the admission sequence.
/// Execution threads resolve slots with the fill/fail methods, which
/// change state in place and never touch membership.
#[derive(Debug)]
pub struct ResultCache {
    cap: usize,
    full: Slots<CachedOutcome>,
    family: Slots<FamilyEntry>,
    stats: ResultCacheStats,
}

impl ResultCache {
    /// A cache holding at most `cap` entries (full + family combined).
    /// `cap == 0` disables result caching — the server bypasses the
    /// cache entirely, so a zero-cap instance only ever reports stats.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            cap,
            full: HashMap::new(),
            family: HashMap::new(),
            stats: ResultCacheStats {
                cap: cap as u64,
                ..ResultCacheStats::default()
            },
        }
    }

    /// Admission-time probe of the full key: counts one lookup and
    /// stamps recency on `Ready`.
    pub fn probe_full(&mut self, key: u64, ordinal: u64) -> FullProbe {
        self.stats.lookups += 1;
        probe(&mut self.full, key, ordinal)
    }

    /// Execution-time peek (no stats, no recency) for waiters parked
    /// on a `Pending` slot.
    pub fn peek_full(&self, key: u64) -> FullProbe {
        peek(&self.full, key)
    }

    /// Install a `Pending` full slot: the installing request becomes
    /// the slot's filler. Replaces a `Failed` tombstone in place;
    /// inserting a new key first evicts to capacity.
    pub fn install_full(&mut self, key: u64, ordinal: u64, cost: u64) -> Evicted {
        self.install(|c| &mut c.full, key, ordinal, cost, 0)
    }

    /// Resolve a `Pending` full slot to `Ready`. Lands only when the
    /// slot still exists, is pending, and carries `token` (otherwise
    /// the slot was evicted or re-installed and the fill is dropped).
    /// Returns whether it landed.
    pub fn fill_full(&mut self, key: u64, token: u64, outcome: Arc<CachedOutcome>) -> bool {
        self.fill(|c| &mut c.full, key, token, outcome)
    }

    /// Resolve a `Pending` full slot to `Failed` (the filler died
    /// without an outcome). Token-gated like [`ResultCache::fill_full`].
    pub fn fail_full(&mut self, key: u64, token: u64) {
        self.fail(|c| &mut c.full, key, token);
    }

    /// Admission-time probe of a family key (no lookup count — the
    /// full-key probe already counted this request).
    pub fn probe_family(&mut self, fkey: u64, ordinal: u64) -> FamilyProbe {
        probe(&mut self.family, fkey, ordinal)
    }

    /// Execution-time peek for delta waiters.
    pub fn peek_family(&self, fkey: u64) -> FamilyProbe {
        peek(&self.family, fkey)
    }

    /// Install a `Pending` family slot holding `bytes` of (already
    /// ceiling-reserved) snapshot memory.
    pub fn install_family(&mut self, fkey: u64, ordinal: u64, cost: u64, bytes: u64) -> Evicted {
        self.install(|c| &mut c.family, fkey, ordinal, cost, bytes)
    }

    /// Resolve a `Pending` family slot to `Ready`. Token-gated;
    /// returns whether it landed (a dropped fill wastes only the
    /// snapshot clone — its install's bytes were refunded when the
    /// slot was evicted).
    pub fn fill_family(&mut self, fkey: u64, token: u64, entry: Arc<FamilyEntry>) -> bool {
        self.fill(|c| &mut c.family, fkey, token, entry)
    }

    /// Resolve a `Pending` family slot to `Failed`, releasing its
    /// bytes early. Returns the bytes the caller must refund to the
    /// ceiling (0 when the fail did not land).
    pub fn fail_family(&mut self, fkey: u64, token: u64) -> u64 {
        self.fail(|c| &mut c.family, fkey, token)
    }

    /// Install a `Pending` slot into the map `slots` picks, holding
    /// `bytes`. Re-installing an existing key (a `Failed` tombstone)
    /// replaces it in place: its bytes were refunded when it failed
    /// (or it never held any), so only the difference counts.
    fn install<T>(
        &mut self,
        slots: impl Fn(&mut Self) -> &mut Slots<T>,
        key: u64,
        ordinal: u64,
        cost: u64,
        bytes: u64,
    ) -> Evicted {
        let mut evicted = Evicted::default();
        if !slots(self).contains_key(&key) {
            evicted = self.evict_to_cap();
            self.stats.live += 1;
        }
        let slot = Slot {
            state: SlotState::Pending,
            token: ordinal,
            last_used: ordinal,
            cost: cost.max(1),
            bytes,
        };
        let freed = slots(self).insert(key, slot).map_or(0, |old| old.bytes);
        self.stats.resident_bytes = self.stats.resident_bytes - freed + bytes;
        evicted.bytes += freed;
        evicted
    }

    /// Resolve the `Pending` slot `key` of the map `slots` picks to
    /// `Ready`, when `token` still owns it.
    fn fill<T>(
        &mut self,
        slots: impl Fn(&mut Self) -> &mut Slots<T>,
        key: u64,
        token: u64,
        value: Arc<T>,
    ) -> bool {
        let Some(slot) = pending(slots(self), key, token) else {
            return false;
        };
        slot.state = SlotState::Ready(value);
        self.stats.insertions += 1;
        true
    }

    /// Resolve the `Pending` slot `key` to `Failed`, when `token` still
    /// owns it, releasing its bytes; returns them (0 when the fail did
    /// not land).
    fn fail<T>(&mut self, slots: impl Fn(&mut Self) -> &mut Slots<T>, key: u64, token: u64) -> u64 {
        let Some(slot) = pending(slots(self), key, token) else {
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
        self.stats
    }

    /// Evict until there is room for one more entry. The victim rule
    /// is the program cache's, totalized across both maps: minimize
    /// `(last_used + cost, last_used, map, key)`. Pending slots are
    /// evicted like any other — membership must stay a pure function
    /// of the admission sequence, and fillers/waiters tolerate a
    /// vanished slot (token-gated fills drop; waiters fall back to a
    /// full run).
    fn evict_to_cap(&mut self) -> Evicted {
        let mut out = Evicted::default();
        if self.cap == 0 {
            return out;
        }
        while self.full.len() + self.family.len() >= self.cap {
            let full_victim = self
                .full
                .iter()
                .map(|(k, s)| (s.last_used + s.cost, s.last_used, 0u8, *k))
                .min();
            let fam_victim = self
                .family
                .iter()
                .map(|(k, s)| (s.last_used + s.cost, s.last_used, 1u8, *k))
                .min();
            let Some(victim) = full_victim.min(fam_victim) else {
                break;
            };
            let bytes = if victim.2 == 0 {
                self.full.remove(&victim.3).map(|s| s.bytes)
            } else {
                self.family.remove(&victim.3).map(|s| s.bytes)
            }
            .expect("victim exists");
            self.stats.resident_bytes -= bytes;
            out.bytes += bytes;
            self.stats.evictions += 1;
            self.stats.live -= 1;
            out.entries += 1;
        }
        out
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

    fn outcome() -> Arc<CachedOutcome> {
        Arc::new(CachedOutcome {
            status: Status::Ok,
            answer_digest: Some("d".to_string()),
            counters_digest: Some("c".to_string()),
            fuel_left: None,
            engine_faults: 0,
            error: None,
        })
    }

    fn family() -> Arc<FamilyEntry> {
        Arc::new(FamilyEntry {
            state: ExecState::default(),
            prefix_fuel: Some(3),
            prefix_mem: None,
        })
    }

    #[test]
    fn result_slots_resolve_through_the_pending_protocol() {
        let mut c = ResultCache::new(8);
        assert!(matches!(c.probe_full(7, 0), FullProbe::Absent));
        c.install_full(7, 0, 2);
        assert!(matches!(
            c.probe_full(7, 1),
            FullProbe::Pending { token: 0 }
        ));
        assert!(c.fill_full(7, 0, outcome()));
        assert!(matches!(c.probe_full(7, 2), FullProbe::Ready(_)));
        // A second fill with a stale token is dropped.
        assert!(!c.fill_full(7, 0, outcome()));
        let s = c.result_stats();
        assert_eq!((s.lookups, s.insertions, s.live), (3, 1, 1));
    }

    #[test]
    fn failed_slots_are_tombstones_until_reinstalled() {
        let mut c = ResultCache::new(8);
        c.install_full(7, 0, 1);
        c.fail_full(7, 0);
        assert!(matches!(c.probe_full(7, 1), FullProbe::Failed));
        // Re-install in place: no membership change, fresh token.
        assert_eq!(c.install_full(7, 2, 1), Evicted::default());
        assert!(matches!(
            c.probe_full(7, 3),
            FullProbe::Pending { token: 2 }
        ));
        assert_eq!(c.result_stats().live, 1);
    }

    #[test]
    fn family_bytes_are_charged_and_refunded_exactly_once() {
        let mut c = ResultCache::new(8);
        c.install_family(9, 0, 1, 640);
        assert_eq!(c.result_stats().resident_bytes, 640);
        // Failure refunds early; the tombstone holds nothing.
        assert_eq!(c.fail_family(9, 0), 640);
        assert_eq!(c.result_stats().resident_bytes, 0);
        // A stale fail (wrong token) refunds nothing.
        assert_eq!(c.fail_family(9, 0), 0);
        // Re-install charges again; fill keeps the charge resident.
        c.install_family(9, 1, 1, 640);
        assert!(c.fill_family(9, 1, family()));
        assert_eq!(c.result_stats().resident_bytes, 640);
        assert!(matches!(c.probe_family(9, 2), FamilyProbe::Ready(_)));
    }

    #[test]
    fn eviction_spans_both_maps_and_frees_family_bytes() {
        let mut c = ResultCache::new(2);
        c.install_full(1, 0, 1);
        assert!(c.fill_full(1, 0, outcome()));
        c.install_family(2, 1, 1, 100);
        assert!(c.fill_family(2, 1, family()));
        // Touch the family entry so the full entry is the victim.
        assert!(matches!(c.probe_family(2, 2), FamilyProbe::Ready(_)));
        let ev = c.install_full(3, 3, 1);
        assert_eq!(
            ev,
            Evicted {
                entries: 1,
                bytes: 0
            }
        );
        assert!(matches!(c.probe_full(1, 4), FullProbe::Absent));
        // Now the family snapshot is the stalest; evicting it frees
        // its bytes for the caller to refund.
        assert!(matches!(c.probe_full(3, 5), FullProbe::Pending { .. }));
        let ev = c.install_full(4, 6, 1);
        assert_eq!(
            ev,
            Evicted {
                entries: 1,
                bytes: 100
            }
        );
        assert_eq!(c.result_stats().resident_bytes, 0);
        let s = c.result_stats();
        assert_eq!((s.evictions, s.live), (2, 2));
    }
}
