//! The bounded caches' ledgers, under fire: random
//! lookup/insert interleavings must keep the program cache's
//! reconciliation invariants (`hits + misses == lookups`,
//! `insertions - evictions == live`, `live <= cap`) at *every* step,
//! random install/fill/fail/probe interleavings must keep the result
//! cache's ledger and byte residency exact, eviction must be
//! harmless — a re-admitted evicted program answers bit-identically —
//! and the default capacities must actually hold against a flood of
//! unique requests.

use std::collections::HashMap;
use std::sync::Arc;

use hac::core::pipeline::{compile, CompileOptions, ExecState};
use hac::lang::env::ConstEnv;
use hac::serve::cache::{
    CachedOutcome, FamilyEntry, Payload, Probe, ProgramCache, ResultCache, SlotKey,
};
use hac::serve::{
    Request, ResultClass, ServeOptions, Server, Status, DEFAULT_CACHE_CAP, DEFAULT_RESULT_CACHE_CAP,
};
use hac_runtime::governor::FaultPlan;
use hac_workloads::XorShift;
use proptest::prelude::*;

/// The cheapest compilable program: one 1-element array per unique
/// parameter binding, so thousands of distinct cache keys stay cheap.
const TINY: &str = "param n;\nlet a = array (1,1) [ i := n | i <- [1..1] ];\n";

fn tiny_compiled() -> Arc<hac::core::pipeline::Compiled> {
    let program = hac::lang::parser::parse_program(TINY).unwrap();
    let mut env = ConstEnv::new();
    env.bind("n", 1);
    Arc::new(compile(&program, &env, &CompileOptions::default()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences over random capacities: the counters
    /// reconcile and the capacity holds after every single operation,
    /// not just at the end.
    #[test]
    fn cache_ledger_reconciles_at_every_step(seed in any::<u64>()) {
        let mut rng = XorShift::new(seed | 1);
        let cap = (rng.next_u64() % 8) as usize; // includes 0 = unbounded
        let mut cache = ProgramCache::new(cap);
        let program = tiny_compiled();
        for ordinal in 0..200u64 {
            let key = rng.next_u64() % 24;
            if rng.next_u64().is_multiple_of(2) {
                cache.lookup(key, ordinal);
            } else {
                cache.insert(key, Arc::clone(&program), ordinal);
            }
            let s = cache.stats();
            prop_assert_eq!(s.hits + s.misses, s.lookups, "seed {}", seed);
            prop_assert_eq!(s.insertions - s.evictions, s.live, "seed {}", seed);
            prop_assert_eq!(s.live as usize, cache.len(), "seed {}", seed);
            if cap > 0 {
                prop_assert!(
                    cache.len() <= cap,
                    "seed {}: {} entries over cap {}", seed, cache.len(), cap
                );
            } else {
                prop_assert_eq!(s.evictions, 0, "seed {}: unbounded never evicts", seed);
            }
        }
    }

    /// The result cache against a shadow model, over random caps
    /// (0 = unbounded) and random install/fill/fail/probe sequences on
    /// full and family keys: after every step `insertions` counts the
    /// fills that landed, `evictions` the keys the cache dropped,
    /// `live` the resident keys (never over a non-zero cap), and
    /// `resident_bytes` the bytes resident family slots hold — with
    /// every displaced byte handed back to the caller for refund.
    #[test]
    fn result_cache_ledger_reconciles_at_every_step(seed in any::<u64>()) {
        let mut rng = XorShift::new(seed | 1);
        let cap = (rng.next_u64() % 9) as usize;
        let mut cache = ResultCache::new(cap);
        // Resident key -> (install token, bytes held, still pending).
        let mut model: HashMap<SlotKey, (u64, u64, bool)> = HashMap::new();
        let (mut lookups, mut insertions, mut evictions) = (0u64, 0u64, 0u64);
        for ordinal in 0..200u64 {
            let id = rng.next_u64() % 12;
            let key = if rng.next_u64().is_multiple_of(2) {
                SlotKey::Full(id)
            } else {
                SlotKey::Family(id)
            };
            // Half the fills and fails carry the live token, half a
            // stale one.
            let token = match model.get(&key) {
                Some(&(t, _, _)) if rng.next_u64().is_multiple_of(2) => t,
                _ => ordinal,
            };
            let landing = matches!(model.get(&key), Some(&(t, _, true)) if t == token);
            match rng.next_u64() % 4 {
                0 => {
                    let bytes = match key {
                        SlotKey::Full(_) => 0,
                        SlotKey::Family(_) => 64 * (rng.next_u64() % 4),
                    };
                    let freed = cache.install(key, ordinal, rng.next_u64() % 3, bytes);
                    let replaced = model.insert(key, (ordinal, bytes, true)).map_or(0, |m| m.1);
                    let gone: Vec<SlotKey> = model
                        .keys()
                        .filter(|k| matches!(cache.peek(**k), Probe::Absent))
                        .copied()
                        .collect();
                    let evicted_bytes: u64 = gone.iter().map(|k| model.remove(k).unwrap().1).sum();
                    evictions += gone.len() as u64;
                    prop_assert_eq!(freed, replaced + evicted_bytes, "seed {}", seed);
                }
                1 => {
                    let payload = match key {
                        SlotKey::Full(_) => Payload::Full(Arc::new(CachedOutcome {
                            status: Status::Ok,
                            answer_digest: None,
                            counters_digest: None,
                            fuel_left: None,
                            engine_faults: 0,
                            error: None,
                        })),
                        SlotKey::Family(_) => Payload::Family(Arc::new(FamilyEntry {
                            state: ExecState::default(),
                            prefix_fuel: None,
                            prefix_mem: None,
                        })),
                    };
                    prop_assert_eq!(cache.fill(key, token, payload), landing, "seed {}", seed);
                    if landing {
                        insertions += 1;
                        model.get_mut(&key).unwrap().2 = false;
                    }
                }
                2 => {
                    let refund = cache.fail(key, token);
                    if landing {
                        let m = model.get_mut(&key).unwrap();
                        prop_assert_eq!(refund, m.1, "seed {}", seed);
                        *m = (m.0, 0, false);
                    } else {
                        prop_assert_eq!(refund, 0, "seed {}", seed);
                    }
                }
                _ => {
                    if let SlotKey::Full(_) = key {
                        lookups += 1;
                    }
                    let found = cache.probe(key, ordinal);
                    prop_assert_eq!(
                        matches!(found, Probe::Absent),
                        !model.contains_key(&key),
                        "seed {}", seed
                    );
                }
            }
            let s = cache.result_stats();
            prop_assert_eq!(s.lookups, lookups, "seed {}", seed);
            prop_assert_eq!(s.insertions, insertions, "seed {}", seed);
            prop_assert_eq!(s.evictions, evictions, "seed {}", seed);
            prop_assert_eq!(s.live, model.len() as u64, "seed {}", seed);
            prop_assert_eq!(
                s.resident_bytes,
                model.values().map(|m| m.1).sum::<u64>(),
                "seed {}", seed
            );
            if cap > 0 {
                prop_assert!(s.live as usize <= cap, "seed {}: {} live over cap {}", seed, s.live, cap);
            } else {
                prop_assert_eq!(s.evictions, 0, "seed {}: unbounded never evicts", seed);
            }
        }
    }
}

/// Eviction is never incorrect, only slower: force a program out of a
/// tiny cache, re-admit it, and demand the recompiled run is
/// bit-identical — digest, remaining fuel, counters, verdicts.
#[test]
fn rerunning_an_evicted_program_is_bit_identical() {
    let server = Server::new(ServeOptions {
        cache_cap: 2,
        ..ServeOptions::default()
    });
    let req = |id: &str, n: i64| {
        let mut r = Request::new(id, hac_workloads::wavefront_source());
        r.params.push(("n".to_string(), n));
        r.fuel = Some(10_000);
        r
    };
    let first = server.handle(&req("first", 6));
    assert_eq!(first.status, Status::Ok);
    assert_eq!(first.cache_hit, Some(false));

    // Two different programs push `n=6` out of the 2-entry cache.
    assert_eq!(server.handle(&req("fill1", 7)).status, Status::Ok);
    let fill2 = server.handle(&req("fill2", 8));
    assert_eq!(fill2.status, Status::Ok);
    assert!(
        server.cache_stats().evictions >= 1,
        "the 2-entry cache evicted: {:?}",
        server.cache_stats()
    );

    let again = server.handle(&req("again", 6));
    assert_eq!(again.cache_hit, Some(false), "n=6 was evicted: recompiles");
    assert_eq!(again.status, first.status);
    assert_eq!(again.answer_digest, first.answer_digest);
    assert_eq!(again.fuel_left, first.fuel_left);
    assert_eq!(again.counters_digest, first.counters_digest);
    assert_eq!(again.verdicts, first.verdicts);
}

/// A starved request exhausts at the identical point before and after
/// its program is evicted and recompiled — the limit path is as
/// deterministic as the success path.
#[test]
fn evicted_limit_outcomes_are_bit_identical_too() {
    let server = Server::new(ServeOptions {
        cache_cap: 1,
        ..ServeOptions::default()
    });
    let starved = || {
        // Gauss–Seidel: its certificate is only an upper bound, so the
        // shortfall is found by the meter mid-run, not at admission.
        let mut r = Request::new("s", hac_workloads::sor_source());
        r.params.push(("n".to_string(), 8));
        r.fuel = Some(17);
        r
    };
    let first = server.handle(&starved());
    assert_eq!(first.status, Status::Limit);
    // Any other program evicts it from the singleton cache.
    let mut other = Request::new("o", TINY);
    other.params.push(("n".to_string(), 3));
    assert_eq!(server.handle(&other).status, Status::Ok);
    let again = server.handle(&starved());
    assert_eq!(again.cache_hit, Some(false));
    assert_eq!(again.fuel_left, first.fuel_left);
    assert_eq!(again.error, first.error);
}

/// The default capacity holds against a flood: ten thousand unique
/// programs leave exactly `DEFAULT_CACHE_CAP` residents, with the
/// ledger accounting for every eviction.
#[test]
fn ten_thousand_unique_programs_hold_the_cache_at_cap() {
    let server = Server::new(ServeOptions::default());
    assert_eq!(server.options().cache_cap, DEFAULT_CACHE_CAP);
    const FLOOD: usize = 10_000;
    let reqs: Vec<Request> = (0..FLOOD)
        .map(|i| {
            // A unique parameter binding is a unique compiled program,
            // hence a unique cache key.
            let mut r = Request::new(format!("u{i}"), TINY);
            r.params.push(("n".to_string(), i as i64));
            r
        })
        .collect();
    let out = server.run_batch(&reqs, 8);
    assert!(out.iter().all(|r| r.status == Status::Ok));
    assert!(out.iter().all(|r| r.cache_hit == Some(false)));
    let s = server.cache_stats();
    assert_eq!(s.live, DEFAULT_CACHE_CAP as u64, "held at cap");
    assert_eq!(s.cap, DEFAULT_CACHE_CAP as u64);
    assert_eq!(s.insertions, FLOOD as u64);
    assert_eq!(s.evictions, (FLOOD - DEFAULT_CACHE_CAP) as u64);
    assert_eq!(s.hits, 0);
    assert_eq!(s.misses, FLOOD as u64);
}

/// The default result-cache capacity holds under traffic that never
/// publishes a family snapshot (every request a fresh full key): 300
/// distinct seeds leave exactly `DEFAULT_RESULT_CACHE_CAP` residents.
/// The stalest outcome is gone, so re-sending the first request misses
/// and recomputes the identical answer, and the pure prediction
/// agrees with the realized classes throughout.
#[test]
fn the_default_result_cache_cap_holds_under_full_only_traffic() {
    let options = ServeOptions {
        // An ambient HAC_FAULT_PLAN would bypass the result cache.
        faults: Some(FaultPlan::default()),
        ..ServeOptions::default()
    };
    assert_eq!(options.result_cache_cap, DEFAULT_RESULT_CACHE_CAP);
    let dot = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/programs/dot.hac"))
        .expect("programs/dot.hac");
    let mut reqs: Vec<Request> = (0..300u64)
        .map(|seed| {
            let mut r = Request::new(format!("dot{seed}"), dot.clone());
            r.params.push(("n".to_string(), 16));
            r.seed = seed;
            r
        })
        .collect();
    let mut again = reqs[0].clone();
    again.id = "again".to_string();
    reqs.push(again);
    let predicted = Server::predicted_result_classes(&options, &reqs);

    let server = Server::new(options);
    let out: Vec<_> = reqs[..300].iter().map(|r| server.handle(r)).collect();
    assert!(out.iter().all(|r| r.status == Status::Ok));
    assert!(out
        .iter()
        .all(|r| r.result_cache == Some(ResultClass::Miss)));
    let s = server.result_cache_stats();
    assert_eq!((s.live, s.evictions), (256, 44), "{s:?}");

    let resent = server.handle(&reqs[300]);
    assert_eq!(resent.result_cache, Some(ResultClass::Miss), "evicted");
    assert_eq!(resent.answer_digest, out[0].answer_digest);
    assert!(resent.answer_digest.is_some());

    let realized: Vec<_> = out
        .iter()
        .chain(std::iter::once(&resent))
        .map(|r| r.result_cache)
        .collect();
    assert_eq!(realized, predicted);
}
