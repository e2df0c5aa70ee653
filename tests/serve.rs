//! Integration tests for the multi-tenant serving layer: the compiled
//! -program cache must skip the front end on repeats, deadlines must
//! convert to fuel without any engine reading the clock, and — the
//! core isolation property — a heavy tenant exhausting its budget must
//! never change a light tenant's answer, fuel balance, or counters.

use hac::core::deadline::DeadlineGovernor;
use hac::core::pipeline::{Engine, ExecMode};
use hac::serve::{Request, Response, ServeOptions, Server, Status};
use hac_runtime::governor::Limits;
use hac_workloads as wl;

fn request(id: &str, src: &str, n: i64) -> Request {
    let mut r = Request::new(id, src);
    r.params.push(("n".to_string(), n));
    r
}

fn light_request(id: &str) -> Request {
    let mut r = request(id, wl::wavefront_source(), 8);
    // ~70 metered ops for n=8; a 200-op budget is comfortable.
    r.fuel = Some(200);
    r.mem_bytes = Some(2048);
    r
}

fn heavy_request(id: &str) -> Request {
    // Gauss–Seidel's certificate is inexact (the bigupd unit), so
    // admission cannot prove the shortfall — the request really runs
    // and exhausts mid-flight, hammering the settle path.
    let mut r = request(id, wl::sor_source(), 24);
    // Nowhere near enough for n=24: exhausts mid-run, every time.
    r.fuel = Some(50);
    r.mem_bytes = Some(16384);
    r
}

fn assert_light_outcome(resp: &Response, want: &Response, context: &str) {
    assert_eq!(resp.status, Status::Ok, "{context}: light tenant completes");
    assert_eq!(
        resp.answer_digest, want.answer_digest,
        "{context}: light tenant's answer digest"
    );
    assert_eq!(
        resp.fuel_left, want.fuel_left,
        "{context}: light tenant's remaining fuel"
    );
    assert_eq!(
        resp.engine_faults, want.engine_faults,
        "{context}: light tenant's fault counter"
    );
    assert_eq!(
        resp.verdicts, want.verdicts,
        "{context}: light tenant's compile verdicts"
    );
}

/// The isolation property, head on: run the light tenant solo, then
/// race it against heavy tenants that exhaust their budgets, over
/// several stripe widths and repetitions. Every observable of the
/// light tenant must be bit-identical to the solo run.
#[test]
fn heavy_tenant_exhaustion_never_perturbs_light_tenant() {
    let solo_server = Server::new(ServeOptions::default());
    let solo = solo_server.handle(&light_request("solo"));
    assert_eq!(solo.status, Status::Ok);
    assert!(solo.answer_digest.is_some());
    assert!(solo.fuel_left.is_some());

    for stripes in [1, 4, 8] {
        let server = Server::new(ServeOptions {
            // Pool sized so every tenant admits; the heavies exhaust
            // *their own* budgets mid-run, hammering the settle path
            // while the light tenant executes.
            ceiling: Limits {
                fuel: Some(4_000),
                mem_bytes: Some(1 << 20),
            },
            stripes,
            ..ServeOptions::default()
        });
        for round in 0..5 {
            let reqs = vec![
                heavy_request(&format!("h1-{round}")),
                light_request(&format!("light-{round}")),
                heavy_request(&format!("h2-{round}")),
                heavy_request(&format!("h3-{round}")),
            ];
            let out = server.run_batch(&reqs, 4);
            assert_eq!(out[0].status, Status::Limit, "heavy tenant exhausts");
            assert_eq!(out[2].status, Status::Limit);
            assert_eq!(out[3].status, Status::Limit);
            assert_light_outcome(&out[1], &solo, &format!("stripes={stripes} round={round}"));
        }
        // Memory always settles back, except the bytes the result
        // cache's family snapshots still hold (Gauss–Seidel is
        // bigupd-rooted, so its prefix state stays resident for the
        // delta path); fuel is down by exactly what was spent — never
        // more than the pool.
        let resident = server.result_cache_stats().resident_bytes;
        assert_eq!(server.ceiling().mem_available(), (1 << 20) - resident);
        assert!(server.ceiling().fuel_available() <= 4_000);
    }
}

#[test]
fn cache_hits_skip_the_front_end() {
    let server = Server::new(ServeOptions::default());
    let first = server.handle(&light_request("a"));
    assert_eq!(first.cache_hit, Some(false));
    let s = server.cache_stats();
    assert_eq!((s.hits, s.misses), (0, 1));
    for i in 0..10 {
        let resp = server.handle(&light_request(&format!("r{i}")));
        assert_eq!(resp.cache_hit, Some(true));
        assert_eq!(resp.answer_digest, first.answer_digest);
    }
    // Ten repeats, zero extra compiles.
    let s = server.cache_stats();
    assert_eq!((s.hits, s.misses), (10, 1));
    // A different parameter binding is a different program.
    let other = server.handle(&request("other", wl::wavefront_source(), 9));
    assert_eq!(other.cache_hit, Some(false));
    let s = server.cache_stats();
    assert_eq!((s.hits, s.misses), (10, 2));
    assert_eq!(s.hits + s.misses, s.lookups);
    assert_eq!(s.insertions - s.evictions, s.live);
}

#[test]
fn cache_is_keyed_by_mode_and_engine_too() {
    let server = Server::new(ServeOptions::default());
    let mut a = request("a", wl::wavefront_source(), 8);
    a.engine = Some(Engine::ParTape);
    let mut b = request("b", wl::wavefront_source(), 8);
    b.engine = Some(Engine::TreeWalk);
    let mut c = request("c", wl::wavefront_source(), 8);
    c.mode = Some(ExecMode::ForceThunked);
    let ra = server.handle(&a);
    let rb = server.handle(&b);
    let rc = server.handle(&c);
    let s = server.cache_stats();
    assert_eq!((s.hits, s.misses), (0, 3), "three distinct cache keys");
    // Engines and modes agree on the answer, of course.
    assert_eq!(ra.answer_digest, rb.answer_digest);
    assert_eq!(ra.answer_digest, rc.answer_digest);
}

/// The deadline path is fully injectable: with a pinned rate there is
/// no clock anywhere — the same deadline always buys the same fuel,
/// so the same request always exhausts at the same point.
#[test]
fn injected_deadlines_are_reproducible() {
    let mk = || {
        Server::new(ServeOptions {
            deadline: Some(DeadlineGovernor::with_rate(10)),
            ..ServeOptions::default()
        })
    };
    // Gauss–Seidel: its inexact certificate cannot preempt the run,
    // so the deadline-derived budget genuinely exhausts at runtime.
    let mut tight = request("t", wl::sor_source(), 24);
    tight.deadline_ms = Some(3); // 30 fuel: exhausts
    let mut roomy = request("r", wl::wavefront_source(), 8);
    roomy.deadline_ms = Some(50); // 500 fuel: completes

    let (s1, s2) = (mk(), mk());
    let t1 = s1.handle(&tight);
    let t2 = s2.handle(&tight);
    assert_eq!(t1.status, Status::Limit);
    assert_eq!(t1.fuel_left, t2.fuel_left, "same deadline, same exhaustion");
    assert_eq!(t1.error, t2.error);

    let r1 = s1.handle(&roomy);
    let r2 = s2.handle(&roomy);
    assert_eq!(r1.status, Status::Ok);
    assert_eq!(r1.fuel_left, r2.fuel_left);
    assert_eq!(r1.answer_digest, r2.answer_digest);

    // An explicit fuel cap tighter than the deadline wins.
    let mut both = request("b", wl::sor_source(), 24);
    both.deadline_ms = Some(1_000_000);
    both.fuel = Some(5);
    let resp = s1.handle(&both);
    assert_eq!(resp.status, Status::Limit);
    assert_eq!(resp.fuel_left, Some(0));
}

#[test]
fn batch_covers_every_status_class() {
    let server = Server::new(ServeOptions {
        ceiling: Limits {
            fuel: Some(1_000),
            mem_bytes: None,
        },
        ..ServeOptions::default()
    });
    let mut over = request("over", wl::wavefront_source(), 8);
    over.fuel = Some(100_000); // bigger than the whole pool: rejected
    let mut broken = Request::new("broken", "param n;\nlet a = ");
    broken.params.push(("n".to_string(), 4));
    // Wavefront's exact certificate proves 3 fuel cannot finish n=8:
    // rejected at admission, before any execution.
    let mut starved = request("starved", wl::wavefront_source(), 8);
    starved.fuel = Some(3);
    // Gauss–Seidel's certificate is only an upper bound, so the same
    // starvation is discovered the old way — metered, mid-run.
    let mut metered = request("metered", wl::sor_source(), 10);
    metered.fuel = Some(3);
    let ok = light_request("ok");
    // Parameters that size an input past allocatable bounds are
    // compile errors, not panics in the input fill: a negative extent,
    // and an element count that overflows.
    let negative = request("negative", wl::jacobi_source(), -5);
    let huge = request("huge", wl::jacobi_source(), i64::MAX);

    let out = server.run_batch(&[ok, starved, over, broken, metered, negative, huge], 2);
    assert_eq!(out[0].status, Status::Ok);
    assert_eq!(out[1].status, Status::OverCertificate);
    assert_eq!(out[2].status, Status::Rejected);
    assert_eq!(out[3].status, Status::CompileError);
    assert_eq!(out[4].status, Status::Limit);
    // Statuses land on the right ids even with concurrent workers.
    assert_eq!(out[0].id, "ok");
    assert_eq!(out[1].id, "starved");
    assert_eq!(out[2].id, "over");
    assert_eq!(out[3].id, "broken");
    assert_eq!(out[4].id, "metered");
    assert_eq!(out[5].id, "negative");
    assert_eq!(out[6].id, "huge");
    assert_eq!(
        out[5].error.as_deref(),
        Some("compile error: array `a` dimension 0 has invalid bounds (1,-5): hi < lo - 1")
    );
    assert_eq!(
        out[6].error.as_deref(),
        Some("compile error: array `a` is too large: its element count or byte size overflows")
    );
    // The wire form spells them as the CI smoke expects.
    assert_eq!(
        out.iter().map(|r| r.status.as_str()).collect::<Vec<_>>(),
        vec![
            "ok",
            "over-certificate",
            "rejected",
            "compile_error",
            "limit",
            "compile_error",
            "compile_error"
        ]
    );
    // The certificate ledger saw every admission that compiled.
    let cs = server.cert_stats();
    assert_eq!(cs.rejected, 1);
    assert!(cs.certified >= 1);
}
