//! The repository benchmark: one seeded command that drives the hac
//! serving stack from outside and times calls into each layer.
//!
//! ```text
//! hac-perfbench --workload solve_cold|compile_churn|slide_daemon
//!               --seed N --seconds S --trace 0|1 [--hacc PATH] [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that prints the per-layer metrics and writes the
//! per-layer table and the spans under `--out`. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. The
//! exit code is 0 when every outcome was correct, 1 on a correctness
//! mismatch (an oracle mismatch prints no result), 2 when the run could
//! not be made. See `README.md`.

mod daemon;
mod gate;
mod gen;
mod layers;
mod report;
mod sys;
mod trace;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hac_serve::json::{self, Json};
use hac_serve::{ServeOptions, Server};

use crate::gen::{Generator, Program, Spec, Workload};
use crate::report::{DaemonTimes, TraceRun};
use crate::window::{Ledger, Metric, Window};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Set-ups per `slide_daemon` run (each spawns a daemon).
const DAEMON_SETUP_REPS: usize = 3;
/// `n < 0` requests sent to the daemon after the timed window. They
/// crash the connection today (a known defect), so they are kept out of
/// the timed mix and only move `daemon.panics_recovered` and
/// `daemon.reconnects`.
const HOSTILE_PROBES: [i64; 3] = [-1, -5, -64];
/// Generator streams of one seed.
const WARM_STREAM: u64 = 1;
const WINDOW_STREAM: u64 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    hacc: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut hacc = PathBuf::from(".bench_build/release/hacc");
    let mut out = PathBuf::from("perfbench/results");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(Workload::parse(&w).ok_or(format!("unknown workload `{w}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => trace = value()? == "1",
            "--hacc" => hacc = PathBuf::from(value()?),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        hacc,
        out,
    })
}

/// Everything one run reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// The server the in-process workloads drive: the same defaults as
/// `hacc serve` and `hacc daemon` (ParTape, one thread per request).
fn serve_options() -> ServeOptions {
    ServeOptions::default()
}

/// The untimed warm-up requests sent after each server construction.
fn warm_specs(args: &Args) -> Vec<Spec> {
    let mut g = Generator::new(args.workload, args.seed, WARM_STREAM);
    (0..args.workload.warmup_len())
        .map(|_| g.next_spec())
        .collect()
}

/// `solve_cold` and `compile_churn`: one client thread calling the
/// wire path in process.
fn run_in_process(args: &Args, programs: &[Program]) -> Result<Outcome, String> {
    let warm = warm_specs(args);
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let t = Instant::now();
        let s = Server::new(serve_options());
        for (i, spec) in warm.iter().enumerate() {
            let (resp, _) = layers::serve_line(&s, &spec.line(i, programs))?;
            if resp.status != spec.expect {
                return Err(format!("warm-up request {i} ended {:?}", resp.status));
            }
        }
        setups.push(t.elapsed());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    let mut gen = Generator::new(args.workload, args.seed, WINDOW_STREAM);
    let mut w = Window::new(args);
    let mut tr = args.trace.then(TraceRun::new);
    let window = Duration::from_secs_f64(args.seconds);
    let before = Ledger::of(&server);
    let cpu0 = sys::self_cpu();
    let t0 = Instant::now();
    while t0.elapsed() < window {
        let spec = gen.next_spec();
        let id = w.requests;
        let line = spec.line(id, programs);
        let (resp, lat) = match tr.as_mut() {
            Some(tr) => tr.serve(&server, &line, id, &spec, programs)?,
            None => {
                let start = Instant::now();
                let (resp, out) = layers::serve_line(&server, &line)?;
                std::hint::black_box(out);
                (resp, start.elapsed())
            }
        };
        w.push(spec, lat, Some((resp.status.as_str(), resp.answer_digest)));
    }
    w.elapsed = t0.elapsed();
    w.cpu = sys::self_cpu() - cpu0;
    w.rss_mb = sys::peak_rss_mb(None).ok_or("cannot read VmHWM")?;
    let ledger = Ledger::of(&server).since(before);
    drop(server);

    let metrics = match &tr {
        Some(tr) => report::per_layer(args, programs, &w, tr, ledger, None)?,
        None => w.e2e(&setups),
    };
    finish(args, programs, &w, metrics, true)
}

/// Requests one `slide_daemon` connection carries before the client
/// turns to the other.
const SESSION: usize = 16;

/// The connection request `id` goes out on: sessions of [`SESSION`]
/// requests, alternating between the two connections.
fn conn_of(id: usize) -> usize {
    (id / SESSION) % 2
}

/// Set up one daemon: spawn, wait until it listens, connect two
/// clients, warm up.
fn daemon_setup(
    args: &Args,
    programs: &[Program],
    warm: &[Spec],
) -> Result<(daemon::Daemon, [daemon::Conn; 2]), String> {
    let d = daemon::Daemon::spawn(&args.hacc)?;
    let connect = || d.connect().map_err(|e| format!("connect: {e}"));
    let mut conns = [connect()?, connect()?];
    for (i, spec) in warm.iter().enumerate() {
        let reply = conns[conn_of(i)]
            .call(&spec.line(i, programs))
            .map_err(|e| format!("warm-up request {i}: {e}"))?;
        let (status, _, _) = parse_reply(&reply.line)?;
        if status != spec.expect.as_str() {
            return Err(format!("warm-up request {i} ended {status}"));
        }
    }
    Ok((d, conns))
}

/// Status, answer digest and result-cache class of a reply line.
fn parse_reply(line: &str) -> Result<(String, Option<String>, Option<String>), String> {
    let v = json::parse(line)?;
    let field = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
    let status = field("status").ok_or_else(|| format!("reply without status: {line}"))?;
    Ok((status, field("answer_digest"), field("result_cache")))
}

/// `slide_daemon`: one client process, two connections to a child
/// `hacc daemon`, alternating, each waiting for its reply.
fn run_daemon(args: &Args, programs: &[Program]) -> Result<Outcome, String> {
    let warm = warm_specs(args);
    let mut setups = Vec::new();
    let mut current = None;
    for _ in 0..DAEMON_SETUP_REPS {
        if let Some((d, conns)) = current.take() {
            drop(conns);
            daemon::Daemon::stop(d)?;
        }
        let t = Instant::now();
        current = Some(daemon_setup(args, programs, &warm)?);
        setups.push(t.elapsed());
    }
    let (d, mut conns) = current.expect("at least one set-up");

    let mut gen = Generator::new(args.workload, args.seed, WINDOW_STREAM);
    let mut w = Window::new(args);
    let mut dt = DaemonTimes::default();
    let mut classes = Vec::new();
    let window = Duration::from_secs_f64(args.seconds);
    let before = Ledger::from_stats(&d.stats()?)?;
    let pid = d.pid();
    let cpu_of = || sys::process_cpu(pid).ok_or("cannot read the daemon's CPU clock");
    let cpu0 = cpu_of()?;
    let t0 = Instant::now();
    while t0.elapsed() < window {
        let spec = gen.next_spec();
        let id = w.requests;
        let line = spec.line(id, programs);
        let start = Instant::now();
        match conns[conn_of(id)].call(&line) {
            Ok(reply) => {
                let lat = start.elapsed();
                let (status, digest, class) = parse_reply(&reply.line)?;
                dt.first_byte_us.push(reply.first_byte.as_secs_f64() * 1e6);
                dt.tail_us
                    .push((reply.total - reply.first_byte).as_secs_f64() * 1e6);
                dt.round_trip_us.push(lat.as_secs_f64() * 1e6);
                classes.push(Some((status.clone(), digest.clone(), class)));
                w.push(spec, lat, Some((&status, digest)));
            }
            Err(_) => {
                let lat = start.elapsed();
                classes.push(None);
                w.push(spec, lat, None);
                dt.reconnects += 1;
                conns[conn_of(id)] = d.connect().map_err(|e| format!("reconnect: {e}"))?;
            }
        }
    }
    w.elapsed = t0.elapsed();
    w.cpu = cpu_of()? - cpu0;
    w.rss_mb = sys::peak_rss_mb(Some(pid)).ok_or("cannot read the daemon's VmHWM")?;
    let ledger = Ledger::from_stats(&d.stats()?)?.since(before);

    // Hostile probe, after the window: each `n < 0` request must end
    // as a structured non-ok reply; today the connection closes
    // instead (known defect), which is counted, not failed.
    let mut gate_ok = true;
    for (i, n) in HOSTILE_PROBES.iter().enumerate() {
        let spec = Spec {
            program: gen::POKE,
            params: vec![
                ("n".to_string(), *n),
                ("ui".to_string(), 1),
                ("uj".to_string(), 1),
                ("uv".to_string(), 1),
            ],
            seed: 1,
            expect: hac_serve::Status::RuntimeError,
        };
        let mut c = d.connect().map_err(|e| format!("probe connect: {e}"))?;
        match c.call(&spec.line(i, programs)) {
            Ok(reply) => gate_ok &= parse_reply(&reply.line)?.0 != "ok",
            Err(_) => dt.reconnects += 1,
        }
    }
    dt.panics_recovered = Ledger::from_stats(&d.stats()?)?
        .since(before)
        .panics_recovered;
    drop(conns);
    d.stop()?;

    let metrics = if args.trace {
        // Replay the daemon's exact sequence in process: admission is
        // deterministic, so each request takes the same cache route.
        let replay = Server::new(serve_options());
        for (i, spec) in warm.iter().enumerate() {
            layers::serve_line(&replay, &spec.line(i, programs))?;
        }
        let mut tr = TraceRun::new();
        let mut diverged = 0;
        for (id, spec) in w.specs().iter().enumerate() {
            let (resp, _) = tr.serve(&replay, &spec.line(id, programs), id, spec, programs)?;
            let same = classes[id].as_ref().is_some_and(|(s, dg, c)| {
                *s == resp.status.as_str()
                    && *dg == resp.answer_digest
                    && c.as_deref() == resp.result_cache.map(|r| r.as_str())
            });
            diverged += usize::from(!same);
        }
        if diverged > 0 {
            eprintln!("perfbench: {diverged} replayed requests diverged from the daemon");
            gate_ok = false;
        }
        report::per_layer(args, programs, &w, &tr, ledger, Some(&dt))?
    } else {
        w.e2e(&setups)
    };
    finish(args, programs, &w, metrics, gate_ok)
}

/// Run the reference gate and assemble the outcome; `gate_ok` carries
/// the workload's own checks.
fn finish(
    args: &Args,
    programs: &[Program],
    w: &Window,
    metrics: Vec<Metric>,
    gate_ok: bool,
) -> Result<Outcome, String> {
    let v = w.sample.check(programs);
    eprintln!(
        "perfbench: {:?} seed {}: {} requests, {} failed; {} sampled requests checked against the reference: {} mismatches, {} conflicting repeats",
        args.workload, args.seed, w.requests, w.failed, v.checked, v.mismatches, v.conflicts
    );
    Ok(Outcome {
        correct: gate_ok && w.failed == 0 && v.mismatches == 0 && v.conflicts == 0,
        attempted: w.requests,
        failed: w.failed,
        metrics,
    })
}

fn run(args: &Args, programs: &[Program]) -> Result<Outcome, String> {
    match args.workload {
        Workload::SolveCold | Workload::CompileChurn => run_in_process(args, programs),
        Workload::SlideDaemon => run_daemon(args, programs),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let programs = match gen::load_programs(std::path::Path::new(".")) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = gate::check_oracles(&programs) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    let outcome = match run(&args, &programs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if outcome.attempted == 0 || outcome.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("perfbench: no requests completed or a metric is not finite");
        return ExitCode::from(2);
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(outcome.correct)),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{result}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
