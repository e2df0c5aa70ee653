//! The traced run (`--trace 1`): which requests are traced, the
//! per-layer metrics, and the per-layer table written with the results.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hac_serve::Server;

use crate::gen::{Program, Spec};
use crate::layers::{self, Shadow, Traced};
use crate::trace::Tracer;
use crate::window::{mean, metric, percentile, ratio, Ledger, Metric, Window};
use crate::Args;

/// Per-layer metrics: name, unit, and the end-to-end metric (on the
/// workload) it should move.
const PER_LAYER: [(&str, &str, &str); 33] = [
    (
        "lang.parse_us",
        "us",
        "slide_daemon/cpu_us_per_req; compile_churn/latency_p50_us",
    ),
    (
        "core.compile_us",
        "us",
        "slide_daemon/cpu_us_per_req; compile_churn/req_per_s",
    ),
    (
        "core.compiles",
        "count/req",
        "slide_daemon/cpu_us_per_req; compile_churn/req_per_s",
    ),
    (
        "analysis.dep_tests",
        "count",
        "slide_daemon/cpu_us_per_req; compile_churn/latency_p50_us",
    ),
    ("codegen.loops_fused", "count", "solve_cold/req_per_s"),
    ("codegen.loops_scalar", "count", "solve_cold/req_per_s"),
    ("exec.run_us", "us", "solve_cold/req_per_s"),
    ("exec.tape_ops", "count/req", "solve_cold/cpu_us_per_req"),
    (
        "exec.loop_iterations",
        "count/req",
        "solve_cold/cpu_us_per_req",
    ),
    (
        "exec.array_allocs",
        "count/req",
        "solve_cold/cpu_us_per_req",
    ),
    (
        "exec.elements_copied",
        "count/req",
        "solve_cold/cpu_us_per_req",
    ),
    ("serve.handle_us", "us", "all/latency_p50_us"),
    ("serve.residual_us", "us", "solve_cold/latency_p50_us"),
    ("serve.output_bytes", "B", "solve_cold/latency_p50_us"),
    (
        "serve.program_cache.hit_ratio",
        "ratio",
        "slide_daemon/cpu_us_per_req; compile_churn/req_per_s",
    ),
    (
        "serve.program_cache.evictions",
        "count/req",
        "slide_daemon/cpu_us_per_req; compile_churn/req_per_s",
    ),
    (
        "serve.result_cache.hit_ratio",
        "ratio",
        "slide_daemon/cpu_us_per_req",
    ),
    (
        "serve.result_cache.delta_ratio",
        "ratio",
        "slide_daemon/cpu_us_per_req",
    ),
    (
        "serve.result_cache.evictions",
        "count/req",
        "slide_daemon/cpu_us_per_req",
    ),
    (
        "serve.result_cache.resident_bytes",
        "B",
        "solve_cold+slide_daemon/peak_rss_mb",
    ),
    ("serve.delta_us", "us", "slide_daemon/cpu_us_per_req"),
    ("serve.full_us", "us", "slide_daemon/cpu_us_per_req"),
    ("serve.cert.certified", "ratio", "all/ok_rate"),
    ("serve.cert.open", "ratio", "all/ok_rate"),
    ("json.decode_us", "us", "slide_daemon/latency_p50_us"),
    ("json.encode_us", "us", "slide_daemon/latency_p50_us"),
    ("json.request_bytes", "B", "slide_daemon/latency_p50_us"),
    ("json.response_bytes", "B", "slide_daemon/latency_p50_us"),
    ("daemon.first_byte_us", "us", "slide_daemon/latency_p50_us"),
    ("daemon.tail_wait_us", "us", "slide_daemon/latency_p50_us"),
    ("daemon.panics_recovered", "count", "slide_daemon/ok_rate"),
    ("daemon.reconnects", "count", "slide_daemon/ok_rate"),
    ("trace.overhead_pct", "%", "none (tracing cost)"),
];

/// What the traced run measured beyond the spans.
pub struct TraceRun {
    tracer: Tracer,
    traced: Vec<Traced>,
    shadow: Shadow,
    /// Wire-path latency of untraced and traced requests, interleaved
    /// in the same window, for the tracing overhead.
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
}

impl TraceRun {
    pub fn new() -> TraceRun {
        TraceRun {
            tracer: Tracer::new(Instant::now()),
            traced: Vec::new(),
            shadow: Shadow::default(),
            untraced_us: Vec::new(),
            traced_us: Vec::new(),
        }
    }

    /// Serve `spec`, sent as `line`, in process; every other request
    /// is traced and then shadowed. Returns the response and the wire
    /// path's latency (shadow calls excluded).
    pub fn serve(
        &mut self,
        server: &Server,
        line: &str,
        id: usize,
        spec: &Spec,
        programs: &[Program],
    ) -> Result<(hac_serve::Response, Duration), String> {
        if id % 2 == 1 {
            let (resp, out, t) = layers::serve_line_traced(server, line, id, &mut self.tracer)?;
            std::hint::black_box(out);
            let lat = Duration::from_nanos(self.tracer.spans()[t.root].dur_ns());
            self.traced_us.push(lat.as_secs_f64() * 1e6);
            self.shadow.add(&t, spec, programs, &mut self.tracer)?;
            self.traced.push(t);
            Ok((resp, lat))
        } else {
            let start = Instant::now();
            let (resp, out) = layers::serve_line(server, line)?;
            std::hint::black_box(out);
            let lat = start.elapsed();
            self.untraced_us.push(lat.as_secs_f64() * 1e6);
            Ok((resp, lat))
        }
    }
}

/// Daemon-side timings of the `slide_daemon` window.
#[derive(Default)]
pub struct DaemonTimes {
    pub first_byte_us: Vec<f64>,
    pub tail_us: Vec<f64>,
    pub round_trip_us: Vec<f64>,
    pub reconnects: u64,
    pub panics_recovered: u64,
}

/// The per-layer metrics of a traced run. Also prints the per-layer
/// table and writes it, with the spans, under `--out`.
pub fn per_layer(
    args: &Args,
    programs: &[Program],
    w: &Window,
    tr: &TraceRun,
    ledger: Ledger,
    daemon: Option<&DaemonTimes>,
) -> Result<Vec<Metric>, String> {
    let sh = &tr.shadow;
    let n = tr.traced.len().max(1) as f64;
    let total = tr.tracer.total_ns();
    let selfs = tr.tracer.self_ns();
    let us = |name: &str| total.get(name).copied().unwrap_or(0) as f64 / 1e3 / n;
    let self_us = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / 1e3 / n;
    let handle_by = |class| {
        let v: Vec<f64> = tr
            .traced
            .iter()
            .filter(|t| t.class == Some(class))
            .map(|t| tr.tracer.spans()[t.handle].dur_ns() as f64 / 1e3)
            .collect();
        mean(&v)
    };
    let requests = w.requests as u64;
    let compiles = tr
        .traced
        .iter()
        .filter(|t| t.cache_hit == Some(false))
        .count();
    let overhead = 100.0 * (mean(&tr.traced_us) / mean(&tr.untraced_us) - 1.0);
    let d = daemon.map_or([0.0; 2], |d| [mean(&d.first_byte_us), mean(&d.tail_us)]);
    let values = [
        us("lang.parse_program"),
        us("core.compile"),
        compiles as f64 / n,
        sh.dep_tests as f64 / n,
        sh.loops_fused as f64 / n,
        sh.loops_scalar as f64 / n,
        us("exec.run"),
        sh.tape_ops as f64 / n,
        sh.loop_iterations as f64 / n,
        sh.array_allocs as f64 / n,
        sh.elements_copied as f64 / n,
        us("serve.handle"),
        self_us("serve.handle"),
        sh.output_bytes as f64 / n,
        ratio(ledger.pc_hits, ledger.pc_lookups),
        ratio(ledger.pc_evictions, requests),
        ratio(ledger.rc_hits, ledger.rc_lookups),
        ratio(ledger.rc_deltas, ledger.rc_lookups),
        ratio(ledger.rc_evictions, requests),
        ledger.rc_resident_bytes as f64,
        handle_by(hac_serve::ResultClass::Delta),
        handle_by(hac_serve::ResultClass::Miss),
        ratio(ledger.certified, ledger.certified + ledger.open),
        ratio(ledger.open, ledger.certified + ledger.open),
        us("json.parse") + us("serve.from_json"),
        us("serve.to_json") + us("json.render"),
        mean(
            &tr.traced
                .iter()
                .map(|t| t.request_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        mean(
            &tr.traced
                .iter()
                .map(|t| t.response_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        d[0],
        d[1],
        daemon.map_or(0.0, |d| d.panics_recovered as f64),
        daemon.map_or(0.0, |d| d.reconnects as f64),
        overhead,
    ];
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| metric(name, unit, v))
        .collect();

    // Self time per layer, per traced request.
    let wire = us("request");
    let mut layers_self = vec![
        ("json", self_us("json.parse") + self_us("json.render")),
        (
            "serve",
            self_us("serve.from_json") + self_us("serve.to_json") + self_us("serve.handle"),
        ),
        ("lang", self_us("lang.parse_program")),
        ("core", self_us("core.compile")),
        ("exec", self_us("exec.run")),
    ];
    if let Some(dt) = daemon {
        layers_self.push(("daemon", mean(&dt.round_trip_us) - wire));
    }
    let whole: f64 = layers_self.iter().map(|l| l.1).sum();
    let dominant = layers_self
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |l| l.0);

    let mut t = String::new();
    let _ = writeln!(
        t,
        "perfbench trace: workload {:?}, seed {}, {} requests in {:.2} s, {} traced",
        args.workload,
        args.seed,
        w.requests,
        w.elapsed.as_secs_f64(),
        tr.traced.len()
    );
    let _ = writeln!(t, "\nlayer self time (us per traced request)");
    for (name, v) in &layers_self {
        let _ = writeln!(t, "  {name:<8} {v:>12.2}  {:>5.1}%", 100.0 * v / whole);
    }
    let _ = writeln!(t, "  dominant layer: {dominant}");
    if let Some(dt) = daemon {
        let _ = writeln!(
            t,
            "  daemon round trip {:.1} us = first byte {:.1} us + tail wait {:.1} us; in-process wire path {:.1} us",
            mean(&dt.round_trip_us),
            mean(&dt.first_byte_us),
            mean(&dt.tail_us),
            wire
        );
    }
    let _ = writeln!(t, "\nspans (us per traced request: total, self)");
    for (name, v) in &total {
        let _ = writeln!(
            t,
            "  {name:<20} {:>12.2} {:>12.2}",
            *v as f64 / 1e3 / n,
            self_us(name)
        );
    }
    let _ = writeln!(t, "\nper-layer metrics (should move)");
    for (m, (_, _, moves)) in metrics.iter().zip(PER_LAYER) {
        let _ = writeln!(
            t,
            "  {:<34} {:>14.3} {:<10} {moves}",
            m.name, m.value, m.unit
        );
    }
    let _ = writeln!(
        t,
        "\nlatency by program (us, all window requests: p50, p90, count)"
    );
    for (p, prog) in programs.iter().enumerate() {
        let lat: Vec<f64> = w
            .specs()
            .iter()
            .zip(&w.lat_us)
            .filter(|(s, _)| s.program == p)
            .map(|(_, l)| f64::from(*l))
            .collect();
        if !lat.is_empty() {
            let _ = writeln!(
                t,
                "  {:<12} {:>10.1} {:>10.1} {:>7}",
                prog.name,
                percentile(&lat, 0.5),
                percentile(&lat, 0.9),
                lat.len()
            );
        }
    }
    write_trace(args, &t, &tr.tracer)?;
    Ok(metrics)
}

fn write_trace(args: &Args, table: &str, tracer: &Tracer) -> Result<(), String> {
    eprint!("{table}");
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!("{:?}-seed{}", args.workload, args.seed).to_lowercase();
    let table_path = args.out.join(format!("{stem}.trace.txt"));
    std::fs::write(&table_path, table).map_err(|e| format!("{}: {e}", table_path.display()))?;
    let spans_path = args.out.join(format!("{stem}.spans.jsonl"));
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))
}
