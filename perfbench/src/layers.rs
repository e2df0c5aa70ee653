//! The in-process wire path, and the traced run's per-layer
//! accounting: spans at each call, plus the layer calls that
//! `Server::handle` makes internally, re-issued outside it.

use std::collections::HashMap;
use std::time::Instant;

use hac_core::pipeline::{
    compile, run_with_options, CompileOptions, Compiled, Engine, ExecOutput, RunOptions, Unit,
};
use hac_lang::env::ConstEnv;
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_serve::json;
use hac_serve::{Request, Response, ResultClass, Server, Status};
use hac_workloads::XorShift;

use crate::gen::{Program, Spec};
use crate::trace::Tracer;

/// One request line through the path `hacc serve` takes: parse the
/// JSON line, `Request::from_json`, `Server::handle`,
/// `Response::to_json`, then render.
///
/// # Errors
/// A malformed line or request.
pub fn serve_line(server: &Server, line: &str) -> Result<(Response, String), String> {
    let v = json::parse(line)?;
    let req = Request::from_json(&v)?;
    let resp = server.handle(&req);
    let out = resp.to_json().to_string();
    Ok((resp, out))
}

/// What the traced run keeps of one traced request.
pub struct Traced {
    /// Span ids of the whole wire path and of `handle`.
    pub root: usize,
    pub handle: usize,
    pub cache_hit: Option<bool>,
    pub class: Option<ResultClass>,
    pub status: Status,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// [`serve_line`] with a span around each call, all carrying request
/// id `id`.
///
/// # Errors
/// See [`serve_line`].
pub fn serve_line_traced(
    server: &Server,
    line: &str,
    id: usize,
    tracer: &mut Tracer,
) -> Result<(Response, String, Traced), String> {
    let t0 = Instant::now();
    let v = json::parse(line)?;
    let t1 = Instant::now();
    let req = Request::from_json(&v)?;
    let t2 = Instant::now();
    let resp = server.handle(&req);
    let t3 = Instant::now();
    let j = resp.to_json();
    let t4 = Instant::now();
    let out = j.to_string();
    let t5 = Instant::now();
    let root = tracer.record("request", id, None, t0, t5);
    tracer.record("json.parse", id, Some(root), t0, t1);
    tracer.record("serve.from_json", id, Some(root), t1, t2);
    let handle = tracer.record("serve.handle", id, Some(root), t2, t3);
    tracer.record("serve.to_json", id, Some(root), t3, t4);
    tracer.record("json.render", id, Some(root), t4, t5);
    let traced = Traced {
        root,
        handle,
        cache_hit: resp.cache_hit,
        class: resp.result_cache,
        status: resp.status,
        request_bytes: line.len(),
        response_bytes: out.len(),
    };
    Ok((resp, out, traced))
}

/// Re-issues, outside `handle`, the layer calls `handle` made inside
/// it, right after each traced request so they see the same machine
/// state: `parse_program` and `compile` on a program-cache miss,
/// `run_with_options` on a full run. Their times are attributed to the
/// request's `handle` span; the work they count is summed over traced
/// requests. A delta-served request is attributed no run (its update
/// replay stays in `handle`'s self time), but a full run still
/// measures its digest bytes.
#[derive(Default)]
pub struct Shadow {
    profiles: HashMap<String, Profile>,
    pub tape_ops: u64,
    pub loop_iterations: u64,
    pub array_allocs: u64,
    pub elements_copied: u64,
    /// Bytes the answer digest covers (zero for result-cache hits,
    /// which replay a stored digest).
    pub output_bytes: u64,
    /// Static facts of each request's program, summed.
    pub dep_tests: u64,
    pub loops_fused: u64,
    pub loops_scalar: u64,
}

/// Static facts of one compiled program.
struct Profile {
    compiled: Compiled,
    dep_tests: u64,
    loops_fused: u64,
    loops_scalar: u64,
}

impl Profile {
    fn new(compiled: Compiled) -> Profile {
        let s = &compiled.report.stats;
        let verdicts = compiled
            .report
            .arrays
            .iter()
            .flat_map(|a| &a.fusion)
            .chain(compiled.report.updates.iter().flat_map(|u| &u.fusion));
        let (mut fused, mut scalar) = (0, 0);
        for v in verdicts {
            if v.contains(": fused") {
                fused += 1;
            } else if v.contains(": scalar") {
                scalar += 1;
            }
        }
        Profile {
            dep_tests: s.gcd_calls + s.banerjee_calls + s.exact_calls,
            loops_fused: fused,
            loops_scalar: scalar,
            compiled,
        }
    }
}

/// The compile options `Server` uses for requests that pick no engine
/// or mode.
fn compile_options() -> CompileOptions {
    CompileOptions {
        engine: Engine::ParTape,
        ..CompileOptions::default()
    }
}

fn env_of(spec: &Spec) -> ConstEnv {
    let mut env = ConstEnv::new();
    for (k, v) in &spec.params {
        env.bind(k, *v);
    }
    env
}

/// Inputs as the serving layer fills them for `seed`.
fn fill_inputs(compiled: &Compiled, seed: u64) -> HashMap<String, ArrayBuf> {
    let mut rng = XorShift::new(seed);
    let mut out = HashMap::new();
    for unit in &compiled.units {
        if let Unit::Input { name, bounds } = unit {
            let mut buf = ArrayBuf::new(bounds, 0.0);
            for v in buf.data_mut() {
                *v = (rng.next_f64() * 10.0).round() / 10.0;
            }
            out.insert(name.clone(), buf);
        }
    }
    out
}

/// Bytes the answer digest hashes for `out`: each name, a separator
/// byte, and eight bytes per value.
fn digest_bytes(out: &ExecOutput) -> u64 {
    let arrays: usize = out
        .arrays
        .iter()
        .map(|(n, a)| n.len() + 1 + 8 * a.len())
        .sum();
    let scalars: usize = out.scalars.keys().map(|n| n.len() + 1 + 8).sum();
    (arrays + scalars) as u64
}

impl Shadow {
    /// Shadow traced request `t`, sent as `spec`.
    ///
    /// # Errors
    /// A program that no longer parses or compiles.
    pub fn add(
        &mut self,
        t: &Traced,
        spec: &Spec,
        programs: &[Program],
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let key = format!("{}{:?}", spec.program, spec.params);
        let missed = t.cache_hit == Some(false);
        if missed || !self.profiles.contains_key(&key) {
            let s0 = Instant::now();
            let program = hac_lang::parser::parse_program(&programs[spec.program].source)
                .map_err(|e| format!("shadow parse: {e}"))?;
            let s1 = Instant::now();
            let compiled = compile(&program, &env_of(spec), &compile_options());
            let s2 = Instant::now();
            let compiled = compiled.map_err(|e| format!("shadow compile: {e}"))?;
            if missed {
                tracer.attribute("lang.parse_program", t.handle, ns(s1 - s0));
                tracer.attribute("core.compile", t.handle, ns(s2 - s1));
            }
            self.profiles.insert(key.clone(), Profile::new(compiled));
        }
        let p = &self.profiles[&key];
        self.dep_tests += p.dep_tests;
        self.loops_fused += p.loops_fused;
        self.loops_scalar += p.loops_scalar;
        let full = t.class == Some(ResultClass::Miss)
            && matches!(t.status, Status::Ok | Status::RuntimeError);
        let delta = t.class == Some(ResultClass::Delta);
        if !(full || delta) {
            return Ok(());
        }
        let inputs = fill_inputs(&p.compiled, spec.seed);
        let run_opts = RunOptions {
            threads: Some(1),
            ..RunOptions::default()
        };
        let s0 = Instant::now();
        let out = run_with_options(&p.compiled, &inputs, &FuncTable::new(), &run_opts);
        let dur = ns(s0.elapsed());
        if full {
            tracer.attribute("exec.run", t.handle, dur);
        }
        if let Ok(out) = out {
            self.output_bytes += digest_bytes(&out);
            if full {
                let c = &out.counters.vm;
                self.tape_ops += c.tape_ops;
                self.loop_iterations += c.loop_iterations;
                self.array_allocs += c.array_allocs;
                self.elements_copied += c.elements_copied;
            }
        }
        Ok(())
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
