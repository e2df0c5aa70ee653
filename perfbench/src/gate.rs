//! The correctness gate: hand-written oracles at set-up, and after the
//! timed window a reference server re-answers a seeded sample of the
//! window's requests.

use std::collections::HashMap;

use hac_core::pipeline::{compile, run_with_options, CompileOptions, Engine, RunOptions};
use hac_lang::env::ConstEnv;
use hac_runtime::governor::FaultPlan;
use hac_runtime::value::ArrayBuf;
use hac_serve::{Request, ServeOptions, Server};
use hac_workloads as wl;

use crate::gen::{Program, Spec, KERNELS};

/// Mesh / vector size for the oracle checks.
const ORACLE_N: i64 = 24;
/// Relative tolerance for oracle comparisons.
const ORACLE_TOL: f64 = 1e-9;

/// Run every shipped kernel that has a hand-written oracle through
/// `hac_core` and compare its result array.
///
/// # Errors
/// A message naming the first kernel whose result differs.
pub fn check_oracles(programs: &[Program]) -> Result<(), String> {
    let n = ORACLE_N;
    let vec_in = |seed| wl::random_vector(n, seed);
    let mat_in = |seed| wl::random_matrix(n, n, seed);
    for (k, name) in KERNELS.iter().enumerate() {
        let (inputs, result, want): (Vec<(&str, ArrayBuf)>, &str, ArrayBuf) = match *name {
            "dot" => {
                let (a, b) = (vec_in(1), vec_in(2));
                let want = wl::dot_oracle(&a, &b, n);
                (vec![("a", a), ("b", b)], "r", want)
            }
            "jacobi" => {
                let a = mat_in(3);
                let want = wl::jacobi_step_oracle(&a, n);
                (vec![("a", a)], "b", want)
            }
            "matvec" => {
                let (m, x) = (mat_in(4), vec_in(5));
                let want = wl::matvec_oracle(&m, &x, n);
                (vec![("m", m), ("x", x)], "y", want)
            }
            "matmul" => {
                let (x, y) = (mat_in(6), mat_in(7));
                let want = wl::matmul_oracle(&x, &y, n);
                (vec![("x", x), ("y", y)], "c", want)
            }
            "sor" => {
                let a = mat_in(8);
                let want = wl::sor_oracle(&a, n);
                (vec![("a", a)], "b", want)
            }
            "tridiag" => {
                let d = vec_in(9);
                let want = wl::thomas_oracle(&d, n);
                (vec![("d", d)], "x", want)
            }
            "wavefront" => (Vec::new(), "a", wl::wavefront_oracle(n)),
            other => return Err(format!("no oracle wired for kernel `{other}`")),
        };
        let program = hac_lang::parser::parse_program(&programs[k].source)
            .map_err(|e| format!("oracle {name}: parse: {e}"))?;
        let mut env = ConstEnv::new();
        env.bind("n", n);
        let compiled = compile(&program, &env, &CompileOptions::default())
            .map_err(|e| format!("oracle {name}: compile: {e}"))?;
        let inputs: HashMap<String, ArrayBuf> = inputs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let out = run_with_options(
            &compiled,
            &inputs,
            &hac_runtime::value::FuncTable::new(),
            &RunOptions {
                threads: Some(1),
                faults: Some(FaultPlan::default()),
                ..RunOptions::default()
            },
        )
        .map_err(|e| format!("oracle {name}: run: {e}"))?;
        let got = out
            .arrays
            .get(result)
            .ok_or_else(|| format!("oracle {name}: no result array `{result}`"))?;
        if got.bounds() != want.bounds() {
            return Err(format!("oracle {name}: shape differs"));
        }
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            if (g - w).abs() > ORACLE_TOL * w.abs().max(1.0) {
                return Err(format!(
                    "oracle {name}: element {i} is {g}, oracle says {w}"
                ));
            }
        }
    }
    Ok(())
}

/// What the system under test answered: status and answer digest.
pub type Seen = (String, Option<String>);

/// A seeded uniform sample (reservoir) of the window's requests with
/// their answers. Its memory stays fixed however many requests the
/// window holds, so the untraced run's peak RSS is the server's own.
pub struct Sample {
    cap: usize,
    rng: wl::XorShift,
    offered: usize,
    items: Vec<(Spec, Seen)>,
}

/// The reference check's verdict.
pub struct Verdict {
    /// Distinct requests re-answered on the reference server.
    pub checked: usize,
    /// Of those, how many got a different status or digest.
    pub mismatches: usize,
    /// Sampled requests answered twice, differently.
    pub conflicts: usize,
}

impl Sample {
    pub fn new(cap: usize, seed: u64) -> Sample {
        Sample {
            cap,
            rng: wl::XorShift::new(seed ^ 0x5A5A_5A5A),
            offered: 0,
            items: Vec::with_capacity(cap),
        }
    }

    /// Offer one answered request to the sample.
    pub fn offer(&mut self, spec: &Spec, seen: impl FnOnce() -> Seen) {
        self.offered += 1;
        if self.items.len() < self.cap {
            self.items.push((spec.clone(), seen()));
        } else {
            let j = (self.rng.next_u64() % self.offered as u64) as usize;
            if j < self.cap {
                self.items[j] = (spec.clone(), seen());
            }
        }
    }

    /// Re-answer every distinct sampled request on a reference server
    /// built from this same code — tree walker, no fusion, no result
    /// cache — and compare status and digest.
    pub fn check(&self, programs: &[Program]) -> Verdict {
        let mut first: HashMap<String, &Seen> = HashMap::new();
        let mut distinct = Vec::new();
        let mut conflicts = 0;
        for (spec, seen) in &self.items {
            match first.get(&spec.key()) {
                Some(prev) => conflicts += usize::from(*prev != seen),
                None => {
                    first.insert(spec.key(), seen);
                    distinct.push((spec, seen));
                }
            }
        }
        let reference = Server::new(ServeOptions {
            engine: Engine::TreeWalk,
            fuse: false,
            result_cache_cap: 0,
            cache_cap: 0,
            threads: 1,
            faults: Some(FaultPlan::default()),
            ..ServeOptions::default()
        });
        let reqs: Vec<Request> = distinct
            .iter()
            .enumerate()
            .map(|(i, (spec, _))| spec.request(i, programs))
            .collect();
        let answers = reference.run_batch(&reqs, 2);
        let mismatches = distinct
            .iter()
            .zip(&answers)
            .filter(|((_, got), want)| got.0 != want.status.as_str() || got.1 != want.answer_digest)
            .count();
        Verdict {
            checked: distinct.len(),
            mismatches,
            conflicts,
        }
    }
}
