//! Seeded request generators. The workload seed is the only input:
//! the same seed gives the same request sequence, and the serving
//! stack only ever sees the JSON lines rendered from it.

use std::path::Path;

use hac_serve::{Request, Status};
use hac_workloads::XorShift;

/// The seven shipped kernels, in `programs/<name>.hac`.
pub const KERNELS: [&str; 7] = [
    "dot",
    "jacobi",
    "matvec",
    "matmul",
    "sor",
    "tridiag",
    "wavefront",
];

/// Index of `programs/incremental/jacobi_poke.hac` in [`load_programs`].
pub const POKE: usize = KERNELS.len();

/// `solve_cold` sizes, in [`KERNELS`] order: large, and chosen so every
/// request costs within about 2x of every other.
const SOLVE_N: [i64; 7] = [49152, 272, 288, 52, 160, 14336, 192];

/// `compile_churn` sizes, in [`KERNELS`] order: `n` ranges over
/// `lo..lo + span`. Each request draws one of these 1,192 program
/// instances uniformly, far more than the 256-entry program cache
/// holds. Compile time hardly depends on `n` (matmul's grows, so its
/// range is short), while execution grows with it: 2-D meshes stay
/// below 44x44 so compile, not execution, dominates.
const CHURN_N: [(i64, i64); 7] = [
    (8, 512),
    (4, 40),
    (4, 40),
    (4, 8),
    (4, 40),
    (8, 512),
    (4, 40),
];

/// Share of `compile_churn` requests that re-send a recent program
/// instance (with a fresh seed): program-cache hits.
const CHURN_REPEAT_PCT: u64 = 10;
/// How many recent program instances a repeat picks from.
const CHURN_RECENT: usize = 32;

/// Mesh sizes of `slide_daemon` families.
const POKE_N: [i64; 3] = [112, 128, 144];

/// One block of `slide_daemon` request kinds, shuffled per block so
/// every block holds exactly these shares.
const SLIDE_BLOCK: [Kind; 20] = {
    let mut b = [Kind::Slide; 20];
    b[14] = Kind::Repeat;
    b[15] = Kind::Repeat;
    b[16] = Kind::Repeat;
    b[17] = Kind::Family;
    b[18] = Kind::Family;
    b[19] = Kind::Hostile;
    b
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Same family, new poke: served as a delta.
    Slide,
    /// Exact repeat of a recent request: a result-cache hit.
    Repeat,
    /// New `(n, seed)` family: a full miss.
    Family,
    /// `n = 0`: must end as a structured `runtime_error`.
    Hostile,
}

/// A program's name and source text.
pub struct Program {
    pub name: &'static str,
    pub source: String,
}

/// Read the kernels and the incremental poke program from `root`.
///
/// # Errors
/// A message naming the file that could not be read.
pub fn load_programs(root: &Path) -> Result<Vec<Program>, String> {
    let mut out = Vec::new();
    let files = KERNELS
        .iter()
        .map(|k| (*k, format!("programs/{k}.hac")))
        .chain([(
            "jacobi_poke",
            "programs/incremental/jacobi_poke.hac".to_string(),
        )]);
    for (name, file) in files {
        let source = std::fs::read_to_string(root.join(&file))
            .map_err(|e| format!("cannot read {file}: {e}"))?;
        out.push(Program { name, source });
    }
    Ok(out)
}

/// One generated request: everything needed to render it and to know
/// the outcome it must have.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub program: usize,
    pub params: Vec<(String, i64)>,
    pub seed: u64,
    pub expect: Status,
}

impl Spec {
    /// The serving-layer request, with a stable id.
    pub fn request(&self, id: usize, programs: &[Program]) -> Request {
        let mut r = Request::new(format!("r{id}"), programs[self.program].source.clone());
        r.params.clone_from(&self.params);
        r.seed = self.seed;
        r
    }

    /// Identifies a distinct request: equal keys must get equal answers.
    pub fn key(&self) -> String {
        format!("{}{:?}{}", self.program, self.params, self.seed)
    }

    /// The wire line (no trailing newline).
    pub fn line(&self, id: usize, programs: &[Program]) -> String {
        self.request(id, programs).to_json().to_string()
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveCold,
    CompileChurn,
    SlideDaemon,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "solve_cold" => Some(Workload::SolveCold),
            "compile_churn" => Some(Workload::CompileChurn),
            "slide_daemon" => Some(Workload::SlideDaemon),
            _ => None,
        }
    }

    /// Most requests one run re-answers on the reference server: the
    /// tree walker needs tens of milliseconds for one large
    /// `solve_cold` request, so that sample is the smallest.
    pub fn reference_cap(self) -> usize {
        match self {
            Workload::SolveCold => 112,
            Workload::CompileChurn => 512,
            Workload::SlideDaemon => 1024,
        }
    }

    /// Untimed requests sent after each server construction.
    pub fn warmup_len(self) -> usize {
        match self {
            Workload::SolveCold => 2 * KERNELS.len(),
            Workload::CompileChurn => 256,
            Workload::SlideDaemon => 8,
        }
    }
}

/// A seeded, endless request stream for one workload.
pub struct Generator {
    workload: Workload,
    rng: XorShift,
    /// `solve_cold`: the current seeded permutation of the kernels.
    cycle: Vec<usize>,
    /// `compile_churn`: recent programs; `slide_daemon`: recent ok requests.
    recent: Vec<Spec>,
    /// `slide_daemon`: the current family `(n, seed)`.
    family: (i64, u64),
    /// `slide_daemon`: the current block of request kinds.
    block: Vec<Kind>,
}

impl Generator {
    /// `stream` separates independent sequences of one seed (warm-up
    /// versus the timed window).
    pub fn new(workload: Workload, seed: u64, stream: u64) -> Generator {
        let mix = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            ^ (workload as u64 + 1);
        let mut rng = XorShift::new(mix);
        // Let the xorshift state mix before the first draw.
        for _ in 0..8 {
            rng.next_u64();
        }
        Generator {
            workload,
            rng,
            cycle: Vec::new(),
            recent: Vec::new(),
            family: (0, 0),
            block: Vec::new(),
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    /// A request seed that survives the JSON number round trip.
    fn seed(&mut self) -> u64 {
        self.rng.next_u64() >> 12
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    pub fn next_spec(&mut self) -> Spec {
        match self.workload {
            Workload::SolveCold => self.solve_cold(),
            Workload::CompileChurn => self.compile_churn(),
            Workload::SlideDaemon => self.slide_daemon(),
        }
    }

    fn solve_cold(&mut self) -> Spec {
        if self.cycle.is_empty() {
            let mut order: Vec<usize> = (0..KERNELS.len()).collect();
            self.shuffle(&mut order);
            self.cycle = order;
        }
        let program = self.cycle.pop().expect("refilled above");
        Spec {
            program,
            params: vec![("n".to_string(), SOLVE_N[program])],
            seed: self.seed(),
            expect: Status::Ok,
        }
    }

    fn compile_churn(&mut self) -> Spec {
        let seed = self.seed();
        if !self.recent.is_empty() && self.below(100) < CHURN_REPEAT_PCT {
            let i = self.below(self.recent.len() as u64) as usize;
            return Spec {
                seed,
                ..self.recent[i].clone()
            };
        }
        let total: i64 = CHURN_N.iter().map(|r| r.1).sum();
        let mut k = self.below(total as u64) as i64;
        let mut program = 0;
        while k >= CHURN_N[program].1 {
            k -= CHURN_N[program].1;
            program += 1;
        }
        let n = CHURN_N[program].0 + k;
        let spec = Spec {
            program,
            params: vec![("n".to_string(), n)],
            seed,
            expect: Status::Ok,
        };
        if self.recent.len() == CHURN_RECENT {
            self.recent.remove(0);
        }
        self.recent.push(spec.clone());
        spec
    }

    fn poke(&mut self, n: i64, seed: u64) -> Spec {
        let ui = 1 + self.below(n.max(1) as u64) as i64;
        let uj = 1 + self.below(n.max(1) as u64) as i64;
        let uv = self.below(100) as i64;
        Spec {
            program: POKE,
            params: vec![
                ("n".to_string(), n),
                ("ui".to_string(), ui),
                ("uj".to_string(), uj),
                ("uv".to_string(), uv),
            ],
            seed,
            expect: if n > 0 {
                Status::Ok
            } else {
                Status::RuntimeError
            },
        }
    }

    fn slide_daemon(&mut self) -> Spec {
        // The first request of a stream opens a family, so slides and
        // repeats always have one to refer to.
        let kind = if self.recent.is_empty() {
            Kind::Family
        } else {
            if self.block.is_empty() {
                let mut b = SLIDE_BLOCK.to_vec();
                self.shuffle(&mut b);
                self.block = b;
            }
            self.block.pop().expect("refilled above")
        };
        let spec = match kind {
            Kind::Family => {
                let n = POKE_N[self.below(POKE_N.len() as u64) as usize];
                self.family = (n, self.seed());
                self.poke(n, self.family.1)
            }
            Kind::Slide => self.poke(self.family.0, self.family.1),
            Kind::Repeat => {
                let i = self.below(self.recent.len() as u64) as usize;
                return self.recent[i].clone();
            }
            Kind::Hostile => {
                let seed = self.seed();
                return self.poke(0, seed);
            }
        };
        if self.recent.len() == 16 {
            self.recent.remove(0);
        }
        self.recent.push(spec.clone());
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        for w in [
            Workload::SolveCold,
            Workload::CompileChurn,
            Workload::SlideDaemon,
        ] {
            let a: Vec<Spec> = {
                let mut g = Generator::new(w, 7, 1);
                (0..200).map(|_| g.next_spec()).collect()
            };
            let b: Vec<Spec> = {
                let mut g = Generator::new(w, 7, 1);
                (0..200).map(|_| g.next_spec()).collect()
            };
            let c: Vec<Spec> = {
                let mut g = Generator::new(w, 8, 1);
                (0..200).map(|_| g.next_spec()).collect()
            };
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn slide_blocks_hold_exact_shares() {
        let mut g = Generator::new(Workload::SlideDaemon, 3, 1);
        let specs: Vec<Spec> = (0..401).map(|_| g.next_spec()).collect();
        let hostile = specs
            .iter()
            .filter(|s| s.expect == Status::RuntimeError)
            .count();
        assert_eq!(hostile, 20);
    }
}
