//! Shared helpers for the Criterion benches and the experiment runner.

use std::collections::HashMap;

use hac_core::pipeline::{
    compile, run_with_threads, CompileOptions, Compiled, ExecMode, ExecOutput,
};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::value::{ArrayBuf, FuncTable};

/// Compile a source program under `params` with the given mode.
///
/// # Panics
/// Panics on parse/compile failure (benchmark programs are fixed).
pub fn compile_src(src: &str, params: &[(&str, i64)], mode: ExecMode) -> Compiled {
    let options = CompileOptions {
        mode,
        ..CompileOptions::default()
    };
    compile_with(src, params, &options)
}

/// [`compile_src`] with full compiler options.
///
/// # Panics
/// Panics on parse/compile failure (benchmark programs are fixed).
pub fn compile_with(src: &str, params: &[(&str, i64)], options: &CompileOptions) -> Compiled {
    let program = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let env = ConstEnv::from_pairs(params.iter().copied());
    compile(&program, &env, options).unwrap_or_else(|e| panic!("compile: {e}"))
}

/// Run a compiled program at one thread — the sequential tape path —
/// so kernel timings never include chunking or pool hand-offs.
///
/// # Panics
/// Panics on runtime failure.
pub fn run_compiled(compiled: &Compiled, inputs: &HashMap<String, ArrayBuf>) -> ExecOutput {
    run_with_threads(compiled, inputs, &FuncTable::new(), 1).unwrap_or_else(|e| panic!("run: {e}"))
}

/// Convenience: inputs map from name/buffer pairs.
pub fn inputs(pairs: &[(&str, ArrayBuf)]) -> HashMap<String, ArrayBuf> {
    pairs
        .iter()
        .map(|(n, b)| (n.to_string(), b.clone()))
        .collect()
}
