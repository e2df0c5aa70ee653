//! Smoke tests for the `hacc` CLI driver (built automatically for
//! integration tests; path via `CARGO_BIN_EXE_hacc`).

use std::process::Command;

fn hacc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hacc"))
        .args(args)
        // Keep these tests deterministic when the suite itself runs
        // under an ambient fault-injection plan (the CI fault job);
        // `env_plan_reaches_the_engine` covers the variable on purpose.
        .env_remove("HAC_FAULT_PLAN")
        .output()
        .expect("spawn hacc")
}

#[test]
fn wavefront_program_runs() {
    let out = hacc(&["programs/wavefront.hac", "n=6"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("outcome: thunkless"), "{stdout}");
    assert!(stdout.contains("1683.0000"), "Delannoy corner: {stdout}");
    assert!(stdout.contains("0 thunks"), "{stdout}");
}

#[test]
fn sor_program_reports_in_place() {
    let out = hacc(&["programs/sor.hac", "n=8", "--fill", "random:7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("in place, zero copies"), "{stdout}");
    assert!(stdout.contains("0 copies"), "{stdout}");
}

#[test]
fn thunked_mode_flag() {
    let out = hacc(&[
        "programs/wavefront.hac",
        "n=5",
        "--mode",
        "thunked",
        "--quiet",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("25 thunks"), "{stdout}");
}

#[test]
fn explain_only() {
    let out = hacc(&["programs/tridiag.hac", "n=6", "--no-run"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dependences:"), "{stdout}");
    assert!(!stdout.contains("counters:"), "{stdout}");
}

#[test]
fn missing_parameter_is_a_clean_error() {
    let out = hacc(&["programs/wavefront.hac"]);
    assert_eq!(out.status.code(), Some(2), "compile errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not"),
        "should explain the failure: {stderr}"
    );
}

#[test]
fn bad_file_is_a_clean_error() {
    let out = hacc(&["no-such-file.hac", "n=3"]);
    assert_eq!(out.status.code(), Some(1), "I/O errors exit 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn failure_classes_get_distinct_exit_codes() {
    // Usage error: 1.
    let out = hacc(&["--threads", "zero"]);
    assert_eq!(out.status.code(), Some(1), "usage errors exit 1");
    // The sequential tape is `--threads 1`, not an engine.
    let out = hacc(&["programs/wavefront.hac", "n=4", "--engine", "tape"]);
    assert_eq!(out.status.code(), Some(1), "usage errors exit 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown engine `tape`"));

    // Parse error: 2, with a diagnostic on stderr.
    std::fs::write("target/cli_parse_err.hac", "let let let := ;;\n").unwrap();
    let out = hacc(&["target/cli_parse_err.hac", "n=3"]);
    assert_eq!(out.status.code(), Some(2), "parse errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));

    // Compile error: 2, also for parameters that size an array past
    // allocatable bounds — never a panic in the input fill.
    for (n, why) in [
        ("-5", "invalid bounds (1,-5)"),
        ("9223372036854775807", "too large"),
    ] {
        let out = hacc(&["programs/jacobi.hac", &format!("n={n}"), "--quiet"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "n={n}: {stderr}");
        assert!(
            stderr.contains(why) && !stderr.contains("panicked"),
            "n={n}: {stderr}"
        );
    }

    // Runtime error: 3.
    std::fs::write(
        "target/cli_runtime_err.hac",
        "param n;\nlet a = array (1,n) [ i := a!(i-1) | i <- [1..n] ];\nresult a;\n",
    )
    .unwrap();
    let out = hacc(&["target/cli_runtime_err.hac", "n=4", "--quiet"]);
    assert_eq!(out.status.code(), Some(3), "runtime errors exit 3");
    assert!(String::from_utf8_lossy(&out.stderr).contains("runtime error"));

    // Limit exhaustion: 4, for fuel and memory alike.
    let out = hacc(&["programs/wavefront.hac", "n=8", "--quiet", "--fuel", "3"]);
    assert_eq!(out.status.code(), Some(4), "fuel exhaustion exits 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fuel exhausted"), "{stderr}");
    assert!(stderr.contains("limit exceeded"), "{stderr}");

    let out = hacc(&[
        "programs/wavefront.hac",
        "n=8",
        "--quiet",
        "--mem-limit",
        "100",
    ]);
    assert_eq!(out.status.code(), Some(4), "memory exhaustion exits 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("memory limit"));
}

#[test]
fn generous_limits_do_not_change_the_answer() {
    let plain = hacc(&["programs/wavefront.hac", "n=5", "--quiet"]);
    let limited = hacc(&[
        "programs/wavefront.hac",
        "n=5",
        "--quiet",
        "--fuel",
        "100000",
        "--mem-limit",
        "1000000",
    ]);
    assert_eq!(limited.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&limited.stdout),
        "metering must not perturb results"
    );
}

#[test]
fn injected_fault_is_recovered_and_reported() {
    let clean = hacc(&["programs/wavefront.hac", "n=32", "--quiet"]);
    let faulted = hacc(&[
        "programs/wavefront.hac",
        "n=32",
        "--quiet",
        "--threads",
        "4",
        "--fault-plan",
        "r0c0:panic",
    ]);
    assert_eq!(faulted.status.code(), Some(0), "fault must be absorbed");
    let out = String::from_utf8_lossy(&faulted.stdout);
    assert!(
        out.contains("engine faults: 1"),
        "recovery must be visible: {out}"
    );
    // Modulo the fault report line, the output is identical.
    let sans_fault_line: Vec<&str> = out
        .lines()
        .filter(|l| !l.starts_with("engine faults:"))
        .collect();
    let clean_out = String::from_utf8_lossy(&clean.stdout);
    assert_eq!(
        sans_fault_line.join("\n"),
        clean_out.trim_end(),
        "answer identical despite injected panic"
    );

    let out = hacc(&["programs/wavefront.hac", "n=8", "--fault-plan", "r0c0:zap"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "bad fault plans are usage errors"
    );
}

#[test]
fn env_plan_reaches_the_engine() {
    let out = Command::new(env!("CARGO_BIN_EXE_hacc"))
        .args([
            "programs/wavefront.hac",
            "n=32",
            "--quiet",
            "--threads",
            "4",
        ])
        .env("HAC_FAULT_PLAN", "r0c0:panic")
        .output()
        .expect("spawn hacc");
    assert_eq!(out.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("engine faults: 1"),
        "HAC_FAULT_PLAN must inject without any flag"
    );
}

#[test]
fn emit_limp_flag() {
    let out = hacc(&[
        "programs/sor.hac",
        "n=5",
        "--quiet",
        "--no-run",
        "--emit",
        "limp",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("limp for update `b` (in place)"),
        "{stdout}"
    );
    assert!(stdout.contains("for i = 2"), "{stdout}");
}

#[test]
fn scalar_reductions_printed() {
    std::fs::write(
        "target/cli_reduce_test.hac",
        "param n;\ninput u (1,n);\nlet s = sum [ u!k | k <- [1..n] ];\n\
         let a = array (1,1) [ 1 := s ];\nresult a;\n",
    )
    .unwrap();
    let out = hacc(&[
        "target/cli_reduce_test.hac",
        "n=4",
        "--quiet",
        "--fill",
        "zero",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scalar `s` = 0"), "{stdout}");
}

/// A serve stream answers every line with one structured response and
/// keeps going: a retired engine name, a negative extent and an
/// overflowing one (the largest integer the JSON wire carries exactly)
/// each get their error, and the request after them still runs.
#[test]
fn serve_stream_survives_bad_requests() {
    use std::io::Write;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_hacc"))
        .arg("serve")
        .env_remove("HAC_FAULT_PLAN")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hacc serve");
    let lines = [
        r#"{"id":"tape","file":"programs/wavefront.hac","params":{"n":4},"engine":"tape"}"#,
        r#"{"id":"neg","file":"programs/jacobi.hac","params":{"n":-5}}"#,
        r#"{"id":"huge","file":"programs/jacobi.hac","params":{"n":9007199254740991}}"#,
        r#"{"id":"ok","file":"programs/wavefront.hac","params":{"n":4}}"#,
    ];
    let mut stdin = child.stdin.take().unwrap();
    for line in lines {
        writeln!(stdin, "{line}").unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().expect("hacc serve exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let want: [&[&str]; 4] = [
        &[r#""status":"rejected","error":"bad-request","detail":"unknown engine `tape`""#],
        &[
            r#""id":"neg","status":"compile_error""#,
            "invalid bounds (1,-5)",
        ],
        &[r#""id":"huge","status":"compile_error""#, "too large"],
        &[r#""id":"ok","status":"ok""#],
    ];
    assert_eq!(stdout.lines().count(), want.len(), "{stdout}");
    for (response, needles) in stdout.lines().zip(want) {
        for needle in needles {
            assert!(response.contains(needle), "{response}");
        }
    }
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
}

#[test]
fn zero_threads_is_a_usage_error() {
    let out = hacc(&["programs/wavefront.hac", "n=6", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(1), "--threads 0 exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads needs a positive integer"),
        "{stderr}"
    );
    // The serve subcommands reject it the same way.
    let out = hacc(&["serve", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(1));
    let out = hacc(&["batch", "jobs.json", "--workers", "0"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn deadline_converts_to_fuel_without_reading_the_clock() {
    // A 1 op/ms rate turns a 2 ms deadline into 2 fuel: guaranteed
    // exhaustion, reproducibly, because the rate is injected — the
    // run itself involves no clock at all.
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_hacc"))
            .args([
                "programs/wavefront.hac",
                "n=8",
                "--quiet",
                "--deadline-ms",
                "2",
            ])
            .env_remove("HAC_FAULT_PLAN")
            .env("HAC_OPS_PER_MS", "1")
            .output()
            .expect("spawn hacc")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.status.code(), Some(4), "deadline-derived fuel exhausts");
    let stderr = String::from_utf8_lossy(&a.stderr);
    assert!(stderr.contains("fuel exhausted"), "{stderr}");
    assert_eq!(a.stdout, b.stdout, "bit-identical across runs");
    assert_eq!(a.stderr, b.stderr);

    // The flag wins over the environment; a huge rate completes.
    let out = Command::new(env!("CARGO_BIN_EXE_hacc"))
        .args([
            "programs/wavefront.hac",
            "n=8",
            "--quiet",
            "--deadline-ms",
            "1000",
            "--ops-per-ms",
            "1000000",
        ])
        .env_remove("HAC_FAULT_PLAN")
        .env("HAC_OPS_PER_MS", "1")
        .output()
        .expect("spawn hacc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn batch_subcommand_serves_jobs_with_statuses() {
    let jobs = r#"{"jobs": [
        {"id": "a", "file": "programs/wavefront.hac", "params": {"n": 6}, "fuel": 1000},
        {"id": "b", "file": "programs/wavefront.hac", "params": {"n": 6}, "fuel": 1000},
        {"id": "tight", "file": "programs/wavefront.hac", "params": {"n": 6}, "fuel": 2}
    ]}"#;
    std::fs::write("target/cli_batch_jobs.json", jobs).unwrap();
    let out = hacc(&[
        "batch",
        "target/cli_batch_jobs.json",
        "--ceiling-fuel",
        "100000",
        "--workers",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(r#""id":"a","status":"ok","tenant":null,"admitted":0,"cache":"miss""#),
        "{stdout}"
    );
    assert!(
        stdout.contains(r#""id":"b","status":"ok","tenant":null,"admitted":1,"cache":"hit""#),
        "{stdout}"
    );
    // Wavefront has an exact cost certificate, so the 2-fuel request
    // is proven short at admission and never executes.
    assert!(
        stdout.contains(r#""id":"tight","status":"over-certificate""#),
        "{stdout}"
    );
    assert!(
        stdout.contains("fuel budget 2 < certified cost 41"),
        "{stdout}"
    );
    assert!(stdout.contains("answer_digest"), "{stdout}");
    // a and b ran the identical program: identical digests.
    let digest = |id: &str| -> String {
        let needle = format!(r#""id":"{id}""#);
        let at = stdout.find(&needle).unwrap();
        let rest = &stdout[at..];
        let key = r#""answer_digest":""#;
        let d = rest.find(key).map(|i| &rest[i + key.len()..]).unwrap();
        d[..16].to_string()
    };
    assert_eq!(digest("a"), digest("b"));
}
