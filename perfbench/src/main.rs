//! The gssl benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <knn_fit|serve_read|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. Sizes, rates and think times
//! are constants, so a faster program receives the same load. Human
//! readable lines go to stdout first; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`)
//! of `BENCHMARK.json`, whatever the workload. The process exits nonzero
//! when an output check fails or a library call returns an error. See
//! `perfbench/README.md`.

mod knn;
mod serve;
mod stats;
mod trace;

use gssl_runtime::Executor;
use stats::{Metric, Outcome};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: run only the workload's set-up, cold, and print its time.
    pub cold_setup: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cold_setup = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--cold-setup" => cold_setup = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        cold_setup,
    })
}

fn trace_path(args: &Args) -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&base)
        .join("perfbench-traces")
        .join(format!("{}-seed{}.json", args.workload, args.seed))
}

/// The end-to-end metrics, as in `BENCHMARK.json`: every workload reports
/// each of them with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, as in `BENCHMARK.json`: every workload reports
/// each of them with `--trace 1`. A layer the workload never calls reads 0
/// and is marked "not exercised".
const PER_LAYER: [(&str, &str); 43] = [
    ("index.build_s", "s"),
    ("index.knn_query_s", "s"),
    ("index.knn_query_speedup_2v1", "ratio"),
    ("index.oracle_mismatches", "count"),
    ("graph.knn_assembly_s", "s"),
    ("graph.symmetrize_csr_s", "s"),
    ("graph.nnz", "count"),
    ("graph.kernel_assembly_s", "s"),
    ("graph.kernel_assembly_speedup_2v1", "ratio"),
    ("graph.kernel_bytes_computed", "bytes"),
    ("core.problem_s", "s"),
    ("core.system_build_s", "s"),
    ("core.hard_fit_s", "s"),
    ("linalg.factor_s", "s"),
    ("linalg.solve_s", "s"),
    ("linalg.cg_iterations", "count"),
    ("linalg.final_residual", "norm"),
    ("linalg.solve_bytes_computed", "bytes"),
    ("linalg.solve_gbps_computed", "GB/s"),
    ("linalg.solve_speedup_2v1", "ratio"),
    ("runtime.dispatch_us", "us"),
    ("runtime.dispatch_seq_us", "us"),
    ("serve.shard_fit_s", "s"),
    ("serve.snapshot_s", "s"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.cold_start_s", "s"),
    ("serve.predict_batch_us_p50", "us"),
    ("serve.predict_batch_us_p99", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.batch_fill_ratio", "ratio"),
    ("serve.offered", "count"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.sustained_qps", "1/s"),
    ("serve.fold_p50_ms", "ms"),
    ("serve.fold_p95_ms", "ms"),
    ("serve.rank1_updates", "count"),
    ("serve.guarded_refactors", "count"),
    ("serve.epochs_published", "count"),
    ("serve.metrics_call_us", "us"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Puts `metrics` in `schema` order. With `fill`, a schema metric the
/// workload did not report is added as 0 and its name returned; without,
/// it is an error. A metric outside the schema, or in another unit, is an
/// error either way.
fn conform(
    metrics: Vec<Metric>,
    schema: &[(&'static str, &'static str)],
    fill: bool,
) -> Result<(Vec<Metric>, Vec<&'static str>), String> {
    for m in &metrics {
        if !schema.contains(&(m.name, m.unit)) {
            return Err(format!(
                "metric {} in {} is not in the manifest",
                m.name, m.unit
            ));
        }
    }
    let mut ordered = Vec::with_capacity(schema.len());
    let mut filled = Vec::new();
    for &(name, unit) in schema {
        match metrics.iter().find(|m| m.name == name) {
            Some(m) => ordered.push(m.clone()),
            None if fill => {
                ordered.push(Metric::new(name, 0.0, unit));
                filled.push(name);
            }
            None => return Err(format!("workload reported no {name}")),
        }
    }
    Ok((ordered, filled))
}

fn result_line(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.cold_setup {
        let secs = match args.workload.as_str() {
            "knn_fit" => knn::cold_setup(&args),
            other => Err(format!("unknown workload {other}")),
        };
        return match secs {
            Ok(secs) => {
                println!("{secs:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: cold set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} host_parallelism {host_parallelism}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "knn_fit" => knn::run(&args, &tracer),
        "serve_read" => serve::run(&args, &tracer, serve::Mode::Read),
        "serve_mixed" => serve::run(&args, &tracer, serve::Mode::Mixed),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let schema: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let filled = match conform(std::mem::take(&mut outcome.metrics), schema, args.trace) {
        Ok((metrics, filled)) => {
            outcome.metrics = metrics;
            filled
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    outcome.check("metrics_finite", finite);
    for (name, ok) in &outcome.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for m in &outcome.metrics {
        println!(
            "metric {} = {} {}{}",
            m.name,
            m.value,
            m.unit,
            if filled.contains(&m.name) {
                " (not exercised)"
            } else if m.derived {
                " (derived)"
            } else {
                ""
            }
        );
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "error_rate = {error_rate} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    if tracer.enabled() {
        let path = trace_path(&args);
        match tracer.write(&path) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = outcome.correct();
    println!("{}", result_line(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an output check failed");
        ExitCode::FAILURE
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `setup_s`: the median cold set-up time over this process (`own`) and
/// `children` fresh processes of this binary, run one after another. A
/// set-up is cold only once per process, and processes differ more from
/// each other than repeats inside one do.
pub fn setup_median(args: &Args, own: f64, children: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = vec![own];
    for _ in 0..children {
        let output = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--cold-setup", "1"])
            .output()
            .map_err(|e| format!("cold set-up process: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "cold set-up process failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let secs = stdout
            .lines()
            .last()
            .and_then(|line| line.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("cold set-up process printed {stdout:?}"))?;
        samples.push(secs);
    }
    println!("{}: cold set-up samples {samples:?}", args.workload);
    Ok(stats::median(&samples))
}

/// Median cost of one 2-chunk `Executor::map_chunks` call, in µs, at 2
/// workers and on the sequential executor.
pub fn runtime_dispatch_us(tracer: &Tracer) -> (f64, f64) {
    const CALLS: usize = 2_000;
    let probe = |executor: &Executor, name: &'static str| {
        let span = tracer.open_derived(name, trace::SpanId::ROOT);
        let mut samples = Vec::with_capacity(CALLS);
        for _ in 0..CALLS {
            let start = Instant::now();
            let chunks: Result<Vec<usize>, gssl_runtime::Error> =
                executor.map_chunks(2, 1, |range| Ok(vec![range.start]));
            samples.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(chunks).ok();
        }
        tracer.close(span);
        stats::median(&samples)
    };
    (
        probe(&Executor::with_workers(2), "runtime.map_chunks_2_workers"),
        probe(&Executor::sequential(), "runtime.map_chunks_sequential"),
    )
}
