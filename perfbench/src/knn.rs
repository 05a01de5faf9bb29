//! `knn_fit`: the paper's transductive estimator at scale.
//!
//! n = 300 000 low-discrepancy points in the unit cube (d = 3), 1% of them
//! labeled (labeled-first), a k = 10 Gaussian union kNN graph with the
//! shrinking bandwidth h = (k/n)^(1/3), and the hard criterion through the
//! sparse policy route (IC(0)-preconditioned CG at these sizes) on two
//! workers. The working set (~0.5 GB) is larger than the last-level cache.
//! Nearly all time goes to the index, graph, core and linalg layers; the
//! serving layer does none.

use crate::stats::{median, peak_rss_mb, quantile, Metric, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::{bitwise_equal, runtime_dispatch_us, setup_median, timed, Args};
use gssl::{HardCriterion, HardSolver, Problem};
use gssl_graph::{knn_graph_with, Kernel, Symmetrization};
use gssl_index::{self_k_nearest_batch, BruteForce, NeighborSearch, SpatialIndex};
use gssl_linalg::{BackendKind, CgOptions, CsrMatrix, Factorization, Matrix, SolverPolicy, Vector};
use gssl_runtime::Executor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const N: usize = 300_000;
const DIM: usize = 3;
const K: usize = 10;
/// One labeled point in `LABEL_EVERY`, labeled-first.
const LABEL_EVERY: usize = 100;
const WORKERS: usize = 2;
const CG_TOLERANCE: f64 = 1e-7;
const CG_MAX_ITERATIONS: usize = 10_000;
/// Out-of-sample queries checked against the brute-force oracle.
const ORACLE_QUERIES: usize = 200;
/// Fresh processes that each time one cold pipeline for `setup_s`.
const SETUP_CHILDREN: usize = 2;
/// Warm pipelines per run, whatever `--seconds` allows.
const MIN_WARM: usize = 3;
/// Share of labels flipped away from the spatial rule.
const LABEL_NOISE: f64 = 0.1;

/// Roberts' R3 sequence: a Kronecker walk with the plastic-number powers
/// as step. Well spread in the cube, so the kd-tree is not flattered.
fn r3(i: usize, j: usize, offset: f64) -> f64 {
    const ALPHA: [f64; DIM] = [
        0.819_172_513_396_164_4,
        0.671_043_606_703_789_2,
        0.549_700_477_901_936_5,
    ];
    (0.5 + offset + ALPHA[j] * (i as f64 + 1.0)).fract()
}

struct Inputs {
    points: Matrix,
    labels: Vec<f64>,
    /// Out-of-sample queries for the oracle check.
    queries: Matrix,
}

/// The seed sets the walk's offset and the label noise; the cloud's
/// density, and so the graph's size, does not depend on it.
fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let offset: f64 = rng.gen();
    let points = Matrix::from_fn(N, DIM, |i, j| r3(i, j, offset));
    let labels = (0..N / LABEL_EVERY)
        .map(|i| {
            let y = if points.get(i, 0) < 0.5 { 1.0 } else { 0.0 };
            if rng.gen::<f64>() < LABEL_NOISE {
                1.0 - y
            } else {
                y
            }
        })
        .collect();
    let queries = Matrix::from_fn(ORACLE_QUERIES, DIM, |i, j| r3(i, j, offset + 0.25));
    Inputs {
        points,
        labels,
        queries,
    }
}

fn bandwidth() -> f64 {
    (K as f64 / N as f64).powf(1.0 / DIM as f64)
}

fn policy() -> SolverPolicy {
    SolverPolicy::with_cg(CgOptions {
        max_iterations: CG_MAX_ITERATIONS,
        tolerance: CG_TOLERANCE,
    })
}

struct Pipeline {
    scores: Vec<f64>,
    nnz: usize,
    problem: Problem,
}

/// Points to hard-criterion scores, with one span per layer call.
fn pipeline(
    inputs: &Inputs,
    executor: &Executor,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Pipeline, String> {
    let root = tracer.open("knn_fit.pipeline", parent);
    let span = tracer.open("graph.knn_graph_with", root);
    let graph = knn_graph_with(
        &inputs.points,
        K,
        Kernel::Gaussian,
        bandwidth(),
        Symmetrization::Union,
        executor,
    )
    .map_err(|e| format!("knn_graph_with: {e}"))?;
    tracer.close(span);
    let nnz = graph.nnz();
    let span = tracer.open("core.problem", root);
    let problem =
        Problem::new(graph, inputs.labels.clone()).map_err(|e| format!("Problem::new: {e}"))?;
    problem
        .require_anchored(0.0)
        .map_err(|e| format!("require_anchored: {e}"))?;
    tracer.close(span);
    let span = tracer.open("core.hard_fit", root);
    let scores = HardCriterion::new()
        .solver(HardSolver::Auto(policy()))
        .with_executor(executor.clone())
        .fit(&problem)
        .map_err(|e| format!("HardCriterion::fit: {e}"))?;
    tracer.close(span);
    tracer.close(root);
    Ok(Pipeline {
        scores: scores.all().to_vec(),
        nnz,
        problem,
    })
}

/// Queries on which the tree's neighbors differ from the brute-force
/// oracle's (ids, or squared distances bit for bit).
fn oracle_mismatches(inputs: &Inputs, index: &SpatialIndex) -> Result<usize, String> {
    let brute = BruteForce::build(&inputs.points).map_err(|e| format!("BruteForce::build: {e}"))?;
    let mut mismatches = 0;
    for qi in 0..inputs.queries.rows() {
        let q = inputs.queries.row(qi);
        let want = brute
            .k_nearest(q, K)
            .map_err(|e| format!("oracle query: {e}"))?;
        let got = index
            .k_nearest(q, K)
            .map_err(|e| format!("tree query: {e}"))?;
        let same = want.len() == got.len()
            && want
                .iter()
                .zip(&got)
                .all(|(w, g)| w.index == g.index && w.dist2.to_bits() == g.dist2.to_bits());
        if !same {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// `‖A f_U − b‖₂ / ‖b‖₂` of the unlabeled block for the given scores.
fn relative_residual(system: &CsrMatrix, rhs: &Vector, unlabeled: &[f64]) -> f64 {
    let applied = system.matvec(unlabeled);
    let r2: f64 = applied
        .iter()
        .zip(rhs.as_slice())
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    r2.sqrt() / rhs.norm_l2()
}

/// One cold pipeline in this (fresh) process, in seconds.
pub fn cold_setup(args: &Args) -> Result<f64, String> {
    let inputs = inputs(args.seed);
    let executor = Executor::with_workers(WORKERS);
    let (fit, secs) = timed(|| pipeline(&inputs, &executor, &Tracer::new(false), SpanId::ROOT));
    fit?;
    Ok(secs)
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = inputs(args.seed);
    let exec2 = Executor::with_workers(WORKERS);
    let exec1 = Executor::with_workers(1);
    let untraced = Tracer::new(false);

    // Set-up: the first, cold pipeline of this process and of a few fresh
    // ones.
    let (cold, cold_s) = timed(|| pipeline(&inputs, &exec2, &untraced, SpanId::ROOT));
    let cold = cold?;
    out.attempted += 1;
    let setup_s = setup_median(args, cold_s, SETUP_CHILDREN)?;
    out.attempted += SETUP_CHILDREN as u64;

    // Warm repeats fill the measured window.
    let window = Instant::now();
    let mut warm = Vec::new();
    let mut repeat_identical = true;
    while warm.len() < MIN_WARM || window.elapsed() < Duration::from_secs_f64(args.seconds) {
        let (run, secs) = timed(|| pipeline(&inputs, &exec2, &untraced, SpanId::ROOT));
        let run = run?;
        out.attempted += 1;
        repeat_identical &= run.nnz == cold.nnz && bitwise_equal(&run.scores, &cold.scores);
        warm.push(secs);
    }
    let fit_s = median(&warm);
    println!(
        "knn_fit: n {N} k {K} h {:.6} nnz {} | setup {setup_s:.3}s | warm fits {:?}",
        bandwidth(),
        cold.nnz,
        warm
    );
    out.check("warm_repeats_bitwise_and_nnz_equal", repeat_identical);

    let (seq, seq_s) = timed(|| pipeline(&inputs, &exec1, &untraced, SpanId::ROOT));
    let seq = seq?;
    out.attempted += 1;
    out.check(
        "scores_bitwise_1_vs_2_workers",
        seq.nnz == cold.nnz && bitwise_equal(&seq.scores, &cold.scores),
    );
    drop(seq);

    let index =
        SpatialIndex::build(&inputs.points).map_err(|e| format!("SpatialIndex::build: {e}"))?;
    let mismatches = oracle_mismatches(&inputs, &index)?;
    out.check("index_matches_brute_force", mismatches == 0);

    let system = cold
        .problem
        .unlabeled_system_csr()
        .map_err(|e| format!("unlabeled_system_csr: {e}"))?;
    let rhs = cold
        .problem
        .unlabeled_rhs()
        .map_err(|e| format!("unlabeled_rhs: {e}"))?;
    let n_labeled = cold.problem.n_labeled();
    let residual = relative_residual(&system, &rhs, &cold.scores[n_labeled..]);
    println!("knn_fit: 1-worker fit {seq_s:.3}s | relative residual {residual:.3e}");
    out.check("cg_residual_within_tolerance", residual <= CG_TOLERANCE);

    if !tracer.enabled() {
        out.push(Metric::new("setup_s", setup_s, "s"));
        out.push(Metric::new("latency_p50_ms", fit_s * 1e3, "ms"));
        out.push(Metric::new(
            "latency_p99_ms",
            quantile(&warm, 0.99) * 1e3,
            "ms",
        ));
        out.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
        return Ok(out);
    }

    // Traced pipeline: one span per layer call inside the pipeline.
    let (traced, traced_s) = timed(|| pipeline(&inputs, &exec2, tracer, SpanId::ROOT));
    let traced = traced?;
    out.attempted += 1;
    out.check(
        "traced_scores_bitwise_equal",
        traced.nnz == cold.nnz && bitwise_equal(&traced.scores, &cold.scores),
    );
    let assembly_s = tracer.durations("graph.knn_graph_with")[0];
    let problem_s = tracer.durations("core.problem")[0];
    let hard_fit_s = tracer.durations("core.hard_fit")[0];

    // Decomposition: layers that run inside `knn_graph_with` and
    // `HardCriterion::fit`, timed through their own public entry points on
    // the same inputs, outside the pipeline span.
    let root = tracer.open_derived("knn_fit.decomposition", SpanId::ROOT);
    let span = tracer.open_derived("index.build", root);
    let index =
        SpatialIndex::build(&inputs.points).map_err(|e| format!("SpatialIndex::build: {e}"))?;
    let build_s = tracer.close(span);
    let query = |executor: &Executor| -> Result<f64, String> {
        let span = tracer.open_derived("index.self_k_nearest_batch", root);
        let lists = self_k_nearest_batch(&index, K, executor)
            .map_err(|e| format!("self_k_nearest_batch: {e}"))?;
        let secs = tracer.close(span);
        drop(lists);
        Ok(secs)
    };
    let query2_s = query(&exec2)?;
    let query1_s = query(&exec1)?;

    let span = tracer.open_derived("core.system_build", root);
    let system = traced
        .problem
        .unlabeled_system_csr()
        .map_err(|e| format!("unlabeled_system_csr: {e}"))?;
    let rhs = traced
        .problem
        .unlabeled_rhs()
        .map_err(|e| format!("unlabeled_rhs: {e}"))?;
    let system_build_s = tracer.close(span);

    let factor_and_solve =
        |executor: &Executor| -> Result<(f64, f64, Vector, gssl_linalg::FactorReport), String> {
            let span = tracer.open_derived("linalg.factor_sparse", root);
            let backend = policy()
                .with_executor(executor.clone())
                .factor_sparse(&system)
                .map_err(|e| format!("factor_sparse: {e}"))?;
            let factor_s = tracer.close(span);
            let span = tracer.open_derived("linalg.solve", root);
            let x = backend.solve(&rhs).map_err(|e| format!("solve: {e}"))?;
            let solve_s = tracer.close(span);
            Ok((factor_s, solve_s, x, backend.report()))
        };
    let (factor_s, solve_s, x, report) = factor_and_solve(&exec2)?;
    let (_, solve1_s, x1, _) = factor_and_solve(&exec1)?;
    tracer.close(root);

    out.check(
        "decomposition_matches_pipeline",
        bitwise_equal(x.as_slice(), &traced.scores[n_labeled..])
            && bitwise_equal(x.as_slice(), x1.as_slice()),
    );
    let iterations = report.iterations.unwrap_or(0);
    let final_residual = report.final_residual.unwrap_or(f64::NAN);
    out.check(
        "solver_reported_residual_within_tolerance",
        final_residual <= CG_TOLERANCE * rhs.norm_l2(),
    );

    // Bytes one solve must move at minimum, from the CSR layout (8-byte
    // value + 8-byte column index per stored entry, plus the gathered x):
    // per iteration one matvec over A, the preconditioner apply (IC(0):
    // forward and backward sweeps over tril(A); Jacobi: one diagonal
    // scale) and ~15 streamed vector passes (axpys and dots).
    let m = system.rows() as f64;
    let nnz_a = system.nnz() as f64;
    let precond_bytes = match report.backend {
        BackendKind::SparseIcCg => 48.0 * (nnz_a + m) / 2.0,
        _ => 24.0 * m,
    };
    let per_iteration = 24.0 * nnz_a + 16.0 * m + precond_bytes + 15.0 * 8.0 * m;
    let solve_bytes = per_iteration * iterations as f64;

    let (dispatch_us, dispatch_seq_us) = runtime_dispatch_us(tracer);
    let overhead_ms = (traced_s - fit_s) * 1e3;
    println!(
        "knn_fit: traced pipeline {traced_s:.3}s vs untraced median {fit_s:.3}s; backend {} iterations {iterations}",
        report.backend.as_str()
    );

    out.push(Metric::derived("index.build_s", build_s, "s"));
    out.push(Metric::derived("index.knn_query_s", query2_s, "s"));
    out.push(Metric::derived(
        "index.knn_query_speedup_2v1",
        query1_s / query2_s,
        "ratio",
    ));
    out.push(Metric::new(
        "index.oracle_mismatches",
        mismatches as f64,
        "count",
    ));
    out.push(Metric::new("graph.knn_assembly_s", assembly_s, "s"));
    out.push(Metric::derived(
        "graph.symmetrize_csr_s",
        assembly_s - build_s - query2_s,
        "s",
    ));
    out.push(Metric::new("graph.nnz", traced.nnz as f64, "count"));
    out.push(Metric::new("core.problem_s", problem_s, "s"));
    out.push(Metric::derived("core.system_build_s", system_build_s, "s"));
    out.push(Metric::new("core.hard_fit_s", hard_fit_s, "s"));
    out.push(Metric::derived("linalg.factor_s", factor_s, "s"));
    out.push(Metric::derived("linalg.solve_s", solve_s, "s"));
    out.push(Metric::derived(
        "linalg.cg_iterations",
        iterations as f64,
        "count",
    ));
    out.push(Metric::derived(
        "linalg.final_residual",
        final_residual,
        "norm",
    ));
    out.push(Metric::derived(
        "linalg.solve_bytes_computed",
        solve_bytes,
        "bytes",
    ));
    out.push(Metric::derived(
        "linalg.solve_gbps_computed",
        solve_bytes / solve_s / 1e9,
        "GB/s",
    ));
    out.push(Metric::derived(
        "linalg.solve_speedup_2v1",
        solve1_s / solve_s,
        "ratio",
    ));
    out.push(Metric::derived("runtime.dispatch_us", dispatch_us, "us"));
    out.push(Metric::derived(
        "runtime.dispatch_seq_us",
        dispatch_seq_us,
        "us",
    ));
    out.push(Metric::derived("trace.overhead_ms", overhead_ms, "ms"));
    Ok(out)
}
