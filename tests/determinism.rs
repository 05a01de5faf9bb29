//! Determinism suite for the shared execution layer: every parallel code
//! path in the workspace must produce output **bit-identical** (`==` on
//! `f64` slices, not epsilon-close) to its sequential counterpart, at
//! every worker count.
//!
//! The claim being tested is the `gssl-runtime` contract: work is split
//! into contiguous chunks, each item is computed by exactly one worker
//! with the same per-item operation order as the sequential loop, and
//! results are reassembled in input order. Under that protocol the
//! floating-point result cannot depend on the worker count — which the
//! tests here check end to end for kernel assembly, hard and soft fits,
//! one-vs-rest multiclass, and batch serving, and which
//! `sim::enumerate_schedules` proves exhaustively for the claim protocol
//! itself.

use gssl::cmn::argsort_scores;
use gssl::{HardCriterion, OneVsRest, Problem, SoftCriterion};
use gssl_graph::{
    affinity::{
        affinity_from_distances, affinity_from_distances_with, affinity_matrix,
        affinity_matrix_with, affinity_with_rule, pairwise_squared_distances,
        pairwise_squared_distances_with,
    },
    component_partition, epsilon_graph, epsilon_graph_with, knn_graph, knn_graph_with, Bandwidth,
    Kernel, KernelGraph, Symmetrization,
};
use gssl_index::{
    k_nearest_batch, self_k_nearest_batch, self_within_radius_batch, NeighborSearch, SpatialIndex,
};
use gssl_linalg::{
    AmgCg, AmgOptions, CgOptions, Cholesky, CsrMatrix, Factorization, Lu, Matrix, PrecondCg,
    PrecondKind, SolverPolicy, Vector,
};
use gssl_runtime::{sim, Executor};
use gssl_serve::{EngineConfig, QueryPoint, ServingEngine, ShardPlan, ShardedEngine};

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// Deterministic low-discrepancy points (no RNG state to thread through).
fn points(n: usize, d: usize) -> Matrix {
    Matrix::from_fn(n, d, |i, j| {
        (((i * 131 + j * 37 + 11) as f64) * 0.618_033_988_749_894_9).fract()
    })
}

#[test]
fn kernel_assembly_is_bit_identical_across_worker_counts() {
    let pts = points(61, 5);
    let reference = affinity_matrix(&pts, Kernel::Gaussian, 0.7).expect("sequential affinity");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let parallel = affinity_matrix_with(&pts, Kernel::Gaussian, 0.7, &executor)
            .expect("parallel affinity");
        assert_eq!(
            reference.as_slice(),
            parallel.as_slice(),
            "affinity assembly diverged at {workers} workers"
        );
    }
}

#[test]
fn kernel_graph_weights_are_bit_identical_across_worker_counts() {
    let graph = KernelGraph::fit(points(53, 4), Kernel::Epanechnikov, 0.9).expect("graph fit");
    let reference = graph.weights().expect("sequential weights");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let parallel = graph.weights_with(&executor).expect("parallel weights");
        assert_eq!(
            reference.as_slice(),
            parallel.as_slice(),
            "KernelGraph::weights_with diverged at {workers} workers"
        );
    }
}

#[test]
fn knn_assembly_is_bit_identical_across_worker_counts() {
    let pts = points(47, 3);
    for symmetrization in [Symmetrization::Union, Symmetrization::Mutual] {
        let reference = knn_graph(&pts, 6, Kernel::Gaussian, 0.8, symmetrization)
            .expect("sequential knn graph");
        for workers in WORKER_COUNTS {
            let executor = Executor::with_workers(workers);
            let parallel =
                knn_graph_with(&pts, 6, Kernel::Gaussian, 0.8, symmetrization, &executor)
                    .expect("parallel knn graph");
            assert_eq!(reference.nnz(), parallel.nnz());
            assert_eq!(
                reference.to_dense().as_slice(),
                parallel.to_dense().as_slice(),
                "knn assembly diverged at {workers} workers ({symmetrization:?})"
            );
        }
    }
}

#[test]
fn spatial_index_build_and_batched_queries_are_bit_identical() {
    // Two independent builds of the same cloud must be the same tree
    // (construction is deterministic, no RNG, no address-dependent
    // ordering), and batched queries against it must not depend on the
    // worker count — the chunks reassemble in input order.
    let pts = points(90, 3);
    let queries = points(33, 3);
    let index = SpatialIndex::build(&pts).expect("index build");
    let rebuilt = SpatialIndex::build(&pts).expect("index rebuild");
    let reference =
        k_nearest_batch(&index, &queries, 5, &Executor::Sequential).expect("sequential batch");
    let twin =
        k_nearest_batch(&rebuilt, &queries, 5, &Executor::Sequential).expect("rebuilt batch");
    for workers in [1, 2, 4, 8] {
        let executor = Executor::with_workers(workers);
        let parallel = k_nearest_batch(&index, &queries, 5, &executor).expect("parallel batch");
        for (pair, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(r.len(), p.len(), "query {pair} at {workers} workers");
            for (a, b) in r.iter().zip(p) {
                assert_eq!(a.index, b.index, "query {pair} at {workers} workers");
                assert_eq!(
                    a.dist2.to_bits(),
                    b.dist2.to_bits(),
                    "query {pair} distance at {workers} workers"
                );
            }
        }
    }
    for (r, t) in reference.iter().zip(&twin) {
        assert_eq!(r, t, "independent builds answered differently");
    }
}

#[test]
fn knn_graph_with_is_bit_identical_at_high_worker_counts() {
    // The 1/2/3/4 sweep above pins tree-vs-brute equality; this one
    // extends the worker grid to 8 (more workers than chunks for some
    // block sizes) on the accelerated builder alone.
    let pts = points(64, 3);
    let reference = knn_graph(&pts, 7, Kernel::Gaussian, 0.8, Symmetrization::Union)
        .expect("sequential knn graph");
    for workers in [1, 2, 4, 8] {
        let executor = Executor::with_workers(workers);
        let parallel = knn_graph_with(
            &pts,
            7,
            Kernel::Gaussian,
            0.8,
            Symmetrization::Union,
            &executor,
        )
        .expect("parallel knn graph");
        assert_eq!(
            reference.to_dense().as_slice(),
            parallel.to_dense().as_slice(),
            "knn_graph_with diverged at {workers} workers"
        );
    }
}

/// A dense anchored two-class problem shared by the fit tests.
fn fit_problem() -> Problem {
    let weights = affinity_matrix(&points(72, 3), Kernel::Gaussian, 0.6).expect("affinity");
    let labels: Vec<f64> = (0..14).map(|i| f64::from(i as u8 % 2)).collect();
    Problem::new(weights, labels).expect("problem")
}

#[test]
fn hard_fit_is_bit_identical_across_worker_counts() {
    let problem = fit_problem();
    let reference = HardCriterion::new().fit(&problem).expect("sequential fit");
    for workers in WORKER_COUNTS {
        let parallel = HardCriterion::new()
            .with_executor(Executor::with_workers(workers))
            .fit(&problem)
            .expect("parallel fit");
        assert_eq!(
            reference.all(),
            parallel.all(),
            "hard fit diverged at {workers} workers"
        );
    }
}

#[test]
fn soft_fit_is_bit_identical_across_worker_counts() {
    let problem = fit_problem();
    let criterion = SoftCriterion::new(0.75).expect("lambda");
    let reference = criterion.fit(&problem).expect("sequential fit");
    for workers in WORKER_COUNTS {
        let parallel = SoftCriterion::new(0.75)
            .expect("lambda")
            .policy(SolverPolicy::default().with_executor(Executor::with_workers(workers)))
            .fit(&problem)
            .expect("parallel fit");
        assert_eq!(
            reference.all(),
            parallel.all(),
            "soft fit diverged at {workers} workers"
        );
    }
}

#[test]
fn multiclass_fit_is_bit_identical_across_worker_counts() {
    let weights = affinity_matrix(&points(60, 3), Kernel::Gaussian, 0.6).expect("affinity");
    let class_labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
    let reference = OneVsRest::new(HardCriterion::new(), 3)
        .expect("ovr")
        .fit(&weights, &class_labels)
        .expect("sequential fit");
    for workers in WORKER_COUNTS {
        let parallel = OneVsRest::new(HardCriterion::new(), 3)
            .expect("ovr")
            .with_executor(Executor::with_workers(workers))
            .fit(&weights, &class_labels)
            .expect("parallel fit");
        assert_eq!(
            reference.scores().as_slice(),
            parallel.scores().as_slice(),
            "one-vs-rest score matrix diverged at {workers} workers"
        );
        assert_eq!(reference.predictions(), parallel.predictions());
    }
}

#[test]
fn predict_batch_is_bit_identical_across_worker_counts() {
    let pts = points(48, 2);
    let labels: Vec<f64> = (0..10).map(|i| f64::from(i as u8 % 2)).collect();
    let queries: Vec<QueryPoint> = (0..37)
        .map(|q| {
            QueryPoint::new(vec![
                (((q * 131 + 11) as f64) * 0.618_033_988_749_894_9).fract(),
                (((q * 131 + 48) as f64) * 0.618_033_988_749_894_9).fract(),
            ])
        })
        .collect();
    let fit = |workers: usize| {
        let config = EngineConfig::new(Kernel::Gaussian, 0.5).workers(workers);
        let engine = ServingEngine::fit(&pts, &labels, config).expect("engine fit");
        engine.predict_batch(&queries).expect("batch predict")
    };
    let reference = fit(1);
    for workers in WORKER_COUNTS {
        let parallel = fit(workers);
        assert_eq!(reference.len(), parallel.len());
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(r.class, p.class, "query {i} class at {workers} workers");
            assert_eq!(
                r.score.to_bits(),
                p.score.to_bits(),
                "query {i} score at {workers} workers"
            );
            let same = r.per_class.len() == p.per_class.len()
                && r.per_class
                    .iter()
                    .zip(&p.per_class)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "query {i} per-class scores at {workers} workers");
        }
    }
}

#[test]
fn distance_and_affinity_pipeline_is_bit_identical_across_worker_counts() {
    let pts = points(57, 4);
    let d2 = pairwise_squared_distances(&pts).expect("sequential distances");
    let w = affinity_from_distances(&d2, Kernel::Gaussian, 0.7).expect("sequential affinity");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let d2_par = pairwise_squared_distances_with(&pts, &executor).expect("parallel distances");
        assert_eq!(
            d2.as_slice(),
            d2_par.as_slice(),
            "pairwise distances diverged at {workers} workers"
        );
        let w_par = affinity_from_distances_with(&d2, Kernel::Gaussian, 0.7, &executor)
            .expect("parallel affinity");
        assert_eq!(
            w.as_slice(),
            w_par.as_slice(),
            "affinity-from-distances diverged at {workers} workers"
        );
    }
    // The bandwidth-rule front end is a pure function of its inputs: two
    // invocations agree bitwise, and the matrix equals a direct assembly
    // at the resolved bandwidth.
    let (w1, h1) =
        affinity_with_rule(&pts, Kernel::Gaussian, Bandwidth::PaperRate, Some(12)).expect("rule");
    let (w2, h2) =
        affinity_with_rule(&pts, Kernel::Gaussian, Bandwidth::PaperRate, Some(12)).expect("rule");
    assert_eq!(h1.to_bits(), h2.to_bits());
    assert_eq!(w1.as_slice(), w2.as_slice());
    let direct = affinity_matrix(&pts, Kernel::Gaussian, h1).expect("direct");
    assert_eq!(w1.as_slice(), direct.as_slice());
}

#[test]
fn epsilon_graph_assembly_is_bit_identical_across_worker_counts() {
    let pts = points(50, 3);
    let reference = epsilon_graph(&pts, 0.6, Kernel::Gaussian, 0.8).expect("sequential graph");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let parallel = epsilon_graph_with(&pts, 0.6, Kernel::Gaussian, 0.8, &executor)
            .expect("parallel graph");
        assert_eq!(reference.nnz(), parallel.nnz());
        assert_eq!(
            reference.to_dense().as_slice(),
            parallel.to_dense().as_slice(),
            "epsilon-graph assembly diverged at {workers} workers"
        );
    }
}

#[test]
fn out_of_sample_kernel_rows_are_deterministic() {
    let graph = KernelGraph::fit(points(40, 3), Kernel::Gaussian, 0.7).expect("graph fit");
    let query = [0.31, 0.62, 0.13];
    let row = graph.kernel_row(&query).expect("kernel row");
    let again = graph.kernel_row(&query).expect("kernel row again");
    assert_eq!(row.as_slice(), again.as_slice());
    // The buffer-reusing variant computes the very same expressions.
    let mut out = vec![0.0; row.len()];
    graph
        .kernel_row_into(&query, &mut out)
        .expect("kernel row into");
    assert_eq!(row.as_slice(), out.as_slice());
    // A query that coincides with vertex i reproduces weights row i.
    let weights = graph.weights().expect("weights");
    let n = weights.rows();
    let vertex_row = graph.kernel_row(graph.points().row(2)).expect("vertex row");
    for j in 0..n {
        assert_eq!(
            vertex_row.as_slice()[j].to_bits(),
            weights.get(2, j).to_bits(),
            "kernel_row at vertex 2 disagrees with weights row at column {j}"
        );
    }
}

#[test]
fn single_query_search_is_deterministic_and_matches_self_batches() {
    let pts = points(40, 3);
    let index = SpatialIndex::build(&pts).expect("index build");
    let query = pts.row(5);
    // Repeated single queries are bitwise-stable.
    assert_eq!(
        index.k_nearest(query, 6).expect("k_nearest"),
        index.k_nearest(query, 6).expect("k_nearest again")
    );
    assert_eq!(
        index.within_radius(query, 0.9).expect("within_radius"),
        index
            .within_radius(query, 0.9)
            .expect("within_radius again")
    );
    let excluded = index
        .k_nearest_excluding(query, 6, Some(5))
        .expect("k_nearest_excluding");
    assert!(excluded.iter().all(|nb| nb.index != 5));
    // The self-join batches reassemble those per-point queries in input
    // order at every worker count.
    let knn_ref =
        self_k_nearest_batch(&index, 5, &Executor::Sequential).expect("sequential self-knn");
    let radius_ref = self_within_radius_batch(&index, 0.8, &Executor::Sequential)
        .expect("sequential self-radius");
    for (i, neighbors) in knn_ref.iter().enumerate() {
        let single = index
            .k_nearest_excluding(index.point(i), 5, Some(i))
            .expect("single query");
        assert_eq!(
            neighbors, &single,
            "batched row {i} disagrees with the single query"
        );
    }
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let knn_par = self_k_nearest_batch(&index, 5, &executor).expect("parallel self-knn");
        assert_eq!(
            knn_ref, knn_par,
            "self-knn batch diverged at {workers} workers"
        );
        let radius_par =
            self_within_radius_batch(&index, 0.8, &executor).expect("parallel self-radius");
        assert_eq!(
            radius_ref, radius_par,
            "self-radius batch diverged at {workers} workers"
        );
    }
}

#[test]
fn matmul_is_bit_identical_across_worker_counts() {
    let a = points(33, 21);
    let b = points(21, 17);
    let reference = a.matmul(&b).expect("sequential matmul");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let parallel = a.matmul_with(&b, &executor).expect("parallel matmul");
        assert_eq!(
            reference.as_slice(),
            parallel.as_slice(),
            "matmul diverged at {workers} workers"
        );
    }
}

/// A symmetric positive-definite system (`I + L` for an affinity graph's
/// Laplacian `L`) and a fixed right-hand side, shared by the
/// factorization tests.
fn spd_system(n: usize) -> (Matrix, Vector) {
    let w = affinity_matrix(&points(n, 3), Kernel::Gaussian, 0.6).expect("affinity");
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0 + (0..n).map(|k| w.get(i, k)).sum::<f64>()
        } else {
            -w.get(i, j)
        }
    });
    let rhs: Vec<f64> = (0..n)
        .map(|i| (((i * 37 + 5) as f64) * 0.01).sin())
        .collect();
    (a, Vector::from(rhs))
}

#[test]
fn dense_factorizations_are_bit_identical_across_worker_counts() {
    let (a, rhs) = spd_system(28);
    let chol_ref = Cholesky::factor(&a).expect("sequential cholesky");
    let lu_ref = Lu::factor(&a).expect("sequential lu");
    let chol_solution = chol_ref.solve(&rhs).expect("cholesky solve");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let chol = Cholesky::factor_with(&a, &executor).expect("parallel cholesky");
        assert_eq!(
            chol_ref.lower().as_slice(),
            chol.lower().as_slice(),
            "Cholesky factor diverged at {workers} workers"
        );
        assert_eq!(
            chol_solution.as_slice(),
            chol.solve(&rhs).expect("solve").as_slice(),
            "Cholesky solve diverged at {workers} workers"
        );
        let lu = Lu::factor_with(&a, &executor).expect("parallel lu");
        assert_eq!(
            lu_ref.factors().as_slice(),
            lu.factors().as_slice(),
            "LU factors diverged at {workers} workers"
        );
        assert_eq!(
            lu_ref.perm(),
            lu.perm(),
            "LU pivots diverged at {workers} workers"
        );
    }
}

#[test]
fn solver_policy_backends_are_bit_identical_across_worker_counts() {
    let (a, rhs) = spd_system(26);
    let sparse = CsrMatrix::from_dense(&a, 0.0);
    let policy = SolverPolicy::default();
    let dense_ref = policy
        .factor_dense(&a)
        .and_then(|f| f.solve(&rhs))
        .expect("sequential dense solve");
    let spd_ref = policy
        .factor_spd(&a)
        .and_then(|f| f.solve(&rhs))
        .expect("sequential spd solve");
    let sparse_ref = policy
        .factor_sparse(&sparse)
        .and_then(|f| f.solve(&rhs))
        .expect("sequential sparse solve");
    for workers in WORKER_COUNTS {
        let policy = SolverPolicy::default().with_executor(Executor::with_workers(workers));
        assert_eq!(
            dense_ref.as_slice(),
            policy
                .factor_dense(&a)
                .and_then(|f| f.solve(&rhs))
                .expect("parallel dense solve")
                .as_slice(),
            "factor_dense solve diverged at {workers} workers"
        );
        assert_eq!(
            spd_ref.as_slice(),
            policy
                .factor_spd(&a)
                .and_then(|f| f.solve(&rhs))
                .expect("parallel spd solve")
                .as_slice(),
            "factor_spd solve diverged at {workers} workers"
        );
        assert_eq!(
            sparse_ref.as_slice(),
            policy
                .factor_sparse(&sparse)
                .and_then(|f| f.solve(&rhs))
                .expect("parallel sparse solve")
                .as_slice(),
            "factor_sparse solve diverged at {workers} workers"
        );
    }
}

#[test]
fn preconditioned_cg_backends_are_bit_identical_across_worker_counts() {
    // Every preconditioner family behind PrecondCg shards only the CG
    // matvecs; the preconditioner application stays sequential. The solve
    // must therefore be byte-for-byte the sequential result at any worker
    // count, and two independent factorizations must agree bitwise.
    let (a, rhs) = spd_system(48);
    let sparse = CsrMatrix::from_dense(&a, 0.0);
    for kind in [PrecondKind::Jacobi, PrecondKind::Ic0] {
        let reference = PrecondCg::factor_sparse_with(&sparse, kind.clone(), CgOptions::default())
            .expect("sequential factor")
            .solve(&rhs)
            .expect("sequential solve");
        for workers in [1, 2, 4, 8] {
            let parallel =
                PrecondCg::factor_sparse_with(&sparse, kind.clone(), CgOptions::default())
                    .expect("parallel factor")
                    .with_executor(Executor::with_workers(workers))
                    .solve(&rhs)
                    .expect("parallel solve");
            assert_eq!(
                reference.as_slice(),
                parallel.as_slice(),
                "{kind:?} PCG solve diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn amg_hierarchy_and_solves_are_bit_identical_across_worker_counts() {
    // Coarsening (heavy-edge matching + Galerkin products) is a pure
    // sequential function of the matrix, so two independent hierarchies
    // must be identical; the V-cycle shards only the finest-level matvecs,
    // so solves must match the sequential run bitwise at any worker count.
    let (a, rhs) = spd_system(96);
    let sparse = CsrMatrix::from_dense(&a, 0.0);
    let reference = AmgCg::factor_sparse(&sparse, AmgOptions::default()).expect("factor");
    let twin = AmgCg::factor_sparse(&sparse, AmgOptions::default()).expect("refactor");
    assert_eq!(reference.levels(), twin.levels());
    assert_eq!(reference.coarse_dim(), twin.coarse_dim());
    let sequential = reference.solve(&rhs).expect("sequential solve");
    assert_eq!(
        sequential.as_slice(),
        twin.solve(&rhs).expect("twin solve").as_slice(),
        "independent AMG hierarchies solved differently"
    );
    for workers in [1, 2, 4, 8] {
        let parallel = AmgCg::factor_sparse(&sparse, AmgOptions::default())
            .expect("parallel factor")
            .with_executor(Executor::with_workers(workers))
            .solve(&rhs)
            .expect("parallel solve");
        assert_eq!(
            sequential.as_slice(),
            parallel.as_slice(),
            "AMG solve diverged at {workers} workers"
        );
    }
}

#[test]
fn executor_primitives_are_bit_identical_across_worker_counts() {
    let data: Vec<f64> = (0..97).map(|i| (i as f64) * 0.37).collect();
    let map_ref = Executor::Sequential
        .map(&data, |i, x| {
            Ok::<f64, gssl_runtime::Error>(x.sin() * ((i + 1) as f64).sqrt())
        })
        .expect("sequential map");
    let mut mut_ref = data.clone();
    Executor::Sequential
        .for_each_chunk_mut(&mut mut_ref, 8, |start, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = x.cos() + ((start + k) as f64) * 0.01;
            }
        })
        .expect("sequential chunk mutation");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let mapped = executor
            .map(&data, |i, x| {
                Ok::<f64, gssl_runtime::Error>(x.sin() * ((i + 1) as f64).sqrt())
            })
            .expect("parallel map");
        assert_eq!(
            map_ref, mapped,
            "Executor::map diverged at {workers} workers"
        );
        let mut mutated = data.clone();
        executor
            .for_each_chunk_mut(&mut mutated, 8, |start, chunk| {
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x = x.cos() + ((start + k) as f64) * 0.01;
                }
            })
            .expect("parallel chunk mutation");
        assert_eq!(
            mut_ref, mutated,
            "Executor::for_each_chunk_mut diverged at {workers} workers"
        );
    }
}

#[test]
fn full_system_and_factored_fits_are_bit_identical_across_worker_counts() {
    // Soft criterion, full (n + m) system path.
    let problem = fit_problem();
    let full_ref = SoftCriterion::new(0.75)
        .expect("lambda")
        .fit_full_system(&problem)
        .expect("sequential full-system fit");
    for workers in WORKER_COUNTS {
        let parallel = SoftCriterion::new(0.75)
            .expect("lambda")
            .policy(SolverPolicy::default().with_executor(Executor::with_workers(workers)))
            .fit_full_system(&problem)
            .expect("parallel full-system fit");
        assert_eq!(
            full_ref.all(),
            parallel.all(),
            "full-system soft fit diverged at {workers} workers"
        );
    }
    // Factored one-vs-rest (shared factorization through
    // `HardCriterion::fit_multiclass`).
    let weights = affinity_matrix(&points(45, 3), Kernel::Gaussian, 0.6).expect("affinity");
    let class_labels: Vec<usize> = (0..45).map(|i| i % 3).collect();
    let factored_ref = OneVsRest::new(HardCriterion::new(), 3)
        .expect("ovr")
        .fit_factored(&weights, &class_labels)
        .expect("sequential factored fit");
    for workers in WORKER_COUNTS {
        let parallel = OneVsRest::new(HardCriterion::new(), 3)
            .expect("ovr")
            .with_executor(Executor::with_workers(workers))
            .fit_factored(&weights, &class_labels)
            .expect("parallel factored fit");
        assert_eq!(
            factored_ref.scores().as_slice(),
            parallel.scores().as_slice(),
            "factored multiclass fit diverged at {workers} workers"
        );
        assert_eq!(factored_ref.predictions(), parallel.predictions());
    }
}

#[test]
fn multiclass_serving_is_bit_identical_across_worker_counts() {
    let pts = points(42, 2);
    let class_labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
    let queries: Vec<QueryPoint> = (0..23)
        .map(|q| {
            QueryPoint::new(vec![
                (((q * 131 + 17) as f64) * 0.618_033_988_749_894_9).fract(),
                (((q * 131 + 54) as f64) * 0.618_033_988_749_894_9).fract(),
            ])
        })
        .collect();
    let fit = |workers: usize| {
        let config = EngineConfig::new(Kernel::Gaussian, 0.5).workers(workers);
        let engine =
            ServingEngine::fit_multiclass(&pts, &class_labels, 3, config).expect("engine fit");
        engine.predict_batch(&queries).expect("batch predict")
    };
    let reference = fit(1);
    for workers in WORKER_COUNTS {
        let parallel = fit(workers);
        assert_eq!(reference.len(), parallel.len());
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(r.class, p.class, "query {i} class at {workers} workers");
            let same = r.per_class.len() == p.per_class.len()
                && r.per_class
                    .iter()
                    .zip(&p.per_class)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "query {i} per-class scores at {workers} workers");
        }
    }
}

#[test]
fn score_argsort_is_deterministic() {
    let scores: Vec<f64> = (0..101)
        .map(|i| (((i * 193 + 7) as f64) * 0.618_033_988_749_894_9).fract() - 0.5)
        .collect();
    let order = argsort_scores(&scores);
    assert_eq!(order, argsort_scores(&scores));
    // A permutation, ascending under the total order.
    let mut seen = vec![false; scores.len()];
    for &i in &order {
        seen[i] = true;
    }
    assert!(seen.iter().all(|&s| s));
    for pair in order.windows(2) {
        assert!(scores[pair[0]].total_cmp(&scores[pair[1]]).is_le());
    }
    // Total on NaN: no panic, NaN sorts after every finite value.
    assert_eq!(argsort_scores(&[0.5, f64::NAN, -1.0]), vec![2, 0, 1]);
}

/// The exhaustive proof backing the `map_chunks` determinism claim: every
/// bounded interleaving of the chunk-claim protocol yields disjoint,
/// exhaustive claims with results published once each — for the same
/// (len, workers, width) grid shapes the library uses (width from
/// `len.div_ceil(workers * 4).max(1)` plus adversarial widths).
#[test]
fn schedule_enumeration_proves_the_map_chunks_claim_protocol() {
    for len in [1usize, 2, 5, 6] {
        for workers in [1usize, 2, 3] {
            let library_width = len.div_ceil(workers.saturating_mul(4)).max(1);
            for width in [library_width, 1, 2, len] {
                let report = sim::enumerate_schedules_with_width(len, workers, width)
                    .unwrap_or_else(|violation| {
                        panic!("len={len} workers={workers} width={width}: {violation}")
                    });
                assert!(report.schedules > 0);
                assert_eq!(report.chunks, len.div_ceil(width));
            }
        }
    }
    // And the production `Executor::map` width selection itself.
    let report = sim::enumerate_schedules(6, 2).expect("map chunk protocol");
    assert!(report.schedules > 0);
}

/// Three interleaved 1-D clusters (node `i` in cluster `i % 3`): a compact
/// kernel disconnects them, so the serving graph has three components with
/// members scattered through the global index space.
fn clustered_points(total: usize) -> Matrix {
    Matrix::from_fn(total, 1, |i, _| {
        let jitter = (((i * 37 + 11) as f64) * 0.618_033_988_749_894_9).fract();
        (i % 3) as f64 * 10.0 + jitter
    })
}

fn cluster_queries(count: usize) -> Vec<QueryPoint> {
    (0..count)
        .map(|q| {
            let jitter = (((q * 53 + 5) as f64) * 0.618_033_988_749_894_9).fract();
            QueryPoint::new(vec![(q % 3) as f64 * 10.0 + jitter])
        })
        .collect()
}

#[test]
fn component_partition_is_deterministic_and_exhaustive() {
    // Block structure with interleaved membership: i ~ j iff i ≡ j (mod 3).
    let n = 17;
    let w = Matrix::from_fn(
        n,
        n,
        |i, j| {
            if i != j && i % 3 == j % 3 {
                1.0
            } else {
                0.0
            }
        },
    );
    let reference = component_partition(&w, 0.0).expect("partition");
    assert_eq!(reference.len(), 3);
    let mut seen = vec![false; n];
    for members in &reference {
        for &v in members {
            assert!(!seen[v], "vertex {v} assigned twice");
            seen[v] = true;
        }
        // Deterministic order contract: members ascend.
        for pair in members.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
    assert!(seen.iter().all(|&s| s), "partition must cover every vertex");
    for _ in 0..3 {
        assert_eq!(reference, component_partition(&w, 0.0).expect("repeat"));
    }
}

#[test]
fn map_tasks_is_bit_identical_across_worker_counts() {
    // Deliberately uneven per-task cost so the width-1 claim order is
    // actually contended when the pool runs multi-worker.
    let tasks: Vec<usize> = (0..23).collect();
    let run = |workers: usize| -> Vec<f64> {
        let executor = Executor::with_workers(workers);
        executor
            .map_tasks(&tasks, |index, &t| {
                let mut acc = 0.0_f64;
                for k in 0..(t * 97 + 13) {
                    acc += (((k * 31 + index + 7) as f64) * 0.618_033_988_749_894_9).fract();
                }
                Ok::<f64, gssl_runtime::Error>(acc)
            })
            .expect("map_tasks")
    };
    let reference = run(1);
    for workers in WORKER_COUNTS {
        let parallel = run(workers);
        assert_eq!(reference.len(), parallel.len());
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(
                r.to_bits(),
                p.to_bits(),
                "task {i} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn shard_plan_is_deterministic() {
    let n = 15;
    let w = Matrix::from_fn(
        n,
        n,
        |i, j| {
            if i != j && i % 3 == j % 3 {
                0.5
            } else {
                0.0
            }
        },
    );
    let reference = ShardPlan::new(&w, 3).expect("plan");
    assert_eq!(reference.n_shards(), 3);
    for repeat in 0..3 {
        let plan = ShardPlan::new(&w, 3).expect("plan repeat");
        assert_eq!(plan.n_shards(), reference.n_shards(), "repeat {repeat}");
        for (s, (a, b)) in reference.shards().iter().zip(plan.shards()).enumerate() {
            assert_eq!(a.members(), b.members(), "shard {s} repeat {repeat}");
            assert_eq!(a.n_labeled(), b.n_labeled(), "shard {s} repeat {repeat}");
        }
        for v in 0..n {
            assert_eq!(plan.shard_of(v), reference.shard_of(v));
        }
    }
}

#[test]
fn sharded_serving_is_bit_identical_across_worker_counts() {
    let pts = clustered_points(24);
    let labels = [0.0, 1.0, 0.0];
    let queries = cluster_queries(19);
    let fit = |workers: usize| {
        let config = EngineConfig::new(Kernel::Epanechnikov, 1.6).workers(workers);
        ShardedEngine::fit(&pts, &labels, config).expect("sharded fit")
    };
    let reference_engine = fit(1);
    assert_eq!(
        reference_engine.n_shards(),
        3,
        "expected a real decomposition"
    );
    let reference_scores = reference_engine.scores();
    let reference = reference_engine.predict_batch(&queries).expect("predict");
    for workers in [1, 2, 4, 8] {
        let engine = fit(workers);
        assert_eq!(
            reference_scores.as_slice(),
            engine.scores().as_slice(),
            "fitted scores diverged at {workers} workers"
        );
        let parallel = engine.predict_batch(&queries).expect("predict");
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(r.class, p.class, "query {i} class at {workers} workers");
            let same = r.per_class.len() == p.per_class.len()
                && r.per_class
                    .iter()
                    .zip(&p.per_class)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "query {i} per-class scores at {workers} workers");
        }
    }
}

#[test]
fn sharded_multiclass_is_bit_identical_across_worker_counts() {
    let pts = clustered_points(27);
    let class_labels = [0, 1, 2];
    let queries = cluster_queries(13);
    let fit = |workers: usize| {
        let config = EngineConfig::new(Kernel::Epanechnikov, 1.6).workers(workers);
        ShardedEngine::fit_multiclass(&pts, &class_labels, 3, config).expect("sharded fit")
    };
    let reference_engine = fit(1);
    let reference_scores = reference_engine.scores();
    let reference = reference_engine.predict_batch(&queries).expect("predict");
    for workers in [1, 2, 4, 8] {
        let engine = fit(workers);
        assert_eq!(
            reference_scores.as_slice(),
            engine.scores().as_slice(),
            "multiclass scores diverged at {workers} workers"
        );
        let parallel = engine.predict_batch(&queries).expect("predict");
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(r.class, p.class, "query {i} class at {workers} workers");
            let same = r
                .per_class
                .iter()
                .zip(&p.per_class)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "query {i} per-class at {workers} workers");
        }
    }
}

#[test]
fn snapshot_roundtrip_is_bit_identical() {
    let pts = clustered_points(21);
    let labels = [0.0, 1.0, 1.0];
    let config = EngineConfig::new(Kernel::Epanechnikov, 1.6).workers(2);
    let engine = ShardedEngine::fit(&pts, &labels, config).expect("sharded fit");
    engine.observe_label(9, 0.0).expect("fold");

    // The byte stream itself is deterministic: same state, same bytes.
    let bytes = engine.snapshot().expect("snapshot");
    assert_eq!(bytes, engine.snapshot().expect("second snapshot"));

    // And restore reproduces the fitted state bit for bit, at any
    // subsequent worker count.
    let queries = cluster_queries(11);
    let reference = engine.predict_batch(&queries).expect("predict");
    let restored = ShardedEngine::restore(&bytes).expect("restore");
    assert_eq!(restored.epoch(), engine.epoch());
    assert_eq!(
        engine.scores().as_slice(),
        restored.scores().as_slice(),
        "restored scores are not bitwise-identical"
    );
    let served = restored.predict_batch(&queries).expect("restored predict");
    for (i, (r, p)) in reference.iter().zip(&served).enumerate() {
        assert_eq!(r.class, p.class, "query {i} class after restore");
        let same = r
            .per_class
            .iter()
            .zip(&p.per_class)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "query {i} per-class after restore");
    }
}

/// Pins the `/// deterministic` annotation inventory to the bitwise tests
/// that cover it: every annotated entry point in `crates/*/src` must map
/// to a test defined in this file, and every table row must still point
/// at a live marker. Adding a marker without a covering test fails the
/// first assertion; deleting one leaves a stale row and fails the second.
/// `gssl-xtask` pins the same inventory by count, so the analyzer's
/// contract set and this suite cannot drift apart silently.
/// The CSR arrays of a matrix with values as bit patterns, so `==`
/// distinguishes `-0.0` from `0.0`.
fn csr_bits(m: &CsrMatrix) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    (
        m.indptr().to_vec(),
        m.indices().to_vec(),
        m.values().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Stable comparison sort on `(row, col)` plus the duplicate merge: the
/// construction the counting-sort `from_triplets` replaced, kept here as
/// its bitwise reference.
fn stable_sort_csr(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut sorted = triplets.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut indptr = vec![0usize; rows + 1];
    let mut indices: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut last = None;
    for (r, c, v) in sorted {
        if last == Some((r, c)) {
            *values.last_mut().expect("merged into a stored entry") += v;
        } else if !gssl_linalg::float::is_exactly_zero(v) {
            indices.push(c);
            values.push(v);
            last = Some((r, c));
        }
        indptr[r + 1] = indices.len();
    }
    for r in 1..=rows {
        indptr[r] = indptr[r].max(indptr[r - 1]);
    }
    CsrMatrix::from_sorted_rows(rows, cols, indptr, indices, values).expect("reference arrays")
}

#[test]
fn csr_builders_are_bit_identical_to_the_stable_sort_reference() {
    let graph = knn_graph(
        &points(57, 3),
        5,
        Kernel::Gaussian,
        0.5,
        Symmetrization::Union,
    )
    .expect("knn graph");
    let n = graph.rows();
    // Every stored entry, emitted column-major (so rows arrive unsorted),
    // plus duplicates that split a weight in two and exact cancellations.
    let mut triplets = Vec::new();
    for i in (0..n).rev() {
        for (j, w) in graph.row_iter(i) {
            triplets.push((j, i, 0.25 * w));
            triplets.push(((i + j) % n, (i * 7) % n, -0.0));
        }
    }
    for i in 0..n {
        for (j, w) in graph.row_iter(i) {
            triplets.push((j, i, 0.75 * w));
            triplets.push((i, (i + 3) % n, w));
            triplets.push((i, (i + 3) % n, -w));
        }
    }
    let reference = stable_sort_csr(n, n, &triplets);
    for _ in 0..2 {
        let built = CsrMatrix::from_triplets(n, n, &triplets).expect("from_triplets");
        assert_eq!(csr_bits(&built), csr_bits(&reference), "from_triplets");
        let rebuilt = CsrMatrix::from_sorted_rows(
            n,
            n,
            built.indptr().to_vec(),
            built.indices().to_vec(),
            built.values().to_vec(),
        )
        .expect("from_sorted_rows");
        assert_eq!(csr_bits(&rebuilt), csr_bits(&built), "from_sorted_rows");
        // The transpose is the reference over the swapped stored entries.
        let swapped: Vec<_> = (0..n)
            .flat_map(|i| built.row_iter(i).map(move |(j, v)| (j, i, v)))
            .collect();
        assert_eq!(
            csr_bits(&built.transpose()),
            csr_bits(&stable_sort_csr(n, n, &swapped)),
            "transpose"
        );
    }
    // A symmetric graph is its own transpose, bit for bit.
    assert_eq!(csr_bits(&graph.transpose()), csr_bits(&graph));
}

#[test]
fn system_csr_builders_are_bit_identical_across_worker_counts() {
    let pts = points(90, 3);
    let labels: Vec<f64> = (0..12).map(|i| f64::from(i as u8 % 2)).collect();
    let build = |executor: &Executor| {
        let graph = knn_graph_with(
            &pts,
            6,
            Kernel::Gaussian,
            0.4,
            Symmetrization::Union,
            executor,
        )
        .expect("knn graph");
        let problem = Problem::new(graph, labels.clone()).expect("problem");
        let hard = problem.unlabeled_system_csr().expect("hard system");
        let soft = problem.soft_system_csr(0.6).expect("soft system");
        (hard, soft)
    };
    // The triplet-route reference for these builders is pinned at 5 000
    // points in tests/sparse_scale.rs; here they must repeat bit for bit.
    let (hard, soft) = build(&Executor::Sequential);
    for workers in WORKER_COUNTS {
        let (hard_w, soft_w) = build(&Executor::with_workers(workers));
        assert_eq!(
            csr_bits(&hard_w),
            csr_bits(&hard),
            "hard system at {workers} workers"
        );
        assert_eq!(
            csr_bits(&soft_w),
            csr_bits(&soft),
            "soft system at {workers} workers"
        );
    }
}

#[test]
fn every_deterministic_entry_point_has_a_bitwise_covering_test() {
    // (file, fn, covering test in this file)
    const COVERAGE: &[(&str, &str, &str)] = &[
        (
            "crates/core/src/cmn.rs",
            "argsort_scores",
            "score_argsort_is_deterministic",
        ),
        (
            "crates/core/src/hard.rs",
            "fit",
            "hard_fit_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/hard.rs",
            "fit_multiclass",
            "full_system_and_factored_fits_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/multiclass.rs",
            "fit",
            "multiclass_fit_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/multiclass.rs",
            "fit_factored",
            "full_system_and_factored_fits_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/soft.rs",
            "fit",
            "soft_fit_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/soft.rs",
            "fit_full_system",
            "full_system_and_factored_fits_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "pairwise_squared_distances",
            "distance_and_affinity_pipeline_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "pairwise_squared_distances_with",
            "distance_and_affinity_pipeline_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "affinity_matrix",
            "kernel_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "affinity_matrix_with",
            "kernel_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "affinity_from_distances",
            "distance_and_affinity_pipeline_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "affinity_from_distances_with",
            "distance_and_affinity_pipeline_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "affinity_with_rule",
            "distance_and_affinity_pipeline_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/knn.rs",
            "knn_graph",
            "knn_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/knn.rs",
            "knn_graph_with",
            "knn_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/knn.rs",
            "epsilon_graph",
            "epsilon_graph_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/knn.rs",
            "epsilon_graph_with",
            "epsilon_graph_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/extension.rs",
            "fit",
            "kernel_graph_weights_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/extension.rs",
            "weights",
            "kernel_graph_weights_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/extension.rs",
            "weights_with",
            "kernel_graph_weights_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/extension.rs",
            "kernel_row",
            "out_of_sample_kernel_rows_are_deterministic",
        ),
        (
            "crates/graph/src/extension.rs",
            "kernel_row_into",
            "out_of_sample_kernel_rows_are_deterministic",
        ),
        (
            "crates/index/src/neighbor.rs",
            "build",
            "spatial_index_build_and_batched_queries_are_bit_identical",
        ),
        (
            "crates/index/src/neighbor.rs",
            "k_nearest_excluding",
            "single_query_search_is_deterministic_and_matches_self_batches",
        ),
        (
            "crates/index/src/neighbor.rs",
            "k_nearest",
            "single_query_search_is_deterministic_and_matches_self_batches",
        ),
        (
            "crates/index/src/neighbor.rs",
            "within_radius",
            "single_query_search_is_deterministic_and_matches_self_batches",
        ),
        (
            "crates/index/src/neighbor.rs",
            "k_nearest_batch",
            "spatial_index_build_and_batched_queries_are_bit_identical",
        ),
        (
            "crates/index/src/neighbor.rs",
            "self_k_nearest_batch",
            "single_query_search_is_deterministic_and_matches_self_batches",
        ),
        (
            "crates/index/src/neighbor.rs",
            "self_within_radius_batch",
            "single_query_search_is_deterministic_and_matches_self_batches",
        ),
        (
            "crates/linalg/src/matrix.rs",
            "matmul",
            "matmul_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/matrix.rs",
            "matmul_with",
            "matmul_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/cholesky.rs",
            "factor",
            "dense_factorizations_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/cholesky.rs",
            "factor_with",
            "dense_factorizations_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/lu.rs",
            "factor",
            "dense_factorizations_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/lu.rs",
            "factor_with",
            "dense_factorizations_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/precond.rs",
            "factor",
            "preconditioned_cg_backends_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/amg.rs",
            "factor_sparse",
            "amg_hierarchy_and_solves_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/factor.rs",
            "factor_sparse_with",
            "preconditioned_cg_backends_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/factor.rs",
            "factor_dense",
            "solver_policy_backends_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/factor.rs",
            "factor_sparse",
            "solver_policy_backends_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/factor.rs",
            "factor_spd",
            "solver_policy_backends_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/runtime/src/executor.rs",
            "map",
            "executor_primitives_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/runtime/src/executor.rs",
            "map_chunks",
            "schedule_enumeration_proves_the_map_chunks_claim_protocol",
        ),
        (
            "crates/runtime/src/executor.rs",
            "for_each_chunk_mut",
            "executor_primitives_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/engine.rs",
            "fit",
            "predict_batch_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/engine.rs",
            "fit_multiclass",
            "multiclass_serving_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/engine.rs",
            "predict_batch",
            "predict_batch_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/components.rs",
            "component_partition",
            "component_partition_is_deterministic_and_exhaustive",
        ),
        (
            "crates/runtime/src/executor.rs",
            "map_tasks",
            "map_tasks_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/shard.rs",
            "new",
            "shard_plan_is_deterministic",
        ),
        (
            "crates/serve/src/sharded.rs",
            "fit",
            "sharded_serving_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/sharded.rs",
            "fit_multiclass",
            "sharded_multiclass_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/sharded.rs",
            "predict_batch",
            "sharded_serving_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/snapshot.rs",
            "snapshot",
            "snapshot_roundtrip_is_bit_identical",
        ),
        (
            "crates/serve/src/snapshot.rs",
            "restore",
            "snapshot_roundtrip_is_bit_identical",
        ),
        (
            "crates/linalg/src/sparse.rs",
            "from_triplets",
            "csr_builders_are_bit_identical_to_the_stable_sort_reference",
        ),
        (
            "crates/linalg/src/sparse.rs",
            "from_sorted_rows",
            "csr_builders_are_bit_identical_to_the_stable_sort_reference",
        ),
        (
            "crates/linalg/src/sparse.rs",
            "transpose",
            "csr_builders_are_bit_identical_to_the_stable_sort_reference",
        ),
        (
            "crates/core/src/problem.rs",
            "unlabeled_system_csr",
            "system_csr_builders_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/problem.rs",
            "soft_system_csr",
            "system_csr_builders_are_bit_identical_across_worker_counts",
        ),
    ];

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let marker = "/// deterministic";
    let mut annotated = std::collections::BTreeSet::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("crates tree is readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                if path
                    .file_name()
                    .is_some_and(|n| n == "fixtures" || n == "target")
                {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source is readable");
                let lines: Vec<&str> = text.lines().collect();
                let rel = path
                    .strip_prefix(root)
                    .expect("path under workspace root")
                    .to_string_lossy()
                    .replace('\\', "/");
                for (i, line) in lines.iter().enumerate() {
                    if line.trim() != marker {
                        continue;
                    }
                    // The annotated item is the next `fn` below the marker
                    // (attributes like `#[must_use]` may sit in between).
                    let name = lines[i + 1..]
                        .iter()
                        .find_map(|l| {
                            let mut tokens = l.split_whitespace();
                            tokens.find(|&t| t == "fn")?;
                            let raw = tokens.next()?;
                            let end = raw.find(|c| c == '(' || c == '<').unwrap_or(raw.len());
                            Some(raw[..end].to_owned())
                        })
                        .unwrap_or_else(|| panic!("{rel}:{}: marker with no fn below", i + 1));
                    annotated.insert((rel.clone(), name));
                }
            }
        }
    }

    let pinned: std::collections::BTreeSet<(String, String)> = COVERAGE
        .iter()
        .map(|&(file, func, _)| (file.to_owned(), func.to_owned()))
        .collect();
    let uncovered: Vec<_> = annotated.difference(&pinned).collect();
    assert!(
        uncovered.is_empty(),
        "annotated entry points with no covering bitwise test: {uncovered:?}"
    );
    let stale: Vec<_> = pinned.difference(&annotated).collect();
    assert!(
        stale.is_empty(),
        "coverage rows whose `/// deterministic` marker is gone: {stale:?}"
    );
    assert_eq!(annotated.len(), 61, "inventory drifted from the pinned 61");

    // Every covering test named above must actually exist in this file.
    let this_file = std::fs::read_to_string(root.join("tests").join("determinism.rs"))
        .expect("own source is readable");
    for &(_, _, test) in COVERAGE {
        assert!(
            this_file.contains(&format!("fn {test}(")),
            "covering test `{test}` is not defined in tests/determinism.rs"
        );
    }
}
