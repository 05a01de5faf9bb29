//! Integration tests of the sparse, matrix-free solver path at sizes
//! where the dense path would allocate hundreds of MB — now expressed
//! through the unified `Problem` holding CSR weights.

use gssl::{HardCriterion, HardSolver, LabelPropagation, Problem};
use gssl_datasets::synthetic::two_moons;
use gssl_graph::{epsilon_graph_with, knn_graph, knn_graph_with, Kernel, Symmetrization};
use gssl_index::{self_k_nearest_batch, self_within_radius_batch, NeighborSearch, SpatialIndex};
use gssl_linalg::float::is_exactly_zero;
use gssl_linalg::{CgOptions, CsrMatrix, Matrix, SolverPolicy, SparseStrategy};
use gssl_runtime::Executor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn moons_sparse(total: usize, k: usize) -> (Problem, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(77);
    let ds = two_moons(total, 0.05, &mut rng).expect("generation");
    let ssl = ds.arrange(&[total / 4, 3 * total / 4]).expect("labels");
    let graph =
        knn_graph(&ssl.inputs, k, Kernel::Gaussian, 0.2, Symmetrization::Union).expect("knn graph");
    let truth = ssl.hidden_targets_binary();
    (
        Problem::new(graph, ssl.labels.clone()).expect("valid problem"),
        truth,
    )
}

/// Jacobi-preconditioned CG over the CSR system at every size.
fn cg_solver(options: CgOptions) -> HardCriterion {
    HardCriterion::new().solver(HardSolver::Auto(SolverPolicy {
        direct_dim_cutoff: 0,
        density_threshold: 1.0,
        sparse: SparseStrategy::Jacobi,
        cg: options,
        ..SolverPolicy::default()
    }))
}

#[test]
fn sparse_cg_solves_large_two_moons() {
    let (problem, truth) = moons_sparse(2000, 10);
    let scores = cg_solver(CgOptions::default())
        .fit(&problem)
        .expect("cg solve");
    let accuracy = scores
        .unlabeled_predictions(0.5)
        .iter()
        .zip(&truth)
        .filter(|(p, t)| p == t)
        .count() as f64
        / truth.len() as f64;
    assert!(accuracy > 0.95, "accuracy only {accuracy}");
}

#[test]
fn sparse_propagation_agrees_with_cg_at_scale() {
    let (problem, _) = moons_sparse(1500, 10);
    let cg = cg_solver(CgOptions {
        tolerance: 1e-11,
        ..CgOptions::default()
    })
    .fit(&problem)
    .expect("cg solve");
    let (prop, sweeps) = LabelPropagation::new()
        .max_iterations(100_000)
        .tolerance(1e-11)
        .fit_with_iterations(&problem)
        .expect("propagation");
    assert!(sweeps > 1);
    let gap = cg
        .unlabeled()
        .iter()
        .zip(prop.unlabeled())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(gap < 1e-6, "solvers disagree by {gap}");
}

#[test]
fn sparse_and_dense_paths_agree_on_moderate_graph() {
    let (sparse_problem, _) = moons_sparse(300, 8);
    let dense_problem = Problem::new(
        sparse_problem.weights().to_dense(),
        sparse_problem.labels().to_vec(),
    )
    .expect("dense problem");
    let dense = HardCriterion::new()
        .fit(&dense_problem)
        .expect("dense solve");
    let sparse = cg_solver(CgOptions {
        tolerance: 1e-12,
        ..CgOptions::default()
    })
    .fit(&sparse_problem)
    .expect("sparse solve");
    let gap = dense
        .unlabeled()
        .iter()
        .zip(sparse.unlabeled())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(gap < 1e-7, "paths disagree by {gap}");
}

#[test]
fn sparse_scores_obey_maximum_principle() {
    let (problem, _) = moons_sparse(800, 12);
    let scores = cg_solver(CgOptions::default())
        .fit(&problem)
        .expect("solve");
    for &s in scores.unlabeled() {
        assert!((-1e-8..=1.0 + 1e-8).contains(&s), "score {s} out of range");
    }
}

/// CSR arrays with values as bit patterns (`-0.0 != 0.0`).
fn csr_bits(m: &CsrMatrix) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    (
        m.indptr().to_vec(),
        m.indices().to_vec(),
        m.values().iter().map(|v| v.to_bits()).collect(),
    )
}

/// The triplet route every sparse builder used to take: a stable sort on
/// `(row, col)`, duplicates summed in input order, and an exact zero never
/// opening an entry.
fn triplet_reference(
    dim: usize,
    triplets: &[(usize, usize, f64)],
) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    let mut sorted = triplets.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut indptr = vec![0usize; dim + 1];
    let mut indices: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut last = None;
    for (r, c, v) in sorted {
        if last == Some((r, c)) {
            *values.last_mut().expect("merged into a stored entry") += v;
        } else if !is_exactly_zero(v) {
            indices.push(c);
            values.push(v);
            last = Some((r, c));
        }
        indptr[r + 1] = indices.len();
    }
    for r in 1..=dim {
        indptr[r] = indptr[r].max(indptr[r - 1]);
    }
    (
        indptr,
        indices,
        values.iter().map(|v| v.to_bits()).collect(),
    )
}

/// A 5 000-point low-discrepancy cloud in the unit cube.
fn cube_cloud(n: usize) -> Matrix {
    const ALPHA: [f64; 3] = [
        0.819_172_513_396_164_4,
        0.671_043_606_703_789_2,
        0.549_700_477_901_936_5,
    ];
    Matrix::from_fn(n, 3, |i, j| (0.5 + ALPHA[j] * (i as f64 + 1.0)).fract())
}

#[test]
fn direct_csr_assembly_is_bitwise_the_triplet_route_at_5k_points() {
    const N: usize = 5_000;
    const K: usize = 10;
    const LABELED: usize = 100;
    let points = cube_cloud(N);
    let bandwidth = (K as f64 / N as f64).cbrt();
    let executor = Executor::with_workers(2);
    let index = SpatialIndex::build(&points).expect("index");

    // kNN graphs: the historical emission rule, one triplet pair per
    // undirected edge, through the stable-sort route.
    let neighbors = self_k_nearest_batch(&index, K, &executor).expect("knn queries");
    let lists = |j: usize, i: usize| neighbors[j].iter().any(|nb| nb.index == i);
    for symmetrization in [Symmetrization::Union, Symmetrization::Mutual] {
        let mut triplets = Vec::new();
        for (i, nbrs) in neighbors.iter().enumerate() {
            for nb in nbrs {
                let j = nb.index;
                let keep = symmetrization == Symmetrization::Union || lists(j, i);
                if keep && (i < j || (j < i && !lists(j, i))) {
                    let w = Kernel::Gaussian
                        .weight(nb.dist2, bandwidth)
                        .expect("weight");
                    if w > 0.0 {
                        triplets.push((i, j, w));
                        triplets.push((j, i, w));
                    }
                }
            }
        }
        let graph = knn_graph_with(
            &points,
            K,
            Kernel::Gaussian,
            bandwidth,
            symmetrization,
            &executor,
        )
        .expect("knn graph");
        assert_eq!(
            csr_bits(&graph),
            triplet_reference(N, &triplets),
            "{symmetrization:?} kNN graph"
        );
    }

    // ε-graph: every pair once from its lower endpoint.
    let epsilon = 0.08;
    let balls = self_within_radius_batch(&index, epsilon, &executor).expect("range queries");
    let mut triplets = Vec::new();
    for (i, ball) in balls.iter().enumerate() {
        for nb in ball.iter().filter(|nb| nb.index > i) {
            let w = Kernel::Epanechnikov.weight(nb.dist2, 0.07).expect("weight");
            if w > 0.0 {
                triplets.push((i, nb.index, w));
                triplets.push((nb.index, i, w));
            }
        }
    }
    let eps_graph = epsilon_graph_with(&points, epsilon, Kernel::Epanechnikov, 0.07, &executor)
        .expect("epsilon graph");
    assert!(eps_graph.nnz() > N);
    assert_eq!(
        csr_bits(&eps_graph),
        triplet_reference(N, &triplets),
        "epsilon graph"
    );

    // Hard and soft systems: off-diagonal triplets in row order with the
    // diagonal appended last, as the triplet builders emitted them.
    let graph = knn_graph_with(
        &points,
        K,
        Kernel::Gaussian,
        bandwidth,
        Symmetrization::Union,
        &executor,
    )
    .expect("knn graph");
    let labels: Vec<f64> = (0..LABELED)
        .map(|i| f64::from(points.get(i, 0) < 0.5))
        .collect();
    let problem = Problem::new(graph.clone(), labels).expect("problem");
    let degrees = problem.degrees();
    let lambda = 0.3;
    let (mut hard, mut soft) = (Vec::new(), Vec::new());
    for i in 0..N {
        let (mut hard_diag, mut soft_diag) = (
            degrees[i],
            lambda * degrees[i] + if i < LABELED { 1.0 } else { 0.0 },
        );
        for (j, v) in graph.row_iter(i) {
            if j == i {
                hard_diag -= v;
                soft_diag -= lambda * v;
                continue;
            }
            if i >= LABELED && j >= LABELED {
                hard.push((i - LABELED, j - LABELED, -v));
            }
            soft.push((i, j, -lambda * v));
        }
        if i >= LABELED {
            hard.push((i - LABELED, i - LABELED, hard_diag));
        }
        soft.push((i, i, soft_diag));
    }
    let m = N - LABELED;
    assert_eq!(
        csr_bits(&problem.unlabeled_system_csr().expect("hard system")),
        triplet_reference(m, &hard)
    );
    assert_eq!(
        csr_bits(&problem.soft_system_csr(lambda).expect("soft system")),
        triplet_reference(N, &soft)
    );

    // The policy-routed hard fit is bitwise equal at 1 and 2 workers.
    let fit = |workers: usize| {
        HardCriterion::new()
            .solver(HardSolver::Auto(SolverPolicy::with_cg(CgOptions {
                max_iterations: 10_000,
                tolerance: 1e-9,
            })))
            .with_executor(Executor::with_workers(workers))
            .fit(&problem)
            .expect("hard fit")
    };
    let one = fit(1);
    let two = fit(2);
    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(one.all()), bits(two.all()));
    assert!(one
        .unlabeled()
        .iter()
        .all(|s| (-1e-6..=1.0 + 1e-6).contains(s)));
}
