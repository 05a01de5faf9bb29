//! Property-style tests for the criteria: the paper's structural claims
//! checked on random graphs.
//!
//! Originally written against `proptest`; the workspace is now fully
//! offline and dependency-free, so each property is exercised over a
//! deterministic sweep of seeded random cases instead of a shrinking
//! strategy. Seeds are fixed, so failures are exactly reproducible.

use gssl::{
    HardCriterion, HardSolver, LabelPropagation, MeanPredictor, NadarayaWatson, Problem,
    SoftCriterion, SweepKind, TransductiveModel,
};
use gssl_linalg::{Matrix, SolverPolicy, SparseStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_LABELED: usize = 3;
const N_UNLABELED: usize = 4;
const TOTAL: usize = N_LABELED + N_UNLABELED;
const CASES: u64 = 24;

/// Random symmetric affinity with strictly positive weights (connected)
/// and unit diagonal, like a Gaussian-kernel graph.
fn affinity(rng: &mut StdRng) -> Matrix {
    let mut w = Matrix::identity(TOTAL);
    for i in 0..TOTAL {
        for j in (i + 1)..TOTAL {
            let v = rng.gen_range(0.05..1.0f64);
            w.set(i, j, v);
            w.set(j, i, v);
        }
    }
    w
}

fn labels(rng: &mut StdRng) -> Vec<f64> {
    (0..N_LABELED).map(|_| rng.gen::<f64>()).collect()
}

/// Runs `body` once per seeded case.
fn for_cases(mut body: impl FnMut(&mut StdRng)) {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC04E + seed);
        body(&mut rng);
    }
}

#[test]
fn maximum_principle() {
    for_cases(|rng| {
        let (w, y) = (affinity(rng), labels(rng));
        let p = Problem::new(w, y.clone()).unwrap();
        let scores = HardCriterion::new().fit(&p).unwrap();
        let lo = y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &s in scores.unlabeled() {
            assert!(
                s >= lo - 1e-9 && s <= hi + 1e-9,
                "score {s} escapes [{lo}, {hi}]"
            );
        }
    });
}

#[test]
fn harmonicity() {
    for_cases(|rng| {
        // Each unlabeled score equals the weighted average of its
        // neighbours' scores (self-loops cancel in D − W).
        let (w, y) = (affinity(rng), labels(rng));
        let p = Problem::new(w.clone(), y).unwrap();
        let scores = HardCriterion::new().fit(&p).unwrap();
        let f = scores.all();
        for a in N_LABELED..TOTAL {
            let mut mass = 0.0;
            let mut avg = 0.0;
            for j in 0..TOTAL {
                if j != a {
                    mass += w.get(a, j);
                    avg += w.get(a, j) * f[j];
                }
            }
            assert!((f[a] - avg / mass).abs() < 1e-8, "vertex {a} not harmonic");
        }
    });
}

#[test]
fn proposition_ii1_on_random_graphs() {
    for_cases(|rng| {
        let p = Problem::new(affinity(rng), labels(rng)).unwrap();
        let hard = HardCriterion::new().fit(&p).unwrap();
        let soft0 = SoftCriterion::new(0.0).unwrap().fit(&p).unwrap();
        for (h, s) in hard.all().iter().zip(soft0.all()) {
            assert!((h - s).abs() < 1e-8);
        }
    });
}

#[test]
fn soft_block_form_equals_full_system() {
    for_cases(|rng| {
        let p = Problem::new(affinity(rng), labels(rng)).unwrap();
        let lambda = rng.gen_range(0.001..10.0f64);
        let soft = SoftCriterion::new(lambda).unwrap();
        let block = soft.fit(&p).unwrap();
        let full = soft.fit_full_system(&p).unwrap();
        for (a, b) in block.all().iter().zip(full.all()) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b} at lambda {lambda}");
        }
    });
}

#[test]
fn soft_solution_is_objective_optimal() {
    for_cases(|rng| {
        // The soft solution must beat both natural competitors on its own
        // objective: the hard solution and the constant-mean solution.
        let p = Problem::new(affinity(rng), labels(rng)).unwrap();
        let lambda = rng.gen_range(0.01..5.0f64);
        let soft = SoftCriterion::new(lambda).unwrap();
        let solution = soft.fit(&p).unwrap();
        let optimum = soft.objective(&p, solution.all()).unwrap();
        let hard = HardCriterion::new().fit(&p).unwrap();
        assert!(soft.objective(&p, hard.all()).unwrap() >= optimum - 1e-9);
        let mean = MeanPredictor::new().fit(&p).unwrap();
        assert!(soft.objective(&p, mean.all()).unwrap() >= optimum - 1e-9);
    });
}

#[test]
fn hard_solution_minimizes_dirichlet_energy_among_clamped() {
    for_cases(|rng| {
        // Among score vectors agreeing with Y on labeled points, the hard
        // solution minimizes the smoothness penalty (it IS the minimizer).
        let (w, y) = (affinity(rng), labels(rng));
        let p = Problem::new(w.clone(), y).unwrap();
        let scores = HardCriterion::new().fit(&p).unwrap();
        let base =
            gssl_graph::dirichlet_energy(&w, &gssl_linalg::Vector::from(scores.all())).unwrap();
        // Perturb each unlabeled coordinate.
        for a in N_LABELED..TOTAL {
            for &delta in &[0.05, -0.05] {
                let mut perturbed = scores.all().to_vec();
                perturbed[a] += delta;
                let energy = gssl_graph::dirichlet_energy(
                    &w,
                    &gssl_linalg::Vector::from(perturbed.as_slice()),
                )
                .unwrap();
                assert!(energy >= base - 1e-9);
            }
        }
    });
}

#[test]
fn all_hard_backends_agree() {
    for_cases(|rng| {
        let p = Problem::new(affinity(rng), labels(rng)).unwrap();
        let reference = HardCriterion::new().fit(&p).unwrap();
        let backends = [
            HardCriterion::new().solver(HardSolver::Lu),
            // Jacobi-preconditioned CG at every size.
            HardCriterion::new().solver(HardSolver::Auto(SolverPolicy {
                direct_dim_cutoff: 0,
                density_threshold: 1.0,
                sparse: SparseStrategy::Jacobi,
                ..SolverPolicy::default()
            })),
            HardCriterion::new().solver(HardSolver::Propagation(SweepKind::Simultaneous)),
            HardCriterion::new().solver(HardSolver::Propagation(SweepKind::InPlace)),
        ];
        for backend in backends {
            let scores = backend.fit(&p).unwrap();
            for (a, b) in reference.unlabeled().iter().zip(scores.unlabeled()) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    });
}

#[test]
fn propagation_matches_direct_solution() {
    for_cases(|rng| {
        let p = Problem::new(affinity(rng), labels(rng)).unwrap();
        let direct = HardCriterion::new().fit(&p).unwrap();
        let (iterative, sweeps) = LabelPropagation::new()
            .tolerance(1e-12)
            .fit_with_iterations(&p)
            .unwrap();
        assert!(sweeps > 0);
        for (a, b) in direct.unlabeled().iter().zip(iterative.unlabeled()) {
            assert!((a - b).abs() < 1e-8);
        }
    });
}

#[test]
fn nadaraya_watson_respects_label_range() {
    for_cases(|rng| {
        let (w, y) = (affinity(rng), labels(rng));
        let p = Problem::new(w, y.clone()).unwrap();
        let scores = NadarayaWatson::new().fit(&p).unwrap();
        let lo = y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &s in scores.unlabeled() {
            assert!(s >= lo - 1e-12 && s <= hi + 1e-12);
        }
    });
}

#[test]
fn soft_scores_interpolate_between_hard_and_mean() {
    for_cases(|rng| {
        // As λ grows the soft solution moves monotonically (in max-gap)
        // from the hard solution toward the constant mean.
        let p = Problem::new(affinity(rng), labels(rng)).unwrap();
        let mean = MeanPredictor::new().fit(&p).unwrap();
        let mut prev_gap = f64::INFINITY;
        for &lambda in &[0.1, 1.0, 10.0, 100.0] {
            let soft = SoftCriterion::new(lambda).unwrap().fit(&p).unwrap();
            let gap: f64 = soft
                .all()
                .iter()
                .zip(mean.all())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(gap <= prev_gap + 1e-9, "gap grew at lambda {lambda}");
            prev_gap = gap;
        }
    });
}

#[test]
fn constant_labels_give_constant_scores() {
    for_cases(|rng| {
        // With all labels equal to c, every criterion returns c everywhere
        // (on unlabeled points).
        let c = rng.gen::<f64>();
        let p = Problem::new(affinity(rng), vec![c; N_LABELED]).unwrap();
        let models: Vec<Box<dyn TransductiveModel>> = vec![
            Box::new(HardCriterion::new()),
            Box::new(SoftCriterion::new(0.5).unwrap()),
            Box::new(NadarayaWatson::new()),
            Box::new(MeanPredictor::new()),
        ];
        for model in models {
            let scores = model.fit(&p).unwrap();
            for &s in scores.unlabeled() {
                assert!((s - c).abs() < 1e-8, "{} broke constancy", model.name());
            }
        }
    });
}
