//! Degenerate limits of the hard criterion, observed directly.
//!
//! Two failure modes bracket the useful bandwidth window:
//!
//! * **Over-smoothing** (h too large): the similarity matrix approaches
//!   all-ones and the solution collapses to the constant labeled mean —
//!   the finite-bandwidth version of the paper's Section III toy example.
//!   This experiment sweeps h downward with n = 4 labels fixed and
//!   watches the unlabeled score spread recover from ~0.
//! * **Spikes / noninformativeness** (Nadler, Srebro & Zhou — the
//!   paper's reference \[17\]): with unlabeled data growing much faster
//!   than labels in the continuum limit, mass decouples from the labels.
//!   That asymptotic regime is why Theorem II.1 needs `m = o(n h_n^d)`;
//!   at the finite sizes here its onset appears as the shrinking
//!   labels-to-volume ratio in the second column.
//!
//! A second table compares penalty exponents p = 2 vs p = 3 (El Alaoui et
//! al., reference \[19\]): larger p preserves more score spread.

use gssl::{HardCriterion, HardSolver, PLaplacian, Problem, TransductiveModel};
use gssl_bench::runner::CliArgs;
use gssl_linalg::{Matrix, SolverPolicy, SparseStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed anchors: two positive corners, two negative corners.
const ANCHORS: [([f64; 2], f64); 4] = [
    ([0.05, 0.05], 1.0),
    ([0.95, 0.95], 1.0),
    ([0.05, 0.95], 0.0),
    ([0.95, 0.05], 0.0),
];

fn build_points(m: usize, rng: &mut impl Rng) -> (Matrix, Vec<f64>) {
    let mut points = Matrix::zeros(4 + m, 2);
    let mut labels = Vec::with_capacity(4);
    for (i, (xy, y)) in ANCHORS.iter().enumerate() {
        points.row_mut(i).copy_from_slice(xy);
        labels.push(*y);
    }
    for i in 0..m {
        points.set(4 + i, 0, rng.gen());
        points.set(4 + i, 1, rng.gen());
    }
    (points, labels)
}

/// Spread of the unlabeled scores: their standard deviation. A solution
/// collapsing to a constant (spikes only at labels) drives this to 0.
fn score_spread(scores: &[f64]) -> f64 {
    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
    (scores.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / scores.len() as f64).sqrt()
}

fn main() {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let seed = args.seed.unwrap_or(2718);
    let m = if args.full { 1500 } else { 400 };
    let h_grid = [0.4, 0.2, 0.1, 0.05, 0.03];

    println!("== Degenerate limits: n = 4 fixed labels, m = {m}, bandwidth sweep ==\n");
    println!(
        "{:>8} {:>12} {:>14} {:>18}",
        "h", "n h^d / m", "score spread", "near-constant (%)"
    );
    for &h in &h_grid {
        let mut rng = StdRng::seed_from_u64(seed);
        let (points, labels) = build_points(m, &mut rng);
        // Dense Gaussian graph; as h shrinks with n fixed, the labels'
        // share of every unlabeled vertex's degree vanishes — the regime
        // of reference [17] where the solution goes noninformative.
        let dense = gssl_graph::affinity::affinity_matrix(&points, gssl_graph::Kernel::Gaussian, h)
            .expect("affinity");
        let graph = gssl_linalg::CsrMatrix::from_dense(&dense, 1e-12);
        let problem = Problem::new(graph, labels).expect("valid problem");
        let regime = 4.0 * h * h / m as f64; // n h^d / m with n = 4, d = 2
                                             // Jacobi-preconditioned CG over the CSR system.
        let cg = HardCriterion::new().solver(HardSolver::Auto(SolverPolicy {
            direct_dim_cutoff: 0,
            density_threshold: 1.0,
            sparse: SparseStrategy::Jacobi,
            ..SolverPolicy::default()
        }));
        match cg.fit(&problem) {
            Ok(scores) => {
                let spread = score_spread(scores.unlabeled());
                let mean = scores.unlabeled().iter().sum::<f64>() / m as f64;
                let near = scores
                    .unlabeled()
                    .iter()
                    .filter(|s| (*s - mean).abs() < 0.05)
                    .count() as f64
                    / m as f64;
                println!(
                    "{h:>8} {regime:>12.2e} {spread:>14.4} {:>18.1}",
                    near * 100.0
                );
            }
            Err(error) => println!("{h:>8} {regime:>12.2e} {:>14} ({error})", "n/a"),
        }
    }
    println!("\nReading upward: as h grows past the data scale the solution");
    println!("collapses onto the constant labeled mean (spread -> 0, everything");
    println!("within 0.05 of it) — the finite-h version of the Section III toy");
    println!("example. Informative solutions need h inside a window: small enough");
    println!("to see structure, large enough to keep the graph connected.\n");

    println!("== Penalty exponent: p = 2 vs p = 3 (dense graph, m = 150) ==");
    let mut rng = StdRng::seed_from_u64(seed);
    let (points, labels) = build_points(150, &mut rng);
    let w = gssl_graph::affinity::affinity_matrix(&points, gssl_graph::Kernel::Gaussian, 0.12)
        .expect("affinity");
    let problem = Problem::new(w, labels).expect("valid problem");
    println!("{:>6} {:>14}", "p", "score spread");
    for &p in &[2.0, 3.0] {
        match PLaplacian::new(p)
            .expect("valid p")
            .max_rounds(500)
            .tolerance(1e-5)
            .fit(&problem)
        {
            Ok(scores) => {
                println!("{p:>6} {:>14.4}", score_spread(scores.unlabeled()));
            }
            Err(error) => println!("{p:>6} {:>14} ({error})", "n/a"),
        }
    }
    println!("\nReference [19] predicts larger p keeps the solution informative");
    println!("(spread bounded away from zero) beyond the p = d threshold.");
}
