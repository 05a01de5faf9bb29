//! Solver-policy demo: shows which backend the [`SolverPolicy`] selector
//! routes a spread of systems to (dense Cholesky, dense LU, sparse
//! Jacobi-CG), factors each one through the unified [`Factorization`]
//! layer, and verifies the solve residual.
//!
//! ```text
//! cargo run --release -p gssl-bench --bin policy_demo [-- --json]
//! ```
//!
//! With `--json` the report is a machine-readable JSON array (one object
//! per system). The process exits nonzero when any residual exceeds the
//! acceptance threshold, so the script gate can use it as a smoke test.

use gssl_bench::json::{Json, Precision::ShortestExp};
use gssl_linalg::{CsrMatrix, Factorization, Matrix, SolverPolicy, Vector};
use std::process::ExitCode;

const RESIDUAL_THRESHOLD: f64 = 1e-8;

/// One system routed through the policy selector.
struct Case {
    name: &'static str,
    selected: &'static str,
    dim: usize,
    nnz: usize,
    residual: f64,
}

/// Symmetric positive-definite banded matrix (diagonally dominant).
fn banded_spd(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            4.0 + (i as f64) * 0.01
        } else if i.abs_diff(j) <= 2 {
            -0.5
        } else {
            0.0
        }
    })
}

/// Dense SPD matrix with no zero entries (Gaussian-kernel-like Gram).
fn dense_spd(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let d = i.abs_diff(j) as f64;
        (-0.05 * d * d).exp() + if i == j { 1.0 } else { 0.0 }
    })
}

/// Asymmetric nonsingular matrix (forces the LU route).
fn asymmetric(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            3.0
        } else if j == i + 1 {
            1.0
        } else if i == j + 1 {
            -0.5
        } else {
            0.0
        }
    })
}

fn rhs(n: usize) -> Vector {
    Vector::from_fn(n, |i| ((i as f64) * 0.37).sin() + 0.1)
}

fn dense_nnz(a: &Matrix) -> usize {
    let mut nnz = 0;
    for i in 0..a.rows() {
        for v in a.row(i) {
            if v.abs() > 0.0 {
                nnz += 1;
            }
        }
    }
    nnz
}

fn run_dense(policy: &SolverPolicy, name: &'static str, a: &Matrix) -> Case {
    let b = rhs(a.rows());
    let backend = policy.factor_dense(a).expect("factor_dense");
    let x = backend.solve(&b).expect("solve");
    let residual = backend.residual(&x, &b).expect("residual");
    Case {
        name,
        selected: backend.kind().as_str(),
        dim: a.rows(),
        nnz: dense_nnz(a),
        residual,
    }
}

fn run_sparse(policy: &SolverPolicy, name: &'static str, a: &CsrMatrix) -> Case {
    let b = rhs(a.rows());
    let backend = policy.factor_sparse(a).expect("factor_sparse");
    let x = backend.solve(&b).expect("solve");
    let residual = backend.residual(&x, &b).expect("residual");
    Case {
        name,
        selected: backend.kind().as_str(),
        dim: a.rows(),
        nnz: a.nnz(),
        residual,
    }
}

fn main() -> ExitCode {
    let json = std::env::args().any(|a| a == "--json");
    let policy = SolverPolicy::default();

    let cases = vec![
        // Small SPD: below the dimension cutoff, direct Cholesky.
        run_dense(&policy, "small_spd_dense", &banded_spd(48)),
        // Small asymmetric: symmetry test fails, LU.
        run_dense(&policy, "small_asymmetric_dense", &asymmetric(48)),
        // Large but fully dense SPD: stays direct despite its size.
        run_dense(&policy, "large_dense_spd", &dense_spd(192)),
        // Large banded SPD held dense: density below the threshold, CG.
        run_dense(&policy, "large_banded_dense_storage", &banded_spd(256)),
        // The same system in CSR: CG without ever densifying.
        run_sparse(
            &policy,
            "large_banded_csr",
            &CsrMatrix::from_dense(&banded_spd(256), 0.0),
        ),
    ];

    let worst = cases.iter().fold(0.0f64, |acc, c| acc.max(c.residual));
    if json {
        let objects: Vec<Json> = cases
            .iter()
            .map(|c| {
                Json::object()
                    .field("system", c.name)
                    .field("backend", c.selected)
                    .field("dim", c.dim)
                    .field("nnz", c.nnz)
                    .field("residual", (c.residual, ShortestExp))
            })
            .collect();
        print!("{}", Json::Array(objects).to_report());
    } else {
        println!("== solver-policy selection demo ==");
        println!(
            "{:<28} {:>16} {:>6} {:>8} {:>12}",
            "system", "backend", "dim", "nnz", "residual"
        );
        for c in &cases {
            println!(
                "{:<28} {:>16} {:>6} {:>8} {:>12.2e}",
                c.name, c.selected, c.dim, c.nnz, c.residual
            );
        }
        println!("\nworst residual: {worst:.2e} (threshold {RESIDUAL_THRESHOLD:.0e})");
    }

    if worst > RESIDUAL_THRESHOLD {
        eprintln!("policy_demo: residual {worst:e} exceeds {RESIDUAL_THRESHOLD:e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
