//! # gssl-runtime — the shared deterministic execution layer
//!
//! Every parallel code path in this workspace — kernel-matrix assembly in
//! `gssl-graph`, dense matmul / panel factorization / CG matvec in
//! `gssl-linalg`, one-vs-rest multiclass fits in `gssl`, and batch
//! prediction in `gssl-serve` — runs on the primitives in this crate.
//! Centralizing them buys three things:
//!
//! 1. **One determinism contract.** Work is sharded into contiguous
//!    chunks claimed through a single atomic cursor; each item is computed
//!    by exactly one worker with the same per-item operation order as the
//!    sequential loop, and results are reassembled in input order on the
//!    calling thread. For deterministic closures the output is therefore
//!    **bit-identical** across worker counts — `==`, not epsilon.
//! 2. **One proof.** The [`sim`] module exhaustively enumerates every
//!    bounded interleaving of the claim/publish protocol (a mini-loom),
//!    which is what justifies the single `Ordering::Relaxed` atomic in
//!    the crate-private worker pool behind [`Executor::Pool`].
//! 3. **One knob.** The [`Executor`] handle ([`Executor::Sequential`] by
//!    default, [`Executor::Pool`] to opt in) threads through every layer
//!    via `with_executor(..)` builders, so call sites pick a worker count
//!    once and the whole pipeline — assembly, factorization, fit, serve —
//!    honours it.
//!
//! The crate is dependency-free (`std::thread` only) and spawns no
//! long-lived threads: every batch opens a `std::thread::scope` and joins
//! it before returning.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Error and result types shared by the executor and pool.
pub mod error;
/// The [`Executor`] handle: sequential by default, pooled on request.
pub mod executor;
/// The scoped worker pool and its chunk-claim protocol (reached through
/// [`Executor`] only).
mod pool;
/// Exhaustive interleaving enumeration for the claim protocol (mini-loom).
pub mod sim;

pub use error::{Error, Result};
pub use executor::Executor;
