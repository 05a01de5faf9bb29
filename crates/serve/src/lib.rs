//! # gssl-serve — fit-once, query-many prediction serving
//!
//! The transductive solvers in [`gssl`] answer one question: given a
//! fixed graph, what are the scores of its unlabeled vertices? A serving
//! deployment asks three more:
//!
//! 1. **Out-of-sample queries.** Points that were never part of the
//!    fitted graph must be scored without refitting. Theorem II.1 of the
//!    paper shows the graph solution converges to the Nadaraya–Watson
//!    kernel regressor, which justifies the extension (Eq. 6)
//!    `f(x) = Σᵢ w(x, xᵢ) fᵢ / Σᵢ w(x, xᵢ)` — an `O(N·d)` weighted
//!    average over the fitted scores, no linear solve involved. The
//!    evaluation lives in one place ([`mod@crate::extend`]) shared by
//!    every engine flavor.
//! 2. **Streaming labels.** When a previously unlabeled vertex reveals
//!    its label, the criterion system changes by exactly rank one, so the
//!    cached inverse is repaired with a Sherman–Morrison-family update in
//!    quadratic time instead of a cubic refit (details in
//!    [`mod@crate::engine`]).
//! 3. **Throughput.** Queries are independent reads of shared fitted
//!    state; the engine shards batches across workers through the shared
//!    [`Executor`] from [`gssl_runtime`] (dependency-free,
//!    `std::thread::scope` only), and [`MetricsSnapshot`] reports p50/p99
//!    latency and sustained throughput via the [`gssl_stats`] descriptive
//!    machinery.
//!
//! Two engines implement this contract:
//!
//! * [`ServingEngine`] — the monolithic reference: one criterion system,
//!   one cached factorization.
//! * [`ShardedEngine`] — the component-decomposed production engine:
//!   both criterion systems are block-diagonal across connected
//!   components of the kernel graph ([`mod@crate::shard`]), so each
//!   component is fitted as an independent task, label folds rebuild
//!   only the affected shard behind an epoch snapshot/swap
//!   ([`mod@crate::sharded`]), and the full fitted state round-trips
//!   through a versioned binary snapshot ([`mod@crate::snapshot`]) for
//!   factorization-free cold starts. Its predictions are
//!   bitwise-identical to the monolithic engine's under the direct
//!   solver route.
//!
//! In front of either engine, [`BatchQueue`] ([`mod@crate::batch`])
//! coalesces individual requests into size/deadline-bounded batches with
//! admission control for overload shedding.
//!
//! [`ServingEngine::fit`] builds the kernel graph and the criterion
//! problem internally from raw points (labeled first), so callers hand
//! over coordinates once and then only exchange queries and labels.
//!
//! Enable the `strict-checks` cargo feature to extend the workspace's
//! numeric sanitizer across the serving boundary: kernel rows, cached
//! scores and batch outputs are then checked for NaN/infinity and
//! reported as [`Error::NonFiniteValue`]. Query coordinates and observed
//! labels are validated unconditionally.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Admission-controlled coalescing of predict traffic into batches.
pub mod batch;
/// Engine configuration: criterion, kernel parameters, update policy.
pub mod config;
/// The fit-once, query-many serving engine and its rank-1 update math.
pub mod engine;
/// Error type for the serving boundary.
pub mod error;
/// The shared out-of-sample (Eq. 6) query plane.
pub(crate) mod extend;
/// Latency/throughput counters built on `gssl-stats`.
pub mod metrics;
/// Component-based shard decomposition of the fitted graph.
pub mod shard;
/// The shard-decomposed engine with epoch snapshot/swap label folding.
pub mod sharded;
/// Versioned binary snapshot/restore of a fitted sharded engine.
pub mod snapshot;
/// Query/prediction value types shared by every engine flavor.
pub mod types;

/// Deterministic interleaving harness for the execution layer's
/// chunk-claim protocol, re-exported from [`gssl_runtime`] (where it now
/// lives) so existing `gssl_serve::sim` callers keep compiling.
#[cfg(feature = "strict-checks")]
pub use gssl_runtime::sim;

pub use batch::{Admission, BatchPolicy, BatchQueue, CoalescedBatch};
pub use config::{EngineConfig, EngineSolver, QueryPath, ServeCriterion};
pub use engine::ServingEngine;
pub use error::{Error, Result};
pub use gssl_runtime::Executor;
pub use metrics::MetricsSnapshot;
pub use shard::{Shard, ShardPlan};
pub use sharded::ShardedEngine;
pub use snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use types::{Prediction, QueryPoint};
