//! Open-loop serving-traffic benchmark for the shard-decomposed engine:
//! drives a Poisson arrival stream through the admission-controlled
//! [`BatchQueue`] into a [`ShardedEngine`], replaying the classic
//! open-loop discipline (arrivals never wait for completions, so queueing
//! delay is charged honestly) in virtual time with **measured** batch
//! service times, and records p50/p99/p999 latency, batch occupancy and
//! the snapshot cold-start-vs-refit comparison into `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p gssl-bench --bin serve_traffic [-- --ci] [-- --quiet]
//! ```
//!
//! `--ci` shrinks the graph and the arrival horizon so the run finishes
//! in CI milliseconds and writes `BENCH_serve_ci.json` instead, leaving
//! the committed traffic record untouched.
//!
//! Timing is reported as measured and never gates the exit code. What
//! gates is what survives any host:
//!
//! * **agreement** — the sharded engine's predictions are bitwise
//!   identical to the monolithic [`ServingEngine`]'s on a probe set;
//! * **conservation** — every admitted query is served exactly once and
//!   `admitted + rejected == offered`;
//! * **snapshot** — restore reproduces the fitted scores bit for bit.

use gssl_bench::json::{
    Json,
    Precision::{Fixed, Shortest},
};
use gssl_graph::Kernel;
use gssl_linalg::Matrix;
use gssl_serve::{
    Admission, BatchPolicy, BatchQueue, CoalescedBatch, EngineConfig, QueryPoint, ServingEngine,
    ShardedEngine,
};
use gssl_stats::describe::quantile;
use rand::dist::PoissonProcess;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

/// Nodes per cluster in the fitted graph (three disconnected clusters).
const FULL_PER_CLUSTER: usize = 200;
/// CI cluster size: same code path, milliseconds not seconds.
const CI_PER_CLUSTER: usize = 30;
/// Open-loop arrival horizon in virtual seconds.
const FULL_HORIZON: f64 = 2.0;
/// CI horizon.
const CI_HORIZON: f64 = 0.25;
/// Poisson arrival intensity (queries per virtual second).
const ARRIVAL_RATE: f64 = 1_000.0;
/// Coalescing policy: release at this many queries…
const MAX_BATCH: usize = 8;
/// …or when the oldest pending query has waited this long (virtual s).
const MAX_DELAY: f64 = 0.004;
/// Admission bound on the pending queue.
const CAPACITY: usize = 64;
/// Arrival-stream seed; fixed so the replay is reproducible.
const SEED: u64 = 0x5e12_7e5e_12c0_ffee;

/// Three well-separated 2-D clusters with interleaved global indices
/// (node `i` in cluster `i % 3`), labeled-first with one seed label per
/// cluster — the compact kernel below disconnects them into three graph
/// components, so the sharded engine gets a genuine decomposition.
fn clustered_points(total: usize) -> Matrix {
    let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
    Matrix::from_fn(total, 2, |i, j| {
        let (cx, cy) = centers[i % 3];
        let jitter = (((i * 37 + j * 131 + 11) as f64) * 0.618_033_988_749_894_9).fract();
        if j == 0 {
            cx + jitter
        } else {
            cy + jitter
        }
    })
}

/// Deterministic in-cluster query for arrival number `k`.
fn query_for(k: usize) -> QueryPoint {
    let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
    let (cx, cy) = centers[k % 3];
    let jx = (((k * 53 + 5) as f64) * 0.618_033_988_749_894_9).fract();
    let jy = (((k * 53 + 29) as f64) * 0.618_033_988_749_894_9).fract();
    QueryPoint::new(vec![cx + jx, cy + jy])
}

fn config() -> EngineConfig {
    EngineConfig::new(Kernel::Epanechnikov, 2.0).workers(2)
}

/// One served batch: occupancy, measured service seconds and the
/// per-query sojourn times (completion − arrival, virtual seconds).
struct ServedBatch {
    occupancy: usize,
    service_seconds: f64,
    sojourns: Vec<f64>,
}

/// Serves a released batch on the single virtual server: service starts
/// when both the batch is released and the server is free; the service
/// *duration* is the measured wall clock of the real `predict_batch`.
fn serve_batch(
    engine: &ShardedEngine,
    batch: &CoalescedBatch,
    server_free: &mut f64,
) -> ServedBatch {
    let start = batch.released_at.max(*server_free);
    let clock = Instant::now();
    let predictions = engine
        .predict_batch(&batch.queries)
        .expect("in-cluster queries are servable");
    let service_seconds = clock.elapsed().as_secs_f64();
    assert_eq!(predictions.len(), batch.queries.len());
    let done = start + service_seconds;
    *server_free = done;
    ServedBatch {
        occupancy: batch.queries.len(),
        service_seconds,
        sojourns: batch.arrivals.iter().map(|&t| done - t).collect(),
    }
}

/// Seconds and ratios print with nine decimals.
fn f9(x: f64) -> Json {
    Json::Num(x, Fixed(9))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let ci = args.iter().any(|a| a == "--ci");
    let (per_cluster, horizon, out_path) = if ci {
        (CI_PER_CLUSTER, CI_HORIZON, "BENCH_serve_ci.json")
    } else {
        (FULL_PER_CLUSTER, FULL_HORIZON, "BENCH_serve.json")
    };
    let total = 3 * per_cluster;
    let labels = [0.0, 1.0, 1.0];

    if !quiet {
        println!(
            "== serve traffic: {total} nodes / 3 components, Poisson({ARRIVAL_RATE}/s) over {horizon}s ({} mode) ==",
            if ci { "ci" } else { "full" }
        );
    }

    // Fit: monolithic reference (for the agreement gate) and the sharded
    // production engine, timing the sharded fit as the refit baseline the
    // snapshot cold start competes against.
    let points = clustered_points(total);
    let monolithic = ServingEngine::fit(&points, &labels, config()).expect("monolithic fit");
    let clock = Instant::now();
    let engine = ShardedEngine::fit(&points, &labels, config()).expect("sharded fit");
    let fit_seconds = clock.elapsed().as_secs_f64();
    assert_eq!(
        engine.n_shards(),
        3,
        "clusters must decompose into 3 shards"
    );

    // Agreement gate: bitwise identity on a probe set, checked before any
    // traffic so a divergence fails fast.
    let probes: Vec<QueryPoint> = (0..60).map(query_for).collect();
    let mono_out = monolithic.predict_batch(&probes).expect("probe predict");
    let shard_out = engine.predict_batch(&probes).expect("probe predict");
    let agreement = mono_out.len() == shard_out.len()
        && mono_out.iter().zip(&shard_out).all(|(m, s)| {
            m.class == s.class
                && m.per_class.len() == s.per_class.len()
                && m.per_class
                    .iter()
                    .zip(&s.per_class)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });

    // Open-loop replay: seeded Poisson arrivals in virtual time; the
    // queue coalesces up to MAX_BATCH / MAX_DELAY; a single virtual
    // server drains released batches with measured service durations.
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut process = PoissonProcess::new(ARRIVAL_RATE);
    let arrivals = process.arrivals_until(&mut rng, horizon);
    let offered = arrivals.len();

    let policy = BatchPolicy::new(MAX_BATCH, MAX_DELAY, CAPACITY);
    let mut queue = BatchQueue::new(policy).expect("policy is valid");
    let mut served: Vec<ServedBatch> = Vec::new();
    let mut server_free = 0.0_f64;
    for (k, &t) in arrivals.iter().enumerate() {
        // Deadline-triggered releases strictly before this arrival.
        while let Some(deadline) = queue.next_deadline() {
            if deadline >= t {
                break;
            }
            match queue.pop_ready(deadline) {
                Some(batch) => served.push(serve_batch(&engine, &batch, &mut server_free)),
                None => break,
            }
        }
        let _admission: Admission = queue.offer(query_for(k), t);
        // Size-triggered releases at the arrival instant.
        while let Some(batch) = queue.pop_ready(t) {
            served.push(serve_batch(&engine, &batch, &mut server_free));
        }
    }
    while let Some(batch) = queue.flush(horizon) {
        served.push(serve_batch(&engine, &batch, &mut server_free));
    }

    let admitted = queue.admitted();
    let rejected = queue.rejected();
    let served_queries: usize = served.iter().map(|b| b.occupancy).sum();
    let conservation = served_queries as u64 == admitted && admitted + rejected == offered as u64;

    let sojourns: Vec<f64> = served
        .iter()
        .flat_map(|b| b.sojourns.iter().copied())
        .collect();
    let p50 = quantile(&sojourns, 0.50).expect("traffic is non-empty");
    let p99 = quantile(&sojourns, 0.99).expect("traffic is non-empty");
    let p999 = quantile(&sojourns, 0.999).expect("traffic is non-empty");
    let occupancies: Vec<f64> = served.iter().map(|b| b.occupancy as f64).collect();
    let mean_occupancy = occupancies.iter().sum::<f64>() / occupancies.len() as f64;
    let max_occupancy = occupancies.iter().fold(0.0_f64, |a, &b| a.max(b));
    let service_seconds: Vec<f64> = served.iter().map(|b| b.service_seconds).collect();
    let mean_service = service_seconds.iter().sum::<f64>() / service_seconds.len() as f64;

    // Cold start: serialize the fitted engine, then restore it — no
    // factorization runs on the restore path — and compare against the
    // measured refit. The bitwise gate rides along.
    let clock = Instant::now();
    let snapshot = engine.snapshot().expect("direct-solver snapshot");
    let snapshot_seconds = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let restored = ShardedEngine::restore(&snapshot).expect("restore own snapshot");
    let restore_seconds = clock.elapsed().as_secs_f64();
    let snapshot_bitwise = engine
        .scores()
        .as_slice()
        .iter()
        .zip(restored.scores().as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());

    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let json = Json::object()
        .field("mode", if ci { "ci" } else { "full" })
        .field("host_parallelism", host_parallelism)
        .field("nodes", total)
        .field("shards", engine.n_shards())
        .field("arrival_rate_per_s", (ARRIVAL_RATE, Shortest))
        .field("horizon_s", (horizon, Shortest))
        .field(
            "policy",
            Json::object()
                .field("max_batch", MAX_BATCH)
                .field("max_delay_s", (MAX_DELAY, Shortest))
                .field("capacity", CAPACITY),
        )
        .field("offered", offered)
        .field("admitted", admitted)
        .field("rejected", rejected)
        .field("batches", served.len())
        .field(
            "occupancy",
            Json::object()
                .field("mean", f9(mean_occupancy))
                .field("max", f9(max_occupancy)),
        )
        .field(
            "latency_s",
            Json::object()
                .field("p50", f9(p50))
                .field("p99", f9(p99))
                .field("p999", f9(p999)),
        )
        .field("mean_batch_service_s", f9(mean_service))
        .field(
            "cold_start",
            Json::object()
                .field("refit_s", f9(fit_seconds))
                .field("snapshot_s", f9(snapshot_seconds))
                .field("restore_s", f9(restore_seconds))
                .field("snapshot_bytes", snapshot.len()),
        )
        .field(
            "gates",
            Json::object()
                .field("agreement", agreement)
                .field("conservation", conservation)
                .field("snapshot_bitwise", snapshot_bitwise),
        );
    std::fs::write(out_path, json.to_report()).expect("write serve traffic report");

    if !quiet {
        println!(
            "offered {offered} | admitted {admitted} | rejected {rejected} | {} batches (mean occupancy {mean_occupancy:.2})",
            served.len()
        );
        println!(
            "latency p50 {:.1}µs p99 {:.1}µs p999 {:.1}µs | cold start: refit {:.4}s vs snapshot+restore {:.4}s ({} bytes)",
            p50 * 1e6,
            p99 * 1e6,
            p999 * 1e6,
            fit_seconds,
            snapshot_seconds + restore_seconds,
            snapshot.len()
        );
        println!(
            "gates: agreement {} | conservation {} | snapshot bitwise {}; wrote {out_path}",
            if agreement { "passed" } else { "FAILED" },
            if conservation { "passed" } else { "FAILED" },
            if snapshot_bitwise { "passed" } else { "FAILED" },
        );
    }
    if agreement && conservation && snapshot_bitwise {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
