//! Microbench of the persistent work-stealing scheduler (`scalesim-sched`).
//!
//! Pins the two perf claims that motivated folding the per-call scoped
//! pools into one process-wide scheduler:
//!
//! * **(a) Spawn-overhead elimination.** The old `parallel_map` spawned a
//!   fresh scoped thread pool for *every* call, so a many-small-layers
//!   topology streamed in blocks paid `blocks x workers` thread
//!   create/join cycles for microseconds of work each. A faithful copy of
//!   that scheme (inline below) races the persistent scheduler over the
//!   same 4096 tiny layers in 64-layer blocks; the persistent pool must
//!   win by >= 1.3x, and both paths must produce the identical cycle
//!   checksum.
//! * **(b) Intra-request fan-out.** One serve request is a single scope
//!   submission; its layer tasks must spread across the pool rather than
//!   run on the submitting thread alone. On an 8-worker private pool at
//!   least 4 distinct workers must claim layers of one request (asserted
//!   via [`scalesim_sched::worker_index`]); the 8-vs-1-worker throughput
//!   ratio is recorded for the trajectory (not asserted — this container
//!   may have a single CPU, where the ratio is ~1).
//!
//! Private [`Scheduler::new`] pools keep the measurement independent of
//! `SCALESIM_THREADS` and of the global pool's size on the host.
//!
//! Run with: `cargo bench --bench sched_microbench`

use scalesim_bench::{banner, merge_bench_section, write_csv, ResultTable};
use scalesim_sched::{Priority, Scheduler};
use scalesim_systolic::{ArrayShape, CoreSim, Dataflow, GemmShape, PlanCache, SimConfig};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Many-small-layers topology: 4096 tiny GEMMs streamed in 64-blocks
/// (the engine's streaming block size).
const LAYERS: usize = 4096;
const BLOCK: usize = 64;
/// Worker count for the spawn-overhead race (both schemes get the same).
const POOL_WORKERS: usize = 4;
/// Pool size for the intra-request fan-out check.
const FANOUT_WORKERS: usize = 8;
/// Best-of-N timing to shed scheduler jitter.
const REPS: usize = 3;

fn tiny_sim() -> CoreSim {
    let config = SimConfig::builder()
        .array(ArrayShape::new(8, 8))
        .dataflow(Dataflow::WeightStationary)
        .build();
    CoreSim::new(config).with_plan_cache(Arc::new(PlanCache::new()))
}

/// The workload: every layer is the same tiny GEMM, so after one warm-up
/// pass the plan cache hits on every call and each task is microseconds
/// of re-timing — the regime where per-call thread spawning dominated.
fn tiny_gemm() -> GemmShape {
    GemmShape::new(16, 16, 16)
}

/// One simulated layer; returns its cycle count for the checksum.
fn run_layer(sim: &CoreSim) -> u64 {
    sim.simulate_gemm(tiny_gemm()).compute.total_compute_cycles
}

/// Faithful copy of the pre-scheduler `parallel_map` execution scheme:
/// every block spawns a fresh scoped pool of `workers` threads that
/// claim indices from an atomic cursor, then joins them all.
fn spawn_per_call_blocks(sim: &CoreSim, workers: usize, checksum: &AtomicU64) {
    for block_start in (0..LAYERS).step_by(BLOCK) {
        let len = BLOCK.min(LAYERS - block_start);
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    checksum.fetch_add(run_layer(sim), Ordering::Relaxed);
                });
            }
        });
    }
}

/// The shipping scheme: the same blocks as scope submissions to one
/// persistent pool (workers created once, before the clock starts).
fn persistent_pool_blocks(sim: &CoreSim, pool: &Scheduler, checksum: &AtomicU64) {
    for block_start in (0..LAYERS).step_by(BLOCK) {
        let len = BLOCK.min(LAYERS - block_start);
        let task = |_i: usize| {
            checksum.fetch_add(run_layer(sim), Ordering::Relaxed);
        };
        pool.scope(len, Priority::Interactive, None, &task);
    }
}

fn best_of<F: FnMut() -> u64>(reps: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        checksum = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, checksum)
}

struct SpawnRace {
    spawn_s: f64,
    persistent_s: f64,
    speedup: f64,
}

fn spawn_overhead_race(sim: &CoreSim) -> SpawnRace {
    let pool = Scheduler::new(POOL_WORKERS);
    // Warm the plan cache so both sides only re-time.
    run_layer(sim);

    let (spawn_s, spawn_sum) = best_of(REPS, || {
        let checksum = AtomicU64::new(0);
        spawn_per_call_blocks(sim, POOL_WORKERS, &checksum);
        checksum.into_inner()
    });
    let (persistent_s, persistent_sum) = best_of(REPS, || {
        let checksum = AtomicU64::new(0);
        persistent_pool_blocks(sim, &pool, &checksum);
        checksum.into_inner()
    });
    assert_eq!(spawn_sum, persistent_sum, "schemes must do identical work");

    let speedup = spawn_s / persistent_s;
    assert!(
        speedup >= 1.3,
        "persistent scheduler must beat spawn-per-call by >= 1.3x \
         (spawn {spawn_s:.4}s, persistent {persistent_s:.4}s, {speedup:.3}x)"
    );
    SpawnRace {
        spawn_s,
        persistent_s,
        speedup,
    }
}

struct Fanout {
    distinct_workers: usize,
    one_worker_s: f64,
    many_worker_s: f64,
    throughput_ratio: f64,
}

/// One "request": a single scope over `LAYERS / 2` layers, heavy enough
/// (~hundreds of microseconds each) that every woken worker gets
/// scheduled even on a time-sliced single-CPU host.
fn fanout_request(sim: &CoreSim, pool: &Scheduler, claims: &[AtomicU64]) -> f64 {
    let gemm = GemmShape::new(48, 48, 48);
    let task = |_i: usize| {
        let slot = scalesim_sched::worker_index().map_or(claims.len() - 1, |w| w);
        claims[slot].fetch_add(1, Ordering::Relaxed);
        let r = sim.simulate_gemm(gemm);
        assert!(r.compute.total_compute_cycles > 0);
    };
    let t0 = Instant::now();
    pool.scope(LAYERS / 2, Priority::Interactive, None, &task);
    t0.elapsed().as_secs_f64()
}

fn intra_request_fanout(sim: &CoreSim) -> Fanout {
    // Warm the 48^3 plan.
    sim.simulate_gemm(GemmShape::new(48, 48, 48));

    let single = Scheduler::new(1);
    let slots: Vec<AtomicU64> = (0..=1).map(|_| AtomicU64::new(0)).collect();
    let one_worker_s = fanout_request(sim, &single, &slots);

    let pool = Scheduler::new(FANOUT_WORKERS);
    // The claim is "one request CAN fan out", so shed unlucky OS
    // schedules: take the best spread over a few attempts.
    let mut distinct_workers = 0;
    let mut many_worker_s = f64::INFINITY;
    for _ in 0..2 * REPS {
        let slots: Vec<AtomicU64> = (0..=FANOUT_WORKERS).map(|_| AtomicU64::new(0)).collect();
        many_worker_s = many_worker_s.min(fanout_request(sim, &pool, &slots));
        let distinct = slots[..FANOUT_WORKERS]
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) > 0)
            .count();
        distinct_workers = distinct_workers.max(distinct);
        if distinct_workers >= 4 {
            break;
        }
    }
    assert!(
        distinct_workers >= 4,
        "one request must fan across >= 4 of {FANOUT_WORKERS} workers \
         (saw {distinct_workers})"
    );
    Fanout {
        distinct_workers,
        one_worker_s,
        many_worker_s,
        throughput_ratio: one_worker_s / many_worker_s,
    }
}

fn main() {
    banner(
        "sched",
        "persistent work-stealing scheduler vs spawn-per-call pools",
        "one pool for layers, sweep points, shards and serve requests",
    );

    let sim = tiny_sim();
    let race = spawn_overhead_race(&sim);
    let fanout = intra_request_fanout(&sim);

    let mut table = ResultTable::new(vec!["measurement", "value"]);
    table.row(vec![
        "spawn_per_call_s".to_string(),
        format!("{:.4}", race.spawn_s),
    ]);
    table.row(vec![
        "persistent_s".to_string(),
        format!("{:.4}", race.persistent_s),
    ]);
    table.row(vec![
        "spawn_overhead_speedup".to_string(),
        format!("{:.3}", race.speedup),
    ]);
    table.row(vec![
        "fanout_distinct_workers".to_string(),
        fanout.distinct_workers.to_string(),
    ]);
    table.row(vec![
        "fanout_1w_s".to_string(),
        format!("{:.4}", fanout.one_worker_s),
    ]);
    table.row(vec![
        format!("fanout_{FANOUT_WORKERS}w_s"),
        format!("{:.4}", fanout.many_worker_s),
    ]);
    table.row(vec![
        "fanout_throughput_ratio".to_string(),
        format!("{:.3}", fanout.throughput_ratio),
    ]);
    table.print();
    write_csv("sched_microbench.csv", &table.to_csv());

    append_bench_json(&race, &fanout);
}

/// Appends (or replaces) the `"sched_microbench"` section of the
/// `BENCH_perf.json` trajectory. Runs after `scaleout_microbench` in CI,
/// so this section is always last when present.
fn append_bench_json(race: &SpawnRace, fanout: &Fanout) {
    let mut section = String::new();
    let _ = writeln!(section, "  \"sched_microbench\": {{");
    let _ = writeln!(
        section,
        "    \"spawn_overhead\": {{\"layers\": {LAYERS}, \"block\": {BLOCK}, \
         \"workers\": {POOL_WORKERS}, \"spawn_per_call_s\": {:.6}, \
         \"persistent_s\": {:.6}, \"speedup\": {:.3}, \"identical\": true}},",
        race.spawn_s, race.persistent_s, race.speedup,
    );
    let _ = writeln!(
        section,
        "    \"intra_request_fanout\": {{\"layers\": {}, \"workers\": {FANOUT_WORKERS}, \
         \"distinct_workers\": {}, \"one_worker_s\": {:.6}, \"pool_s\": {:.6}, \
         \"throughput_ratio\": {:.3}}}",
        LAYERS / 2,
        fanout.distinct_workers,
        fanout.one_worker_s,
        fanout.many_worker_s,
        fanout.throughput_ratio,
    );
    let _ = writeln!(section, "  }}");

    merge_bench_section("sched_microbench", &section);
}
