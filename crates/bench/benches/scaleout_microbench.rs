//! Weak-scaling microbench of the scale-out subsystem.
//!
//! Weak scaling holds **per-chip** work constant while the fleet grows:
//! the global batch is `M = 128 · chips`, so every chip always runs the
//! same `M = 128` shard under data parallelism. That makes two things
//! measurable:
//!
//! * **Model behaviour** — per-chip compute cycles are *identical*
//!   across fleet sizes (asserted), while ring all-reduce cost grows
//!   with the chip count, so the comm fraction of the critical path
//!   rises exactly as scale-out analysis predicts.
//! * **Plan-cache reuse** — because all chips share one shard shape,
//!   one planning pass covers the whole fleet, and a second run of the
//!   same configuration plans **nothing** (asserted via cache
//!   counters). The cold vs warm wall-clock split is reported for the
//!   `BENCH_perf.json` trajectory.
//!
//! Run with: `cargo bench --bench scaleout_microbench`

use scalesim::api::{ConfigSource, ScaleoutRequest, TopologySource};
use scalesim::service::SimService;
use scalesim::DiscardScaleoutSink;
use scalesim_bench::{banner, merge_bench_section, write_csv, ResultTable};
use std::fmt::Write as _;
use std::time::Instant;

const CHIP_COUNTS: [usize; 4] = [1, 4, 16, 64];
const PER_CHIP_M: usize = 128;

/// Four transformer-ish GEMM layers with the batch dimension scaled to
/// the fleet size (weak scaling).
fn topology_csv(chips: usize) -> String {
    let m = PER_CHIP_M * chips;
    format!(
        "Layer, M, K, N,\nembed, {m}, 64, 96,\nattn, {m}, 96, 96,\n\
         mlp_up, {m}, 96, 192,\nmlp_down, {m}, 192, 96,\n"
    )
}

fn request(chips: usize) -> ScaleoutRequest {
    let mut req =
        ScaleoutRequest::for_topology(TopologySource::inline("weakscale", topology_csv(chips)));
    req.config = ConfigSource::Inline(
        "[architecture_presets]\nArrayHeight : 16\nArrayWidth : 16\n\
         IfmapSramSzkB : 64\nFilterSramSzkB : 64\nOfmapSramSzkB : 32\nDataflow : ws\n"
            .into(),
    );
    req.chips = Some(chips);
    req.strategy = Some("data".into());
    req
}

struct Row {
    chips: usize,
    cold_s: f64,
    warm_s: f64,
    compute_cycles: u64,
    exposed_cycles: u64,
    comm_fraction: f64,
}

fn main() {
    banner(
        "scaleout",
        "weak scaling 1 -> 64 chips: warm plan-cache reuse across the fleet",
        "symmetric shards plan once per fleet; repeated configs plan nothing",
    );

    let mut rows = Vec::new();
    for chips in CHIP_COUNTS {
        // Cold: a fresh service (empty plan cache).
        let service = SimService::new();
        let req = request(chips);
        let t0 = Instant::now();
        let prepared = service.prepare_scaleout(&req).expect("valid request");
        let cold = prepared.run_into(&mut DiscardScaleoutSink).expect("run");
        let cold_s = t0.elapsed().as_secs_f64();
        let after_cold = service.plan_cache().stats();
        assert!(after_cold.misses > 0, "a cold run must plan");

        // Warm: the same service answers the same request again.
        let t0 = Instant::now();
        let prepared = service.prepare_scaleout(&req).expect("valid request");
        let warm = prepared.run_into(&mut DiscardScaleoutSink).expect("run");
        let warm_s = t0.elapsed().as_secs_f64();
        let after_warm = service.plan_cache().stats();
        assert_eq!(
            after_warm.misses, after_cold.misses,
            "a warm repeat must plan nothing"
        );
        assert_eq!(cold.total_cycles, warm.total_cycles, "results identical");

        rows.push(Row {
            chips,
            cold_s,
            warm_s,
            compute_cycles: cold.compute_cycles,
            exposed_cycles: cold.exposed_cycles,
            comm_fraction: cold.comm_fraction(),
        });
    }

    // Weak scaling: per-chip compute is constant, comm pressure grows.
    for pair in rows.windows(2) {
        assert_eq!(
            pair[0].compute_cycles, pair[1].compute_cycles,
            "per-chip shards are identical under weak scaling"
        );
        assert!(
            pair[0].comm_fraction <= pair[1].comm_fraction,
            "comm fraction must not shrink as the fleet grows"
        );
    }

    let mut table = ResultTable::new(vec![
        "chips",
        "cold_s",
        "warm_s",
        "compute_cycles",
        "exposed_comm",
        "comm_fraction",
    ]);
    for r in &rows {
        table.row(vec![
            r.chips.to_string(),
            format!("{:.4}", r.cold_s),
            format!("{:.4}", r.warm_s),
            r.compute_cycles.to_string(),
            r.exposed_cycles.to_string(),
            format!("{:.3}", r.comm_fraction),
        ]);
    }
    table.print();
    write_csv("scaleout_microbench.csv", &table.to_csv());

    // The gates are the cache counters and the model invariants above,
    // not wall clock; the timings feed the trajectory only.
    append_bench_json(&rows);
}

/// Appends (or replaces) the `"scaleout_microbench"` section of the
/// `BENCH_perf.json` trajectory. Runs after `stream_microbench` in CI,
/// so this section is always last when present.
fn append_bench_json(rows: &[Row]) {
    let mut section = String::new();
    let _ = writeln!(section, "  \"scaleout_microbench\": {{");
    let _ = writeln!(
        section,
        "    \"scenario\": \"weak scaling, data parallel, ring, 128 M-rows/chip\","
    );
    let _ = writeln!(section, "    \"points\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            section,
            "      {{\"chips\": {}, \"cold_s\": {:.6}, \"warm_s\": {:.6}, \
             \"warm_speedup\": {:.3}, \"comm_fraction\": {:.4}}}{}",
            r.chips,
            r.cold_s,
            r.warm_s,
            if r.warm_s > 0.0 {
                r.cold_s / r.warm_s
            } else {
                0.0
            },
            r.comm_fraction,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    let _ = writeln!(section, "    ],");
    let _ = writeln!(section, "    \"warm_plan_cache_misses\": 0");
    let _ = writeln!(section, "  }}");

    merge_bench_section("scaleout_microbench", &section);
}
