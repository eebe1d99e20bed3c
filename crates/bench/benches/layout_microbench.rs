//! Layout bank-conflict kernel regression harness (§VI).
//!
//! Streams every ResNet-18 layer through two kernels:
//!
//! * `legacy`   — the seed kernel (`scalesim_bench::layout_reference`):
//!   per address a 64-bit division, `place_banked`'s runtime divisions
//!   and a `HashMap` insert, plus a per-cycle sort and dedup;
//! * `shipping` — `scalesim::layout_slowdown_for_gemm`: additive
//!   placement tables and dense per-(line, bank) recency stamps.
//!
//! at two configurations: the default layout stage (32x32 OS, row-major,
//! 64 elements/cycle over 4 banks) and one Fig. 12 point (128x128 WS,
//! `matched`, 256 over 16 banks). Both kernels must agree on every
//! layer; the harness asserts it, prints ns per simulated cycle and
//! gates the shipping speedup at >= 3x per configuration. Times include
//! demand generation, which both kernels share.
//!
//! Appends the `"layout_microbench"` section to `BENCH_perf.json` (runs
//! after `obs_microbench` in CI, so this section is last when present).
//!
//! Run with: `cargo bench --bench layout_microbench`

use scalesim::{layout_slowdown_for_gemm, LayoutAnalysis, LayoutIntegration};
use scalesim_bench::{banner, layout_reference, merge_bench_section, write_csv, ResultTable};
use scalesim_systolic::{ArrayShape, Dataflow, GemmShape};
use scalesim_workloads::resnet18;
use std::fmt::Write as _;
use std::time::Instant;

/// The speedup gate, per configuration.
const GATE: f64 = 3.0;

/// Measurement repetitions; the minimum is reported (least noise).
const REPS: usize = 3;

struct Scenario {
    name: &'static str,
    array: ArrayShape,
    dataflow: Dataflow,
    cfg: LayoutIntegration,
}

struct Row {
    scenario: &'static str,
    sim_cycles: u64,
    legacy_s: f64,
    shipping_s: f64,
}

impl Row {
    fn legacy_ns_per_cycle(&self) -> f64 {
        self.legacy_s * 1e9 / self.sim_cycles as f64
    }

    fn shipping_ns_per_cycle(&self) -> f64 {
        self.shipping_s * 1e9 / self.sim_cycles as f64
    }

    fn speedup(&self) -> f64 {
        self.legacy_s / self.shipping_s
    }
}

/// Runs `kernel` over every layer [`REPS`] times, returning (best
/// seconds, per-layer results).
fn time_layers(
    layers: &[GemmShape],
    kernel: impl Fn(GemmShape) -> LayoutAnalysis,
) -> (f64, Vec<LayoutAnalysis>) {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        out = layers.iter().map(|&g| kernel(g)).collect();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out)
}

fn main() {
    banner(
        "layout",
        "table-driven layout kernel vs the seed hash-map kernel — ResNet-18",
        "every compute cycle is charged its worst per-bank line count (Figs. 12-13)",
    );
    let layers: Vec<GemmShape> = resnet18().iter().map(|l| l.gemm()).collect();
    let scenarios = [
        Scenario {
            name: "default 32x32 os, row-major, 64/4",
            array: ArrayShape::new(32, 32),
            dataflow: Dataflow::OutputStationary,
            cfg: LayoutIntegration::default(),
        },
        Scenario {
            name: "fig12 128x128 ws, matched, 256/16",
            array: ArrayShape::new(128, 128),
            dataflow: Dataflow::WeightStationary,
            cfg: LayoutIntegration::matched(Dataflow::WeightStationary, 256, 16),
        },
    ];

    let mut rows = Vec::new();
    for s in &scenarios {
        let (legacy_s, legacy) = time_layers(&layers, |g| {
            layout_reference::layout_slowdown_for_gemm(s.array, s.dataflow, g, &s.cfg)
        });
        let (shipping_s, shipping) = time_layers(&layers, |g| {
            layout_slowdown_for_gemm(s.array, s.dataflow, g, &s.cfg)
        });
        assert_eq!(
            legacy, shipping,
            "{}: shipping layout kernel diverged from the reference",
            s.name
        );
        rows.push(Row {
            scenario: s.name,
            sim_cycles: shipping.iter().map(|a| a.compute_cycles).sum(),
            legacy_s,
            shipping_s,
        });
    }

    let mut table = ResultTable::new(vec![
        "scenario",
        "sim_cycles",
        "legacy_s",
        "shipping_s",
        "legacy_ns/cyc",
        "shipping_ns/cyc",
        "speedup",
    ]);
    for r in &rows {
        table.row(vec![
            r.scenario.to_string(),
            r.sim_cycles.to_string(),
            format!("{:.3}", r.legacy_s),
            format!("{:.3}", r.shipping_s),
            format!("{:.1}", r.legacy_ns_per_cycle()),
            format!("{:.1}", r.shipping_ns_per_cycle()),
            format!("{:.2}", r.speedup()),
        ]);
    }
    table.print();
    write_csv("layout_microbench.csv", &table.to_csv());
    append_bench_json(&rows);

    for r in &rows {
        assert!(
            r.speedup() >= GATE,
            "{}: layout kernel speedup {:.2}x below the {GATE}x gate",
            r.scenario,
            r.speedup()
        );
    }
    println!("\nPASS: identical results on every layer; speedup >= {GATE}x on every scenario");
}

/// Appends (or replaces) the `"layout_microbench"` section of the
/// `BENCH_perf.json` trajectory.
fn append_bench_json(rows: &[Row]) {
    let mut section = String::new();
    let _ = writeln!(section, "  \"layout_microbench\": {{");
    let _ = writeln!(section, "    \"workload\": \"resnet18, all layers\",");
    let _ = writeln!(section, "    \"reps\": {REPS},");
    let _ = writeln!(section, "    \"gate_speedup\": {GATE:.1},");
    let _ = writeln!(section, "    \"scenarios\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            section,
            "      {{\"name\": \"{}\", \"sim_cycles\": {}, \"legacy_s\": {:.6}, \"shipping_s\": {:.6}, \
             \"legacy_ns_per_sim_cycle\": {:.1}, \"shipping_ns_per_sim_cycle\": {:.1}, \
             \"speedup\": {:.3}, \"identical\": true}}{}",
            r.scenario,
            r.sim_cycles,
            r.legacy_s,
            r.shipping_s,
            r.legacy_ns_per_cycle(),
            r.shipping_ns_per_cycle(),
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(section, "    ]");
    let _ = writeln!(section, "  }}");

    merge_bench_section("layout_microbench", &section);
}
