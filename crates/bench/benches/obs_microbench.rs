//! Observability overhead gate.
//!
//! The tracing instrumentation (`crates/obs`) lives permanently on the
//! simulator's hot paths — scheduler claims, every pipeline stage, plan
//! cache lookups, serve lifecycle — which is only tenable if the
//! *disabled* path is effectively free. This bench pins that claim:
//!
//! * `disabled_call_ns` — the measured cost of one disabled span
//!   (create + arg + drop), timed over a tight 20M-iteration loop;
//! * `events_per_run` — instrumentation call sites actually executed by
//!   a full ResNet-18 simulation, counted by enabling tracing once and
//!   reading the recorded-event delta;
//! * `overhead_pct` — their product as a fraction of the hot-path wall
//!   time. **Gate: < 2%.** Multiplying a per-call cost by an exact event
//!   count is far more stable than A/B wall-clock runs, whose noise on
//!   shared runners dwarfs a sub-percent effect.
//!
//! The bench also re-asserts the determinism contract end to end:
//! reports produced with tracing enabled are identical to reports
//! produced with it disabled.
//!
//! Appends the `"obs_microbench"` section to `BENCH_perf.json` (runs
//! after `llm_microbench` in CI, before `layout_microbench`).
//!
//! Run with: `cargo bench --bench obs_microbench`

use scalesim_bench::{banner, merge_bench_section, write_csv, ResultTable};
use scalesim_obs as obs;
use scalesim_systolic::{ArrayShape, CoreSim, Dataflow, SimConfig};
use scalesim_workloads::resnet18;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Iterations for the disabled-span cost loop: large enough that the
/// loop runs tens of milliseconds, small enough to finish instantly.
const CALLS: u64 = 20_000_000;

/// Hot-path repetitions; the minimum is reported (least noise).
const REPS: usize = 3;

/// The disabled-overhead gate, in percent of hot-path wall time.
const GATE_PCT: f64 = 2.0;

fn sim_config() -> SimConfig {
    SimConfig::builder()
        .array(ArrayShape::new(32, 32))
        .dataflow(Dataflow::WeightStationary)
        .build()
}

/// Cost of one *disabled* span: create, attach an arg, drop. This is
/// the price every instrumented call site pays when no trace sink is
/// attached — the relaxed-load-and-branch the obs crate advertises.
fn disabled_call_ns() -> f64 {
    assert!(
        !obs::tracing_enabled(),
        "disabled-cost loop needs tracing off"
    );
    let t0 = Instant::now();
    for i in 0..CALLS {
        let _span = obs::span(obs::Category::Pipeline, "obs-bench").arg("i", black_box(i));
    }
    t0.elapsed().as_nanos() as f64 / CALLS as f64
}

fn main() {
    banner(
        "obs",
        "tracing overhead: disabled spans must stay under 2% of the hot path",
        "instrumentation lives on hot paths permanently; disabled = one relaxed load",
    );
    obs::set_tracing(false);

    let per_call_ns = disabled_call_ns();

    // Hot path: full ResNet-18 planning + timing, tracing disabled.
    let topo = resnet18();
    let mut run_s = f64::INFINITY;
    let mut baseline = None;
    for _ in 0..REPS {
        let sim = CoreSim::new(sim_config());
        let t0 = Instant::now();
        let reports = sim.simulate_topology(&topo);
        run_s = run_s.min(t0.elapsed().as_secs_f64());
        baseline = Some(reports);
    }
    let baseline = baseline.expect("REPS >= 1");

    // Events per run: enable tracing once and count what the same
    // simulation records. Doubles as the determinism check — the traced
    // reports must match the untraced ones exactly.
    let before = obs::recorded_events();
    obs::set_tracing(true);
    let sim = CoreSim::new(sim_config());
    let traced = sim.simulate_topology(&topo);
    obs::set_tracing(false);
    let events_per_run = obs::recorded_events() - before;
    assert!(events_per_run > 0, "hot path recorded no events");
    assert_eq!(
        baseline, traced,
        "tracing changed simulation results — determinism contract broken"
    );

    let overhead_pct = per_call_ns * events_per_run as f64 / (run_s * 1e9) * 100.0;

    let mut table = ResultTable::new(vec![
        "disabled_call_ns",
        "events_per_run",
        "hot_path_s",
        "overhead_pct",
        "gate_pct",
    ]);
    table.row(vec![
        format!("{per_call_ns:.3}"),
        events_per_run.to_string(),
        format!("{run_s:.4}"),
        format!("{overhead_pct:.5}"),
        format!("{GATE_PCT:.1}"),
    ]);
    table.print();
    write_csv("obs_microbench.csv", &table.to_csv());
    append_bench_json(per_call_ns, events_per_run, run_s, overhead_pct);

    assert!(
        overhead_pct < GATE_PCT,
        "disabled tracing overhead {overhead_pct:.4}% exceeds the {GATE_PCT}% gate \
         ({per_call_ns:.2} ns/call x {events_per_run} events over {run_s:.4}s)"
    );
    println!(
        "\nPASS: disabled overhead {overhead_pct:.4}% < {GATE_PCT}% \
         ({per_call_ns:.2} ns/call, {events_per_run} events/run); traced reports identical"
    );
}

/// Appends (or replaces) the `"obs_microbench"` section of the
/// `BENCH_perf.json` trajectory.
fn append_bench_json(per_call_ns: f64, events_per_run: u64, run_s: f64, overhead_pct: f64) {
    let mut section = String::new();
    let _ = writeln!(section, "  \"obs_microbench\": {{");
    let _ = writeln!(
        section,
        "    \"scenario\": \"resnet18 on 32x32 ws, disabled-span cost x event count\","
    );
    let _ = writeln!(section, "    \"disabled_call_ns\": {per_call_ns:.4},");
    let _ = writeln!(section, "    \"events_per_run\": {events_per_run},");
    let _ = writeln!(section, "    \"hot_path_s\": {run_s:.6},");
    let _ = writeln!(section, "    \"overhead_pct\": {overhead_pct:.5},");
    let _ = writeln!(section, "    \"gate_pct\": {GATE_PCT:.1},");
    let _ = writeln!(section, "    \"traced_reports_identical\": true");
    let _ = writeln!(section, "  }}");

    merge_bench_section("obs_microbench", &section);
}
