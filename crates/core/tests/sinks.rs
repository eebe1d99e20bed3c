//! Behavioral coverage for the [`ResultSink`] implementations beyond
//! the byte-equivalence tests in `src/sink.rs`: the one report emitter,
//! `MemoryReportSink`, writes each section header exactly once and
//! follows the lazy-section policy.

use scalesim::{
    LayerResult, MemoryReportSink, ReportSections, ResultSink, ScaleSim, ScaleSimConfig,
};
use scalesim_systolic::{ArrayShape, Layer, MemoryConfig, Topology};

fn config() -> ScaleSimConfig {
    let mut config = ScaleSimConfig::default();
    config.core.array = ArrayShape::new(8, 8);
    config.core.memory = MemoryConfig::from_kilobytes(16, 16, 8, 2);
    config.enable_energy = true;
    config
}

fn layers(n: usize) -> Vec<LayerResult> {
    let sim = ScaleSim::new(config());
    let topo = Topology::from_layers(
        "t",
        (0..n)
            .map(|i| Layer::gemm_layer(format!("l{i}"), 16 + 8 * (i % 3), 16, 24))
            .collect(),
    );
    sim.run_topology(&topo).layers
}

#[test]
fn csv_sink_writes_each_header_exactly_once() {
    let mut sink = MemoryReportSink::new(ReportSections::for_config(&config()));
    for l in layers(7) {
        sink.layer(l);
    }
    let reports = sink.finish();
    let names: Vec<_> = reports.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names,
        [
            "COMPUTE_REPORT.csv",
            "BANDWIDTH_REPORT.csv",
            "ENERGY_REPORT.csv"
        ]
    );
    for (file, text) in &reports {
        let header = text.lines().next().unwrap().to_string();
        assert_eq!(
            text.lines().filter(|l| **l == header).count(),
            1,
            "{file}: header must appear exactly once"
        );
        assert_eq!(text.lines().count(), 8, "{file}: 1 header + 7 rows");
    }
}

/// The in-memory report sink (what serve-mode responses are built from)
/// matches the batch emitters byte for byte, including the lazy-section
/// policy.
#[test]
fn memory_sink_matches_batch_emitters() {
    let cfg = config();
    let sim = ScaleSim::new(cfg.clone());
    let topo = Topology::from_layers(
        "t",
        vec![
            Layer::gemm_layer("a", 16, 16, 16),
            Layer::gemm_layer("b", 24, 24, 24),
        ],
    );
    let run = sim.run_topology(&topo);
    let mut sink = MemoryReportSink::new(ReportSections::for_config(&cfg));
    for l in &run.layers {
        sink.layer(l.clone());
    }
    let reports = sink.finish();
    let by_name = |name: &str| {
        reports
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("missing {name}"))
            .1
            .clone()
    };
    assert_eq!(by_name("COMPUTE_REPORT.csv"), run.compute_report_csv());
    assert_eq!(by_name("BANDWIDTH_REPORT.csv"), run.bandwidth_report_csv());
    assert_eq!(by_name("ENERGY_REPORT.csv"), run.energy_report_csv());
    assert!(
        !reports.iter().any(|(n, _)| *n == "SPARSE_REPORT.csv"),
        "dense run contributes no sparse report"
    );

    // Zero layers: always-on sections are header-only, optional ones
    // absent.
    let empty = MemoryReportSink::new(ReportSections::for_config(&cfg)).finish();
    assert_eq!(empty.len(), 2);
    assert_eq!(empty[0].0, "COMPUTE_REPORT.csv");
    assert_eq!(
        empty[0].1,
        scalesim::RunResult::default().compute_report_csv()
    );
}
