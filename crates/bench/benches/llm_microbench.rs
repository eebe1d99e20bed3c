//! Prefill-vs-decode microbench of the LLM workload subsystem.
//!
//! One llama-style model (scaled down so the bench finishes in seconds)
//! runs through both inference phases on the same core:
//!
//! * **Prefill** processes the whole prompt at once — `M = batch · seq`
//!   GEMMs keep the array busy, so utilization is high.
//! * **Decode** emits one token per step — `M = batch` skinny GEMMs
//!   against the KV cache leave most PE columns idle, so utilization
//!   collapses. The gap is the core result the subsystem exists to
//!   expose (gated below: decode must stay strictly under prefill).
//! * **KV growth** — decode at a 8x longer context does strictly more
//!   work (the attention GEMMs' K/N dimensions carry the cache), while
//!   utilization stays decode-low.
//!
//! Run with: `cargo bench --bench llm_microbench`

use scalesim::api::{ConfigSource, LlmRequest};
use scalesim::service::SimService;
use scalesim::RunSummary;
use scalesim_bench::{banner, merge_bench_section, write_csv, ResultTable};
use std::fmt::Write as _;
use std::time::Instant;

/// A llama-shaped model scaled to bench size: GQA (8 heads over 2
/// KV heads), gated FFN, real vocab-sized LM head.
const MODEL_CFG: &str = "[llm]\nPreset : llama-7b\nLayers : 4\nDModel : 512\n\
     Heads : 8\nKvHeads : 2\nDFf : 1376\nVocab : 8192\nSeq : 128\nBatch : 1\n";

struct Row {
    scenario: &'static str,
    phase: &'static str,
    context: usize,
    wall_s: f64,
    total_cycles: u64,
    utilization: f64,
}

fn run(service: &SimService, phase: &'static str, context: Option<usize>) -> Row {
    let req = LlmRequest {
        config: ConfigSource::Inline(MODEL_CFG.into()),
        phase: Some(phase.into()),
        context,
        ..Default::default()
    };
    let t0 = Instant::now();
    let prepared = service.prepare_llm(&req).expect("valid request");
    let context = prepared.llm.effective_context();
    let mut summary = RunSummary::new();
    prepared.run.run_into(&mut summary);
    Row {
        scenario: "",
        phase,
        context,
        wall_s: t0.elapsed().as_secs_f64(),
        total_cycles: summary.total_cycles,
        utilization: summary.utilization(),
    }
}

fn main() {
    banner(
        "llm",
        "prefill vs decode on one llama-style model: the utilization gap",
        "prefill batches the prompt into wide GEMMs; decode streams skinny ones",
    );

    let service = SimService::new();
    let mut prefill = run(&service, "prefill", None);
    prefill.scenario = "prefill seq=128";
    let mut decode = run(&service, "decode", None);
    decode.scenario = "decode ctx=128";
    let mut decode_long = run(&service, "decode", Some(1024));
    decode_long.scenario = "decode ctx=1024";

    // The gates: the phase gap and KV-cache growth, not wall clock.
    assert!(
        decode.utilization < prefill.utilization,
        "decode utilization ({:.4}) must be strictly below prefill ({:.4})",
        decode.utilization,
        prefill.utilization,
    );
    assert!(
        decode_long.total_cycles > decode.total_cycles,
        "a longer context must cost decode more cycles ({} vs {})",
        decode_long.total_cycles,
        decode.total_cycles,
    );

    let rows = [prefill, decode, decode_long];
    let mut table = ResultTable::new(vec![
        "scenario",
        "phase",
        "context",
        "wall_s",
        "total_cycles",
        "utilization",
    ]);
    for r in &rows {
        table.row(vec![
            r.scenario.to_string(),
            r.phase.to_string(),
            r.context.to_string(),
            format!("{:.4}", r.wall_s),
            r.total_cycles.to_string(),
            format!("{:.4}", r.utilization),
        ]);
    }
    table.print();
    write_csv("llm_microbench.csv", &table.to_csv());
    append_bench_json(&rows);
}

/// Appends (or replaces) the `"llm_microbench"` section of the
/// `BENCH_perf.json` trajectory.
fn append_bench_json(rows: &[Row]) {
    let gap = rows[0].utilization / rows[1].utilization.max(1e-9);
    let mut section = String::new();
    let _ = writeln!(section, "  \"llm_microbench\": {{");
    let _ = writeln!(
        section,
        "    \"scenario\": \"llama-style 4x512 GQA model, prefill vs decode\","
    );
    let _ = writeln!(section, "    \"points\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            section,
            "      {{\"scenario\": \"{}\", \"phase\": \"{}\", \"context\": {}, \
             \"wall_s\": {:.6}, \"total_cycles\": {}, \"utilization\": {:.4}}}{}",
            r.scenario,
            r.phase,
            r.context,
            r.wall_s,
            r.total_cycles,
            r.utilization,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    let _ = writeln!(section, "    ],");
    let _ = writeln!(section, "    \"prefill_over_decode_utilization\": {gap:.2}");
    let _ = writeln!(section, "  }}");

    merge_bench_section("llm_microbench", &section);
}
