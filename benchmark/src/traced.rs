//! The traced run: the benchmark's own code calls each layer's public
//! functions — the stock pipeline stages through `LayerStage::run`, the
//! plan cache, the scheduler, the sweep and api codecs — and times every
//! call, keeping spans in memory until the run ends. The program's own
//! span recording (`crates/obs`) stays off.

use crate::stats::Metric;
use scalesim::api::{wire, LlmBody, Report, RunBody, SimError, SimRequest, SimResponse};
use scalesim::pipeline::{
    ComputeStage, DramStage, EnergyStage, LayerStage, LayoutStage, SparseStorageStage,
    SparsifyStage,
};
use scalesim::service::{summary_body, PreparedLlm, PreparedRun, PreparedSweep, SimService};
use scalesim::sweep::{RunRecord, SweepPoint, SweepReport};
use scalesim::systolic::{
    parallel_map, parallel_map_streamed, Dataflow, Layer, PlanCache, PlanCacheStats, Topology,
};
use scalesim::{
    apply_point, LayerCtx, LayerResult, MemoryReportSink, ReportSections, ResultSink, RunSummary,
    ScaleSim, ScaleSimConfig,
};
use scalesim_sched::{with_priority, worker_index, Priority, SchedStats, Scheduler};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer started.
struct Span {
    name: String,
    start: u64,
    end: u64,
    parent: Option<usize>,
    /// Scheduler worker that ran it (`None`: the calling thread).
    worker: Option<usize>,
}

/// Calls and busy time of one stage, plus the simulated cycles of the
/// layers it ran on.
#[derive(Debug, Default, Clone, Copy)]
struct StageCount {
    calls: u64,
    ns: u64,
    sim_cycles: u64,
}

/// One layer's trip through the stages, recorded on whichever worker
/// ran it and merged into the tracer in layer order.
pub struct LayerTrace {
    name: String,
    start: Instant,
    end: Instant,
    worker: Option<usize>,
    stages: Vec<(&'static str, Instant, Instant)>,
    dram_lines: u64,
    sim_cycles: u64,
}

/// Spans plus the per-layer counters they feed.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stages: BTreeMap<&'static str, StageCount>,
    dram_lines: u64,
    report_ns: u64,
    report_bytes: u64,
    cache: PlanCacheStats,
    cache_resident_bytes: u64,
    steals: u64,
    park_wakeups: u64,
    passes: u64,
    pass_ns: u64,
    sweep_runs: u64,
    pareto_ns: u64,
    expand_ns: u64,
    requests: u64,
    decode_ns: u64,
    encode_ns: u64,
    response_bytes: u64,
    service: BTreeMap<&'static str, (u64, u64)>,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stages: BTreeMap::new(),
            dram_lines: 0,
            report_ns: 0,
            report_bytes: 0,
            cache: PlanCacheStats {
                hits: 0,
                misses: 0,
                plans: 0,
                evictions: 0,
                resident_bytes: 0,
            },
            cache_resident_bytes: 0,
            steals: 0,
            park_wakeups: 0,
            passes: 0,
            pass_ns: 0,
            sweep_runs: 0,
            pareto_ns: 0,
            expand_ns: 0,
            requests: 0,
            decode_ns: 0,
            encode_ns: 0,
            response_bytes: 0,
            service: BTreeMap::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        ns(t.saturating_duration_since(self.epoch))
    }

    /// Records a finished span of the calling thread under `parent`.
    pub fn span(&mut self, name: &str, start: Instant, end: Instant, parent: usize) {
        self.push(name.to_string(), start, end, Some(parent), worker_index());
    }

    fn push(
        &mut self,
        name: String,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        worker: Option<usize>,
    ) -> usize {
        let (start, end) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            worker,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is set by [`close`](Self::close), so
    /// children recorded meanwhile can name it as their parent.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(name.into(), now, now, parent, worker_index())
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.at(Instant::now());
    }

    /// Merges one layer's trace under `parent`.
    pub fn layer(&mut self, layer: LayerTrace, parent: usize) {
        let id = self.push(
            layer.name,
            layer.start,
            layer.end,
            Some(parent),
            layer.worker,
        );
        for (stage, start, end) in layer.stages {
            self.push(stage.to_string(), start, end, Some(id), layer.worker);
            let c = self.stages.entry(stage).or_default();
            c.calls += 1;
            c.ns += ns(end - start);
            c.sim_cycles += layer.sim_cycles;
        }
        self.dram_lines += layer.dram_lines;
    }

    /// Closes a measured pass: its wall time, the plan cache it used
    /// (counters relative to `cache_before`) and the scheduler's
    /// counters relative to `sched_before`.
    pub fn end_pass(
        &mut self,
        span: usize,
        wall: Duration,
        cache_before: PlanCacheStats,
        cache_after: PlanCacheStats,
        sched_before: SchedStats,
    ) {
        self.close(span);
        let sched = Scheduler::global().stats();
        self.passes += 1;
        self.pass_ns += ns(wall);
        self.cache.hits += cache_after.hits - cache_before.hits;
        self.cache.misses += cache_after.misses - cache_before.misses;
        self.cache.evictions += cache_after.evictions - cache_before.evictions;
        self.cache_resident_bytes += cache_after.resident_bytes as u64;
        self.steals += sched.steals - sched_before.steals;
        self.park_wakeups += sched.park_wakeups - sched_before.park_wakeups;
    }

    pub fn sweep(&mut self, runs: usize, pareto: Duration) {
        self.sweep_runs += runs as u64;
        self.pareto_ns += ns(pareto);
    }

    pub fn llm_expand(&mut self, expand: Duration) {
        self.expand_ns += ns(expand);
    }

    /// One served request, split into its codec and service calls.
    pub fn request(
        &mut self,
        kind: &'static str,
        decode: Duration,
        handle: Duration,
        encode: Duration,
        bytes: usize,
    ) {
        self.requests += 1;
        self.decode_ns += ns(decode);
        self.encode_ns += ns(encode);
        self.response_bytes += bytes as u64;
        let s = self.service.entry(kind).or_default();
        s.0 += 1;
        s.1 += ns(handle);
    }

    /// Every per-layer metric, normalised per traced pass (counts and
    /// busy times) or per request (codec figures).
    pub fn metrics(&self, overhead_frac: f64) -> Vec<Metric> {
        let passes = self.passes.max(1) as f64;
        let stage = |name: &str| self.stages.get(name).copied().unwrap_or_default();
        let per_pass_s = |ns: u64| ns as f64 / 1e9 / passes;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let (layout, dram, compute, energy) = (
            stage("layout"),
            stage("dram"),
            stage("compute"),
            stage("energy"),
        );
        let busy_ns: u64 = self.stages.values().map(|c| c.ns).sum();
        // The calling thread helps inside scopes, so stages run on one
        // more thread than the pool has workers.
        let threads = (Scheduler::global().workers() + 1) as f64;
        let requests = self.requests as f64;
        let lookups = (self.cache.hits + self.cache.misses) as f64;
        let service_ms = |kind: &str| {
            let (n, ns) = self.service.get(kind).copied().unwrap_or_default();
            ratio(ns as f64 / 1e6, n as f64)
        };
        vec![
            Metric::new("layout.busy_s", "s", per_pass_s(layout.ns)),
            Metric::new(
                "layout.ns_per_sim_cycle",
                "ns",
                ratio(layout.ns as f64, layout.sim_cycles as f64),
            ),
            Metric::new("dram.busy_s", "s", per_pass_s(dram.ns)),
            Metric::new(
                "dram.line_requests",
                "count",
                self.dram_lines as f64 / passes,
            ),
            Metric::new(
                "dram.ns_per_line_request",
                "ns",
                ratio(dram.ns as f64, self.dram_lines as f64),
            ),
            Metric::new("compute.calls", "count", compute.calls as f64 / passes),
            Metric::new("compute.busy_s", "s", per_pass_s(compute.ns)),
            Metric::new(
                "compute.ns_per_sim_cycle",
                "ns",
                ratio(compute.ns as f64, compute.sim_cycles as f64),
            ),
            Metric::new("energy.busy_s", "s", per_pass_s(energy.ns)),
            Metric::new("plan_cache.hits", "count", self.cache.hits as f64 / passes),
            Metric::new(
                "plan_cache.misses",
                "count",
                self.cache.misses as f64 / passes,
            ),
            Metric::new(
                "plan_cache.hit_rate",
                "ratio",
                ratio(self.cache.hits as f64, lookups),
            ),
            Metric::new(
                "plan_cache.evictions",
                "count",
                self.cache.evictions as f64 / passes,
            ),
            Metric::new(
                "plan_cache.resident_mb",
                "MB",
                self.cache_resident_bytes as f64 / passes / (1 << 20) as f64,
            ),
            Metric::new("sched.steals", "count", self.steals as f64 / passes),
            Metric::new(
                "sched.park_wakeups",
                "count",
                self.park_wakeups as f64 / passes,
            ),
            Metric::new(
                "sched.worker_util",
                "ratio",
                ratio(busy_ns as f64, self.pass_ns as f64 * threads),
            ),
            Metric::new("sweep.runs", "count", self.sweep_runs as f64 / passes),
            Metric::new("sweep.pareto_s", "s", per_pass_s(self.pareto_ns)),
            Metric::new("llm.expand_s", "s", per_pass_s(self.expand_ns)),
            Metric::new(
                "api.decode_us",
                "us",
                ratio(self.decode_ns as f64 / 1e3, requests),
            ),
            Metric::new(
                "api.encode_us",
                "us",
                ratio(self.encode_ns as f64 / 1e3, requests),
            ),
            Metric::new(
                "api.response_kb",
                "KB",
                ratio(self.response_bytes as f64 / 1024.0, requests),
            ),
            Metric::new("report.busy_s", "s", per_pass_s(self.report_ns)),
            Metric::new(
                "report.kb",
                "KB",
                self.report_bytes as f64 / 1024.0 / passes,
            ),
            Metric::new("service.run_ms", "ms", service_ms("run")),
            Metric::new("service.scaleout_ms", "ms", service_ms("scaleout")),
            Metric::new("service.llm_ms", "ms", service_ms("llm")),
            Metric::new("bench.trace_overhead_frac", "ratio", overhead_frac),
        ]
    }

    /// Writes the spans as a JSON array of
    /// `{id, name, start_ns, end_ns, parent, worker}` objects.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"worker\": {}}}{sep}",
                scalesim::api::json::escape(&s.name),
                s.start,
                s.end,
                opt(s.parent),
                opt(s.worker)
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }

    /// Self time (span duration minus the part its children cover)
    /// summed per span name, largest first. Children never overlap
    /// their parent's other children on one thread, but layer spans of
    /// one parent run concurrently on several workers, so their sum is
    /// capped at the parent's duration.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end - s.start;
            let key = s.name.split(':').next().unwrap_or(&s.name).to_string();
            *by_name.entry(key).or_default() += own.saturating_sub(child);
        }
        let mut v: Vec<(String, f64)> = by_name
            .into_iter()
            .map(|(k, ns)| (k, ns as f64 / 1e9))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}

/// The stock stage object for each stage name the pipeline builder
/// uses, so the traced run executes exactly the pipeline the engine
/// would for any configuration.
fn stock_stages(sim: &ScaleSim) -> Vec<&'static dyn LayerStage> {
    sim.pipeline()
        .stage_names()
        .into_iter()
        .map(|name| -> &'static dyn LayerStage {
            match name {
                "sparsify" => &SparsifyStage,
                "compute" => &ComputeStage,
                "dram" => &DramStage,
                "layout" => &LayoutStage,
                "sparse" => &SparseStorageStage,
                "energy" => &EnergyStage,
                other => panic!("pipeline stage '{other}' has no stock implementation"),
            }
        })
        .collect()
}

fn run_layer(
    sim: &ScaleSim,
    stages: &[&'static dyn LayerStage],
    layer: &Layer,
) -> (LayerResult, LayerTrace) {
    let env = sim.pipeline().env();
    let start = Instant::now();
    let mut ctx = LayerCtx::new(layer.name(), layer.gemm());
    let mut timed = Vec::with_capacity(stages.len());
    for stage in stages {
        let t0 = Instant::now();
        stage.run(env, &mut ctx);
        timed.push((stage.name(), t0, Instant::now()));
    }
    let dram_lines = ctx.dram.as_ref().map_or(0, |d| d.line_requests as u64);
    let result = ctx.into_result();
    let trace = LayerTrace {
        name: format!("layer:{}", layer.name()),
        start,
        end: Instant::now(),
        worker: worker_index(),
        stages: timed,
        dram_lines,
        sim_cycles: result.total_cycles(),
    };
    (result, trace)
}

/// Runs a topology through the stock stages with the engine's own
/// fan-out (`parallel_map_streamed` in blocks of `STREAM_BLOCK`),
/// handing each layer to `consume` in layer order.
pub fn run_topology(
    sim: &ScaleSim,
    topology: &Topology,
    mut consume: impl FnMut(LayerResult, LayerTrace),
) {
    let stages = stock_stages(sim);
    parallel_map_streamed(
        topology.layers(),
        scalesim::STREAM_BLOCK,
        |_, layer| run_layer(sim, &stages, layer),
        |_, (result, trace)| consume(result, trace),
    );
}

/// A run request's body, assembled stage by stage: the same summary
/// and report bytes `PreparedRun::into_body` produces.
pub fn run_body(tracer: &mut Tracer, run: &PreparedRun, parent: usize) -> RunBody {
    let mut sink = MemoryReportSink::new(ReportSections::for_config(run.sim.config()));
    let mut summary = RunSummary::new();
    let mut report = Duration::ZERO;
    run_topology(&run.sim, &run.topology, |result, trace| {
        tracer.layer(trace, parent);
        let t0 = Instant::now();
        summary.add(&result);
        sink.layer(result);
        report += t0.elapsed();
    });
    let t0 = Instant::now();
    let reports: Vec<Report> = sink
        .finish()
        .into_iter()
        .map(|(name, content)| Report {
            name: name.to_string(),
            content,
        })
        .collect();
    let t1 = Instant::now();
    tracer.span("report.finish", t0, t1, parent);
    report += t1 - t0;
    tracer.report_ns += ns(report);
    tracer.report_bytes += reports.iter().map(|r| r.content.len() as u64).sum::<u64>();
    RunBody {
        summary: summary_body(&summary),
        reports,
    }
}

/// An llm request's body, assembled as `PreparedLlm::into_body` does
/// around a traced [`run_body`].
pub fn llm_body(tracer: &mut Tracer, llm: &PreparedLlm, parent: usize) -> LlmBody {
    let body = run_body(tracer, &llm.run, parent);
    let context = llm.llm.effective_context();
    LlmBody {
        workload: llm.llm.spec.name.clone(),
        phase: llm.llm.phase.tag().to_string(),
        context: context as u64,
        params: llm.llm.spec.param_count(),
        kv_cache_bytes: llm.llm.spec.kv_cache_bytes(context),
        summary: body.summary,
        reports: body.reports,
    }
}

fn dataflow_tag(d: Dataflow) -> &'static str {
    match d {
        Dataflow::OutputStationary => "os",
        Dataflow::WeightStationary => "ws",
        Dataflow::InputStationary => "is",
    }
}

/// The sweep record of one single-chip run, as the sweep runner
/// reduces it.
fn sweep_record(
    run: usize,
    point: &SweepPoint,
    cfg: &ScaleSimConfig,
    topology: &Topology,
    s: &RunSummary,
) -> RunRecord {
    let mem = &cfg.core.memory;
    let kb = |words: usize| words * mem.bytes_per_word / 1024;
    RunRecord {
        run,
        point: point.index,
        point_label: point.label(),
        topology: topology.name().to_string(),
        array_rows: cfg.core.array.rows(),
        array_cols: cfg.core.array.cols(),
        dataflow: dataflow_tag(cfg.core.dataflow).to_string(),
        sram_kb: (
            kb(mem.ifmap_words),
            kb(mem.filter_words),
            kb(mem.ofmap_words),
        ),
        bandwidth: mem.dram_bandwidth,
        cores: cfg.multicore.as_ref().map_or(1, |mc| mc.grid.cores()),
        dram_enabled: cfg.enable_dram,
        energy_enabled: cfg.enable_energy,
        layout_enabled: cfg.enable_layout,
        layers: s.layers,
        total_cycles: s.total_cycles,
        compute_cycles: s.compute_cycles,
        stall_cycles: s.stall_cycles,
        utilization: s.utilization(),
        macs: s.macs,
        energy_mj: s.energy_mj(),
        edp_cycles_mj: s.edp_cycles_mj(),
        noc_words: s.noc_words,
    }
}

/// The sweep, point by point: every `(point, topology)` run as one
/// Batch-class task (as the sweep executor runs a single shard), each
/// point applied with `apply_point` over the one shared `cache`.
pub fn sweep(
    tracer: &mut Tracer,
    p: &PreparedSweep,
    cache: &Arc<PlanCache>,
    parent: usize,
) -> (Vec<Report>, u64) {
    assert!(
        p.base.scaleout.is_none() && p.base.llm.is_none(),
        "the traced sweep covers single-chip grids only"
    );
    let grid = p.spec.expand();
    let topologies = p.topologies.len();
    let runs: Vec<usize> = (0..grid.len() * topologies).collect();
    let done = with_priority(Priority::Batch, || {
        parallel_map(&runs, |_, &run| {
            let (point, topology) = (&grid[run / topologies], &p.topologies[run % topologies]);
            let cfg = apply_point(&p.base, point);
            let sim = ScaleSim::new_with_cache(cfg.clone(), Arc::clone(cache));
            let start = Instant::now();
            let mut summary = RunSummary::new();
            let mut layers = Vec::with_capacity(topology.len());
            run_topology(&sim, topology, |result, trace| {
                summary.add(&result);
                layers.push(trace);
            });
            let record = sweep_record(run, point, &cfg, topology, &summary);
            (record, layers, start, Instant::now(), worker_index())
        })
    });
    let mut records = Vec::with_capacity(done.len());
    for (record, layers, start, end, worker) in done {
        let name = format!("run:{}:{}", record.point_label, record.topology);
        let id = tracer.push(name, start, end, Some(parent), worker);
        for layer in layers {
            tracer.layer(layer, id);
        }
        records.push(record);
    }
    let start = Instant::now();
    let report = SweepReport::new(p.spec.name.clone(), records);
    let answer = (
        vec![
            Report {
                name: "SWEEP_REPORT.csv".into(),
                content: report.to_csv(),
            },
            Report {
                name: "SWEEP_REPORT.json".into(),
                content: report.to_json(),
            },
        ],
        report.records().iter().map(|r| r.total_cycles).sum(),
    );
    let end = Instant::now();
    tracer.span("sweep.pareto", start, end, parent);
    tracer.sweep(report.records().len(), end - start);
    answer
}

/// One served request, split as `serve::handle_line` runs it: decode,
/// the service call, encode. `run` and `llm` requests go through the
/// traced stage-by-stage path; the others through `SimService::handle`.
pub fn request(tracer: &mut Tracer, service: &SimService, line: &str, parent: usize) -> String {
    let span = tracer.open("request", Some(parent));
    let t0 = Instant::now();
    let decoded = wire::decode_request_full(line);
    let t1 = Instant::now();
    tracer.span("api.decode", t0, t1, span);
    let kind = decoded.request.as_ref().map_or("invalid", SimRequest::tag);
    let handle = tracer.open(format!("service.{kind}"), Some(span));
    let result = match decoded.request {
        Ok(request) => catch_unwind(AssertUnwindSafe(|| match &request {
            SimRequest::Run(spec) => service
                .prepare_run(spec)
                .map(|run| SimResponse::Run(run_body(tracer, &run, handle))),
            SimRequest::Llm(llm) => service
                .prepare_llm(llm)
                .map(|llm| SimResponse::Llm(llm_body(tracer, &llm, handle))),
            other => service.handle(other),
        }))
        .unwrap_or_else(|payload| Err(SimError::from_panic(payload))),
        Err(e) => Err(e),
    };
    tracer.close(handle);
    let t2 = Instant::now();
    let response = wire::encode_response(decoded.id.as_deref(), &result);
    let t3 = Instant::now();
    tracer.span("api.encode", t2, t3, span);
    tracer.close(span);
    tracer.request(kind, t1 - t0, t2 - t1, t3 - t2, response.len());
    response
}
