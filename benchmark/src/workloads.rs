//! The four workloads: their fixed inputs, their set-up, and one
//! measured pass each, untraced (through the public API as a user
//! calls it) and traced (through the layers' own public functions).

use crate::check::Checker;
use crate::traced::{self, Tracer};
use scalesim::api::{
    wire, AreaSpec, ConfigSource, Features, LlmRequest, Report, RunSpec, ScaleoutRequest,
    SimRequest, SimResponse, SweepRequest, TopologySource,
};
use scalesim::service::{PreparedLlm, PreparedRun, PreparedSweep, SimService};
use scalesim::sweep::SweepReport;
use scalesim::systolic::PlanCache;
use scalesim::{run_sweep_cached, serve};
use scalesim_sched::Scheduler;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["paper-resnet18", "dse-sweep", "llm-decode", "serve-mix"];

/// Set-ups repeated before each measured pass of a batch workload.
/// Their set-up is microseconds long, so `setup_s` is the median of
/// many, spread over the whole run.
pub const SETUPS_PER_PASS: usize = 25;

/// Set-ups of `serve-mix` in one run, the first included. Each is a
/// cold warm-up of seconds, so `setup_s` is the median of a few.
const SERVE_SETUPS: usize = 3;

/// A trimmed gpt2-xl decode step: four blocks and a reduced vocabulary
/// keep one cold step near a second. Every block still has the full
/// model's M = 1 GEMM shapes, so planning and plan memory keep the
/// decode profile; only the LM head is narrower.
const LLM_CFG: &str =
    "[llm]\nPreset : gpt2-xl\nPhase : decode\nContext : 512\nLayers : 4\nVocab : 8192\n";

/// `configs/example_sweep.toml`, trimmed to 8 of its 24 points (the
/// 16x64 array and the larger SRAM budget are dropped) so that one cold
/// sweep fits several times into a run. The bandwidth axis does not
/// enter the plan key, so half of the grid's plans are shared.
const SWEEP_SPEC: &str = "[sweep]\nname = example-trimmed\n[grid]\n\
    array = 16x16, 32x32\ndataflow = os, ws\nsram_kb = 256/256/128\n\
    bandwidth = 10, 20\nenergy = true\n";

/// One measured pass: its host seconds, the latency of each operation
/// in it (one for a batch workload, one per request for `serve-mix`)
/// and the simulated cycles it produced.
pub struct Pass {
    pub seconds: f64,
    pub op_seconds: Vec<f64>,
    pub sim_cycles: u64,
}

/// A set-up workload, ready for measured passes.
pub trait Workload {
    /// One pass through the public API, as a user calls it.
    fn pass(&mut self, check: &mut Checker) -> Pass;
    /// The same pass through the layers' own public functions, timed.
    fn traced_pass(&mut self, tracer: &mut Tracer, check: &mut Checker) -> Pass;
    /// Prepares the inputs again as set-up did, returning its seconds;
    /// `None` once set-up should not repeat.
    fn setup_again(&mut self, check: &mut Checker) -> Option<f64>;
    /// Whether the workload draws on `--seed`.
    fn uses_seed(&self) -> bool {
        false
    }
    /// Operations the measured phase needs at least.
    fn min_ops(&self) -> usize {
        1
    }
}

/// Sets up the named workload; returns it with the seconds set-up took.
pub fn setup(
    name: &str,
    seed: u64,
    check: &mut Checker,
) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let workload: Box<dyn Workload> = match name {
        "paper-resnet18" => {
            let spec = RunSpec {
                config: ConfigSource::Default,
                topology: TopologySource::from_workload("resnet18"),
                features: Features {
                    dram: true,
                    energy: true,
                    layout: true,
                    cores: None,
                },
            };
            let prepared = SimService::new().prepare_run(&spec).map_err(failed)?;
            Box::new(PaperResnet18 { spec, prepared })
        }
        "dse-sweep" => {
            let request = SweepRequest {
                spec: ConfigSource::Inline(SWEEP_SPEC.into()),
                base_config: ConfigSource::Default,
                topologies: vec![
                    TopologySource::from_workload("vit-small"),
                    TopologySource::from_workload("cifar-cnn"),
                ],
                shards: 1,
            };
            let prepared = SimService::new().prepare_sweep(&request).map_err(failed)?;
            Box::new(DseSweep { request, prepared })
        }
        "llm-decode" => {
            let request = llm_request();
            let prepared = SimService::new().prepare_llm(&request).map_err(failed)?;
            Box::new(LlmDecode { request, prepared })
        }
        "serve-mix" => Box::new(ServeMix::warmed_up(seed, check)),
        other => {
            return Err(format!(
                "unknown workload '{other}' (workloads: {}, all)",
                NAMES.join(", ")
            ))
        }
    };
    Ok((workload, start.elapsed().as_secs_f64()))
}

fn failed(e: scalesim::api::SimError) -> String {
    format!("set-up failed: {e}")
}

/// Times `prepare`, which succeeded once already at set-up.
fn again<T>(prepare: impl FnOnce() -> Result<T, scalesim::api::SimError>) -> (T, f64) {
    let start = Instant::now();
    let prepared = prepare().expect("set-up succeeded before with the same inputs");
    (prepared, start.elapsed().as_secs_f64())
}

/// A plan cache as fresh as a new service's.
fn fresh_cache() -> Arc<PlanCache> {
    Arc::clone(SimService::new().plan_cache())
}

fn fresh_run(run: &PreparedRun) -> PreparedRun {
    PreparedRun {
        sim: run.sim.clone().with_plan_cache(fresh_cache()),
        topology: run.topology.clone(),
    }
}

type Answer = (Vec<Report>, u64);

fn check_answer(check: &mut Checker, answer: std::thread::Result<Answer>) -> u64 {
    match answer {
        Ok((reports, cycles)) => {
            check.op(reports
                .iter()
                .map(|r| (r.name.as_str(), r.content.as_str())));
            cycles
        }
        Err(_) => {
            check.failed_op("panic");
            0
        }
    }
}

/// Times one batch operation, then checks its reports.
fn batch_pass(check: &mut Checker, op: impl FnOnce() -> Answer) -> Pass {
    let start = Instant::now();
    let answer = catch_unwind(AssertUnwindSafe(op));
    let seconds = start.elapsed().as_secs_f64();
    let sim_cycles = check_answer(check, answer);
    Pass {
        seconds,
        op_seconds: vec![seconds],
        sim_cycles,
    }
}

/// [`batch_pass`] under a pass span, recording the plan cache's and the
/// scheduler's counters around it.
fn traced_batch_pass(
    name: &str,
    tracer: &mut Tracer,
    check: &mut Checker,
    cache: &PlanCache,
    op: impl FnOnce(&mut Tracer, usize) -> Answer,
) -> Pass {
    let span = tracer.open(format!("pass:{name}"), None);
    let (cache_before, sched_before) = (cache.stats(), Scheduler::global().stats());
    let start = Instant::now();
    let answer = catch_unwind(AssertUnwindSafe(|| op(&mut *tracer, span)));
    let wall = start.elapsed();
    tracer.end_pass(span, wall, cache_before, cache.stats(), sched_before);
    let sim_cycles = check_answer(check, answer);
    Pass {
        seconds: wall.as_secs_f64(),
        op_seconds: vec![wall.as_secs_f64()],
        sim_cycles,
    }
}

/// ResNet-18 with DRAM (§V), layout (§VI) and energy (§VII) on the
/// default 32x32 output-stationary core, from a cold plan cache.
struct PaperResnet18 {
    spec: RunSpec,
    prepared: PreparedRun,
}

impl Workload for PaperResnet18 {
    fn setup_again(&mut self, _: &mut Checker) -> Option<f64> {
        let (prepared, s) = again(|| SimService::new().prepare_run(&self.spec));
        self.prepared = prepared;
        Some(s)
    }

    fn pass(&mut self, check: &mut Checker) -> Pass {
        let run = fresh_run(&self.prepared);
        batch_pass(check, || {
            let body = run.into_body();
            (body.reports, body.summary.total_cycles)
        })
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, check: &mut Checker) -> Pass {
        let run = fresh_run(&self.prepared);
        let cache = Arc::clone(run.sim.plan_cache());
        traced_batch_pass("paper-resnet18", tracer, check, &cache, |tracer, span| {
            let body = traced::run_body(tracer, &run, span);
            (body.reports, body.summary.total_cycles)
        })
    }
}

/// The trimmed example sweep over ViT-Small and cifar_cnn, one cold
/// plan cache shared by every grid point.
struct DseSweep {
    request: SweepRequest,
    prepared: PreparedSweep,
}

impl DseSweep {
    /// A cold cache sized as `run_sweep_with` sizes it: room for every
    /// point's distinct shapes, so the sweep never evicts.
    fn cache(&self) -> Arc<PlanCache> {
        let p = &self.prepared;
        let shapes = p.topologies.iter().map(|t| t.len()).sum::<usize>().max(1);
        Arc::new(PlanCache::with_capacity(
            (p.spec.grid_size() * shapes).max(PlanCache::DEFAULT_CAPACITY),
        ))
    }
}

fn sweep_answer(report: &SweepReport) -> Answer {
    let cycles = report.records().iter().map(|r| r.total_cycles).sum();
    let reports = vec![
        Report {
            name: "SWEEP_REPORT.csv".into(),
            content: report.to_csv(),
        },
        Report {
            name: "SWEEP_REPORT.json".into(),
            content: report.to_json(),
        },
    ];
    (reports, cycles)
}

impl Workload for DseSweep {
    fn setup_again(&mut self, _: &mut Checker) -> Option<f64> {
        let (prepared, s) = again(|| SimService::new().prepare_sweep(&self.request));
        self.prepared = prepared;
        Some(s)
    }

    fn pass(&mut self, check: &mut Checker) -> Pass {
        let cache = self.cache();
        let p = &self.prepared;
        batch_pass(check, || {
            let (report, _) =
                run_sweep_cached(&p.spec, &p.base, &p.topologies, p.shards, &cache, |_| {})
                    .expect("the grid is validated at set-up");
            sweep_answer(&report)
        })
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, check: &mut Checker) -> Pass {
        let cache = self.cache();
        let p = &self.prepared;
        traced_batch_pass("dse-sweep", tracer, check, &cache, |tracer, span| {
            traced::sweep(tracer, p, &cache, span)
        })
    }
}

fn llm_request() -> LlmRequest {
    LlmRequest {
        config: ConfigSource::Inline(LLM_CFG.into()),
        ..Default::default()
    }
}

/// One cold decode step of the trimmed gpt2-xl model.
struct LlmDecode {
    request: LlmRequest,
    prepared: PreparedLlm,
}

impl Workload for LlmDecode {
    fn setup_again(&mut self, _: &mut Checker) -> Option<f64> {
        let (prepared, s) = again(|| SimService::new().prepare_llm(&self.request));
        self.prepared = prepared;
        Some(s)
    }

    fn pass(&mut self, check: &mut Checker) -> Pass {
        let llm = PreparedLlm {
            run: fresh_run(&self.prepared.run),
            llm: self.prepared.llm.clone(),
        };
        batch_pass(check, || {
            let body = llm.into_body();
            (body.reports, body.summary.total_cycles)
        })
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, check: &mut Checker) -> Pass {
        // The expansion into GEMMs is set-up work: timed on its own,
        // outside the pass, and its topology is the one the pass runs.
        let start = Instant::now();
        let topology = self.prepared.llm.topology().expect("validated at set-up");
        tracer.llm_expand(start.elapsed());
        let llm = PreparedLlm {
            run: PreparedRun {
                sim: self.prepared.run.sim.clone().with_plan_cache(fresh_cache()),
                topology,
            },
            llm: self.prepared.llm.clone(),
        };
        let cache = Arc::clone(llm.run.sim.plan_cache());
        traced_batch_pass("llm-decode", tracer, check, &cache, |tracer, span| {
            let body = traced::llm_body(tracer, &llm, span);
            (body.reports, body.summary.total_cycles)
        })
    }
}

/// The serve-mix request pool as `(id, request line)` pairs.
pub fn serve_pool() -> Vec<(&'static str, String)> {
    let workload = TopologySource::from_workload;
    let run = |topology, config, features| {
        SimRequest::Run(RunSpec {
            config,
            topology,
            features,
        })
    };
    let requests = [
        (
            "run-resnet18-energy",
            run(
                workload("resnet18"),
                ConfigSource::Default,
                Features {
                    energy: true,
                    ..Default::default()
                },
            ),
        ),
        (
            "run-vit-small-2x2",
            run(
                workload("vit-small"),
                ConfigSource::Default,
                Features {
                    cores: Some("2x2".into()),
                    ..Default::default()
                },
            ),
        ),
        (
            "run-resnet18-sparse-vegeta",
            run(
                workload("resnet18"),
                ConfigSource::Inline(include_str!("../../configs/sparse_vegeta.cfg").into()),
                Features::default(),
            ),
        ),
        (
            "scaleout-resnet18-dp8",
            SimRequest::Scaleout(ScaleoutRequest {
                chips: Some(8),
                strategy: Some("data".into()),
                ..ScaleoutRequest::for_topology(workload("resnet18"))
            }),
        ),
        (
            "scaleout-vit-small-tp4-mesh",
            SimRequest::Scaleout(ScaleoutRequest {
                chips: Some(4),
                fabric: Some("mesh".into()),
                strategy: Some("tensor".into()),
                ..ScaleoutRequest::for_topology(workload("vit-small"))
            }),
        ),
        ("llm-gpt2-xl-decode", SimRequest::Llm(llm_request())),
        ("area", SimRequest::AreaReport(AreaSpec::default())),
    ];
    requests
        .into_iter()
        .map(|(id, request)| (id, wire::encode_request(Some(id), &request)))
        .collect()
}

/// Simulated cycles a response reports (0 for `area`).
fn response_cycles(line: &str) -> u64 {
    match wire::decode_response(line).1 {
        Ok(SimResponse::Run(b)) => b.summary.total_cycles,
        Ok(SimResponse::Scaleout(b)) => b.total_cycles,
        Ok(SimResponse::Llm(b)) => b.summary.total_cycles,
        _ => 0,
    }
}

/// SplitMix64: the seeded source of the request order.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher-Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// A closed loop of one client with no think time against one warm
/// `SimService`. A pass is one round: every pool request once, in a
/// seeded shuffled order, so each pass carries the same mix.
struct ServeMix {
    service: SimService,
    pool: Vec<(&'static str, String)>,
    cycles: Vec<u64>,
    order: SplitMix64,
    setups: usize,
}

/// Requests the measured phase sends at least: ten samples beyond the
/// p90 of the request latencies need 100, and a margin covers ties.
const MIN_REQUESTS: usize = 110;

impl ServeMix {
    /// Builds the service and sends each distinct request once, cold.
    fn warmed_up(seed: u64, check: &mut Checker) -> Self {
        let pool = serve_pool();
        let (service, cycles) = warm_service(&pool, check);
        Self {
            service,
            pool,
            cycles,
            order: SplitMix64(seed),
            setups: 1,
        }
    }
}

/// A new service that has answered every pool request once, with the
/// simulated cycles of each answer.
fn warm_service(pool: &[(&'static str, String)], check: &mut Checker) -> (SimService, Vec<u64>) {
    let service = SimService::new();
    let cycles = pool
        .iter()
        .map(|(id, line)| {
            let response = serve::handle_line(&service, line);
            check.op([(*id, response.as_str())]);
            response_cycles(&response)
        })
        .collect();
    (service, cycles)
}

impl Workload for ServeMix {
    fn setup_again(&mut self, check: &mut Checker) -> Option<f64> {
        if self.setups == SERVE_SETUPS {
            return None;
        }
        self.setups += 1;
        // Free the warm service first, so two are never resident at once.
        self.service = SimService::new();
        let start = Instant::now();
        let pool = serve_pool();
        let (service, _) = warm_service(&pool, check);
        let seconds = start.elapsed().as_secs_f64();
        self.service = service;
        Some(seconds)
    }

    fn pass(&mut self, check: &mut Checker) -> Pass {
        let order = self.order.permutation(self.pool.len());
        let start = Instant::now();
        let mut op_seconds = Vec::with_capacity(order.len());
        for &i in &order {
            let (id, line) = &self.pool[i];
            let sent = Instant::now();
            let response = serve::handle_line(&self.service, line);
            op_seconds.push(sent.elapsed().as_secs_f64());
            check.op([(*id, response.as_str())]);
        }
        Pass {
            seconds: start.elapsed().as_secs_f64(),
            op_seconds,
            sim_cycles: self.cycles.iter().sum(),
        }
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, check: &mut Checker) -> Pass {
        let order = self.order.permutation(self.pool.len());
        let cache = self.service.plan_cache();
        let span = tracer.open("pass:serve-mix", None);
        let (cache_before, sched_before) = (cache.stats(), Scheduler::global().stats());
        let start = Instant::now();
        let mut op_seconds = Vec::with_capacity(order.len());
        for &i in &order {
            let (id, line) = &self.pool[i];
            let sent = Instant::now();
            let response = traced::request(tracer, &self.service, line, span);
            op_seconds.push(sent.elapsed().as_secs_f64());
            check.op([(*id, response.as_str())]);
        }
        let wall = start.elapsed();
        tracer.end_pass(span, wall, cache_before, cache.stats(), sched_before);
        Pass {
            seconds: wall.as_secs_f64(),
            op_seconds,
            sim_cycles: self.cycles.iter().sum(),
        }
    }

    fn uses_seed(&self) -> bool {
        true
    }

    fn min_ops(&self) -> usize {
        MIN_REQUESTS
    }
}
