//! The request/response facade: [`SimService`] executes typed
//! [`SimRequest`]s from the `scalesim-api` crate.
//!
//! This is the **single choke point** for every scenario the simulator
//! supports: the CLI binary, the persistent `scalesim serve` mode and
//! embedding tools all build a [`SimRequest`] and go through here, so
//! input loading, validation and the [`SimError`] taxonomy behave
//! identically everywhere. Nothing on this path panics on user input —
//! every failure surfaces as a typed error.
//!
//! The service owns one [`PlanCache`] shared by **all** requests it
//! handles: a persistent server re-planning nothing for repeated
//! workloads is the point of serve mode. Requests are otherwise
//! isolated — each builds its own engine from its own configuration —
//! and report bytes never depend on the cache's contents (only planning
//! time does), so serve-mode responses are byte-identical to one-shot
//! CLI runs.
//!
//! ```
//! use scalesim::service::SimService;
//! use scalesim::api::{Features, RunSpec, SimRequest, SimResponse, TopologySource};
//!
//! let service = SimService::new();
//! let request = SimRequest::Run(RunSpec {
//!     config: Default::default(),
//!     topology: TopologySource::inline("demo", "l0, 32, 32, 32,\n"),
//!     features: Features { energy: true, ..Default::default() },
//! });
//! let SimResponse::Run(body) = service.handle(&request).unwrap() else {
//!     panic!("run request answers with a run body")
//! };
//! assert!(body.summary.total_cycles > 0);
//! assert!(body.reports.iter().any(|r| r.name == "ENERGY_REPORT.csv"));
//! ```

use crate::cancel::CancelToken;
use crate::cfg::parse_cfg;
use crate::config::{MultiCoreIntegration, ScaleSimConfig};
use crate::engine::{ScaleSim, StreamStats};
use crate::metrics::ServeMetrics;
use crate::result::LayerResult;
use crate::scaleout::{run_scaleout, MemoryScaleoutSink, ScaleoutSink, ScaleoutSummary};
use crate::sink::{MemoryReportSink, ReportSections, ResultSink, RunSummary};
use crate::sweep_run::run_sweep_cached;
use scalesim_api::{
    AreaBody, AreaSpec, ConfigSource, Features, LlmBody, LlmRequest, Report, RunBody, RunSpec,
    RunSummaryBody, ScaleoutBody, ScaleoutRequest, SimError, SimRequest, SimResponse, StatsBody,
    SweepBody, SweepRequest, TopologyFormat, TopologySource, TraceBody, VersionBody, API_VERSION,
};
use scalesim_collective::{FabricTag, ScaleoutSpec, Strategy};
use scalesim_energy::AreaBreakdown;
use scalesim_llm::{LlmRunSpec, LlmSpec, Phase};
use scalesim_multicore::{L2Config, PartitionGrid, PartitionScheme};
use scalesim_sweep::{SweepReport, SweepSpec};
use scalesim_systolic::{PlanCache, PlanCacheStats, Topology};
use std::path::Path;
use std::sync::Arc;

/// Plan-cache capacity of a fresh service: large enough that a serve
/// process cycling through many workloads and grids rarely evicts
/// (plans are small; capacity bounds memory, never results).
pub const SERVICE_CACHE_CAPACITY: usize = 4096;

/// Builds the shared plan cache a fresh service uses. With
/// `SCALESIM_CACHE_BUDGET_MB` set to a positive integer, the cache is
/// bounded by resident plan *bytes* with cost-aware eviction
/// ([`PlanCache::with_budget`]); otherwise it is count-capped at
/// [`SERVICE_CACHE_CAPACITY`]. Cache shape never changes results —
/// only planning time.
fn cache_from_env() -> Arc<PlanCache> {
    match std::env::var("SCALESIM_CACHE_BUDGET_MB")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&mb| mb > 0)
    {
        Some(mb) => Arc::new(PlanCache::with_budget(mb.saturating_mul(1024 * 1024))),
        None => Arc::new(PlanCache::with_capacity(SERVICE_CACHE_CAPACITY)),
    }
}

/// Executes [`SimRequest`]s against a persistent shared [`PlanCache`],
/// answering `stats` requests from shared [`ServeMetrics`] (recorded by
/// the serve loop; a one-shot CLI service reports all-zero counters).
#[derive(Debug, Clone)]
pub struct SimService {
    cache: Arc<PlanCache>,
    metrics: Arc<ServeMetrics>,
}

impl Default for SimService {
    fn default() -> Self {
        Self::new()
    }
}

impl SimService {
    /// A service with a fresh plan cache: byte-budgeted when
    /// `SCALESIM_CACHE_BUDGET_MB` is set, else count-capped at
    /// [`SERVICE_CACHE_CAPACITY`].
    pub fn new() -> Self {
        Self {
            cache: cache_from_env(),
            metrics: Arc::new(ServeMetrics::new()),
        }
    }

    /// A service sharing an existing plan cache (metrics start fresh).
    pub fn with_plan_cache(cache: Arc<PlanCache>) -> Self {
        Self {
            cache,
            metrics: Arc::new(ServeMetrics::new()),
        }
    }

    /// The plan cache every request handled by this service shares.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The serving metrics `stats` requests report. Clones of this
    /// service (e.g. one per worker thread) share the same counters.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Executes one request, producing the matching response variant.
    ///
    /// # Errors
    ///
    /// Every failure is a categorized [`SimError`]; no input can panic
    /// this path (the serve loop additionally catches panics as a last
    /// line of defense and reports them as `internal`).
    pub fn handle(&self, request: &SimRequest) -> Result<SimResponse, SimError> {
        self.handle_cancellable(request, None)
    }

    /// Executes one request under an optional deadline token.
    ///
    /// Cancellation is cooperative and checked at stage boundaries:
    /// a `run` checks between every pipeline stage of every layer; a
    /// `sweep` or `scaleout` checks between its phases (load/validate,
    /// execute, package) but not inside the grid or collective
    /// execution, so those overshoot by at most one phase. An expired
    /// token never yields a partial body — the request answers the
    /// typed `deadline` error and nothing else.
    ///
    /// # Errors
    ///
    /// As [`handle`](Self::handle), plus `Deadline` when `cancel`
    /// expires before the response is assembled.
    pub fn handle_cancellable(
        &self,
        request: &SimRequest,
        cancel: Option<&CancelToken>,
    ) -> Result<SimResponse, SimError> {
        check_cancel(cancel)?;
        match request {
            SimRequest::Run(spec) => {
                let prepared = self.prepare_run(spec)?;
                Ok(SimResponse::Run(prepared.into_body_cancellable(cancel)?))
            }
            SimRequest::Sweep(spec) => {
                let prepared = self.prepare_sweep(spec)?;
                check_cancel(cancel)?;
                let (report, _) = prepared.run_with(|_| {})?;
                check_cancel(cancel)?;
                Ok(SimResponse::Sweep(sweep_body(&prepared, &report)))
            }
            SimRequest::Scaleout(spec) => {
                let prepared = self.prepare_scaleout(spec)?;
                check_cancel(cancel)?;
                let body = prepared.into_body()?;
                check_cancel(cancel)?;
                Ok(SimResponse::Scaleout(body))
            }
            SimRequest::Llm(spec) => {
                let prepared = self.prepare_llm(spec)?;
                Ok(SimResponse::Llm(prepared.into_body_cancellable(cancel)?))
            }
            SimRequest::AreaReport(spec) => Ok(SimResponse::Area(self.area(spec)?)),
            SimRequest::Version => Ok(SimResponse::Version(version_body())),
            SimRequest::Stats => Ok(SimResponse::Stats(self.stats_body())),
            SimRequest::Trace => Ok(SimResponse::Trace(trace_body())),
        }
    }

    /// Snapshots the service's cache and serving counters as a `stats`
    /// response body. Counter reads are relaxed atomics — a snapshot
    /// taken mid-burst is approximate, never torn.
    pub fn stats_body(&self) -> StatsBody {
        let cache = self.cache.stats();
        let lookups = cache.hits + cache.misses;
        let m = &*self.metrics;
        let sched = scalesim_sched::Scheduler::global().stats();
        StatsBody {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_plans: cache.plans as u64,
            cache_evictions: cache.evictions,
            cache_resident_bytes: cache.resident_bytes as u64,
            cache_budget_bytes: self.cache.budget_bytes().unwrap_or(0) as u64,
            cache_hit_rate: if lookups > 0 {
                cache.hits as f64 / lookups as f64
            } else {
                0.0
            },
            requests_total: m.get(&m.requests_total),
            completed: m.get(&m.completed),
            shed: m.get(&m.shed),
            deadline_expired: m.get(&m.deadline_expired),
            in_flight: m.get(&m.in_flight),
            latency_count: m.latency.count(),
            latency_p50_us: m.latency.percentile_us(50.0),
            latency_p99_us: m.latency.percentile_us(99.0),
            latency_max_us: m.latency.max_us(),
            sched_workers: sched.workers as u64,
            sched_steals: sched.steals,
            sched_spawns: sched.spawns,
            sched_park_wakeups: sched.park_wakeups,
            span_totals: scalesim_obs::category_totals(),
        }
    }

    /// Renders this service's metrics as Prometheus text exposition
    /// (format 0.0.4): serve counters, the handle-latency histogram,
    /// plan-cache counters, scheduler accounting and per-category span
    /// totals. The `scalesim serve --metrics-addr` HTTP endpoint serves
    /// exactly this body; names and semantics are documented in
    /// `docs/OBSERVABILITY.md`.
    pub fn render_prometheus(&self) -> String {
        use scalesim_obs::{render_counter, render_gauge, render_histogram};
        let mut out = String::new();
        let m = &*self.metrics;
        render_counter(
            &mut out,
            "scalesim_requests_total",
            "Requests received (queued or answered inline, including shed).",
            m.get(&m.requests_total),
        );
        render_counter(
            &mut out,
            "scalesim_requests_completed_total",
            "Requests fully handled (ok or typed error written).",
            m.get(&m.completed),
        );
        render_counter(
            &mut out,
            "scalesim_requests_shed_total",
            "Requests shed with busy (queue full or session cap).",
            m.get(&m.shed),
        );
        render_counter(
            &mut out,
            "scalesim_deadline_expired_total",
            "Requests that returned a deadline error.",
            m.get(&m.deadline_expired),
        );
        render_gauge(
            &mut out,
            "scalesim_requests_in_flight",
            "Requests currently queued or executing.",
            m.get(&m.in_flight) as i64,
        );
        render_histogram(
            &mut out,
            "scalesim_handle_latency_us",
            "Request handle latency (decode to encode), microseconds.",
            &m.latency,
        );
        let cache = self.cache.stats();
        render_counter(
            &mut out,
            "scalesim_plan_cache_hits_total",
            "Plan-cache lookups answered from the cache.",
            cache.hits,
        );
        render_counter(
            &mut out,
            "scalesim_plan_cache_misses_total",
            "Plan-cache lookups that planned fresh.",
            cache.misses,
        );
        render_counter(
            &mut out,
            "scalesim_plan_cache_evictions_total",
            "Plans evicted to stay within the cache bound.",
            cache.evictions,
        );
        render_gauge(
            &mut out,
            "scalesim_plan_cache_resident_bytes",
            "Bytes held by resident plans.",
            cache.resident_bytes as i64,
        );
        let sched = scalesim_sched::Scheduler::global().stats();
        render_gauge(
            &mut out,
            "scalesim_sched_workers",
            "Worker threads in the global scheduler pool.",
            sched.workers as i64,
        );
        render_counter(
            &mut out,
            "scalesim_sched_steals_total",
            "Tasks stolen from a sibling worker's queue.",
            sched.steals,
        );
        render_counter(
            &mut out,
            "scalesim_sched_spawns_total",
            "Detached tasks spawned onto the pool.",
            sched.spawns,
        );
        render_counter(
            &mut out,
            "scalesim_sched_park_wakeups_total",
            "Times an idle worker woke from park.",
            sched.park_wakeups,
        );
        out.push_str("# HELP scalesim_spans_total Span/instant events recorded per category.\n");
        out.push_str("# TYPE scalesim_spans_total counter\n");
        let totals = scalesim_obs::category_totals();
        for (category, total) in scalesim_api::SPAN_CATEGORIES.iter().zip(totals) {
            use std::fmt::Write;
            let _ = writeln!(
                out,
                "scalesim_spans_total{{category=\"{category}\"}} {total}"
            );
        }
        out
    }

    /// Loads and validates everything a run request needs, returning
    /// the ready-to-execute pair. The CLI uses this directly so it can
    /// print per-layer progress while a [`RunBodySink`] builds the same
    /// [`RunBody`] that [`handle`](Self::handle) answers with.
    ///
    /// # Errors
    ///
    /// `Io` for unreadable inputs, `Config` for bad configurations,
    /// `Topology` for bad workloads.
    pub fn prepare_run(&self, spec: &RunSpec) -> Result<PreparedRun, SimError> {
        let config = load_config(&spec.config, &spec.features)?;
        let topology = load_topology(&spec.topology)?;
        let sim = ScaleSim::try_new_with_cache(config, Arc::clone(&self.cache))?;
        Ok(PreparedRun { sim, topology })
    }

    /// Resolves an llm request into a ready-to-execute run: the model
    /// spec comes from the configuration's `[llm]` section and/or the
    /// `workload` preset name, with the request's phase/seq/batch/
    /// context overrides applied on top, then expands into its GEMM
    /// topology. The CLI drives the prepared run itself for progress
    /// streaming; [`handle`](Self::handle) collects an
    /// [`scalesim_api::LlmBody`].
    ///
    /// # Errors
    ///
    /// `Config` for unknown presets/phases, inconsistent model
    /// dimensions, or a request that names no model at all.
    pub fn prepare_llm(&self, request: &LlmRequest) -> Result<PreparedLlm, SimError> {
        let config = load_config(&request.config, &request.features)?;
        let mut llm = match (config.llm.clone(), &request.workload) {
            (Some(run), None) => run,
            (base, Some(name)) => {
                let spec = LlmSpec::preset(name).ok_or_else(|| {
                    SimError::Config(format!(
                        "unknown llm workload '{name}' (presets: {})",
                        LlmSpec::preset_names().join(", ")
                    ))
                })?;
                let mut run = base.unwrap_or_default();
                run.spec = spec;
                run
            }
            (None, None) => {
                return Err(SimError::Config(
                    "llm: no model named — pass a preset (--workload / \"workload\") \
                     or an [llm] cfg section"
                        .into(),
                ))
            }
        };
        if let Some(phase) = &request.phase {
            llm.phase = Phase::parse(phase).map_err(SimError::Config)?;
        }
        if let Some(seq) = request.seq {
            llm.spec.seq = seq;
        }
        if let Some(batch) = request.batch {
            llm.spec.batch = batch;
        }
        if let Some(context) = request.context {
            llm.context = Some(context);
        }
        let topology = llm.topology().map_err(SimError::Config)?;
        let sim = ScaleSim::try_new_with_cache(config, Arc::clone(&self.cache))?;
        Ok(PreparedLlm {
            run: PreparedRun { sim, topology },
            llm,
        })
    }

    /// Loads and validates everything a sweep request needs. As with
    /// [`prepare_run`](Self::prepare_run), the CLI drives the prepared
    /// sweep itself for progress streaming.
    ///
    /// # Errors
    ///
    /// `Io` for unreadable inputs, `Config` for bad specs or
    /// configurations, `Topology` for bad workloads.
    pub fn prepare_sweep(&self, request: &SweepRequest) -> Result<PreparedSweep, SimError> {
        let (text, spec_dir) = match &request.spec {
            ConfigSource::Default => {
                return Err(SimError::Config(
                    "a sweep needs a grid spec (inline or path)".into(),
                ))
            }
            ConfigSource::Inline(text) => (text.clone(), None),
            ConfigSource::Path(path) => (
                read_input(Path::new(path))?,
                Path::new(path).parent().map(Path::to_path_buf),
            ),
        };
        let mut spec = SweepSpec::parse(&text).map_err(|e| SimError::Config(e.to_string()))?;
        let base = load_config(&request.base_config, &Features::default())?;

        // Topology paths from the spec resolve against the spec's own
        // directory first (so a spec can sit next to its topologies and
        // a same-named file in the CWD cannot shadow them), then fall
        // back to the CWD. Request topologies resolve as given.
        let spec_dir = spec_dir.unwrap_or_else(|| Path::new(".").to_path_buf());
        let mut topologies = Vec::new();
        for rel in spec.topologies.drain(..) {
            let p = Path::new(&rel);
            let spec_relative = spec_dir.join(p);
            let path = if !p.is_absolute() && spec_relative.exists() {
                spec_relative
            } else {
                p.to_path_buf()
            };
            topologies.push(load_topology(&TopologySource::from_path(
                path.display().to_string(),
            ))?);
        }
        for source in &request.topologies {
            topologies.push(load_topology(source)?);
        }
        // An [llm] model in the base config IS the sweep's workload: the
        // seq/batch/phase axes reshape its GEMMs per point, so a fixed
        // topology list cannot coexist with it.
        if let Some(llm) = &base.llm {
            if !topologies.is_empty() {
                return Err(SimError::Config(
                    "sweep: an [llm] model and explicit topologies are mutually \
                     exclusive (the llm model is the workload)"
                        .into(),
                ));
            }
            topologies.push(llm.topology().map_err(SimError::Config)?);
        }
        if topologies.is_empty() {
            return Err(SimError::Config(
                "sweep has no topologies (add a [workloads] section or -t)".into(),
            ));
        }
        // A grid whose worst-case plan count exceeds the shared cache's
        // capacity gets its own right-sized cache instead: the shared
        // cache evicts entry by entry (GreedyDual-Size), so an oversized
        // sweep would churn through it, evicting its own plans before
        // they are reused *and* every other request's warm plans along
        // the way. Small sweeps keep sharing (and warming) the service
        // cache. Either way results are identical — only planning time
        // differs.
        let distinct_shapes: usize = topologies.iter().map(|t| t.len()).sum::<usize>().max(1);
        let worst_case_plans = spec.grid_size().saturating_mul(distinct_shapes);
        let cache = if worst_case_plans > SERVICE_CACHE_CAPACITY {
            Arc::new(PlanCache::with_capacity(worst_case_plans))
        } else {
            Arc::clone(&self.cache)
        };
        Ok(PreparedSweep {
            spec,
            base,
            topologies,
            shards: request.shards.max(1),
            cache,
        })
    }

    /// Loads and validates everything a scale-out request needs: the
    /// per-chip architecture (whose `[scaleout]` section seeds the
    /// scale-out parameters), the workload, and the request's
    /// overrides. The CLI drives the prepared run itself so it can
    /// print per-layer progress.
    ///
    /// # Errors
    ///
    /// `Io` for unreadable inputs, `Config` for bad configurations or
    /// inconsistent scale-out parameters, `Topology` for bad workloads.
    pub fn prepare_scaleout(
        &self,
        request: &ScaleoutRequest,
    ) -> Result<PreparedScaleout, SimError> {
        let config = load_config(&request.config, &request.features)?;
        let topology = load_topology(&request.topology)?;
        let mut spec = config.scaleout.clone().unwrap_or_default();
        if let Some(chips) = request.chips {
            spec.chips = chips;
            // An explicit chip count invalidates cfg-pinned mesh dims;
            // fall back to the near-square factorization.
            spec.mesh = None;
        }
        if let Some(fabric) = &request.fabric {
            spec.fabric = FabricTag::parse(fabric).map_err(SimError::Config)?;
        }
        if let Some(gbps) = request.link_gbps {
            spec.link_gbps = gbps;
        }
        if let Some(latency) = request.link_latency {
            spec.link_latency = latency;
        }
        if let Some(strategy) = &request.strategy {
            spec.strategy = Strategy::parse(strategy).map_err(SimError::Config)?;
        }
        if let Some(microbatches) = request.microbatches {
            spec.microbatches = microbatches;
        }
        // Fail on inconsistent fabrics before any simulation.
        spec.fabric().map_err(SimError::Config)?;
        let sim = ScaleSim::try_new_with_cache(config, Arc::clone(&self.cache))?;
        Ok(PreparedScaleout {
            sim,
            topology,
            spec,
        })
    }

    /// Estimates the configured accelerator's silicon area.
    ///
    /// # Errors
    ///
    /// `Io` for unreadable inputs, `Config` for bad configurations.
    pub fn area(&self, spec: &AreaSpec) -> Result<AreaBody, SimError> {
        let config = load_config(&spec.config, &spec.features)?;
        let sim = ScaleSim::try_new_with_cache(config, Arc::clone(&self.cache))?;
        Ok(area_body(&sim.area_report()))
    }
}

/// Errors with the token's typed `deadline` error if it has expired.
fn check_cancel(cancel: Option<&CancelToken>) -> Result<(), SimError> {
    match cancel {
        Some(token) if token.expired() => Err(token.to_error()),
        _ => Ok(()),
    }
}

/// A validated run, ready to execute: the engine (sharing the service's
/// plan cache) and the parsed workload.
#[derive(Debug, Clone)]
pub struct PreparedRun {
    /// The configured engine.
    pub sim: ScaleSim,
    /// The parsed workload.
    pub topology: Topology,
}

impl PreparedRun {
    /// Streams the run into `sink` with bounded result memory (see
    /// [`ScaleSim::run_topology_with`]).
    pub fn run_into(&self, sink: &mut dyn ResultSink) -> StreamStats {
        self.sim.run_topology_with(&self.topology, sink)
    }

    /// Executes the run, collecting the response body: the O(1) summary
    /// plus every report the configuration produces — the reports the
    /// CLI writes to disk.
    pub fn into_body(self) -> RunBody {
        self.into_body_cancellable(None)
            .expect("no cancel token, so the run always completes")
    }

    /// As [`into_body`](Self::into_body), but abandons the run at the
    /// next pipeline-stage boundary once `cancel` expires. The body is
    /// identical to the uncancelled one whenever the token survives —
    /// the token costs checks, never results.
    ///
    /// # Errors
    ///
    /// `Deadline` when the token expires mid-run; partial results are
    /// discarded (a deadline response never carries a body).
    pub fn into_body_cancellable(self, cancel: Option<&CancelToken>) -> Result<RunBody, SimError> {
        let mut sink = RunBodySink::new(self.sim.config());
        self.sim
            .run_topology_cancellable(&self.topology, &mut sink, cancel)?;
        Ok(sink.finish())
    }
}

/// Builds a run's response body as layers stream in: the O(1)
/// [`RunSummary`] plus the reports of the one emitter,
/// [`MemoryReportSink`]. Serve answers with its [`RunBody`]; the CLI
/// writes the body's reports to disk.
pub struct RunBodySink {
    reports: MemoryReportSink,
    summary: RunSummary,
}

impl RunBodySink {
    /// An empty body for a run of `config`.
    pub fn new(config: &ScaleSimConfig) -> Self {
        Self {
            reports: MemoryReportSink::new(ReportSections::for_config(config)),
            summary: RunSummary::new(),
        }
    }

    /// The finished response body.
    pub fn finish(self) -> RunBody {
        RunBody {
            summary: summary_body(&self.summary),
            reports: self
                .reports
                .finish()
                .into_iter()
                .map(|(name, content)| Report {
                    name: name.to_string(),
                    content,
                })
                .collect(),
        }
    }
}

impl ResultSink for RunBodySink {
    fn layer(&mut self, result: LayerResult) {
        self.summary.add(&result);
        self.reports.layer(result);
    }
}

/// A validated llm run, ready to execute: the engine plus the
/// generated per-block GEMM topology, alongside the resolved model
/// spec (cfg section and/or preset, with request overrides applied).
#[derive(Debug, Clone)]
pub struct PreparedLlm {
    /// The underlying run (engine + generated topology).
    pub run: PreparedRun,
    /// The resolved model spec, phase, and context.
    pub llm: LlmRunSpec,
}

impl PreparedLlm {
    /// Executes the run, collecting the response body: model identity
    /// and analytical figures (parameter count, KV-cache footprint at
    /// the effective context) wrapped around the same summary and
    /// reports a plain run yields, byte-identical to the CLI's files.
    pub fn into_body(self) -> LlmBody {
        self.into_body_cancellable(None)
            .expect("no cancel token, so the run always completes")
    }

    /// As [`into_body`](Self::into_body), but abandons the run at the
    /// next pipeline-stage boundary once `cancel` expires.
    ///
    /// # Errors
    ///
    /// `Deadline` when the token expires mid-run.
    pub fn into_body_cancellable(self, cancel: Option<&CancelToken>) -> Result<LlmBody, SimError> {
        let context = self.llm.effective_context();
        let body = self.run.into_body_cancellable(cancel)?;
        Ok(LlmBody {
            workload: self.llm.spec.name.clone(),
            phase: self.llm.phase.tag().to_string(),
            context: context as u64,
            params: self.llm.spec.param_count(),
            kv_cache_bytes: self.llm.spec.kv_cache_bytes(context),
            summary: body.summary,
            reports: body.reports,
        })
    }
}

/// A validated scale-out run, ready to execute: the per-chip engine
/// (sharing the service's plan cache), the workload, and the resolved
/// scale-out parameters.
#[derive(Debug, Clone)]
pub struct PreparedScaleout {
    /// The configured per-chip engine.
    pub sim: ScaleSim,
    /// The parsed workload.
    pub topology: Topology,
    /// The resolved scale-out parameters (cfg section plus request
    /// overrides).
    pub spec: ScaleoutSpec,
}

impl PreparedScaleout {
    /// Streams the run's per-layer records into `sink`, returning the
    /// run-level summary.
    ///
    /// # Errors
    ///
    /// `Config` when the scale-out parameters are inconsistent
    /// (normally caught at prepare time).
    pub fn run_into(&self, sink: &mut dyn ScaleoutSink) -> Result<ScaleoutSummary, SimError> {
        run_scaleout(&self.sim, &self.topology, &self.spec, sink).map_err(SimError::Config)
    }

    /// Executes the run, collecting the response body: the summary plus
    /// the `SCALEOUT_REPORT.csv` the CLI writes to disk.
    ///
    /// # Errors
    ///
    /// `Config` when the scale-out parameters are inconsistent.
    pub fn into_body(self) -> Result<ScaleoutBody, SimError> {
        let mut csv = MemoryScaleoutSink::new();
        let summary = self.run_into(&mut csv)?;
        Ok(scaleout_body(&summary, csv.finish()))
    }
}

/// Packages a finished scale-out run as the response body.
pub fn scaleout_body(summary: &ScaleoutSummary, report_csv: String) -> ScaleoutBody {
    ScaleoutBody {
        chips: summary.chips as u64,
        strategy: summary.strategy.tag().to_string(),
        fabric: summary.fabric.clone(),
        layers: summary.layers,
        total_cycles: summary.total_cycles,
        compute_cycles: summary.compute_cycles,
        comm_cycles: summary.comm_cycles,
        overlapped_cycles: summary.overlapped_cycles,
        exposed_cycles: summary.exposed_cycles,
        bubble_cycles: summary.bubble_cycles,
        utilization: summary.utilization(),
        reports: vec![Report {
            name: "SCALEOUT_REPORT.csv".into(),
            content: report_csv,
        }],
    }
}

/// A validated sweep, ready to execute against the service's shared
/// plan cache.
#[derive(Debug, Clone)]
pub struct PreparedSweep {
    /// The parsed grid spec (topology paths already resolved out).
    pub spec: SweepSpec,
    /// The base configuration the grid overrides.
    pub base: ScaleSimConfig,
    /// The parsed workloads.
    pub topologies: Vec<Topology>,
    /// Executor shard count.
    pub shards: usize,
    cache: Arc<PlanCache>,
}

impl PreparedSweep {
    /// Executes the sweep; `on_record` observes every run record as its
    /// shard completes (see [`crate::sweep_run::run_sweep_with`]).
    ///
    /// # Errors
    ///
    /// `Config` naming the offending grid point when any expanded
    /// configuration fails validation.
    pub fn run_with(
        &self,
        on_record: impl FnMut(&scalesim_sweep::RunRecord),
    ) -> Result<(SweepReport, PlanCacheStats), SimError> {
        run_sweep_cached(
            &self.spec,
            &self.base,
            &self.topologies,
            self.shards,
            &self.cache,
            on_record,
        )
        .map_err(SimError::Config)
    }
}

/// Reduces a streamed [`RunSummary`] into the response summary.
pub fn summary_body(summary: &RunSummary) -> RunSummaryBody {
    RunSummaryBody {
        layers: summary.layers,
        total_cycles: summary.total_cycles,
        compute_cycles: summary.compute_cycles,
        stall_cycles: summary.stall_cycles,
        macs: summary.macs,
        utilization: summary.utilization(),
        energy_mj: summary.energy_mj(),
        noc_words: summary.noc_words,
    }
}

/// Packages an area estimate as the response body (the CSV matches the
/// `AREA_REPORT.csv` the CLI writes).
pub fn area_body(area: &AreaBreakdown) -> AreaBody {
    AreaBody {
        total_mm2: area.total_mm2(),
        pe_array_mm2: area.pe_array_mm2,
        sram_mm2: area.sram_mm2(),
        noc_mm2: area.noc_mm2,
        dram_ctrl_mm2: area.dram_ctrl_mm2,
        reports: vec![Report {
            name: "AREA_REPORT.csv".into(),
            content: format!("{}\n{}\n", AreaBreakdown::csv_header(), area.to_csv_row()),
        }],
    }
}

/// Packages a finished sweep as the response body.
pub fn sweep_body(prepared: &PreparedSweep, report: &SweepReport) -> SweepBody {
    SweepBody {
        grid_points: prepared.spec.grid_size(),
        runs: report.records().len(),
        pareto_frontier: report
            .pareto_labels()
            .into_iter()
            .map(str::to_string)
            .collect(),
        reports: vec![
            Report {
                name: "SWEEP_REPORT.csv".into(),
                content: report.to_csv(),
            },
            Report {
                name: "SWEEP_REPORT.json".into(),
                content: report.to_json(),
            },
        ],
    }
}

/// The version response body.
pub fn version_body() -> VersionBody {
    VersionBody {
        version: crate::cli::version_string(),
        api: API_VERSION,
    }
}

/// Snapshots the process's recorded span rings as a `trace` response
/// body. The trace string is empty-but-valid Chrome JSON when tracing
/// was never enabled; `events` counts span/instant records across all
/// categories since process start.
pub fn trace_body() -> TraceBody {
    TraceBody {
        enabled: scalesim_obs::tracing_enabled(),
        events: scalesim_obs::recorded_events(),
        trace: scalesim_obs::chrome_trace_string(),
    }
}

fn read_input(path: &Path) -> Result<String, SimError> {
    std::fs::read_to_string(path)
        .map_err(|e| SimError::Io(format!("cannot read {}: {e}", path.display())))
}

/// Loads a configuration source and applies the request's feature
/// toggles.
pub fn load_config(source: &ConfigSource, features: &Features) -> Result<ScaleSimConfig, SimError> {
    let mut config = match source {
        ConfigSource::Default => ScaleSimConfig::default(),
        ConfigSource::Inline(text) => parse_cfg(text)?,
        ConfigSource::Path(path) => parse_cfg(&read_input(Path::new(path))?)?,
    };
    config.enable_dram = features.dram;
    config.enable_energy = features.energy;
    config.enable_layout = features.layout;
    if let Some(cores) = &features.cores {
        let grid = PartitionGrid::parse(cores).ok_or_else(|| {
            SimError::Config(format!("bad cores '{cores}' (expected RxC, e.g. 2x2)"))
        })?;
        config.multicore = if grid.cores() == 1 {
            None
        } else {
            Some(MultiCoreIntegration {
                grid,
                scheme: PartitionScheme::Spatial,
                l2: Some(L2Config::default()),
            })
        };
    }
    Ok(config)
}

/// Loads and parses a topology source. Registry workloads (CNN/ViT
/// names and llm presets, optionally `:prefill`/`:decode`-suffixed)
/// resolve through [`scalesim_workloads::by_name_or_err`], whose error
/// spells out the full supported vocabulary.
pub fn load_topology(source: &TopologySource) -> Result<Topology, SimError> {
    if let Some(workload) = &source.workload {
        return scalesim_workloads::by_name_or_err(workload).map_err(SimError::Topology);
    }
    let (csv, default_name) = match (&source.inline, &source.path) {
        (Some(text), _) => (text.clone(), "workload".to_string()),
        (None, Some(path)) => {
            let p = Path::new(path);
            let stem = p
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_else(|| "workload".into());
            (read_input(p)?, stem)
        }
        (None, None) => {
            return Err(SimError::Config(
                "request: topology has neither \"path\" nor \"inline\"".into(),
            ))
        }
    };
    let name = source.name.clone().unwrap_or(default_name);
    let topo = match source.format {
        TopologyFormat::Auto => Topology::parse_csv_auto(&name, &csv),
        TopologyFormat::Conv => Topology::parse_conv_csv(&name, &csv),
        TopologyFormat::Gemm => Topology::parse_gemm_csv(&name, &csv),
    }?;
    if topo.is_empty() {
        return Err(SimError::Topology(format!(
            "topology '{name}' has no layers"
        )));
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_topology() -> TopologySource {
        TopologySource::inline("t", "a, 16, 16, 16,\nb, 24, 24, 24,\n")
            .with_format(TopologyFormat::Gemm)
    }

    #[test]
    fn run_request_produces_summary_and_reports() {
        let service = SimService::new();
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: gemm_topology(),
            features: Features {
                energy: true,
                ..Default::default()
            },
        });
        let SimResponse::Run(body) = service.handle(&req).unwrap() else {
            panic!("expected run body")
        };
        assert_eq!(body.summary.layers, 2);
        assert!(body.summary.total_cycles > 0);
        assert!(body.summary.energy_mj > 0.0);
        let names: Vec<_> = body.reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "COMPUTE_REPORT.csv",
                "BANDWIDTH_REPORT.csv",
                "ENERGY_REPORT.csv"
            ]
        );
    }

    #[test]
    fn repeated_requests_share_the_plan_cache() {
        let service = SimService::new();
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: gemm_topology(),
            features: Features::default(),
        });
        service.handle(&req).unwrap();
        let after_first = service.plan_cache().stats();
        service.handle(&req).unwrap();
        let after_second = service.plan_cache().stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "second identical request must plan nothing"
        );
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn bad_inputs_map_to_the_right_categories() {
        let service = SimService::new();
        // Unknown cfg key -> config.
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Inline("ArrayHieght : 32\n".into()),
            topology: gemm_topology(),
            features: Features::default(),
        });
        assert_eq!(service.handle(&req).unwrap_err().kind(), "config");
        // Duplicate layer name -> topology.
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: TopologySource::inline("t", "a, 8, 8, 8,\na, 8, 8, 8,\n"),
            features: Features::default(),
        });
        let err = service.handle(&req).unwrap_err();
        assert_eq!(err.kind(), "topology");
        assert!(err.message().contains("duplicate layer name 'a'"), "{err}");
        // Missing file -> io.
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Path("/nonexistent/x.cfg".into()),
            topology: gemm_topology(),
            features: Features::default(),
        });
        assert_eq!(service.handle(&req).unwrap_err().kind(), "io");
        // Invalid core geometry (SRAM too small to double-buffer) -> config.
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Inline(
                "ArrayHeight : 512\nArrayWidth : 512\nIfmapSramSzkB : 1\n\
                 FilterSramSzkB : 1\nOfmapSramSzkB : 1\n"
                    .into(),
            ),
            topology: gemm_topology(),
            features: Features::default(),
        });
        assert_eq!(service.handle(&req).unwrap_err().kind(), "config");
        // Bad cores string -> config.
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: gemm_topology(),
            features: Features {
                cores: Some("2by2".into()),
                ..Default::default()
            },
        });
        assert_eq!(service.handle(&req).unwrap_err().kind(), "config");
    }

    #[test]
    fn oversized_sweeps_get_their_own_cache_small_ones_share() {
        let service = SimService::new();
        let small = service
            .prepare_sweep(&SweepRequest {
                spec: ConfigSource::Inline("array = 8x8, 16x16\n".into()),
                base_config: ConfigSource::Default,
                topologies: vec![gemm_topology()],
                shards: 1,
            })
            .unwrap();
        assert!(
            Arc::ptr_eq(&small.cache, service.plan_cache()),
            "small grids warm the shared cache"
        );
        // 72 bandwidths x 64 arrays x 2 layers = 9216 worst-case plans
        // > SERVICE_CACHE_CAPACITY: a right-sized private cache instead
        // of thrashing (and wiping) the shared one.
        let bandwidths: Vec<String> = (1..=72).map(|b| b.to_string()).collect();
        let arrays: Vec<String> = (1..=64).map(|n| format!("{n}x{n}")).collect();
        let big_spec = format!(
            "bandwidth = {}\narray = {}\n",
            bandwidths.join(", "),
            arrays.join(", ")
        );
        let big = service
            .prepare_sweep(&SweepRequest {
                spec: ConfigSource::Inline(big_spec),
                base_config: ConfigSource::Default,
                topologies: vec![gemm_topology()],
                shards: 1,
            })
            .unwrap();
        assert!(
            !Arc::ptr_eq(&big.cache, service.plan_cache()),
            "oversized grids must not evict the shared cache"
        );
    }

    #[test]
    fn sweep_request_round_trips() {
        let service = SimService::new();
        let req = SimRequest::Sweep(SweepRequest {
            spec: ConfigSource::Inline("array = 8x8, 16x16\nenergy = true\n".into()),
            base_config: ConfigSource::Default,
            topologies: vec![gemm_topology()],
            shards: 2,
        });
        let SimResponse::Sweep(body) = service.handle(&req).unwrap() else {
            panic!("expected sweep body")
        };
        assert_eq!(body.grid_points, 2);
        assert_eq!(body.runs, 2);
        assert!(!body.pareto_frontier.is_empty());
        assert_eq!(body.reports[0].name, "SWEEP_REPORT.csv");
        assert_eq!(body.reports[1].name, "SWEEP_REPORT.json");
    }

    /// A deliberately tiny transformer so unit tests stay fast in debug
    /// builds; the real presets are exercised by the integration tests
    /// and CI smoke job against the release binary.
    const TINY_LLM_CFG: &str = "[llm]\nPreset : gpt2-xl\nLayers : 2\nDModel : 64\n\
         Heads : 4\nKvHeads : 4\nDFf : 128\nVocab : 256\nSeq : 16\nBatch : 1\n";

    #[test]
    fn llm_request_resolves_cfg_model_with_overrides() {
        let service = SimService::new();
        let req = LlmRequest {
            config: ConfigSource::Inline(TINY_LLM_CFG.into()),
            phase: Some("decode".into()),
            context: Some(64),
            ..Default::default()
        };
        let SimResponse::Llm(body) = service.handle(&SimRequest::Llm(req)).unwrap() else {
            panic!("expected llm body")
        };
        assert_eq!(body.workload, "gpt2-xl");
        assert_eq!(body.phase, "decode");
        assert_eq!(body.context, 64);
        assert!(body.params > 0 && body.kv_cache_bytes > 0);
        assert!(body.summary.total_cycles > 0);
        assert_eq!(body.reports[0].name, "COMPUTE_REPORT.csv");
    }

    #[test]
    fn llm_workload_preset_keeps_cfg_phase_and_context() {
        let service = SimService::new();
        // The cfg names one model, the request swaps in a preset: the
        // section's phase/context survive the swap.
        let req = LlmRequest {
            config: ConfigSource::Inline(format!("{TINY_LLM_CFG}Phase : decode\nContext : 32\n")),
            workload: Some("gpt2-xl".into()),
            seq: Some(16),
            batch: Some(2),
            ..Default::default()
        };
        let prepared = service.prepare_llm(&req).unwrap();
        assert_eq!(
            prepared.llm.spec.layers, 48,
            "preset replaced the tiny model"
        );
        assert_eq!(prepared.llm.phase, Phase::Decode);
        assert_eq!(prepared.llm.effective_context(), 32);
        assert_eq!(prepared.llm.spec.seq, 16);
        assert_eq!(prepared.llm.spec.batch, 2);
        // Decode topologies put batch rows through every block GEMM.
        assert!(prepared.run.topology.name().ends_with("decode"));
    }

    #[test]
    fn llm_bad_inputs_are_config_errors() {
        let service = SimService::new();
        // No model named anywhere.
        let err = service.prepare_llm(&LlmRequest::default()).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("[llm]"), "{err}");
        // Unknown preset names the vocabulary.
        let err = service
            .prepare_llm(&LlmRequest::for_workload("llama-13b"))
            .unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("llama-7b"), "{err}");
        // Bad phase.
        let req = LlmRequest {
            phase: Some("training".into()),
            ..LlmRequest::for_workload("gpt2-xl")
        };
        let err = service.prepare_llm(&req).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("unknown phase"), "{err}");
    }

    #[test]
    fn workload_topology_source_resolves_the_registry() {
        let topo = load_topology(&TopologySource::from_workload("gpt2-xl:decode")).unwrap();
        assert!(topo.name().ends_with("decode"));
        assert!(topo.len() > 1);
        let err = load_topology(&TopologySource::from_workload("nonesuch")).unwrap_err();
        assert_eq!(err.kind(), "topology");
        assert!(err.message().contains("known workloads"), "{err}");
    }

    #[test]
    fn scaleout_request_round_trips_and_shares_the_cache() {
        let service = SimService::new();
        let mut req = ScaleoutRequest::for_topology(gemm_topology());
        req.chips = Some(8);
        req.strategy = Some("data".into());
        let SimResponse::Scaleout(body) =
            service.handle(&SimRequest::Scaleout(req.clone())).unwrap()
        else {
            panic!("expected scaleout body")
        };
        assert_eq!(body.chips, 8);
        assert_eq!(body.strategy, "dp");
        assert_eq!(body.layers, 2);
        assert!(body.total_cycles >= body.compute_cycles);
        assert_eq!(body.reports[0].name, "SCALEOUT_REPORT.csv");
        assert!(body.reports[0].content.starts_with("LayerName, Stage,"));
        // The second identical request plans nothing: shards hit the
        // service's shared cache.
        let before = service.plan_cache().stats();
        service.handle(&SimRequest::Scaleout(req)).unwrap();
        let after = service.plan_cache().stats();
        assert_eq!(after.misses, before.misses);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn scaleout_overrides_and_cfg_section_compose() {
        let service = SimService::new();
        let mut req = ScaleoutRequest::for_topology(gemm_topology());
        req.config = ConfigSource::Inline(
            "[scaleout]\nChips : 4\nStrategy : tensor\nLinkGbps : 25\n".into(),
        );
        let prepared = service.prepare_scaleout(&req).unwrap();
        assert_eq!(prepared.spec.chips, 4);
        assert_eq!(prepared.spec.strategy, Strategy::TensorParallel);
        // The request override wins over the cfg section.
        req.chips = Some(16);
        req.strategy = Some("pipeline".into());
        let prepared = service.prepare_scaleout(&req).unwrap();
        assert_eq!(prepared.spec.chips, 16);
        assert_eq!(prepared.spec.strategy, Strategy::PipelineParallel);
        assert_eq!(prepared.spec.link_gbps, 25.0, "untouched knobs survive");
    }

    #[test]
    fn scaleout_bad_parameters_are_config_errors() {
        let service = SimService::new();
        let mut req = ScaleoutRequest::for_topology(gemm_topology());
        req.fabric = Some("torus".into());
        assert_eq!(
            service
                .handle(&SimRequest::Scaleout(req))
                .unwrap_err()
                .kind(),
            "config"
        );
        let mut req = ScaleoutRequest::for_topology(gemm_topology());
        req.chips = Some(6);
        req.fabric = Some("switch".into());
        let err = service.handle(&SimRequest::Scaleout(req)).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("power-of-two"), "{err}");
    }

    #[test]
    fn area_and_version_answer() {
        let service = SimService::new();
        let SimResponse::Area(area) = service
            .handle(&SimRequest::AreaReport(AreaSpec::default()))
            .unwrap()
        else {
            panic!("expected area body")
        };
        assert!(area.total_mm2 > 0.0);
        assert!(area.reports[0].content.starts_with("pe_array_mm2"));
        let SimResponse::Version(v) = service.handle(&SimRequest::Version).unwrap() else {
            panic!("expected version body")
        };
        assert_eq!(v.api, API_VERSION);
        assert!(v.version.starts_with("scalesim "));
    }

    #[test]
    fn stats_request_snapshots_the_cache_and_reports_zero_serve_counters() {
        let service = SimService::new();
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: gemm_topology(),
            features: Features::default(),
        });
        service.handle(&req).unwrap();
        service.handle(&req).unwrap();
        let SimResponse::Stats(stats) = service.handle(&SimRequest::Stats).unwrap() else {
            panic!("expected stats body")
        };
        assert_eq!(stats.cache_misses, 2, "two layers planned once");
        assert_eq!(stats.cache_hits, 2, "second request reused both plans");
        assert_eq!(stats.cache_plans, 2);
        assert!((stats.cache_hit_rate - 0.5).abs() < 1e-12);
        assert!(stats.cache_resident_bytes > 0);
        assert_eq!(stats.cache_budget_bytes, 0, "count-capped by default");
        // A one-shot service records no serve-loop counters: those are
        // bumped by the serve transport, not by handle().
        assert_eq!(stats.requests_total, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.latency_count, 0);
    }

    #[test]
    fn expired_token_yields_deadline_and_a_live_token_changes_nothing() {
        let service = SimService::new();
        for req in [
            SimRequest::Run(RunSpec {
                config: ConfigSource::Default,
                topology: gemm_topology(),
                features: Features::default(),
            }),
            SimRequest::Sweep(SweepRequest {
                spec: ConfigSource::Inline("array = 8x8\n".into()),
                base_config: ConfigSource::Default,
                topologies: vec![gemm_topology()],
                shards: 1,
            }),
            SimRequest::Scaleout(ScaleoutRequest::for_topology(gemm_topology())),
        ] {
            let dead = CancelToken::after_ms(0);
            let err = service.handle_cancellable(&req, Some(&dead)).unwrap_err();
            assert_eq!(err.kind(), "deadline");
            assert_eq!(err.exit_code(), 124);
            assert_eq!(err.message(), "deadline of 0 ms exceeded");
            // A token that never fires must not perturb the response.
            let live = CancelToken::after_ms(600_000);
            let with_token = service.handle_cancellable(&req, Some(&live)).unwrap();
            let without = service.handle(&req).unwrap();
            assert_eq!(
                with_token, without,
                "cancel tokens cost checks, not results"
            );
        }
    }

    /// Golden test for the Prometheus text exposition: the exact line
    /// sequence — HELP text, TYPE declarations, metric names, label
    /// sets — is pinned, with sample *values* normalized to `V` (they
    /// depend on machine parallelism and process-global counters).
    /// Scrapers key on names and labels; renaming or reordering a
    /// series is a breaking change and must show up here.
    #[test]
    fn prometheus_exposition_format_is_pinned() {
        let service = SimService::new();
        let body = service.render_prometheus();
        let normalized: String = body
            .lines()
            .map(|line| {
                if line.starts_with('#') {
                    format!("{line}\n")
                } else {
                    let cut = line.rfind(' ').expect("sample line has a value");
                    format!("{} V\n", &line[..cut])
                }
            })
            .collect();
        let golden = "\
# HELP scalesim_requests_total Requests received (queued or answered inline, including shed).
# TYPE scalesim_requests_total counter
scalesim_requests_total V
# HELP scalesim_requests_completed_total Requests fully handled (ok or typed error written).
# TYPE scalesim_requests_completed_total counter
scalesim_requests_completed_total V
# HELP scalesim_requests_shed_total Requests shed with busy (queue full or session cap).
# TYPE scalesim_requests_shed_total counter
scalesim_requests_shed_total V
# HELP scalesim_deadline_expired_total Requests that returned a deadline error.
# TYPE scalesim_deadline_expired_total counter
scalesim_deadline_expired_total V
# HELP scalesim_requests_in_flight Requests currently queued or executing.
# TYPE scalesim_requests_in_flight gauge
scalesim_requests_in_flight V
# HELP scalesim_handle_latency_us Request handle latency (decode to encode), microseconds.
# TYPE scalesim_handle_latency_us histogram
scalesim_handle_latency_us_bucket{le=\"+Inf\"} V
scalesim_handle_latency_us_sum V
scalesim_handle_latency_us_count V
# HELP scalesim_plan_cache_hits_total Plan-cache lookups answered from the cache.
# TYPE scalesim_plan_cache_hits_total counter
scalesim_plan_cache_hits_total V
# HELP scalesim_plan_cache_misses_total Plan-cache lookups that planned fresh.
# TYPE scalesim_plan_cache_misses_total counter
scalesim_plan_cache_misses_total V
# HELP scalesim_plan_cache_evictions_total Plans evicted to stay within the cache bound.
# TYPE scalesim_plan_cache_evictions_total counter
scalesim_plan_cache_evictions_total V
# HELP scalesim_plan_cache_resident_bytes Bytes held by resident plans.
# TYPE scalesim_plan_cache_resident_bytes gauge
scalesim_plan_cache_resident_bytes V
# HELP scalesim_sched_workers Worker threads in the global scheduler pool.
# TYPE scalesim_sched_workers gauge
scalesim_sched_workers V
# HELP scalesim_sched_steals_total Tasks stolen from a sibling worker's queue.
# TYPE scalesim_sched_steals_total counter
scalesim_sched_steals_total V
# HELP scalesim_sched_spawns_total Detached tasks spawned onto the pool.
# TYPE scalesim_sched_spawns_total counter
scalesim_sched_spawns_total V
# HELP scalesim_sched_park_wakeups_total Times an idle worker woke from park.
# TYPE scalesim_sched_park_wakeups_total counter
scalesim_sched_park_wakeups_total V
# HELP scalesim_spans_total Span/instant events recorded per category.
# TYPE scalesim_spans_total counter
scalesim_spans_total{category=\"sched\"} V
scalesim_spans_total{category=\"pipeline\"} V
scalesim_spans_total{category=\"cache\"} V
scalesim_spans_total{category=\"dram\"} V
scalesim_spans_total{category=\"collective\"} V
scalesim_spans_total{category=\"serve\"} V
scalesim_spans_total{category=\"sweep\"} V
";
        assert_eq!(normalized, golden, "Prometheus exposition drifted");
    }

    #[test]
    fn multicore_feature_parses_grids() {
        let config = load_config(
            &ConfigSource::Default,
            &Features {
                cores: Some("2x2".into()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(config.multicore.unwrap().grid.cores(), 4);
        let single = load_config(
            &ConfigSource::Default,
            &Features {
                cores: Some("1x1".into()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(single.multicore.is_none());
    }
}
