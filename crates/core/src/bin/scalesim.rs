//! `scalesim` — command-line front end mirroring the Python tool's
//! interface: a `.cfg` architecture file plus a topology CSV in, report
//! CSVs out. The `sweep` subcommand runs a whole design-space grid; the
//! `scaleout` subcommand simulates multi-chip parallel execution; the
//! `serve` subcommand answers JSON-lines requests persistently.
//!
//! ```text
//! scalesim -c configs/tpu.cfg -t topologies/resnet18.csv -p ./results \
//!          [--gemm] [--dram] [--energy] [--layout]
//! scalesim sweep -s configs/example_sweep.toml -p ./results
//! scalesim scaleout -c configs/example_scaleout.cfg -t topologies/resnet18.csv
//! scalesim serve --listen 127.0.0.1:7878
//! ```
//!
//! Every command is a thin client of the same typed facade
//! ([`scalesim::service::SimService`]): argument vectors become
//! [`SimRequest`]s, failures are categorized [`SimError`]s mapped to
//! stable exit codes (config=2, topology=3, io=4, internal=70; CLI
//! usage errors stay 1). Argument parsing lives in [`scalesim::cli`]
//! (unit-tested there); the full reference is `docs/CLI.md`, the
//! request protocol is `docs/API.md`.

use scalesim::api::{
    ConfigSource, Features, LlmRequest, Report, RunBody, RunSpec, ScaleoutRequest, SimError,
    SweepRequest, TopologyFormat, TopologySource,
};
use scalesim::cli::{
    parse_cli, version_string, Command, LlmArgs, RunArgs, ScaleoutArgs, ServeArgs, SweepArgs,
};
use scalesim::scaleout::{scaleout_rows, MemoryScaleoutSink, ScaleoutLayerRecord};
use scalesim::serve::{ServeOptions, Server};
use scalesim::service::{
    area_body, scaleout_body, sweep_body, PreparedRun, RunBodySink, SimService,
};
use scalesim::{LayerResult, ResultSink, ScaleoutSink};
use scalesim_obs as obs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The `--trace` output path of whichever subcommand was parsed.
fn trace_path(command: &Command) -> Option<PathBuf> {
    match command {
        Command::Run(a) => a.trace.clone(),
        Command::Llm(a) => a.trace.clone(),
        Command::Sweep(a) => a.trace.clone(),
        Command::Scaleout(a) => a.trace.clone(),
        Command::Serve(a) => a.trace.clone(),
        Command::Version => None,
    }
}

/// Writes the recorded span rings as Chrome trace-event JSON. Runs
/// after the command finishes (even a failed run's partial timeline is
/// worth keeping); tracing itself never changes report bytes.
fn write_trace(path: &Path) {
    let write = || -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        obs::write_chrome_trace(&mut file)?;
        use std::io::Write;
        file.flush()
    };
    match write() {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("error: cannot write trace {}: {e}", path.display()),
    }
}

fn config_source(path: Option<&Path>) -> ConfigSource {
    match path {
        Some(p) => ConfigSource::Path(p.display().to_string()),
        None => ConfigSource::Default,
    }
}

fn topology_source(path: &Path, format: TopologyFormat) -> TopologySource {
    TopologySource::from_path(path.display().to_string()).with_format(format)
}

/// Builds the topology source from the parsed `-t`/`-w` pair (the CLI
/// layer guarantees exactly one is set).
fn workload_source(
    path: Option<&Path>,
    workload: Option<&str>,
    format: TopologyFormat,
) -> TopologySource {
    match (path, workload) {
        (Some(p), _) => topology_source(p, format),
        (None, Some(w)) => TopologySource::from_workload(w),
        (None, None) => unreachable!("cli enforces one of -t/-w"),
    }
}

/// Writes `reports` into `out_dir` (created when missing), one file per
/// report named after it, returning the paths in report order. Every
/// file the CLI produces goes through here, so on disk it holds exactly
/// the bytes the matching serve response carries.
fn write_reports(out_dir: &Path, reports: &[Report]) -> Result<Vec<PathBuf>, SimError> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| SimError::Io(format!("cannot create {}: {e}", out_dir.display())))?;
    reports
        .iter()
        .map(|report| {
            let path = out_dir.join(&report.name);
            std::fs::write(&path, &report.content)
                .map_err(|e| SimError::Io(format!("write {}: {e}", path.display())))?;
            Ok(path)
        })
        .collect()
}

/// Prints a `wrote <path>` line per written file.
fn print_written(paths: &[PathBuf]) {
    for p in paths {
        eprintln!("wrote {}", p.display());
    }
}

/// Forwards every streamed item to `sink` after showing it to `tap` —
/// how the CLI prints its `-v` per-layer lines.
struct Tap<S, F> {
    sink: S,
    tap: F,
}

impl<S: ResultSink, F: FnMut(&LayerResult)> ResultSink for Tap<S, F> {
    fn layer(&mut self, r: LayerResult) {
        (self.tap)(&r);
        self.sink.layer(r);
    }
}

impl<S: ScaleoutSink, F: FnMut(&ScaleoutLayerRecord)> ScaleoutSink for Tap<S, F> {
    fn layer(&mut self, r: ScaleoutLayerRecord) {
        (self.tap)(&r);
        self.sink.layer(r);
    }
}

/// Streams a prepared run into its response body, printing a progress
/// line per layer when `verbose`.
fn run_body(run: &PreparedRun, verbose: bool) -> RunBody {
    let mut sink = Tap {
        sink: RunBodySink::new(run.sim.config()),
        tap: |r: &LayerResult| {
            if verbose {
                eprintln!(
                    "  {:<16} {:>12} cycles ({:>3.0}% util, {} stalls)",
                    r.name,
                    r.total_cycles(),
                    r.report.compute.utilization * 100.0,
                    r.stall_cycles()
                );
            }
        },
    };
    run.run_into(&mut sink);
    sink.sink.finish()
}

fn run(service: &SimService, args: RunArgs) -> Result<(), SimError> {
    let spec = RunSpec {
        config: config_source(args.config.as_deref()),
        topology: workload_source(
            args.topology.as_deref(),
            args.workload.as_deref(),
            if args.gemm {
                TopologyFormat::Gemm
            } else {
                TopologyFormat::Conv
            },
        ),
        features: Features {
            dram: args.dram,
            energy: args.energy,
            layout: args.layout,
            cores: None,
        },
    };
    let prepared = service.prepare_run(&spec)?;
    let sim = &prepared.sim;
    let topo = &prepared.topology;
    let config = sim.config();

    eprintln!(
        "scalesim: {} layers of '{}' on a {} {} core{}",
        topo.len(),
        topo.name(),
        config.core.array,
        config.core.dataflow,
        if config.sparsity.is_some() {
            " (sparse)"
        } else {
            ""
        },
    );

    let RunBody {
        summary,
        mut reports,
    } = run_body(&prepared, args.verbose);

    if args.area {
        let area = area_body(&sim.area_report());
        eprintln!(
            "area: {:.1} mm2 total ({:.1} PE array, {:.1} SRAM, {:.1} NoC, {:.1} DRAM ctrl)",
            area.total_mm2, area.pe_array_mm2, area.sram_mm2, area.noc_mm2, area.dram_ctrl_mm2,
        );
        reports.extend(area.reports);
    }

    eprintln!(
        "total: {} cycles ({} compute + {} stalls){}",
        summary.total_cycles,
        summary.compute_cycles,
        summary.stall_cycles,
        if args.energy {
            format!(", {:.3} mJ", summary.energy_mj)
        } else {
            String::new()
        }
    );
    if args.profile_stages {
        let profile = sim.stage_profile();
        let total_ms: f64 = profile.iter().map(|t| t.millis()).sum();
        eprintln!("stage profile ({total_ms:.1} ms total):");
        for t in &profile {
            eprintln!(
                "  {:<10} {:>6} calls {:>10.3} ms ({:>5.1}%)",
                t.stage,
                t.calls,
                t.millis(),
                if total_ms > 0.0 {
                    t.millis() / total_ms * 100.0
                } else {
                    0.0
                },
            );
        }
        // Machine-readable twin of the table above, from the same span
        // measurements.
        let mut json = String::from("{\"stages\":[");
        for (i, t) in profile.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"stage\":\"{}\",\"calls\":{},\"nanos\":{}}}",
                t.stage, t.calls, t.nanos
            ));
        }
        json.push_str("]}\n");
        reports.push(Report {
            name: "STAGE_PROFILE.json".into(),
            content: json,
        });
    }
    print_written(&write_reports(&args.out_dir, &reports)?);
    Ok(())
}

fn llm(service: &SimService, args: LlmArgs) -> Result<(), SimError> {
    let request = LlmRequest {
        config: config_source(args.config.as_deref()),
        workload: args.workload.clone(),
        phase: args.phase.clone(),
        seq: args.seq,
        batch: args.batch,
        context: args.context,
        features: Features {
            dram: args.dram,
            energy: args.energy,
            layout: args.layout,
            cores: None,
        },
    };
    let prepared = service.prepare_llm(&request)?;
    let sim = &prepared.run.sim;
    let topo = &prepared.run.topology;
    let config = sim.config();
    let spec = &prepared.llm.spec;
    let context = prepared.llm.effective_context();

    eprintln!(
        "scalesim llm: {} {} ({} GEMMs, {:.2}B params, {:.1} MiB KV cache @ ctx {}) \
         on a {} {} core",
        spec.name,
        prepared.llm.phase,
        topo.len(),
        spec.param_count() as f64 / 1e9,
        spec.kv_cache_bytes(context) as f64 / (1024.0 * 1024.0),
        context,
        config.core.array,
        config.core.dataflow,
    );

    let RunBody { summary, reports } = run_body(&prepared.run, args.verbose);

    eprintln!(
        "total: {} cycles ({} compute + {} stalls), utilization {:.1}%{}",
        summary.total_cycles,
        summary.compute_cycles,
        summary.stall_cycles,
        summary.utilization * 100.0,
        if args.energy {
            format!(", {:.3} mJ", summary.energy_mj)
        } else {
            String::new()
        }
    );
    print_written(&write_reports(&args.out_dir, &reports)?);
    Ok(())
}

fn sweep(service: &SimService, args: SweepArgs) -> Result<(), SimError> {
    let request = SweepRequest {
        spec: ConfigSource::Path(args.spec.display().to_string()),
        base_config: config_source(args.config.as_deref()),
        topologies: args
            .topologies
            .iter()
            .map(|p| topology_source(p, TopologyFormat::Auto))
            .collect(),
        shards: args.shards,
    };
    let prepared = service.prepare_sweep(&request)?;

    let grid_size = prepared.spec.grid_size();
    eprintln!(
        "scalesim sweep '{}': {} grid points x {} topologies = {} runs ({} shards)",
        prepared.spec.name,
        grid_size,
        prepared.topologies.len(),
        grid_size * prepared.topologies.len(),
        prepared.shards,
    );
    if args.verbose {
        for point in prepared.spec.expand() {
            eprintln!("  point {:>3}: {}", point.index, point.label());
        }
    }

    let started = std::time::Instant::now();
    // Stream per-run records to stderr as shards complete (the report
    // itself stays deterministic: it sorts by run index).
    let (report, cache) = prepared.run_with(|r| {
        if args.verbose {
            eprintln!(
                "  run {:>3} {:<28} {:<12} {:>12} cycles {:>10.4} mJ",
                r.run, r.point_label, r.topology, r.total_cycles, r.energy_mj,
            );
        }
    })?;
    let elapsed = started.elapsed();

    let body = sweep_body(&prepared, &report);
    print_written(&write_reports(&args.out_dir, &body.reports)?);

    eprintln!(
        "sweep done in {:.2}s: plan cache {} — pareto frontier: {}",
        elapsed.as_secs_f64(),
        cache,
        body.pareto_frontier.join(", "),
    );
    Ok(())
}

fn scaleout(service: &SimService, args: ScaleoutArgs) -> Result<(), SimError> {
    let mut request = ScaleoutRequest::for_topology(workload_source(
        args.topology.as_deref(),
        args.workload.as_deref(),
        if args.gemm {
            TopologyFormat::Gemm
        } else {
            TopologyFormat::Auto
        },
    ));
    request.config = config_source(args.config.as_deref());
    request.chips = args.chips;
    request.strategy = args.strategy.clone();
    request.fabric = args.fabric.clone();
    request.link_gbps = args.link_gbps;
    let prepared = service.prepare_scaleout(&request)?;

    eprintln!(
        "scalesim scaleout: {} layers of '{}' on {} chips ({} parallel, {} fabric)",
        prepared.topology.len(),
        prepared.topology.name(),
        prepared.spec.chips,
        prepared.spec.strategy.name(),
        prepared.spec.fabric.tag(),
    );

    let mut sink = Tap {
        sink: MemoryScaleoutSink::new(),
        tap: |r: &ScaleoutLayerRecord| {
            if args.verbose {
                eprint!("  {}", scaleout_rows::scaleout(r));
            }
        },
    };
    let summary = prepared.run_into(&mut sink)?;
    let body = scaleout_body(&summary, sink.sink.finish());

    eprintln!(
        "total: {} cycles on {} ({} compute + {} exposed comm{}); \
         {} of {} comm cycles hidden, utilization {:.1}%",
        summary.total_cycles,
        summary.fabric,
        summary.compute_cycles,
        summary.exposed_cycles,
        if summary.bubble_cycles > 0 {
            format!(" + {} pipeline bubble", summary.bubble_cycles)
        } else {
            String::new()
        },
        summary.overlapped_cycles,
        summary.comm_cycles,
        summary.utilization() * 100.0,
    );
    print_written(&write_reports(&args.out_dir, &body.reports)?);
    Ok(())
}

/// Serves Prometheus text exposition over minimal HTTP: every request
/// (any method, any path) gets a 200 with the current metrics body.
/// Scrape failures never disturb serving — the thread just moves to the
/// next connection.
fn serve_metrics(service: SimService, listener: std::net::TcpListener) {
    use std::io::{BufRead, Write};
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let mut reader = std::io::BufReader::new(stream);
        // Drain the request head (request line + headers) so the peer
        // sees a well-formed exchange.
        let mut line = String::new();
        while reader.read_line(&mut line).is_ok() && line.trim_end() != "" {
            line.clear();
        }
        let body = service.render_prometheus();
        let mut stream = reader.into_inner();
        let _ = write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
    }
}

fn serve(service: &SimService, args: ServeArgs) -> Result<(), SimError> {
    let options = ServeOptions::from_env();
    let server = Server::new(service.clone(), options);
    if let Some(addr) = &args.metrics_addr {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| SimError::Io(format!("cannot listen on {addr} for metrics: {e}")))?;
        let bound = listener
            .local_addr()
            .map_err(|e| SimError::Io(format!("metrics local_addr: {e}")))?;
        eprintln!("scalesim serve: metrics on http://{bound}/metrics");
        let metrics_service = service.clone();
        std::thread::Builder::new()
            .name("metrics".into())
            .spawn(move || serve_metrics(metrics_service, listener))
            .map_err(|e| SimError::Internal(format!("metrics thread: {e}")))?;
    }
    match args.listen {
        None => {
            eprintln!("scalesim serve: reading JSON-lines requests from stdin");
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            server
                .serve_session(stdin.lock(), stdout.lock())
                .map_err(|e| SimError::Io(format!("stdio session: {e}")))
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .map_err(|e| SimError::Io(format!("cannot listen on {addr}: {e}")))?;
            let bound = listener
                .local_addr()
                .map_err(|e| SimError::Io(format!("local_addr: {e}")))?;
            eprintln!(
                "scalesim serve: listening on {bound} ({} sessions, {} workers, queue depth {})",
                options.max_sessions, options.workers, options.queue_depth
            );
            server
                .serve_listener(listener)
                .map_err(|e| SimError::Io(format!("accept: {e}")))
        }
    }
}

fn main() -> ExitCode {
    obs::label_thread("main");
    let service = SimService::new();
    let command = match parse_cli(std::env::args()) {
        Ok(command) => command,
        Err(e) => {
            if !e.message.is_empty() {
                eprintln!("error: {}\n", e.message);
            }
            eprintln!("{}", e.usage);
            return ExitCode::FAILURE;
        }
    };
    let trace = trace_path(&command);
    if trace.is_some() {
        obs::set_tracing(true);
    }
    let result = match command {
        Command::Version => {
            println!("{}", version_string());
            return ExitCode::SUCCESS;
        }
        Command::Run(args) => run(&service, args),
        Command::Llm(args) => llm(&service, args),
        Command::Sweep(args) => sweep(&service, args),
        Command::Scaleout(args) => scaleout(&service, args),
        Command::Serve(args) => serve(&service, args),
    };
    if let Some(path) = &trace {
        write_trace(path);
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // The SimError taxonomy pins the exit code: config=2,
            // topology=3, io=4, internal=70 (docs/API.md).
            ExitCode::from(e.exit_code())
        }
    }
}
