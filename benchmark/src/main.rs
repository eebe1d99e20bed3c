//! The repository benchmark: drives the simulator's public API
//! in-process from one single-threaded load generator, checks every
//! output against pinned digests and prints every metric with its unit.
//!
//! ```text
//! scalesim-benchmark --workload <name|all> [--seed N] [--seconds S]
//!                    [--trace 0|1] [--repeat N] [--bless]
//! ```
//!
//! See `benchmark/README.md` for workloads, metrics and bounds.

mod check;
mod stats;
mod traced;
mod workloads;

use check::Checker;
use stats::{median, percentile, quartiles, result_line, Metric};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traced::Tracer;

const USAGE: &str = "usage: scalesim-benchmark --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat N] [--bless]\n\
                     workloads: paper-resnet18, dse-sweep, llm-decode, serve-mix";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: 1,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a non-negative integer"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            "--repeat" => args.repeat = number()?.max(1) as usize,
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scalesim-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "scalesim-benchmark: refusing to measure a debug build; \
             run it with `cargo run --release --manifest-path benchmark/Cargo.toml -- ...`"
        );
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    match workloads::NAMES.iter().find(|n| **n == args.workload) {
        Some(name) => run_one(name, &args),
        None => {
            eprintln!(
                "scalesim-benchmark: unknown workload '{}'\n{USAGE}",
                args.workload
            );
            ExitCode::from(2)
        }
    }
}

/// The facts a result depends on besides the code: seed, scheduler
/// size, machine parallelism, version and build profile.
fn header(name: &str, seed: u64, uses_seed: bool) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = scalesim_sched::Scheduler::global().workers();
    println!("== {name} ==");
    println!(
        "seed {seed} ({}) | scheduler workers {workers} (+ calling thread) | nproc {nproc} | \
         build release | {}",
        if uses_seed {
            "used: request order"
        } else {
            "unused: fixed inputs"
        },
        scalesim::version_string(),
    );
}

/// Every metric is host time or host memory; simulated results are
/// checked outputs, never metrics.
fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<28} {:>16.6} {:<6} host", m.name, m.value, m.unit);
    }
}

/// The latency tail as the highest percentile with at least ten
/// samples beyond it: p90 on `serve-mix`, none on the batch workloads,
/// whose few long operations leave none. Printed, not a gated metric.
fn print_tail(ms: &[f64]) {
    let n = ms.len();
    if n < 100 {
        println!("  request latency samples: n={n}, too few for a tail percentile");
        return;
    }
    let p90 = percentile(ms, 0.9);
    println!(
        "  {:<28} {:>16.6} {:<6} host (n={n}, {} beyond p90)",
        "req_p90_ms",
        p90,
        "ms",
        ms.iter().filter(|&&v| v > p90).count()
    );
}

/// Whether another pass, as long as the last one, fits in the budget:
/// it starts only if it would end less than half a pass past the
/// budget, so a run overruns `--seconds` by at most half a pass and a
/// workload of long passes runs the same count every time.
fn more_fits(start: Instant, budget: Duration, last_pass_s: f64) -> bool {
    start.elapsed().as_secs_f64() + last_pass_s / 2.0 < budget.as_secs_f64()
}

fn print_errors(check: &Checker) {
    println!(
        "  {:<28} {:>16.6} {:<6} ({} failed / {} attempted)",
        "error_rate",
        check.error_rate(),
        "ratio",
        check.failed,
        check.attempted
    );
    for (name, count) in &check.mismatches {
        println!("  MISMATCH {name}: {count} operation(s) differ from the pinned reference");
    }
}

fn run_one(name: &'static str, args: &Args) -> ExitCode {
    let mut check = Checker::new(name, args.bless);
    let (mut workload, setup_s) = match workloads::setup(name, args.seed, &mut check) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("scalesim-benchmark: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    header(name, args.seed, workload.uses_seed());
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let metrics = if args.trace {
        let mut tracer = Tracer::new();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        // Alternate which side of each pair runs first, so neither
        // always inherits the other's warm caches.
        while plain.is_empty()
            || more_fits(
                start,
                budget,
                plain[plain.len() - 1] + traced[traced.len() - 1],
            )
        {
            if plain.len() % 2 == 0 {
                plain.push(workload.pass(&mut check).seconds);
                traced.push(workload.traced_pass(&mut tracer, &mut check).seconds);
            } else {
                traced.push(workload.traced_pass(&mut tracer, &mut check).seconds);
                plain.push(workload.pass(&mut check).seconds);
            }
        }
        let overhead = median(&traced) / median(&plain) - 1.0;
        let metrics = tracer.metrics(overhead);
        println!(
            "per-layer metrics, per traced pass ({} traced, {} untraced passes):",
            traced.len(),
            plain.len()
        );
        print_metrics(&metrics);
        println!("self time by span, summed over traced passes:");
        for (span, s) in tracer.self_times().iter().take(10) {
            println!("  {span:<28} {s:>16.6} s");
        }
        let path =
            std::path::PathBuf::from(format!("benchmark/out/spans-{name}-seed{}.json", args.seed));
        match tracer.write_spans(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!(
                "scalesim-benchmark: could not write {}: {e}",
                path.display()
            ),
        }
        println!(
            "traced outputs identical to untraced and pinned: {}",
            if check.failed == 0 { "yes" } else { "NO" }
        );
        metrics
    } else {
        let (mut passes, mut ops, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
        let mut setups = vec![setup_s];
        while passes.is_empty()
            || ops.len() < workload.min_ops()
            || more_fits(start, budget, passes[passes.len() - 1])
        {
            setups.extend(
                (0..workloads::SETUPS_PER_PASS).map_while(|_| workload.setup_again(&mut check)),
            );
            let pass = workload.pass(&mut check);
            passes.push(pass.seconds);
            ops.extend(pass.op_seconds);
            cycles.push(pass.sim_cycles as f64);
        }
        let wall_s = median(&passes);
        let ms: Vec<f64> = ops.iter().map(|s| s * 1e3).collect();
        let metrics = vec![
            Metric::new("setup_s", "s", median(&setups)),
            Metric::new("wall_s", "s", wall_s),
            Metric::new(
                "sim_mcycles_per_s",
                "Mcyc/s",
                median(&cycles) / 1e6 / wall_s,
            ),
            Metric::new("peak_rss_mb", "MB", stats::peak_rss_mb()),
            Metric::new("req_p50_ms", "ms", percentile(&ms, 0.5)),
        ];
        println!(
            "end-to-end metrics ({} passes of median {wall_s:.4} s):",
            passes.len()
        );
        print_metrics(&metrics);
        print_tail(&ms);
        metrics
    };
    print_errors(&check);
    if args.bless {
        match check.write_blessed() {
            Ok(()) => println!("blessed {name} outputs into {}", check::REFS_PATH),
            Err(e) => eprintln!(
                "scalesim-benchmark: could not write {}: {e}",
                check::REFS_PATH
            ),
        }
    }
    let correct = check.failed == 0 && check.attempted > 0;
    println!(
        "{}",
        result_line(correct, check.attempted, check.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// End-to-end bounds from `BENCHMARK.json`, when run from the root.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(json) = scalesim_api::json::Json::parse(&text) else {
        return BTreeMap::new();
    };
    json.get("end_to_end")
        .and_then(|e| e.as_array())
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Every workload, `repeat` times, each run in a fresh process (so peak
/// memory is per run), alternating the workload order between rounds;
/// then each metric's median and quartiles against its bound.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("scalesim-benchmark: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut values: BTreeMap<&str, BTreeMap<String, (Vec<f64>, String)>> = BTreeMap::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for round in 0..args.repeat {
        let mut order = workloads::NAMES.to_vec();
        if round % 2 == 1 {
            order.reverse();
        }
        for name in order {
            let seed = args.seed + round as u64;
            let output = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .args(args.bless.then_some("--bless"))
                .stderr(std::process::Stdio::inherit())
                .output();
            let text = match output {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!("scalesim-benchmark: {name} exited with {}", o.status);
                    correct = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("scalesim-benchmark: could not run {name}: {e}");
                    correct = false;
                    continue;
                }
            };
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or("");
            for line in lines {
                println!("{line}");
            }
            let Ok(json) = scalesim_api::json::Json::parse(last) else {
                eprintln!("scalesim-benchmark: {name} printed no result line");
                correct = false;
                continue;
            };
            correct &= json.get("correct").and_then(|v| v.as_bool()) == Some(true);
            attempted += json.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
            failed += json.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
            let metrics = json
                .get("metrics")
                .and_then(|m| m.as_object())
                .unwrap_or(&[]);
            for (metric, v) in metrics {
                let entry = values
                    .entry(name)
                    .or_default()
                    .entry(metric.clone())
                    .or_default();
                entry
                    .0
                    .push(v.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN));
                entry.1 = v
                    .get("unit")
                    .and_then(|u| u.as_str())
                    .unwrap_or("")
                    .to_string();
            }
        }
    }
    let bounds = bounds();
    let mut medians = Vec::new();
    println!(
        "== summary: {} run(s) per workload, seeds {}.. ==",
        args.repeat, args.seed
    );
    println!(
        "  {:<16} {:<28} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, metrics) in &values {
        for (metric, (v, unit)) in metrics {
            let (q1, med, q3) = quartiles(v);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let verdict = match bounds.get(metric) {
                Some(&b) if metric == "setup_s" => format!("{b:>7.3} (spread not bounded)"),
                Some(&b) if spread <= b / 3.0 => format!("{b:>7.3} ok (< bound/3)"),
                Some(&b) if spread <= b => format!("{b:>7.3} within bound"),
                Some(&b) => format!("{b:>7.3} OVER BOUND"),
                None => String::new(),
            };
            println!(
                "  {name:<16} {metric:<28} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>8.4} {verdict} [{unit}]"
            );
            medians.push(Metric::new(format!("{name}.{metric}"), unit.as_str(), med));
        }
    }
    println!(
        "{}",
        result_line(correct && attempted > 0, attempted, failed, &medians)
    );
    ExitCode::SUCCESS
}
