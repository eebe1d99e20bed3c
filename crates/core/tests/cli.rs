//! End-to-end tests of the `scalesim` binary: argument rejection,
//! sweep-report determinism across thread counts and shard counts, and
//! report files equal to the service's response reports.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scalesim"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalesim-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn unknown_flag_prints_usage_and_exits_nonzero() {
    let out = bin()
        .args(["--frobnicate"])
        .output()
        .expect("spawn scalesim");
    assert!(!out.status.success(), "unknown flag must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument '--frobnicate'"),
        "stderr was: {stderr}"
    );
    assert!(stderr.contains("usage: scalesim"), "stderr was: {stderr}");
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_nonzero() {
    let out = bin().args(["swoop"]).output().expect("spawn scalesim");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument 'swoop'"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_sweep_flag_prints_sweep_usage() {
    let out = bin()
        .args(["sweep", "-s", "nope.toml", "--wat"])
        .output()
        .expect("spawn scalesim");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument '--wat'"), "{stderr}");
    assert!(stderr.contains("usage: scalesim sweep"), "{stderr}");
}

fn write_sweep_inputs(dir: &Path) -> (PathBuf, PathBuf) {
    let topo_a = dir.join("a_gemm.csv");
    std::fs::write(
        &topo_a,
        "Layer, M, K, N,\nl0, 16, 16, 16,\nl1, 24, 24, 24,\n",
    )
    .unwrap();
    let topo_b = dir.join("b_gemm.csv");
    std::fs::write(&topo_b, "Layer, M, K, N,\nl0, 32, 16, 8,\n").unwrap();
    let spec = dir.join("grid.toml");
    std::fs::write(
        &spec,
        format!(
            "[sweep]\nname = cli-test\n[grid]\narray = 8x8, 16x16\nbandwidth = 4, 10\n\
             energy = true\n[workloads]\ntopology = {}, {}\n",
            topo_a.display(),
            topo_b.display()
        ),
    )
    .unwrap();
    (spec, dir.to_path_buf())
}

/// The acceptance property: SWEEP_REPORT bytes must not depend on
/// `SCALESIM_THREADS` or `--shards`.
#[test]
fn sweep_reports_are_byte_identical_across_threads_and_shards() {
    let dir = tmp_dir("det");
    let (spec, _) = write_sweep_inputs(&dir);
    let mut outputs = Vec::new();
    for (tag, threads, shards) in [("t1s1", "1", "1"), ("t8s1", "8", "1"), ("t8s3", "8", "3")] {
        let out_dir = dir.join(tag);
        let out = bin()
            .args(["sweep", "-s"])
            .arg(&spec)
            .args(["--shards", shards, "-p"])
            .arg(&out_dir)
            .env("SCALESIM_THREADS", threads)
            .output()
            .expect("spawn scalesim sweep");
        assert!(
            out.status.success(),
            "sweep failed ({tag}): {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let csv = std::fs::read(out_dir.join("SWEEP_REPORT.csv")).unwrap();
        let json = std::fs::read(out_dir.join("SWEEP_REPORT.json")).unwrap();
        outputs.push((tag, csv, json));
    }
    let (_, csv0, json0) = &outputs[0];
    for (tag, csv, json) in &outputs[1..] {
        assert_eq!(csv, csv0, "CSV differs for {tag}");
        assert_eq!(json, json0, "JSON differs for {tag}");
    }
    // Sanity: 4 grid points x 2 topologies = 8 runs + header.
    let text = String::from_utf8(csv0.clone()).unwrap();
    assert_eq!(text.lines().count(), 9, "expected 8 runs:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_flag_prints_the_version_and_exits_zero() {
    for flag in ["--version", "-V"] {
        let out = bin().args([flag]).output().expect("spawn scalesim");
        assert!(out.status.success(), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("scalesim "), "{flag}: {stdout}");
        assert!(stdout.contains("git "), "{flag}: {stdout}");
    }
}

#[test]
fn unknown_cfg_key_fails_with_named_error_and_config_exit_code() {
    let dir = tmp_dir("badcfg");
    let cfg = dir.join("bad.cfg");
    std::fs::write(&cfg, "[architecture_presets]\nArrayHieght : 32\n").unwrap();
    let topo = dir.join("t_gemm.csv");
    std::fs::write(&topo, "Layer, M, K, N,\nl0, 16, 16, 16,\n").unwrap();
    let out = bin()
        .args(["-c"])
        .arg(&cfg)
        .args(["-t"])
        .arg(&topo)
        .args(["--gemm"])
        .output()
        .expect("spawn scalesim");
    assert_eq!(
        out.status.code(),
        Some(2),
        "configuration errors exit with code 2"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown key 'arrayhieght'"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `SimError` taxonomy pins process exit codes: config=2,
/// topology=3, io=4 (internal=70 is unit-tested in `scalesim-api` —
/// it only fires on caught panics). CLI usage errors stay 1.
#[test]
fn error_categories_map_to_distinct_exit_codes() {
    let dir = tmp_dir("exitcodes");

    // Duplicate layer name -> topology error -> exit 3, naming the
    // duplicate and its line numbers.
    let dup = dir.join("dup_gemm.csv");
    std::fs::write(&dup, "Layer, M, K, N,\nqkv, 16, 16, 16,\nqkv, 8, 8, 8,\n").unwrap();
    let out = bin()
        .args(["-t"])
        .arg(&dup)
        .args(["--gemm"])
        .output()
        .expect("spawn scalesim");
    assert_eq!(out.status.code(), Some(3), "topology errors exit with 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("duplicate layer name 'qkv'"),
        "must name the duplicate: {stderr}"
    );
    assert!(
        stderr.contains("line 3") && stderr.contains("first defined at line 2"),
        "must name both lines: {stderr}"
    );

    // Missing input file -> io error -> exit 4.
    let out = bin()
        .args(["-t", "/nonexistent/topo.csv"])
        .output()
        .expect("spawn scalesim");
    assert_eq!(out.status.code(), Some(4), "io errors exit with 4");

    // Usage errors keep the generic failure code 1.
    let out = bin().args(["--frobnicate"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1), "usage errors exit with 1");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_without_topologies_fails_with_message() {
    let dir = tmp_dir("notopo");
    let spec = dir.join("grid.toml");
    std::fs::write(&spec, "[grid]\narray = 8x8\n").unwrap();
    let out = bin()
        .args(["sweep", "-s"])
        .arg(&spec)
        .output()
        .expect("spawn scalesim sweep");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no topologies"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts `dir` holds exactly one file per report, named after it and
/// holding its bytes.
fn assert_dir_holds_exactly(dir: &Path, reports: &[scalesim::api::Report]) {
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("read output dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut names: Vec<String> = reports.iter().map(|r| r.name.clone()).collect();
    names.sort();
    assert_eq!(on_disk, names, "files in {}", dir.display());
    for report in reports {
        let bytes = std::fs::read(dir.join(&report.name)).unwrap();
        assert!(
            bytes == report.content.as_bytes(),
            "{}: CLI file differs from the service response",
            report.name
        );
    }
}

/// The CLI writes the reports its wire response carries: a sparse run
/// with every per-layer feature on, and an llm run, each leave exactly
/// the response's report files in an empty `-p` directory, byte for
/// byte.
#[test]
fn cli_files_are_exactly_the_service_response_reports() {
    use scalesim::api::{
        ConfigSource, Features, LlmRequest, RunSpec, SimRequest, SimResponse, TopologyFormat,
        TopologySource,
    };
    use scalesim::service::SimService;

    let dir = tmp_dir("one-report-path");
    let cfg = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs/sparse_vegeta.cfg");
    let topo = dir.join("net_gemm.csv");
    std::fs::write(&topo, "Layer, M, K, N,\na, 32, 64, 32,\nb, 48, 32, 40,\n").unwrap();
    let run_out = dir.join("run");
    let out = bin()
        .arg("-c")
        .arg(&cfg)
        .arg("-t")
        .arg(&topo)
        .args(["--gemm", "--dram", "--energy", "--layout", "-p"])
        .arg(&run_out)
        .output()
        .expect("spawn scalesim");
    assert!(
        out.status.success(),
        "cli run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let service = SimService::new();
    let request = SimRequest::Run(RunSpec {
        config: ConfigSource::Path(cfg.display().to_string()),
        topology: TopologySource::from_path(topo.display().to_string())
            .with_format(TopologyFormat::Gemm),
        features: Features {
            dram: true,
            energy: true,
            layout: true,
            cores: None,
        },
    });
    let SimResponse::Run(body) = service.handle(&request).expect("valid run") else {
        panic!("expected run body")
    };
    assert_eq!(
        body.reports.len(),
        5,
        "compute, bandwidth, sparse, energy, dram"
    );
    assert_dir_holds_exactly(&run_out, &body.reports);

    let llm_cfg = dir.join("tiny_llm.cfg");
    std::fs::write(
        &llm_cfg,
        "[llm]\nPreset : gpt2-xl\nLayers : 2\nDModel : 64\nHeads : 4\nKvHeads : 4\n\
         DFf : 128\nVocab : 256\nSeq : 16\nBatch : 1\n",
    )
    .unwrap();
    let llm_out = dir.join("llm");
    let out = bin()
        .args(["llm", "--phase", "decode", "-c"])
        .arg(&llm_cfg)
        .arg("-p")
        .arg(&llm_out)
        .output()
        .expect("spawn scalesim");
    assert!(
        out.status.success(),
        "cli llm failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let request = SimRequest::Llm(LlmRequest {
        config: ConfigSource::Path(llm_cfg.display().to_string()),
        phase: Some("decode".into()),
        ..Default::default()
    });
    let SimResponse::Llm(body) = service.handle(&request).expect("valid llm run") else {
        panic!("expected llm body")
    };
    assert_dir_holds_exactly(&llm_out, &body.reports);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A report that cannot be written is an io error (exit 4) naming the
/// file.
#[test]
fn unwritable_report_is_an_io_error_naming_the_file() {
    let dir = tmp_dir("unwritable");
    let topo = dir.join("net_gemm.csv");
    std::fs::write(&topo, "Layer, M, K, N,\na, 16, 16, 16,\n").unwrap();
    let out_dir = dir.join("out");
    std::fs::create_dir_all(out_dir.join("COMPUTE_REPORT.csv")).unwrap();
    let out = bin()
        .arg("-t")
        .arg(&topo)
        .args(["--gemm", "-p"])
        .arg(&out_dir)
        .output()
        .expect("spawn scalesim");
    assert_eq!(out.status.code(), Some(4), "io errors exit with 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("COMPUTE_REPORT.csv"),
        "must name the file: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
