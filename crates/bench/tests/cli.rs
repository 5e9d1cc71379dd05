//! The bench binaries at their trust boundary: a flag value that does not
//! parse, a flag the binary does not know, a flag given twice and a zero disk
//! or block size are usage errors naming the token — never the default (a
//! typo in `large_n_smoke --n` must not start the full 1.8M-body run) and
//! never a panic or a table of NaNs. A run that does parse reports its memory
//! phase by phase.

use std::path::Path;
use std::process::Command;

/// Run the bench binary at `bin` with `args` in a fresh, empty working
/// directory; assert it exits 2 with `message` on stderr, prints nothing on
/// stdout and leaves the directory empty (`large_n_smoke`'s default `--out`
/// and `--checkpoint` would land there).
fn assert_refused(bin: &str, case: &str, args: &[&str], message: &str) {
    let name = Path::new(bin).file_stem().and_then(|s| s.to_str()).expect("binary name");
    let dir =
        std::env::temp_dir().join(format!("g6-bench-cli-{}-{name}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(bin).args(args).current_dir(&dir).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let written = std::fs::read_dir(&dir).expect("read temp dir").count();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} {args:?} must be a usage error; stderr:\n{stderr}"
    );
    assert!(stderr.contains(message), "{name} {args:?}: stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "{name} {args:?} must do no work");
    assert_eq!(written, 0, "{name} {args:?} must write no output");
}

const LARGE_N_SMOKE: &str = env!("CARGO_BIN_EXE_large_n_smoke");

#[test]
fn large_n_smoke_rejects_an_unparsable_flag_value() {
    assert_refused(LARGE_N_SMOKE, "value", &["--n", "2k"], "invalid value '2k' for --n");
}

#[test]
fn large_n_smoke_rejects_an_unknown_flag() {
    assert_refused(LARGE_N_SMOKE, "unknown", &["--N", "4096"], "unknown flag '--N'");
    assert_refused(LARGE_N_SMOKE, "stray", &["--steps", "2", "4096"], "stray argument '4096'");
    assert_refused(LARGE_N_SMOKE, "twice", &["--n", "2000", "--n", "4096"], "--n given twice");
}

#[test]
fn a_zero_disk_or_block_size_is_refused_before_any_output() {
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_fig13_gaps"), "--n"),
        (env!("CARGO_BIN_EXE_table_scattering"), "--n"),
        (env!("CARGO_BIN_EXE_table_accretion"), "--n"),
        (env!("CARGO_BIN_EXE_table_tree_vs_direct"), "--n"),
        (LARGE_N_SMOKE, "--n"),
        (env!("CARGO_BIN_EXE_table_headline"), "--n-ref"),
        (env!("CARGO_BIN_EXE_table_network_scaling"), "--block"),
    ] {
        assert_refused(bin, "zero", &[flag, "0"], &format!("error: {flag} must be at least 1"));
    }
}

#[test]
fn large_n_smoke_reports_memory_after_every_phase() {
    let dir = std::env::temp_dir().join(format!("g6-bench-cli-{}-memory", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (json, ckpt) = (dir.join("smoke.json"), dir.join("smoke.g6ck"));
    let out = Command::new(env!("CARGO_BIN_EXE_large_n_smoke"))
        .args(["--n", "2000", "--steps", "5", "--out"])
        .arg(&json)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("spawn large_n_smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    let report = serde_json::value_from_slice(&std::fs::read(&json).expect("read the report"))
        .expect("the report is JSON");
    std::fs::remove_dir_all(&dir).ok();
    let memory = report.get("memory").and_then(|m| m.as_array()).expect("a memory array");
    let phases = ["build", "init", "steps", "checkpoint", "reload", "encode"];
    assert_eq!(memory.len(), phases.len(), "{memory:?}");
    // (The kernel folds freed pages into VmHWM lazily, so a later phase may
    // read a slightly lower peak than an earlier one.)
    for (entry, phase) in memory.iter().zip(phases) {
        assert_eq!(entry.get("phase").and_then(|p| p.as_str()), Some(phase));
        let field = |key| entry.get(key).and_then(|v| v.as_f64()).expect(key);
        let (rss, peak) = (field("rss_mib"), field("peak_rss_mib"));
        assert!(rss > 0.0 && peak >= rss, "{phase}: rss {rss} MiB, peak {peak} MiB");
        assert!(stdout.contains(&format!("memory after {phase}: rss ")), "{stdout}");
    }
}
