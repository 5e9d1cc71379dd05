//! The bench binaries at their trust boundary: a flag value that does not
//! parse, a flag the binary does not know and a flag given twice are usage
//! errors naming the token — never the default (a typo in `large_n_smoke --n`
//! must not start the full 1.8M-body run). A run that does parse reports its
//! memory phase by phase.

use std::process::Command;

/// Run `large_n_smoke` with `args` plus `--out` and `--checkpoint` in a
/// fresh temporary directory; assert it exits 2 with `message` on stderr and
/// writes neither file.
fn assert_refused(case: &str, args: &[&str], message: &str) {
    let dir = std::env::temp_dir().join(format!("g6-bench-cli-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (json, ckpt) = (dir.join("smoke.json"), dir.join("smoke.g6ck"));
    let out = Command::new(env!("CARGO_BIN_EXE_large_n_smoke"))
        .args(args)
        .arg("--out")
        .arg(&json)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("spawn large_n_smoke");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error; stderr:\n{stderr}");
    assert!(stderr.contains(message), "{args:?}: stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must do no work");
    assert!(!json.exists() && !ckpt.exists(), "{args:?} must write no output");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn large_n_smoke_rejects_an_unparsable_flag_value() {
    assert_refused("value", &["--n", "2k"], "invalid value '2k' for --n");
}

#[test]
fn large_n_smoke_rejects_an_unknown_flag() {
    assert_refused("unknown", &["--N", "4096"], "unknown flag '--N'");
    assert_refused("stray", &["--steps", "2", "4096"], "stray argument '4096'");
    assert_refused("twice", &["--n", "2000", "--n", "4096"], "--n given twice");
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
