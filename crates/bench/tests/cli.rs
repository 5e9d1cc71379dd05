//! The bench binaries at their trust boundary: a flag value that does not
//! parse, and a flag the binary does not know, are usage errors naming the
//! token — never the default (a typo in `large_n_smoke --n` must not start
//! the full 1.8M-body run).

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
}
