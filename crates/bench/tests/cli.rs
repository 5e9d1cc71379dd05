//! The bench binaries at their trust boundary: a flag value that does not
//! parse is a usage error naming the flag and the text — never the default
//! (a typo in `large_n_smoke --n` must not start the full 1.8M-body run).

use std::process::Command;

#[test]
fn load_gen_rejects_an_unparsable_flag_value() {
    let out_file =
        std::env::temp_dir().join(format!("g6-load-gen-cli-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_load_gen"))
        .args(["--smoke", "--jobs", "6x", "--out"])
        .arg(&out_file)
        .output()
        .expect("spawn load_gen");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a typo in --jobs must not run the default load");
    assert!(stderr.contains("invalid value '6x' for --jobs"), "stderr:\n{stderr}");
    assert!(!out_file.exists(), "a rejected invocation must not write output");
}
