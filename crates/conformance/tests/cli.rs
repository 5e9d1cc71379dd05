//! The `grape6-conformance` binary at its trust boundary: a valued flag
//! followed by another flag, a stray argument, a value that does not parse, a
//! flag given twice and a seed range past `u64::MAX` are usage errors (exit
//! 2) before any scenario runs — never a fuzz run the caller did not ask for.

use std::process::{Command, Output};

/// Run the binary from an empty directory, so that no corpus is replayed and
/// anything it writes shows up there.
fn conformance(tag: &str, args: &[&str]) -> (Output, Vec<std::fs::DirEntry>) {
    let dir = std::env::temp_dir().join(format!("g6-conf-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_grape6-conformance"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn grape6-conformance");
    let written = std::fs::read_dir(&dir).expect("read temp dir").map(Result::unwrap).collect();
    std::fs::remove_dir_all(&dir).ok();
    (out, written)
}

#[test]
fn malformed_command_lines_are_usage_errors_before_any_scenario() {
    // Unchecked, the first runs the ordinary one-seed fuzz and exits 0: the
    // self-test never runs, because `--broken-kernel` became the failures
    // directory. The last panicked in a debug build and, in a release build,
    // wrapped to an empty seed range and reported "0 scenarios, 0 failing".
    let cases: [(&[&str], &str); 5] = [
        (&["--failures", "--broken-kernel", "--seeds", "1"], "--failures needs a value"),
        (&["--seeds", "1", "4"], "stray argument '4'"),
        (&["--seeds", "x"], "invalid value 'x' for --seeds"),
        (&["--seeds", "0", "--seeds", "1"], "--seeds given twice"),
        (
            &["--start-seed", "18446744073709551615", "--seeds", "2"],
            "--start-seed + --seeds must fit in a u64",
        ),
    ];
    for (args, message) in cases {
        let (out, written) = conformance("refused", args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains(message), "{args:?}: expected '{message}', got:\n{stderr}");
        assert!(stderr.contains("usage: grape6-conformance"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must run no scenario");
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}

#[test]
fn help_prints_the_usage_line_and_exits_zero() {
    let (out, _) = conformance("help", &["--help"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: grape6-conformance [--seeds N]"), "{stdout}");
}
