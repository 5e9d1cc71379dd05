//! The `grape6-serve` binary at its trust boundary: a flag it does not know, a
//! flag given twice or with no value and a zero `--slice-blocks` or
//! `--max-running` are usage errors (exit 2) before any request is read —
//! never a silently ignored typo and never a server whose `Wait` hangs.

use std::io::Write;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

/// One 8-body job, then a `Wait` on it.
const REQUESTS: &str = concat!(
    r#"{"Submit":{"tenant":"a","job":{"n":8,"seed":7,"t_end":0.5}}}"#,
    "\n",
    r#"{"Wait":{"id":0}}"#,
    "\n",
);

/// Run the server on [`REQUESTS`]; `None` if it has not exited after 20 s
/// (it is killed then).
fn serve(args: &[&str]) -> Option<Output> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_grape6-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn grape6-serve");
    // A server that refused its flags has already closed the pipe.
    let _ = child.stdin.take().expect("piped stdin").write_all(REQUESTS.as_bytes());
    for _ in 0..2000 {
        if child.try_wait().expect("poll grape6-serve").is_some() {
            return Some(child.wait_with_output().expect("collect grape6-serve"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().ok();
    child.wait().ok();
    None
}

#[test]
fn default_flags_answer_the_wait() {
    let out = serve(&[]).expect("the default server must answer and exit on EOF");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("Completed"), "stdout:\n{stdout}");
}

#[test]
fn zero_counts_unknown_and_valueless_flags_are_usage_errors() {
    // Unchecked, the first two never answer the `Wait`, the third runs the
    // default slice as if the flag were not there and the last runs one
    // worker.
    let cases: [(&[&str], &str); 7] = [
        (&["--slice-blocks", "0"], "--slice-blocks must be at least 1"),
        (&["--max-running", "0"], "--max-running must be at least 1"),
        (&["--slice-block", "5"], "unknown flag '--slice-block'"),
        (&["--workers"], "--workers needs a value"),
        (&["--workers", "--max-running", "1"], "--workers needs a value"),
        (&["--workers", "two"], "invalid value 'two' for --workers"),
        (&["--workers", "1", "--workers", "2"], "--workers given twice"),
    ];
    for (args, message) in cases {
        let out = serve(args).unwrap_or_else(|| panic!("{args:?} must exit, not hang"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(stderr.contains(message), "{args:?}: expected '{message}', got:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must answer no request");
    }
}
