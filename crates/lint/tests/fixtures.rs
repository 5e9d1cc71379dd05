//! Integration tests: the linter over its self-test fixture corpus (exact
//! rule/file/line assertions, waiver and scoping suppression), and the
//! exit-code contract over the real workspace.

#![forbid(unsafe_code)]

use grape6_lint::config::Config;
use grape6_lint::run_lint;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Lint the fixture corpus with its checked-in lint.toml; return
/// `(rule, path, line)` triples in the linter's (sorted) output order.
fn lint_fixtures() -> Vec<(String, String, u32)> {
    let root = fixtures_root();
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("fixture lint.toml");
    let cfg = Config::parse(&text).expect("fixture lint.toml parses");
    run_lint(&root, &cfg)
        .expect("fixture lint runs")
        .into_iter()
        .map(|d| (d.rule, d.path, d.line))
        .collect()
}

#[test]
fn fixture_corpus_yields_exact_diagnostics() {
    let got = lint_fixtures();
    let want: Vec<(String, String, u32)> = [
        ("C001", "c001_lock_order.rs", 19),
        ("C001", "c001_lock_order.rs", 26),
        ("C002", "c002_blocking.rs", 20),
        ("C002", "c002_blocking.rs", 26),
        ("H001", "h001_hot.rs", 7),
        ("H001", "h001_hot.rs", 8),
        ("H001", "h001_lanes.rs", 10),
        ("H001", "h001_lanes.rs", 11),
        ("H001", "h001_pop_block.rs", 10),
        ("H001", "h001_pop_block.rs", 11),
        ("H001", "h001_sched.rs", 12),
        ("H001", "h001_sched.rs", 13),
        ("H001", "h001_walk.rs", 12),
        ("H001", "h001_walk.rs", 13),
        ("P001", "p001_entry.rs", 7),
        ("P001", "p001_entry.rs", 8),
        ("P001", "p001_entry.rs", 20),
        ("P001", "p001_helper.rs", 7),
        ("U001", "u001_unsafe.rs", 7),
        ("U002", "u002_missing_forbid/src/lib.rs", 1),
        ("U001", "waivers.rs", 3),
    ]
    .iter()
    .map(|(r, p, l)| (r.to_string(), p.to_string(), *l))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn scheduler_hot_fixture_flags_alloc_but_not_cold_telemetry() {
    // The grape6-serve scheduler's `pick_next` is hot-annotated; this
    // fixture mirrors it with a collect and a clone smuggled in. Both must
    // be flagged, while the cold telemetry query below the hot region
    // allocates without complaint.
    let got = lint_fixtures();
    let sched: Vec<&(String, String, u32)> =
        got.iter().filter(|(_, p, _)| p == "h001_sched.rs").collect();
    assert_eq!(sched.len(), 2, "exactly the two hot-region allocations: {sched:?}");
    assert!(sched.iter().all(|(r, _, _)| r == "H001"));
    assert_eq!(sched[0].2, 12, "collect::<Vec> in pick_next");
    assert_eq!(sched[1].2, 13, "to_vec in pick_next");
    assert!(
        !got.iter().any(|(_, p, l)| p == "h001_sched.rs" && *l > 15),
        "cold telemetry_rows must not be flagged: {got:?}"
    );
}

#[test]
fn inline_waivers_suppress_waived_lines_only() {
    let got = lint_fixtures();
    // Line 2's unsafe is covered by the line-1 waiver; line 3's is not
    // (waivers reach one line down, no further).
    assert!(!got.contains(&("U001".into(), "waivers.rs".into(), 2)));
    assert!(got.contains(&("U001".into(), "waivers.rs".into(), 3)));
    // The H001 waiver on line 7 covers the hot allocation on line 8.
    assert!(!got.iter().any(|(r, p, _)| r == "H001" && p == "waivers.rs"));
}

#[test]
fn lint_toml_path_scoping_suppresses() {
    let got = lint_fixtures();
    // scoped/skipped.rs has an unsafe with no SAFETY comment; U001's
    // `paths` leave the directory out of the rule's scope.
    assert!(!got.iter().any(|(_, p, _)| p.starts_with("scoped/")));
}

#[test]
fn h001_fires_on_heap_allocation_inside_a_lane_kernel() {
    // The AoSoA force kernels (`crates/core/src/lanes.rs`,
    // `crates/grape/src/lanes.rs`) are annotated `// grape6-lint: hot`; this
    // fixture pins that a heap allocation smuggled into such a lane kernel
    // is caught, and that the hot region ends at the kernel's closing brace.
    let got = lint_fixtures();
    let lanes: Vec<u32> = got
        .iter()
        .filter(|(r, p, _)| r == "H001" && p == "h001_lanes.rs")
        .map(|(_, _, l)| *l)
        .collect();
    assert_eq!(lanes, vec![10, 11], "collect::<Vec> and vec![] inside the lane kernel");
}

#[test]
fn strings_and_comments_never_match() {
    let got = lint_fixtures();
    assert!(!got.iter().any(|(_, p, _)| p == "strings_and_comments.rs"));
}

#[test]
fn unsafe_free_fixture_crate_with_forbid_is_clean() {
    let got = lint_fixtures();
    assert!(!got.iter().any(|(_, p, _)| p.starts_with("u002_ok/")));
}

#[test]
fn c001_reports_both_sides_of_the_inconsistent_order() {
    // One side acquires through the shared guard-returning helper — only
    // the interprocedural closure can connect it to the direct opposite
    // order in `drain`. Both acquisition sites must be named.
    let got = lint_fixtures();
    let c001: Vec<u32> = got
        .iter()
        .filter(|(r, p, _)| r == "C001" && p == "c001_lock_order.rs")
        .map(|(_, _, l)| *l)
        .collect();
    assert_eq!(c001, vec![19, 26], "helper-side and direct-side acquisitions");
    // The helper itself takes one lock with nothing held: never a C001.
    assert!(!got.iter().any(|(r, _, l)| r == "C001" && *l == 14));
}

#[test]
fn c002_catches_laundered_blocking_but_exempts_condvar_wait() {
    let got = lint_fixtures();
    let c002: Vec<u32> = got
        .iter()
        .filter(|(r, p, _)| r == "C002" && p == "c002_blocking.rs")
        .map(|(_, _, l)| *l)
        .collect();
    // Line 20 blocks directly under the guard; line 26 reaches write_all
    // only through `persist`. Line 33 (`cv.wait(g)`) releases the guard
    // while parked and must stay silent.
    assert_eq!(c002, vec![20, 26]);
}

#[test]
fn p001_reaches_helpers_and_honors_only_reasoned_waivers() {
    let got = lint_fixtures();
    let p001: Vec<(&str, u32)> =
        got.iter().filter(|(r, _, _)| r == "P001").map(|(_, p, l)| (p.as_str(), *l)).collect();
    assert_eq!(
        p001,
        vec![
            ("p001_entry.rs", 7),  // indexing in the entry handler
            ("p001_entry.rs", 8),  // unwrap in the entry handler
            ("p001_entry.rs", 20), // bare `infallible()` has no reason: inert
            ("p001_helper.rs", 7), // indexing reached via `decode`
        ]
    );
    // The reasoned waiver in `checked` suppresses its unwrap (line 14), and
    // `cold` in the helper file is unreachable from the entry point.
    assert!(!p001.contains(&("p001_entry.rs", 14)));
    assert!(!p001.iter().any(|(p, l)| *p == "p001_helper.rs" && *l > 7));
}

#[test]
fn deny_all_exits_nonzero_on_fixtures_with_diagnostics_on_stdout() {
    let out = Command::new(env!("CARGO_BIN_EXE_grape6-lint"))
        .arg("--root")
        .arg(fixtures_root())
        .output()
        .expect("run grape6-lint");
    assert_eq!(out.status.code(), Some(1), "linting the fixtures must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("u001_unsafe.rs:7: deny [U001]"),
        "missing expected diagnostic, got:\n{stdout}"
    );
    assert!(stdout.contains("u002_missing_forbid/src/lib.rs:1: deny [U002]"));
}

#[test]
fn deny_all_exits_zero_on_the_real_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_grape6-lint"))
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("run grape6-lint");
    assert!(
        out.status.success(),
        "workspace must be lint-clean.\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn list_rules_names_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_grape6-lint"))
        .arg("--list-rules")
        .output()
        .expect("run grape6-lint");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(ids, ["U001", "U002", "H001", "C001", "C002", "P001"], "{stdout}");
}

#[test]
fn a_valued_flag_never_takes_another_flag_as_its_value() {
    // Run from an empty directory, so that a report written to a file named
    // after the next flag would show up there.
    let dir = std::env::temp_dir().join(format!("g6-lint-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let root = workspace_root();
    let cases: [(&[&str], &str); 3] = [
        (&["--json", "--list-rules"], "--json needs a value"),
        (&["--config", "--json", "x.json"], "--config needs a value"),
        (&["--root", "--list-rules"], "--root needs a value"),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_grape6-lint"))
            .arg("--root")
            .arg(&root)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run grape6-lint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains(message), "{args:?}: expected '{message}', got:\n{stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("read temp dir").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
