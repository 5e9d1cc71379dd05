//! The `grape6` binary at its trust boundary: a value that does not parse, an
//! unknown flag, a flag given twice and a valued flag with no value are
//! errors naming the flag — never a silent default — `--engine tree` is
//! hybrid at `--near-radius 0`, every engine resumes a checkpoint to the
//! bytes of an uninterrupted run, and an input no decoder or engine can take
//! is refused with exit 1, never a panic or a hang.

use grape6_sim::{load_auto, save_auto};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn grape6(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grape6")).args(args).output().expect("spawn grape6")
}

/// [`grape6`], killed if it has not exited after about `secs` seconds of
/// polling: a hang fails the test instead of hanging the suite.
fn grape6_within(secs: u64, args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_grape6"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn grape6");
    for _ in 0..secs * 50 {
        if child.try_wait().expect("poll grape6").is_some() {
            return child.wait_with_output().expect("collect grape6 output");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().ok();
    child.wait().ok();
    panic!("grape6 {args:?} did not exit within {secs} s");
}

/// A scratch directory unique to one test (tests run on parallel threads).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("g6-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn gen_disk(dir: &std::path::Path) -> String {
    let disk = dir.join("disk.json").display().to_string();
    let out = grape6(&["gen", "--n", "48", "--seed", "11", "--out", &disk]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    disk
}

#[test]
fn malformed_flag_values_are_errors_naming_flag_and_text() {
    let dir = scratch("bad");
    let disk = gen_disk(&dir);
    let snap = dir.join("never.g6sn").display().to_string();
    let cases: [(&[&str], &str, &str); 6] = [
        (&["gen", "--n", "8", "--seed", "oops", "--out", &snap], "--seed", "oops"),
        (&["run", "--in", &disk, "--t", "abc"], "--t", "abc"),
        (&["run", "--in", &disk, "--t", "1", "--theta", "banana"], "--theta", "banana"),
        (&["run", "--in", &disk, "--t", "1", "--eta", "0.0.2"], "--eta", "0.0.2"),
        (
            &["run", "--in", &disk, "--t", "1", "--checkpoint", &snap, "--checkpoint-every", "x"],
            "--checkpoint-every",
            "x",
        ),
        (&["analyze", "--in", &disk, "--bins", "-3"], "--bins", "-3"),
    ];
    for (args, flag, text) in cases {
        let out = grape6(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains(&format!("invalid value '{text}' for {flag}")),
            "{args:?}: stderr must name the flag and the text, got:\n{stderr}"
        );
    }
    assert!(!dir.join("never.g6sn").exists(), "a rejected invocation must not write output");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_and_valueless_flags_are_errors_before_any_output() {
    let dir = scratch("flags");
    let disk = gen_disk(&dir);
    let snap = dir.join("never.g6sn").display().to_string();
    // Unchecked, the first three exit 0 on the default direct engine with no
    // fault injected, the fourth takes the next flag as the engine name, and
    // the fifth builds 5 bodies. The rest parse but are out of range:
    // unchecked, `gen --n 0`, `--eta 0 | -1 | nan` and `analyze --bins 0`
    // panic in the library (exit 101), `--t nan` and `--eta inf` exit 0
    // after zero block steps, `--t inf` never returns, `--accrete nan | inf`
    // merge every reported neighbour, `--accrete 0 | -1` switch accretion
    // off without a word, and `perf` models a block of 0 bodies or one
    // larger than the system.
    let cases: [(&[&str], &str); 20] = [
        (
            &["run", "--in", &disk, "--t", "2", "--engin", "grape6", "--out", &snap],
            "unknown flag '--engin' for run",
        ),
        (&["run", "--in", &disk, "--t", "2", "--out", &snap, "--engine"], "--engine needs a value"),
        (&["run", "--in", &disk, "--t", "2", "--out", &snap, "--faults"], "--faults needs a value"),
        (&["run", "--in", &disk, "--t", "2", "--engine", "--out", &snap], "--engine needs a value"),
        (&["gen", "--n", "3", "--n", "5", "--out", &snap], "--n given twice"),
        (&["gen", "--n", "0", "--out", &snap], "--n must be at least 1"),
        (&["run", "--in", &disk, "--t", "2", "--eta", "0", "--out", &snap], "eta and eta_start"),
        (&["run", "--in", &disk, "--t", "2", "--eta", "-1", "--out", &snap], "eta and eta_start"),
        (&["run", "--in", &disk, "--t", "2", "--eta", "nan", "--out", &snap], "eta and eta_start"),
        (&["run", "--in", &disk, "--t", "2", "--eta", "inf", "--out", &snap], "eta and eta_start"),
        (&["run", "--in", &disk, "--t", "nan", "--out", &snap], "--t = NaN must be finite"),
        (&["run", "--in", &disk, "--t", "inf", "--out", &snap], "--t = inf must be finite"),
        (&["analyze", "--in", &disk, "--bins", "0"], "--bins must be at least 1"),
        (&["run", "--in", &disk, "--t", "1", "--accrete", "nan", "--out", &snap], "--accrete"),
        (&["run", "--in", &disk, "--t", "1", "--accrete", "inf", "--out", &snap], "--accrete"),
        (&["run", "--in", &disk, "--t", "1", "--accrete", "0", "--out", &snap], "--accrete"),
        (&["run", "--in", &disk, "--t", "1", "--accrete", "-1", "--out", &snap], "--accrete"),
        (&["perf", "--n", "10", "--block", "100"], "--block = 100 must be between 1 and --n"),
        (&["perf", "--n", "0", "--block", "0"], "--block = 0 must be between 1 and --n"),
        (&["perf", "--n", "10", "--block", "0"], "--block = 0 must be between 1 and --n"),
    ];
    for (args, message) in cases {
        let out = grape6(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail cleanly, got:\n{stderr}");
        assert!(stderr.contains(message), "{args:?}: expected '{message}', got:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must print nothing to stdout");
        assert!(!dir.join("never.g6sn").exists(), "{args:?} must not write output");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_tree_is_the_hybrid_engine_at_zero_near_radius() {
    let dir = scratch("tree");
    let disk = gen_disk(&dir);
    let tree = dir.join("tree.g6sn").display().to_string();
    let hybrid = dir.join("hybrid.g6sn").display().to_string();
    let run = |extra: &[&str], out: &str| {
        let mut args = vec!["run", "--in", &disk, "--t", "4", "--theta", "0.5", "--out", out];
        args.extend_from_slice(extra);
        let done = grape6(&args);
        assert!(done.status.success(), "{}", String::from_utf8_lossy(&done.stderr));
    };
    run(&["--engine", "tree"], &tree);
    run(&["--engine", "hybrid", "--near-radius", "0"], &hybrid);
    let (a, b) = (std::fs::read(&tree).unwrap(), std::fs::read(&hybrid).unwrap());
    assert!(!a.is_empty());
    assert_eq!(a, b, "--engine tree must be --engine hybrid --near-radius 0, byte for byte");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_engine_resumes_to_the_bytes_of_a_straight_run() {
    let dir = scratch("engines");
    let disk = gen_disk(&dir);
    for engine in ["direct", "grape6", "grape6-ft", "tree", "hybrid"] {
        let file = |name: &str| dir.join(format!("{engine}-{name}")).display().to_string();
        let (half, resumed, straight) = (file("half.g6ck"), file("resumed.g6sn"), file("8.g6sn"));
        let run = |args: &[&str]| {
            let mut all = vec!["run", "--engine", engine];
            all.extend_from_slice(args);
            let out = grape6(&all);
            assert!(out.status.success(), "{all:?}: {}", String::from_utf8_lossy(&out.stderr));
            String::from_utf8(out.stdout).unwrap()
        };
        run(&["--in", &disk, "--t", "4", "--checkpoint", &half]);
        let stdout = run(&["--resume", &half, "--t", "4", "--out", &resumed]);
        run(&["--in", &disk, "--t", "8", "--out", &straight]);
        let (a, b) = (std::fs::read(&resumed).unwrap(), std::fs::read(&straight).unwrap());
        assert!(!a.is_empty());
        assert_eq!(a, b, "--engine {engine}: a resumed run must write the straight run's bytes");
        let modeled = stdout.contains("modeled hardware:");
        assert_eq!(modeled, engine == "grape6", "--engine {engine} printed:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hybrid_resume_under_another_theta_is_refused_naming_both() {
    // The engine blob carries the configuration that determines the run's
    // bits: resuming a θ = 0.5 checkpoint with --theta 0.3 would silently
    // continue a different run.
    let dir = scratch("resume");
    let disk = gen_disk(&dir);
    let ck = dir.join("half.g6ck").display().to_string();
    let snap = dir.join("never.g6sn").display().to_string();
    let hybrid = ["--engine", "hybrid", "--near-radius", "1"];
    let mut first = vec!["run", "--in", &disk, "--t", "4", "--theta", "0.5"];
    first.extend_from_slice(&hybrid);
    first.extend_from_slice(&["--checkpoint", &ck, "--checkpoint-every", "4"]);
    let done = grape6(&first);
    assert!(done.status.success(), "{}", String::from_utf8_lossy(&done.stderr));

    let mut resume = vec!["run", "--resume", &ck, "--t", "4", "--theta", "0.3", "--out", &snap];
    resume.extend_from_slice(&hybrid);
    let out = grape6(&resume);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a resume under another theta must fail");
    assert!(stderr.contains("0.5") && stderr.contains("0.3"), "must name both values:\n{stderr}");
    assert!(!dir.join("never.g6sn").exists(), "a refused resume must not write output");

    // The same flags as the checkpointed run resume cleanly.
    resume[6] = "0.5";
    let out = grape6(&resume);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("never.g6sn").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_resume_whose_dt_min_is_one_ulp_off_a_power_of_two_is_refused() {
    // With its lowest bit flipped, dt_min passed a rounded `log2` test and
    // the resume panicked in the tick scheduler (exit 101).
    let dir = scratch("dtmin");
    let disk = gen_disk(&dir);
    let ck = dir.join("half.g6ck").display().to_string();
    let done =
        grape6(&["run", "--in", &disk, "--t", "4", "--checkpoint", &ck, "--checkpoint-every", "4"]);
    assert!(done.status.success(), "{}", String::from_utf8_lossy(&done.stderr));
    let mut raw = std::fs::read(&ck).unwrap();
    let at = raw.windows(8).rposition(|w| w == 2f64.powi(-40).to_le_bytes()).unwrap();
    raw[at] ^= 1;
    let bad = dir.join("bad.g6ck").display().to_string();
    std::fs::write(&bad, raw).unwrap();
    let snap = dir.join("never.g6sn").display().to_string();
    let out = grape6(&["run", "--resume", &bad, "--t", "4", "--out", &snap]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "must fail cleanly, not panic:\n{stderr}");
    assert!(stderr.contains(&format!("error: resuming {bad}")), "{stderr}");
    assert!(stderr.contains("dt_min"), "must name dt_min:\n{stderr}");
    assert!(!dir.join("never.g6sn").exists(), "a refused resume must not write output");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn start_times_the_block_scheduler_cannot_hold_are_refused_naming_dt_min() {
    // The tick scheduler keys events by `t / dt_min` in a u64. A start time
    // off the dt_min grid used to hang a release build (a debug build
    // panicked); one of 3e7 (3.3e19 ticks) saturated and merged blocks.
    let dir = scratch("span");
    let disk = std::fs::read_to_string(gen_disk(&dir)).unwrap();
    assert_eq!(disk.matches("\"t\":0.0").count(), 2, "snapshot and system time");
    for t0 in ["0.1", "30000000.0"] {
        let edited = dir.join(format!("t{t0}.json")).display().to_string();
        std::fs::write(&edited, disk.replace("\"t\":0.0", &format!("\"t\":{t0}"))).unwrap();
        let snap = dir.join("never.g6sn").display().to_string();
        let out = grape6(&["run", "--in", &edited, "--t", "2", "--out", &snap]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "start time {t0}:\n{err}");
        assert!(err.contains("error:") && err.contains("dt_min"), "start time {t0}:\n{err}");
        assert!(!dir.join("never.g6sn").exists(), "a refused run must not write output");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `grape6 run <args> --out <never>` under a kill timeout: it must exit 1
/// with `error:` on stderr, naming each of `names`, and write no snapshot.
fn assert_refused(dir: &std::path::Path, args: &[&str], names: &[&str]) {
    let never = dir.join("never.g6sn");
    let snap = never.display().to_string();
    let args = [&["run"], args, &["--t", "1", "--out", &snap]].concat();
    let out = grape6_within(60, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must fail cleanly, not panic:\n{stderr}");
    assert!(stderr.contains("error:"), "{args:?}:\n{stderr}");
    for name in names {
        assert!(stderr.contains(name), "{args:?} must name {name}:\n{stderr}");
    }
    assert!(!never.exists(), "{args:?}: a refused run must not write output");
}

#[test]
fn inputs_that_fail_validate_or_the_engine_are_refused_with_exit_1() {
    let dir = scratch("refuse");
    let disk = gen_disk(&dir);
    let sys = load_auto(disk.as_ref()).unwrap();
    let path = |name: &str| dir.join(name).display().to_string();

    // A JSON snapshot with fewer velocities than bodies: an out-of-bounds
    // index in the integrator (direct) or the predictor (grape6).
    let mut ragged = sys.clone();
    ragged.vel.truncate(2);
    save_auto(path("ragged.json").as_ref(), &ragged).unwrap();
    for engine in ["direct", "grape6"] {
        assert_refused(&dir, &["--in", &path("ragged.json"), "--engine", engine], &["vel"]);
    }

    // A G6SN with a NaN position: a run that never finished on direct and a
    // panic on grape6.
    let mut nan = sys.clone();
    nan.pos[0].x = f64::NAN;
    save_auto(path("nan.g6sn").as_ref(), &nan).unwrap();
    for engine in ["direct", "grape6"] {
        assert_refused(&dir, &["--in", &path("nan.g6sn"), "--engine", engine], &["non-finite"]);
    }

    // A G6CK whose record 0 mass is -1: resumed to |dE/E| = 7e3. Record 0
    // opens after the 40-byte header and the first chunk's u32 length; its
    // mass is word 12.
    let ck = path("run.g6ck");
    let done = grape6(&["run", "--in", &disk, "--t", "1", "--checkpoint", &ck]);
    assert!(done.status.success(), "{}", String::from_utf8_lossy(&done.stderr));
    let mut raw = std::fs::read(&ck).unwrap();
    let mass_at = 40 + 4 + 12 * 8;
    assert_eq!(raw[mass_at..mass_at + 8], sys.mass[0].to_le_bytes());
    raw[mass_at..mass_at + 8].copy_from_slice(&(-1f64).to_le_bytes());
    std::fs::write(path("negative-mass.g6ck"), raw).unwrap();
    assert_refused(&dir, &["--resume", &path("negative-mass.g6ck")], &["mass -1"]);

    // Zero softening: the GRAPE engines' `load` asserts it is positive.
    let mut unsoftened = sys.clone();
    unsoftened.softening = 0.0;
    save_auto(path("eps0.json").as_ref(), &unsoftened).unwrap();
    for engine in ["grape6", "grape6-ft"] {
        let args = ["--in", &path("eps0.json"), "--engine", engine];
        assert_refused(&dir, &args, &["softening", engine]);
    }
    std::fs::remove_dir_all(&dir).ok();
}
