//! `grape6-serve` — run the multi-tenant job server.
//!
//! ```text
//! grape6-serve [--tcp ADDR] [--workers N] [--slice-blocks B]
//!              [--max-running J] [--block-budget S] [--max-bodies M]
//! ```
//!
//! An unknown flag, a flag with no value, a value that does not parse and a
//! zero `--slice-blocks` or `--max-running` are usage errors (exit 2).
//!
//! With `--tcp ADDR` (e.g. `127.0.0.1:7346`) the server listens for
//! JSON-lines connections and also accepts requests on stdin; without it,
//! stdin/stdout is the only transport. The process exits on stdin EOF or
//! a `Shutdown` request.

use grape6_serve::service::{ServeConfig, TenantQuota};
use std::io::{BufRead, BufWriter, Write};

/// Every flag the server knows; each takes a value.
const FLAGS: [&str; 6] =
    ["--tcp", "--workers", "--slice-blocks", "--max-running", "--block-budget", "--max-bodies"];

fn usage_error(message: &str) -> ! {
    eprintln!("grape6-serve: {message}");
    std::process::exit(2);
}

/// Reject what the lookups below would never see: a token outside [`FLAGS`]
/// (a typo must not run the default) and a flag followed by nothing or by
/// another flag.
fn check_args() {
    let mut args = std::env::args().skip(1);
    while let Some(token) = args.next() {
        if !FLAGS.contains(&token.as_str()) {
            let what = if token.starts_with("--") { "unknown flag" } else { "stray argument" };
            usage_error(&format!("{what} {token:?}"));
        }
        if args.next().is_none_or(|value| value.starts_with("--")) {
            usage_error(&format!("{token} needs a value"));
        }
    }
}

fn flag_value(key: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == key {
            return args.next();
        }
    }
    None
}

fn parsed_flag<T: std::str::FromStr>(key: &str, default: T) -> T {
    match flag_value(key) {
        None => default,
        Some(raw) => match raw.parse() {
            Ok(v) => v,
            Err(_) => usage_error(&format!("invalid value {raw:?} for {key}")),
        },
    }
}

/// A count that must be positive: at zero the scheduler never runs a job
/// (`--max-running`) or a slice never advances one (`--slice-blocks`), and
/// every `Wait` hangs.
fn positive_flag(key: &str, default: u64) -> u64 {
    match parsed_flag(key, default) {
        0 => usage_error(&format!("{key} must be at least 1")),
        v => v,
    }
}

fn main() -> std::io::Result<()> {
    check_args();
    let cfg = ServeConfig {
        workers: parsed_flag("--workers", 2u64),
        slice_blocks: positive_flag("--slice-blocks", 64),
        max_bodies: parsed_flag("--max-bodies", 4096u64),
        quota: TenantQuota {
            max_running: positive_flag("--max-running", 2),
            block_budget: parsed_flag("--block-budget", 0u64),
        },
        preempt_always: false,
    };

    match flag_value("--tcp") {
        None => grape6_serve::serve_stdio(cfg),
        Some(addr) => {
            let server = grape6_serve::TcpServer::start(cfg, &addr)?;
            eprintln!("grape6-serve: listening on {}", server.addr());
            // stdin remains a control channel; EOF or Shutdown stops the
            // server (and with it every TCP connection's scheduler).
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            for line in stdin.lock().lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let quit = grape6_serve::server::dispatch_line(server.service(), &line, &mut out)?;
                out.flush()?;
                if quit {
                    break;
                }
            }
            server.stop();
            Ok(())
        }
    }
}
