//! `grape6-serve` — run the multi-tenant job server.
//!
//! ```text
//! grape6-serve [--tcp ADDR] [--workers N] [--slice-blocks B]
//!              [--max-running J] [--block-budget S] [--max-bodies M]
//! ```
//!
//! An unknown flag, a flag given twice or with no value, a value that does
//! not parse and a zero `--slice-blocks` or `--max-running` are usage errors
//! (exit 2).
//!
//! With `--tcp ADDR` (e.g. `127.0.0.1:7346`) the server listens for
//! JSON-lines connections and also accepts requests on stdin; without it,
//! stdin/stdout is the only transport. The process exits on stdin EOF or
//! a `Shutdown` request.

use grape6_serve::service::{ServeConfig, TenantQuota};
use grape6_sim::cli::Flags;
use std::io::{BufRead, BufWriter, Write};

/// Every flag the server knows; each takes a value.
const FLAGS: [&str; 6] =
    ["--tcp", "--workers", "--slice-blocks", "--max-running", "--block-budget", "--max-bodies"];

fn usage_error(message: &str) -> ! {
    eprintln!("grape6-serve: {message}");
    std::process::exit(2);
}

/// A count that must be positive: at zero the scheduler never runs a job
/// (`--max-running`) or a slice never advances one (`--slice-blocks`), and
/// every `Wait` hangs.
fn positive_flag(flags: &Flags, key: &str, default: u64) -> u64 {
    match flags.get_or(key, default) {
        0 => usage_error(&format!("{key} must be at least 1")),
        v => v,
    }
}

fn main() -> std::io::Result<()> {
    let flags = Flags::from_env(&FLAGS, &[], usage_error);
    // A flag left out keeps its `ServeConfig::default()` value.
    let d = ServeConfig::default();
    let cfg = ServeConfig {
        workers: flags.get_or("--workers", d.workers),
        slice_blocks: positive_flag(&flags, "--slice-blocks", d.slice_blocks),
        max_bodies: flags.get_or("--max-bodies", d.max_bodies),
        quota: TenantQuota {
            max_running: positive_flag(&flags, "--max-running", d.quota.max_running),
            block_budget: flags.get_or("--block-budget", d.quota.block_budget),
        },
        ..d
    };

    match flags.get::<String>("--tcp") {
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
