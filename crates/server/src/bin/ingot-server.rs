//! The `ingot-server` daemon binary.
//!
//! ```text
//! ingot-server --socket unix:/tmp/ingot.sock [--data DIR]
//!              [--idle-in-txn-timeout-ms N] [--idle-shutdown-ms N]
//!              [--drain-deadline-ms N] [--allow-remote-shutdown] [--original]
//! ```
//!
//! `--data DIR` makes the engine file-backed under `DIR` (pages + WAL), so
//! a restart recovers acknowledged commits; without it the database is
//! in-memory and dies with the process. `--original` builds the unmonitored
//! paper baseline (no `ima$…` tables, no wait events). SIGTERM/SIGINT
//! trigger graceful drain; exit code 0 means every connection was drained
//! or the idle-shutdown clock expired.

use std::process::ExitCode;
use std::sync::Arc;

use ingot_common::EngineConfig;
use ingot_core::Engine;
use ingot_server::socket::SocketSpec;
use ingot_server::{signal, Server, ServerConfig};

struct Args {
    socket: SocketSpec,
    data: Option<std::path::PathBuf>,
    idle_in_txn_timeout_ms: u64,
    idle_shutdown_ms: u64,
    drain_deadline_ms: u64,
    allow_remote_shutdown: bool,
    original: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut socket = None;
    let mut data = None;
    let mut idle_in_txn_timeout_ms = 5_000;
    let mut idle_shutdown_ms = 0;
    let mut drain_deadline_ms = 1_000;
    let mut allow_remote_shutdown = false;
    let mut original = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--socket" => socket = Some(SocketSpec::parse(&value("--socket")?)),
            "--data" => data = Some(std::path::PathBuf::from(value("--data")?)),
            "--idle-in-txn-timeout-ms" => {
                idle_in_txn_timeout_ms = value("--idle-in-txn-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-in-txn-timeout-ms: {e}"))?
            }
            "--idle-shutdown-ms" => {
                idle_shutdown_ms = value("--idle-shutdown-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-shutdown-ms: {e}"))?
            }
            "--drain-deadline-ms" => {
                drain_deadline_ms = value("--drain-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--drain-deadline-ms: {e}"))?
            }
            "--allow-remote-shutdown" => allow_remote_shutdown = true,
            "--original" => original = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        socket: socket.ok_or("missing required --socket <spec>")?,
        data,
        idle_in_txn_timeout_ms,
        idle_shutdown_ms,
        drain_deadline_ms,
        allow_remote_shutdown,
        original,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ingot-server: {e}");
            return ExitCode::from(2);
        }
    };
    signal::install_term_handler();
    let config = if args.original {
        EngineConfig::original()
    } else {
        EngineConfig::monitoring()
    };
    let mut builder = Engine::builder().config(config);
    if let Some(dir) = &args.data {
        builder = builder.path(dir.clone());
    }
    let engine: Arc<Engine> = match builder.build() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("ingot-server: engine startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut server_config = ServerConfig::new(args.socket.clone());
    server_config.idle_in_txn_timeout_ms = args.idle_in_txn_timeout_ms;
    server_config.idle_shutdown_ms = args.idle_shutdown_ms;
    server_config.drain_deadline_ms = args.drain_deadline_ms;
    server_config.allow_remote_shutdown = args.allow_remote_shutdown;
    let server = match Server::bind(engine, server_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ingot-server: bind {} failed: {e}", args.socket);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("ingot-server: serving on {}", args.socket);
    match server.run() {
        Ok(outcome) => {
            eprintln!("ingot-server: exiting ({outcome:?})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ingot-server: {e}");
            ExitCode::FAILURE
        }
    }
}
