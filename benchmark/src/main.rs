//! The Ingot benchmark: one closed-loop workload per run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <point_embedded|point_wire|insert_wire|analytic_cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and, with `--trace 0`, every end-to-end metric, with
//! `--trace 1` every per-layer metric, each by name with its unit. The line
//! before it is the run report (context, sample counts, set-up times and
//! the exact-count ledger). A run whose outputs fail a check exits 1.
//!
//! `--selfcheck 1` (with `--workload point_embedded` or `point_wire`)
//! instead checks that a slowdown taking CPU from the program survives the
//! host scaling; it prints one report line and exits 1 if it does not.

mod digest;
mod hist;
mod layers;
mod measure;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;

use workloads::{Args, Workload};

const USAGE: &str = "usage: ingot-benchmark --workload <point_embedded|point_wire|insert_wire|\
                     analytic_cold> --seed <n> --seconds <s> --trace <0|1> [--selfcheck <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut trace, mut selfcheck) = (false, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" | "--selfcheck" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
                *if flag == "--trace" {
                    &mut trace
                } else {
                    &mut selfcheck
                } = on;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
        selfcheck,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return match workloads::selfcheck(&args) {
            Ok((report, pass)) => {
                println!("{}", report.render());
                if pass {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("selfcheck: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match workloads::run(&args) {
        Ok(out) => {
            println!("{}", out.report.render());
            println!(
                "{}",
                report::result_line(out.attempted, out.failed, &out.metrics)
            );
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
