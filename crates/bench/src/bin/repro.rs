//! **repro** — the one entry point to the paper reproduction.
//!
//! * `repro <experiment> [args]` runs a registry row (see
//!   `tlpgnn_bench::experiments`) inside a telemetry scope of that name;
//!   stdout is the record kept in `results/<experiment>.txt`.
//! * `repro gate` runs the repro gate (scope and JSON named `repro_gate`).
//! * `repro list` prints the experiment names, one per line.
//!
//! Anything else prints the usage to stderr and exits 2.

use std::process::ExitCode;

use tlpgnn_bench::experiments::{self, gate};
use tlpgnn_bench::{telemetry_scope, Env};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprint!("{}", experiments::usage());
        return ExitCode::from(2);
    };
    match name.as_str() {
        "list" => {
            for e in experiments::REGISTRY {
                println!("{}", e.name);
            }
            ExitCode::SUCCESS
        }
        "gate" => {
            let _telemetry = telemetry_scope("repro_gate");
            gate::run()
        }
        _ => match experiments::find(name) {
            Some(e) => {
                let _telemetry = telemetry_scope(e.name);
                (e.run)(&Env::from_env(), rest);
                ExitCode::SUCCESS
            }
            None => {
                eprint!("unknown experiment {name}\n\n{}", experiments::usage());
                ExitCode::from(2)
            }
        },
    }
}
