//! `jouppi-sim` — command-line cache simulator. See [`jouppi_cli`] for
//! the option reference.

#![deny(clippy::cast_possible_truncation)]
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary does the printing"
)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match jouppi_cli::parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match jouppi_cli::run(&opts) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
