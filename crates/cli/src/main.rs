//! `mst` — the command-line entry point.
//!
//! See [`commands::usage`] (or run `mst help`) for the subcommands.

#![forbid(unsafe_code)]

mod args;
mod chaos;
mod commands;
mod loadgen;
mod top;

use args::Args;
use std::io::Write as _;

/// Runs the command and prints its output or its error. A write that
/// fails (the reader of a pipe has gone) is dropped, never a panic: the
/// exit status stays the command's own, 0 on success and 1 on an error.
fn main() {
    let parsed = Args::parse(std::env::args().skip(1));
    match commands::run(&parsed) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(output.as_bytes()).and_then(|()| stdout.flush());
        }
        Err(message) => {
            let _ = writeln!(std::io::stderr(), "error: {message}");
            std::process::exit(1);
        }
    }
}
