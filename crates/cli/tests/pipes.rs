//! `mst` never panics on a write to a closed pipe: the output or the
//! error is dropped, and the exit status stays the command's own.

use std::process::{Command, Output, Stdio};

/// Runs `mst args` with stdout, or with stderr, the write end of a pipe
/// whose read end is already closed, so every write to it fails with
/// `EPIPE`. The other stream is captured.
fn run_into_closed_pipe(args: &[&str], closed_stdout: bool) -> Output {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let mut command = Command::new(env!("CARGO_BIN_EXE_mst"));
    command.args(args).stdin(Stdio::null());
    if closed_stdout {
        command.stdout(writer).stderr(Stdio::piped());
    } else {
        command.stderr(writer).stdout(Stdio::piped());
    }
    command.output().expect("mst runs")
}

#[test]
fn help_into_a_closed_stdout_exits_0() {
    let output = run_into_closed_pipe(&["help"], true);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(output.status.code(), Some(0), "{stderr}");
}

#[test]
fn an_error_into_a_closed_stderr_exits_1() {
    let output = run_into_closed_pipe(&["serve", "--stroe", "x"], false);
    assert_eq!(output.status.code(), Some(1), "{}", String::from_utf8_lossy(&output.stdout));
}
