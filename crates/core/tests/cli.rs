//! The `qspr` binary against a reader that closes the pipe early, as in
//! `qspr fabric | head -1`: the CLI must stop quietly, never panic.

use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};

/// Runs `qspr args` and closes the read end of its stdout after `keep`
/// bytes (0 = before any output arrives). Returns the exit status and
/// stderr.
fn run_closing_stdout(args: &[&str], keep: usize) -> (ExitStatus, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qspr"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qspr");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = vec![0u8; keep];
    stdout.read_exact(&mut head).expect("qspr writes output");
    drop(stdout);
    let output = child.wait_with_output().expect("wait for qspr");
    (
        output.status,
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn closed_stdout_ends_quietly() {
    let commands: [&[&str]; 2] = [&["fabric"], &["suite", "--m", "1", "--format", "json"]];
    for args in commands {
        for keep in [0, 8] {
            let (status, stderr) = run_closing_stdout(args, keep);
            assert!(
                !stderr.contains("panicked"),
                "qspr {args:?} panicked after {keep} bytes:\n{stderr}"
            );
            assert!(
                status.success(),
                "qspr {args:?} failed after {keep} bytes ({status}):\n{stderr}"
            );
        }
    }
}
