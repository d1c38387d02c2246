//! The `qspr` binary end to end: against a reader that closes the pipe
//! early, as in `qspr fabric | head -1` (the CLI must stop quietly,
//! never panic), against flags its subcommand does not read, and
//! against inputs the mapper cannot take.

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

#[test]
fn unread_flags_are_usage_errors() {
    let dump = std::env::temp_dir().join(format!("qspr-unread-{}.json", std::process::id()));
    let dump = dump.to_str().expect("UTF-8 temp path");
    let cases: [(&[&str], &str); 2] = [
        (
            &["batch", "--suite", "--m", "1", "--threads", "2"],
            "batch does not take --threads",
        ),
        (
            &["suite", "--m", "1", "--dump-trace", dump],
            "suite does not take --dump-trace",
        ),
    ];
    for (args, message) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_qspr"))
            .args(args)
            .output()
            .expect("run qspr");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "qspr {args:?} succeeded");
        assert!(stderr.contains(message), "qspr {args:?}:\n{stderr}");
        assert!(output.stdout.is_empty(), "qspr {args:?} mapped anyway");
    }
    assert!(!std::path::Path::new(dump).exists(), "no trace is written");
}

#[test]
fn a_program_larger_than_the_fabric_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let program = dir.join(format!("qspr-ten-{id}.qasm"));
    let spec = dir.join(format!("qspr-tiny-{id}.json"));
    let qubits: String = (0..10).map(|i| format!("QUBIT q{i}\n")).collect();
    std::fs::write(&program, qubits + "H q0\n").expect("write program");
    std::fs::write(
        &spec,
        r#"{"name":"tiny","regions":[{"family":"regular","rows":5,"cols":5,"pitch":4}]}"#,
    )
    .expect("write spec");
    let (program, spec) = (program.to_str().unwrap(), spec.to_str().unwrap());
    for command in ["map", "compare", "sta"] {
        let output = Command::new(env!("CARGO_BIN_EXE_qspr"))
            .args([command, program, "--fabric", spec, "--m", "1"])
            .output()
            .expect("run qspr");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "qspr {command}:\n{stderr}");
        assert!(
            stderr.contains("fabric has 4 traps but 10 qubits need seats"),
            "qspr {command}:\n{stderr}"
        );
    }
    let _ = std::fs::remove_file(program);
    let _ = std::fs::remove_file(spec);
}
