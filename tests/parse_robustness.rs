//! Input robustness: arbitrary text, and random mutations of valid
//! documents, fed to `Program::parse` and `Fabric::parse` (JSON spec
//! and ASCII art), and random small programs mapped onto random small
//! fabrics by `Flow::run` and `Flow::compare`. Every input must come
//! back as `Ok` or a typed error with a message, never a panic.

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use qspr::{Flow, FlowPolicy, RouterKind};
use qspr_fabric::{Fabric, FabricSpec};
use qspr_qasm::{random_program, Program, RandomProgramConfig};
use qspr_qecc::codes::benchmark_suite;

/// Committed fabric specs (JSON) plus the ASCII art of a regular one.
fn fabrics() -> Vec<String> {
    let art = FabricSpec::regular("art", 9, 9, 4)
        .build()
        .unwrap()
        .to_ascii();
    vec![
        include_str!("../examples/fabrics/nearest_neighbor_6x6.json").to_owned(),
        include_str!("../examples/fabrics/regular_21x41_p4.json").to_owned(),
        include_str!("../examples/fabrics/two_region_bridge.json").to_owned(),
        include_str!("../examples/fabrics/ulb_tiled.json").to_owned(),
        art,
    ]
}

/// Bytes a mutation inserts: mostly the tokens both grammars are built
/// from, so edits reach past the first syntax check.
const TOKENS: &[u8] = b"{}[],:\"0123456789 \n\t-|+T.JQUBITHC-XYZ,#-";

/// Valid QASM documents: the six paper benchmarks' encoding circuits.
fn programs() -> Vec<String> {
    benchmark_suite()
        .iter()
        .map(|b| b.program.to_qasm())
        .collect()
}

/// Applies `edits` to `text` byte-wise: overwrite, delete a run, insert
/// one byte, or duplicate a run. The result is read as lossy UTF-8, as
/// the CLI and the service read their inputs.
fn mutate(text: &str, edits: &[(u8, usize, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(op, at, len, byte) in edits {
        let at = at % (bytes.len() + 1);
        let end = (at + len).min(bytes.len());
        let byte = if byte < 192 {
            TOKENS[byte as usize % TOKENS.len()]
        } else {
            byte
        };
        match op % 4 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => {
                bytes.drain(at..end);
            }
            2 => bytes.insert(at, byte),
            _ => {
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `parse` on `input`: a panic, or an error without a message,
/// fails the case.
fn parses_or_errs<T, E: Display>(
    what: &str,
    input: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<(), TestCaseError> {
    match catch_unwind(AssertUnwindSafe(|| {
        parse(input).err().map(|e| e.to_string())
    })) {
        Ok(Some(message)) => {
            prop_assert!(!message.is_empty(), "{what}: empty error for {input:?}");
        }
        Ok(None) => {}
        Err(_) => prop_assert!(false, "{what} panicked on {input:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_a_parser(
        bytes in collection::vec(any::<u8>(), 0..256),
        tokens in collection::vec(0usize..TOKENS.len(), 0..256),
    ) {
        let raw = String::from_utf8_lossy(&bytes).into_owned();
        let tokens: String = tokens.iter().map(|&i| TOKENS[i] as char).collect();
        for input in [raw.as_str(), tokens.as_str(), &format!("{{{tokens}")] {
            parses_or_errs("Program::parse", input, Program::parse)?;
            parses_or_errs("Fabric::parse", input, Fabric::parse)?;
        }
    }

    #[test]
    fn mutated_programs_never_panic_the_parser(
        which in 0usize..6,
        edits in collection::vec((0u8..4, 0usize..1_000_000, 0usize..24, any::<u8>()), 1..8),
    ) {
        let input = mutate(&programs()[which], &edits);
        parses_or_errs("Program::parse", &input, Program::parse)?;
    }

    #[test]
    fn mutated_fabrics_never_panic_the_parser(
        which in 0usize..5,
        edits in collection::vec((0u8..4, 0usize..1_000_000, 0usize..24, any::<u8>()), 1..8),
    ) {
        let input = mutate(&fabrics()[which], &edits);
        parses_or_errs("Fabric::parse", &input, Fabric::parse)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Programs of 1–15 qubits (often more than the fabric has traps)
    /// on small `regular` and `nearest_neighbor` specs, through every
    /// policy and both routers at m = 1.
    #[test]
    fn mapping_never_panics_on_small_inputs(
        qubits in 1usize..16,
        gates in 0usize..24,
        seed in any::<u64>(),
        nearest_neighbor in any::<bool>(),
        (rows, cols, pitch) in (3u16..14, 3u16..14, 2u16..5),
        (policy, negotiated) in (0usize..3, any::<bool>()),
    ) {
        let region = if nearest_neighbor {
            let (sites_rows, sites_cols) = (rows / 4 + 1, cols / 4 + 1);
            format!(
                r#"{{"family":"nearest_neighbor","sites_rows":{sites_rows},"sites_cols":{sites_cols}}}"#
            )
        } else {
            format!(r#"{{"family":"regular","rows":{rows},"cols":{cols},"pitch":{pitch}}}"#)
        };
        let spec = format!(r#"{{"name":"small","regions":[{region}]}}"#);
        let Ok(fabric) = Fabric::parse(&spec) else {
            return Ok(());
        };
        let program = random_program(&RandomProgramConfig::new(qubits, gates), seed);
        let flow = Flow::on(fabric)
            .seeds(1)
            .policy([FlowPolicy::Qspr, FlowPolicy::Quale, FlowPolicy::Qpos][policy])
            .router(if negotiated { RouterKind::Negotiated } else { RouterKind::Greedy });
        let input = format!("{qubits} qubits, {gates} gates (seed {seed}) on {spec}");
        parses_or_errs("Flow::run", &input, |_| flow.run(&program))?;
        parses_or_errs("Flow::compare", &input, |_| flow.compare("small", &program))?;
    }
}

#[test]
fn unmutated_documents_parse() {
    for text in programs() {
        Program::parse(&text).expect("benchmark QASM parses");
    }
    for text in fabrics() {
        Fabric::parse(&text).expect("committed fabric parses");
    }
    assert_eq!(mutate("abc", &[]), "abc");
}
