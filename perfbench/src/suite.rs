//! The Table 1/2 suite phase: the six paper circuits, rendered to QASM
//! once, parsed and mapped on every pass exactly as `qspr suite` does
//! (`Flow::compare`: ideal baseline, QUALE center map, QSPR with MVFB),
//! with each part timed from outside.

use std::sync::Arc;
use std::time::Instant;

use qspr::fabric::{Fabric, TechParams};
use qspr::place::{MvfbConfig, MvfbPlacer, PassDirection};
use qspr::qasm::Program;
use qspr::route::RouterKind;
use qspr::service::normalize_timing;
use qspr::sim::{validate_trace, Mapper, MapperPolicy, Placement};
use qspr::{ComparisonRow, Flow, FlowPolicy, FlowResult, ToJson};

use crate::calib;
use crate::layers::{Recorder, Span, TracedPlacer, TracedRouter};

/// `Flow::on`'s MVFB RNG seed; the traced placer must use the same.
const MVFB_RNG_SEED: u64 = 0xD57E_2012;

/// One suite circuit, rendered in set-up.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Paper name, e.g. `[[5,1,3]]`.
    pub name: String,
    /// Metric-safe name, e.g. `c5_1_3`.
    pub key: String,
    pub qasm: String,
}

/// Builds the QECC encoders and renders each to QASM text.
pub fn circuits() -> Vec<Circuit> {
    qspr::qecc::codes::benchmark_suite()
        .into_iter()
        .map(|bench| Circuit {
            key: metric_key(&bench.name),
            qasm: bench.program.to_qasm(),
            name: bench.name,
        })
        .collect()
}

/// `[[5,1,3]]` → `c5_1_3`.
fn metric_key(name: &str) -> String {
    let digits: String = name
        .chars()
        .filter(|c| c.is_ascii_digit() || *c == ',')
        .collect();
    format!("c{}", digits.replace(',', "_"))
}

/// What one workload maps the suite with.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    pub router: RouterKind,
    pub jobs: usize,
    pub m: usize,
}

/// QSPR and QUALE flows with one configuration.
struct Flows {
    qspr: Flow,
    quale: Flow,
}

impl Flows {
    fn new(qspr: Flow) -> Flows {
        Flows {
            quale: qspr.clone().policy(FlowPolicy::Quale),
            qspr,
        }
    }
}

/// How a pass maps the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload's configuration, untouched.
    Plain,
    /// Plain, with the layer decorators installed.
    Traced,
    /// Plain at `jobs` = 2, to read the `--jobs` layer.
    TwoJobs,
}

/// Everything a pass produced, in the canonical circuit order.
#[derive(Debug)]
pub struct Pass {
    pub mode: Mode,
    /// Σ segment wall times: parse, ideal latency, QUALE and QSPR of
    /// every circuit, without the host-speed measurements between them.
    pub wall_ns: u64,
    /// Host-speed factor of the pass: `calib::scale` over the
    /// measurements taken before, between and after its segments.
    pub scale: f64,
    pub parse_ns: u64,
    /// QSPR `Flow::run` wall time per circuit.
    pub run_ns: Vec<u64>,
    /// QUALE `Flow::run` wall time, all circuits.
    pub quale_ns: u64,
    pub rows: Vec<ComparisonRow>,
    pub results: Vec<FlowResult>,
    /// QSPR and QUALE summaries with `timing` zeroed, per circuit.
    pub summaries: Vec<String>,
    pub spans: Vec<Span>,
}

impl Pass {
    /// Σ QSPR mapped latency (µs of circuit time).
    pub fn mapped_latency_us(&self) -> u64 {
        self.rows.iter().map(|r| r.qspr).sum()
    }
}

pub struct Suite {
    fabric: Arc<Fabric>,
    tech: TechParams,
    config: SuiteConfig,
    circuits: Vec<Circuit>,
    plain: Flows,
    two_jobs: Flows,
    traced: Option<(Flows, Arc<Recorder>)>,
}

impl Suite {
    pub fn new(
        fabric: Arc<Fabric>,
        circuits: Vec<Circuit>,
        config: SuiteConfig,
        recorder: Option<Arc<Recorder>>,
    ) -> Suite {
        // `Flow::on` defaults to m = 100; the CLI and this benchmark use
        // the configured m (25).
        let base = Flow::on(Arc::clone(&fabric))
            .seeds(config.m)
            .router(config.router)
            .jobs(config.jobs);
        let traced = recorder.map(|recorder| {
            let placer = MvfbPlacer::new(MvfbConfig::new(config.m, MVFB_RNG_SEED));
            let flow = base
                .clone()
                .router(TracedRouter::new(config.router, Arc::clone(&recorder)))
                .placer(TracedPlacer::new(placer, Arc::clone(&recorder)));
            (Flows::new(flow), recorder)
        });
        Suite {
            tech: *base.tech_params(),
            two_jobs: Flows::new(base.clone().jobs(2)),
            plain: Flows::new(base),
            fabric,
            config,
            circuits,
            traced,
        }
    }

    pub fn circuits(&self) -> &[Circuit] {
        &self.circuits
    }

    /// The untraced QSPR flow.
    pub fn flow(&self) -> &Flow {
        &self.plain.qspr
    }

    /// One timed pass over every circuit, visiting them in `order`;
    /// results come back in the canonical order. Each circuit makes two
    /// segments, parse + ideal latency + QUALE and then QSPR, and every
    /// segment is bracketed by host-speed measurements (`calib.rs`)
    /// that fall outside the timed segments.
    pub fn run_pass(&self, order: &[usize], mode: Mode, pass: u32) -> Result<Pass, String> {
        let n = self.circuits.len();
        let (flows, recorder) = match (mode, &self.traced) {
            (Mode::Traced, Some((flows, recorder))) => (flows, Some(recorder)),
            (Mode::Traced, None) => return Err("no recorder for a traced pass".into()),
            (Mode::TwoJobs, _) => (&self.two_jobs, None),
            (Mode::Plain, _) => (&self.plain, None),
        };
        let mut run_ns = vec![0; n];
        let mut rows = vec![None; n];
        let mut results: Vec<Option<FlowResult>> = vec![None; n];
        let mut quale_summaries = vec![String::new(); n];
        let (mut parse_ns, mut quale_ns) = (0, 0);
        let mut wall_ns = 0;
        let mut ref_ms = vec![calib::measure_ms()];
        let mut close_segment = |started: Instant| {
            let wall = started.elapsed().as_nanos() as u64;
            ref_ms.push(calib::measure_ms());
            wall_ns += wall;
            wall
        };
        for &i in order {
            let circuit = &self.circuits[i];
            if let Some(recorder) = recorder {
                recorder.set_run(pass * 100 + i as u32);
            }
            let segment = Instant::now();
            let t = Instant::now();
            let program = Program::parse(&circuit.qasm)
                .map_err(|e| format!("{}: parse: {e}", circuit.name))?;
            parse_ns += t.elapsed().as_nanos() as u64;
            let baseline = flows.qspr.ideal_latency(&program);
            let t = Instant::now();
            let quale = timed_run(&flows.quale, &program, recorder, "flow.quale", circuit)?;
            quale_ns += t.elapsed().as_nanos() as u64;
            close_segment(segment);
            let segment = Instant::now();
            let qspr = timed_run(&flows.qspr, &program, recorder, "flow.qspr", circuit)?;
            run_ns[i] = close_segment(segment);
            rows[i] = Some(ComparisonRow::new(
                &circuit.name,
                baseline,
                quale.latency,
                qspr.latency,
            ));
            quale_summaries[i] = normalize_timing(&quale.summary().to_json());
            results[i] = Some(qspr);
        }
        let results: Vec<FlowResult> = results.into_iter().map(|r| r.expect("visited")).collect();
        let summaries = results
            .iter()
            .zip(quale_summaries)
            .map(|(r, quale)| format!("{}|{quale}", normalize_timing(&r.summary().to_json())))
            .collect();
        Ok(Pass {
            mode,
            wall_ns,
            scale: calib::scale(&mut ref_ms),
            parse_ns,
            run_ns,
            quale_ns,
            rows: rows.into_iter().map(|r| r.expect("visited")).collect(),
            results,
            summaries,
            spans: recorder.map_or_else(Vec::new, |r| r.drain()),
        })
    }

    /// Untimed output oracle for one pass; returns one message per
    /// failed check. `reference` is the run's first pass.
    pub fn check_pass(&self, pass: &Pass, reference: Option<&Pass>) -> Vec<String> {
        let mut failures = Vec::new();
        for (i, circuit) in self.circuits.iter().enumerate() {
            let row = &pass.rows[i];
            if !(row.baseline <= row.qspr && row.qspr <= row.quale) {
                failures.push(format!(
                    "{}: want baseline {} <= qspr {} <= quale {}",
                    circuit.name, row.baseline, row.qspr, row.quale
                ));
            }
            if let Err(e) = self.replay_and_validate(circuit, &pass.results[i], row) {
                failures.push(format!("{}: {e}", circuit.name));
            }
            if let Some(reference) = reference {
                if pass.summaries[i] != reference.summaries[i] {
                    failures.push(format!(
                        "{}: summary differs between passes ({:?} vs {:?})",
                        circuit.name, pass.mode, reference.mode
                    ));
                }
            }
        }
        if let Some(reference) = reference {
            if pass.mapped_latency_us() != reference.mapped_latency_us() {
                failures.push(format!(
                    "mapped latency changed between passes: {} vs {}",
                    pass.mapped_latency_us(),
                    reference.mapped_latency_us()
                ));
            }
        }
        failures
    }

    /// Replays the winning QSPR pass and the QUALE center map with
    /// trace recording, and checks both traces with the simulator's
    /// independent validator and against the reported latencies.
    fn replay_and_validate(
        &self,
        circuit: &Circuit,
        result: &FlowResult,
        row: &ComparisonRow,
    ) -> Result<(), String> {
        let program = Program::parse(&circuit.qasm).map_err(|e| e.to_string())?;
        let ideal = self.plain.qspr.ideal_latency(&program);
        if result.latency < ideal {
            return Err(format!("latency {} below ideal {ideal}", result.latency));
        }
        let executed = match result.direction {
            PassDirection::Forward => program.clone(),
            PassDirection::Backward => program.reversed(),
        };
        let center = Placement::center(&self.fabric, program.num_qubits());
        for (what, policy, prog, placement, latency) in [
            (
                "qspr",
                MapperPolicy::qspr(&self.tech),
                &executed,
                &result.initial_placement,
                row.qspr,
            ),
            (
                "quale",
                MapperPolicy::quale(&self.tech),
                &program,
                &center,
                row.quale,
            ),
        ] {
            let outcome = Mapper::new(&self.fabric, self.tech, policy)
                .router(self.config.router)
                .record_trace(true)
                .map(prog, placement)
                .map_err(|e| format!("{what} replay: {e}"))?;
            if outcome.latency() != latency {
                return Err(format!(
                    "{what} replay latency {} != reported {latency}",
                    outcome.latency()
                ));
            }
            let trace = outcome.trace().ok_or("replay recorded no trace")?;
            validate_trace(&self.fabric, prog, placement, trace, &self.tech)
                .map_err(|e| format!("{what} trace invalid: {e}"))?;
        }
        Ok(())
    }

    /// Checks that `Flow::compare` — the call `qspr suite` makes —
    /// reproduces the rows the timed passes assembled, on the first
    /// `count` circuits.
    pub fn check_compare(&self, rows: &[ComparisonRow], count: usize) -> Vec<String> {
        let mut failures = Vec::new();
        for (circuit, row) in self.circuits.iter().zip(rows).take(count) {
            let program = match Program::parse(&circuit.qasm) {
                Ok(p) => p,
                Err(e) => {
                    failures.push(format!("{}: parse: {e}", circuit.name));
                    continue;
                }
            };
            match self.plain.qspr.compare(&circuit.name, &program) {
                Ok(expected) if &expected == row => {}
                Ok(expected) => failures.push(format!(
                    "{}: Flow::compare gives {} but the pass gave {}",
                    circuit.name,
                    expected.to_json(),
                    row.to_json()
                )),
                Err(e) => failures.push(format!("{}: compare: {e}", circuit.name)),
            }
        }
        failures
    }
}

fn timed_run(
    flow: &Flow,
    program: &Program,
    recorder: Option<&Arc<Recorder>>,
    span: &'static str,
    circuit: &Circuit,
) -> Result<FlowResult, String> {
    let open = recorder.map(|r| r.open(span, &circuit.key));
    let result = flow.run(program);
    if let (Some(recorder), Some(open)) = (recorder, open) {
        recorder.close(open, 0, Default::default());
    }
    result.map_err(|e| format!("{}: {span}: {e}", circuit.name))
}
