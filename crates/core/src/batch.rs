//! Batch mapping: run the full QSPR comparison flow over a whole suite
//! of circuits.
//!
//! The paper evaluates the mapper one benchmark at a time; reproducing
//! Table 1/Table 2 (and any scaling study) means mapping many circuits.
//! [`BatchMapper`] wraps a [`Flow`] — which owns its fabric, so there is
//! no lifetime parameter to thread through — maps the job list **in
//! input order**, and records per-circuit wall time. The circuits run
//! one after another and each gets the flow's whole [`Flow::jobs`]
//! budget, which the placer spends on its independent MVFB seeds.
//! Because the flow is seed-determined, the reported latencies are
//! identical at any `jobs` value; only wall-clock time changes.
//!
//! # Examples
//!
//! ```
//! use qspr::{BatchJob, BatchMapper, Flow};
//! use qspr_fabric::Fabric;
//! use qspr_qasm::Program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let jobs = vec![
//!     BatchJob::new("bell", Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\n")?),
//!     BatchJob::new("ghz3", Program::parse(
//!         "QUBIT a\nQUBIT b\nQUBIT c\nH a\nC-X a,b\nC-X b,c\n",
//!     )?),
//! ];
//! let report = BatchMapper::new(Flow::on(Fabric::quale_45x85()).seeds(4).jobs(2))
//!     .run(&jobs)?;
//! assert_eq!(report.items.len(), 2);
//! assert_eq!(report.items[0].name, "bell"); // input order preserved
//! assert_eq!(report.threads, 2); // the flow's jobs budget
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::time::{Duration, Instant};

use qspr_qasm::Program;

use crate::error::QsprError;
use crate::flow::Flow;
use crate::json::{JsonArray, JsonObject, ToJson};
use crate::report::ComparisonRow;

/// One named circuit in a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// Display name (circuit name or source path).
    pub name: String,
    /// The program to map.
    pub program: Program,
}

impl BatchJob {
    /// Creates a job.
    pub fn new(name: impl Into<String>, program: Program) -> BatchJob {
        BatchJob {
            name: name.into(),
            program,
        }
    }
}

impl From<qspr_qecc::codes::Benchmark> for BatchJob {
    /// Adopts a paper benchmark (its encoding circuit) as a batch job.
    fn from(bench: qspr_qecc::codes::Benchmark) -> BatchJob {
        BatchJob {
            name: bench.name,
            program: bench.program,
        }
    }
}

/// The per-circuit outcome of a batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// The job's name.
    pub name: String,
    /// Ideal baseline vs QUALE vs QSPR latencies (a Table 2 row).
    pub row: ComparisonRow,
    /// Wall-clock time this circuit took to map.
    pub cpu: Duration,
}

impl ToJson for BatchItem {
    /// Stable JSON schema: the [`ComparisonRow`] fields plus `cpu_ms`.
    fn to_json(&self) -> String {
        // The row already carries the circuit name; splice cpu_ms into
        // its object rather than nesting one level deeper.
        let row = self.row.to_json();
        let inner = row
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .expect("rows serialize to objects");
        format!("{{{inner},\"cpu_ms\":{}}}", self.cpu.as_millis())
    }
}

/// A mapping failure attributed to the circuit that caused it.
#[derive(Debug)]
pub struct BatchError {
    /// Name of the failing job.
    pub circuit: String,
    /// The underlying flow error.
    pub source: QsprError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.circuit, self.source)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The aggregate of one batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-circuit results, **in input order**.
    pub items: Vec<BatchItem>,
    /// The thread budget each circuit was mapped with
    /// ([`Flow::job_count`]).
    pub threads: usize,
    /// End-to-end wall-clock time of the whole batch.
    pub wall: Duration,
}

impl BatchReport {
    /// Sum of per-circuit times.
    pub fn total_cpu(&self) -> Duration {
        self.items.iter().map(|i| i.cpu).sum()
    }

    /// Total per-circuit time over wall time. Circuits map one after
    /// another, so this stays ≈1 at every `threads` value; the seed
    /// parallelism shows up as a shorter `wall` instead.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            return 1.0;
        }
        self.total_cpu().as_secs_f64() / wall
    }

    /// Mean QSPR-over-QUALE improvement across the suite (the paper
    /// reports 24–55% per circuit).
    pub fn mean_improvement_pct(&self) -> f64 {
        if self.items.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.items.iter().map(|i| i.row.improvement_pct()).sum();
        sum / self.items.len() as f64
    }
}

impl ToJson for BatchReport {
    /// Stable JSON schema, pinned by a golden test:
    /// `{"items":[...],"threads","wall_ms","total_cpu_ms","speedup",
    /// "mean_improvement_pct"}`.
    fn to_json(&self) -> String {
        JsonObject::new()
            .raw("items", &JsonArray::of(self.items.iter()))
            .number("threads", self.threads as u64)
            .number("wall_ms", self.wall.as_millis() as u64)
            .number("total_cpu_ms", self.total_cpu().as_millis() as u64)
            .float("speedup", self.speedup())
            .float("mean_improvement_pct", self.mean_improvement_pct())
            .build()
    }
}

/// Maps a suite of circuits in input order with deterministic results.
///
/// Owns its [`Flow`] (and through it the fabric), so it has no lifetime
/// parameter and can itself move across threads or into long-lived
/// services. See the module docs for an example.
#[derive(Debug, Clone)]
pub struct BatchMapper {
    flow: Flow,
}

impl BatchMapper {
    /// Creates a batch mapper running `flow` on every circuit.
    pub fn new(flow: Flow) -> BatchMapper {
        BatchMapper { flow }
    }

    /// The flow each circuit runs.
    pub fn flow(&self) -> &Flow {
        &self.flow
    }

    /// Runs the full comparison flow (ideal baseline, QUALE, QSPR) on
    /// every job in input order, each with the flow's whole
    /// [`Flow::jobs`] budget.
    ///
    /// Latencies are independent of the budget because the flow is
    /// seed-determined. An empty job list yields an empty report.
    ///
    /// # Errors
    ///
    /// Returns the [`BatchError`] of the first failing circuit; later
    /// circuits are not mapped.
    pub fn run(&self, jobs: &[BatchJob]) -> Result<BatchReport, BatchError> {
        let started = Instant::now();
        let mut items = Vec::with_capacity(jobs.len());
        for job in jobs {
            let t0 = Instant::now();
            let row = self
                .flow
                .compare(&job.name, &job.program)
                .map_err(|source| BatchError {
                    circuit: job.name.clone(),
                    source,
                })?;
            items.push(BatchItem {
                name: job.name.clone(),
                row,
                cpu: t0.elapsed(),
            });
        }
        Ok(BatchReport {
            items,
            threads: self.flow.job_count(),
            wall: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspr_fabric::Fabric;
    use qspr_qasm::{random_program, RandomProgramConfig};

    fn fast_flow() -> Flow {
        Flow::on(Fabric::quale_45x85()).seeds(4)
    }

    fn jobs(n: usize) -> Vec<BatchJob> {
        (0..n)
            .map(|i| {
                BatchJob::new(
                    format!("rand{i}"),
                    random_program(&RandomProgramConfig::new(4, 12), i as u64),
                )
            })
            .collect()
    }

    #[test]
    fn batch_mapper_is_send_and_static() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<BatchMapper>();
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let report = BatchMapper::new(fast_flow()).run(&[]).unwrap();
        assert!(report.items.is_empty());
        assert_eq!(report.mean_improvement_pct(), 0.0);
    }

    #[test]
    fn results_preserve_input_order() {
        let jobs = jobs(5);
        let report = BatchMapper::new(fast_flow().jobs(3)).run(&jobs).unwrap();
        let names: Vec<&str> = report.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["rand0", "rand1", "rand2", "rand3", "rand4"]);
        for item in &report.items {
            assert!(item.row.baseline <= item.row.qspr, "{}", item.name);
        }
    }

    #[test]
    fn thread_count_does_not_change_latencies() {
        let jobs = jobs(6);
        let serial = BatchMapper::new(fast_flow().jobs(1)).run(&jobs).unwrap();
        let parallel = BatchMapper::new(fast_flow().jobs(8)).run(&jobs).unwrap();
        assert_eq!(serial.threads, 1);
        assert_eq!(parallel.threads, 8);
        let serial_rows: Vec<_> = serial.items.iter().map(|i| &i.row).collect();
        let parallel_rows: Vec<_> = parallel.items.iter().map(|i| &i.row).collect();
        assert_eq!(serial_rows, parallel_rows);
    }

    #[test]
    fn failures_name_the_earliest_offending_circuit() {
        // Zero MVFB seeds stalls every circuit; the reported error must
        // belong to the earliest job in input order.
        let err = BatchMapper::new(fast_flow().seeds(0).jobs(4))
            .run(&jobs(5))
            .unwrap_err();
        assert_eq!(err.circuit, "rand0");
        assert!(err.to_string().starts_with("rand0: "));
        assert!(matches!(err.source, QsprError::Map(_)));
    }

    #[test]
    fn benchmark_conversion_keeps_names() {
        let bench = qspr_qecc::codes::benchmark_suite().swap_remove(0);
        let name = bench.name.clone();
        let job = BatchJob::from(bench);
        assert_eq!(job.name, name);
        assert!(job.program.num_qubits() > 0);
    }

    #[test]
    fn batch_report_json_golden() {
        // Golden test: this string IS the schema contract for
        // `qspr batch --format json`.
        let report = BatchReport {
            items: vec![BatchItem {
                name: "[[5,1,3]]".into(),
                row: ComparisonRow::new("[[5,1,3]]", 510, 832, 634),
                cpu: Duration::from_millis(12),
            }],
            threads: 2,
            wall: Duration::from_millis(40),
        };
        assert_eq!(
            report.to_json(),
            r#"{"items":[{"circuit":"[[5,1,3]]","baseline_us":510,"quale_us":832,"qspr_us":634,"quale_overhead_us":322,"qspr_overhead_us":124,"improvement_pct":23.80,"cpu_ms":12}],"threads":2,"wall_ms":40,"total_cpu_ms":12,"speedup":0.30,"mean_improvement_pct":23.80}"#
        );
    }
}
