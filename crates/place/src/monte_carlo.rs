//! The Monte Carlo placer (paper §V.A): best of N random center
//! permutations.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qspr_fabric::Time;
use qspr_qasm::Program;
use qspr_sim::{MapError, Mapper, Placement};

use crate::placer::{check_center_seats, map_striped, PassDirection, Placer, PlacerSolution};

/// The paper's Monte Carlo baseline placer: `runs` random permutations of
/// the center traps are mapped; the cheapest wins.
///
/// # Examples
///
/// ```
/// use qspr_fabric::{Fabric, TechParams};
/// use qspr_place::{MonteCarloPlacer, Placer};
/// use qspr_qasm::Program;
/// use qspr_sim::{Mapper, MapperPolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fabric = Fabric::quale_45x85();
/// let tech = TechParams::date2012();
/// let mapper = Mapper::new(&fabric, tech, MapperPolicy::qspr(&tech));
/// let program = Program::parse("QUBIT a\nQUBIT b\nC-X a,b\n")?;
/// let best = MonteCarloPlacer::new(5, 42).place(&mapper, &program)?;
/// assert_eq!(best.runs, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloPlacer {
    runs: usize,
    rng_seed: u64,
}

impl MonteCarloPlacer {
    /// A placer that evaluates `runs` random center permutations, drawn
    /// deterministically from `rng_seed`.
    pub fn new(runs: usize, rng_seed: u64) -> MonteCarloPlacer {
        MonteCarloPlacer { runs, rng_seed }
    }

    /// Number of placement runs this placer will execute.
    pub fn runs(&self) -> usize {
        self.runs
    }
}

impl MonteCarloPlacer {
    /// [`Placer::place`] on exactly `workers` threads; `place` passes
    /// the mapper's [`Mapper::job_count`]. Every placement is drawn up
    /// front from the one RNG stream, in run order, and the cheapest is
    /// chosen in run order with a strict `<`, so the result does not
    /// depend on `workers`.
    fn place_striped(
        &self,
        mapper: &Mapper<'_>,
        program: &Program,
        workers: usize,
    ) -> Result<PlacerSolution, MapError> {
        let _span = qspr_obs::span("place");
        let started = Instant::now();
        check_center_seats(mapper.fabric(), program.num_qubits())?;
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        let mut placements: Vec<Placement> = (0..self.runs)
            .map(|_| Placement::center_permutation(mapper.fabric(), program.num_qubits(), &mut rng))
            .collect();
        let mapper = mapper.clone().jobs(1);
        let latencies = map_striped(workers, placements.len(), |i| {
            mapper.map(program, &placements[i]).map(|o| o.latency())
        })?;
        let mut best: Option<(Time, usize)> = None;
        for (i, latency) in latencies.into_iter().enumerate() {
            if best.map_or(true, |(l, _)| latency < l) {
                best = Some((latency, i));
            }
        }
        let (latency, index) = best.ok_or(MapError::Stalled {
            remaining: program.instructions().len(),
        })?;
        Ok(PlacerSolution {
            latency,
            direction: PassDirection::Forward,
            initial_placement: placements.swap_remove(index),
            runs: self.runs,
            cpu: started.elapsed(),
        })
    }
}

impl Placer for MonteCarloPlacer {
    fn name(&self) -> &str {
        "monte-carlo"
    }

    /// Runs the search, mapping the placements on up to the mapper's
    /// [`Mapper::job_count`] threads.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MapError`] in run order (e.g. a stalled
    /// mapping on a degenerate fabric). `runs == 0` is reported as a
    /// stall, since no placement was ever produced.
    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError> {
        self.place_striped(mapper, program, mapper.job_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspr_fabric::{Fabric, TechParams};
    use qspr_sim::MapperPolicy;

    const FIG3: &str = "\
QUBIT q0,0
QUBIT q1,0
QUBIT q2,0
QUBIT q3
QUBIT q4,0
H q0
H q1
H q2
H q4
C-X q3,q2
C-Z q4,q2
C-Y q2,q1
C-Y q3,q1
C-X q4,q1
C-Z q2,q0
C-Y q3,q0
C-Z q4,q0
";

    #[test]
    fn more_runs_never_hurt() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, MapperPolicy::qspr(&tech));
        let program = Program::parse(FIG3).unwrap();
        let few = MonteCarloPlacer::new(2, 7)
            .place(&mapper, &program)
            .unwrap();
        let many = MonteCarloPlacer::new(8, 7)
            .place(&mapper, &program)
            .unwrap();
        // Same RNG stream: the first 2 permutations are a subset of the 8.
        assert!(many.latency <= few.latency);
        assert_eq!(many.runs, 8);
    }

    #[test]
    fn is_deterministic() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, MapperPolicy::qspr(&tech));
        let program = Program::parse(FIG3).unwrap();
        let a = MonteCarloPlacer::new(4, 3)
            .place(&mapper, &program)
            .unwrap();
        let b = MonteCarloPlacer::new(4, 3)
            .place(&mapper, &program)
            .unwrap();
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.initial_placement, b.initial_placement);
    }

    #[test]
    fn best_placement_reproduces_latency() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, MapperPolicy::qspr(&tech));
        let program = Program::parse(FIG3).unwrap();
        let sol = MonteCarloPlacer::new(4, 11)
            .place(&mapper, &program)
            .unwrap();
        assert_eq!(sol.direction, PassDirection::Forward);
        let outcome = mapper.map(&program, &sol.initial_placement).unwrap();
        assert_eq!(outcome.latency(), sol.latency);
    }

    #[test]
    fn striped_runs_match_one_worker() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, MapperPolicy::qspr(&tech));
        let program = Program::parse(FIG3).unwrap();
        let placer = MonteCarloPlacer::new(9, 5);
        let outcome =
            |sol: PlacerSolution| (sol.latency, sol.direction, sol.initial_placement, sol.runs);
        let expected = outcome(placer.place_striped(&mapper, &program, 1).unwrap());
        for workers in [2, 4] {
            let got = outcome(placer.place_striped(&mapper, &program, workers).unwrap());
            assert_eq!(got, expected, "{workers} workers");
        }
    }

    #[test]
    fn striped_runs_report_the_earliest_error() {
        // Two islands, four traps on one and one on the other: qubits
        // placed apart can never meet. The program maps only with `e`
        // alone on the small island, and otherwise stalls with 2 (`a`/`b`
        // split) or 1 (`c`/`d` split) gates left.
        let fabric = Fabric::from_ascii(".T.T.T.T.....T.\n+-+-+-+-+...+-+\n").unwrap();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, MapperPolicy::qspr(&tech));
        let program = Program::parse(
            "QUBIT a\nQUBIT b\nQUBIT c\nQUBIT d\nQUBIT e\nC-X a,b\nH a\nC-X c,d\nH e\n",
        )
        .unwrap();
        // With RNG seed 17, run 0 maps, run 1 splits `a`/`b`, and runs 2
        // and 3 split `c`/`d` and fail with a different error.
        let placer = MonteCarloPlacer::new(8, 17);
        for workers in [1, 2, 4] {
            let err = placer
                .place_striped(&mapper, &program, workers)
                .unwrap_err();
            assert_eq!(err, MapError::Stalled { remaining: 2 }, "{workers} workers");
        }
    }

    #[test]
    fn zero_runs_is_an_error() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, MapperPolicy::qspr(&tech));
        let program = Program::parse(FIG3).unwrap();
        assert!(MonteCarloPlacer::new(0, 1)
            .place(&mapper, &program)
            .is_err());
    }
}
