//! The placement-engine seam: every placer, built-in or third-party,
//! implements [`Placer`] and produces a [`PlacerSolution`].
//!
//! The trait is object safe, so flows can hold a `dyn Placer` and swap
//! engines (MVFB vs Monte Carlo vs anything a downstream crate cooks
//! up) without growing one method per engine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use qspr_fabric::{Fabric, Time};
use qspr_qasm::Program;
use qspr_sim::{MapError, Mapper, MappingOutcome, Placement, Trace};

/// Whether a winning pass executed the QIDG (forward) or the uncompute
/// UIDG (backward). Single-direction placers always report `Forward`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassDirection {
    /// The pass mapped the original program.
    Forward,
    /// The pass mapped the reversed (uncompute) program; the reported
    /// control trace is its time-reversal.
    Backward,
}

impl PassDirection {
    /// Stable lowercase name (`"forward"` / `"backward"`), used in
    /// reports and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            PassDirection::Forward => "forward",
            PassDirection::Backward => "backward",
        }
    }
}

/// The result of a placement search, common to every [`Placer`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerSolution {
    /// Best execution latency found.
    pub latency: Time,
    /// Direction of the winning pass.
    pub direction: PassDirection,
    /// The placement the winning pass started from. Re-mapping the
    /// program (or its reverse, per `direction`) from here reproduces
    /// `latency` exactly.
    pub initial_placement: Placement,
    /// Number of placement runs executed (the paper's `m'` for MVFB).
    pub runs: usize,
    /// Wall-clock time spent.
    pub cpu: Duration,
}

impl PlacerSolution {
    /// Re-runs the winning pass with trace recording and returns the
    /// outcome together with a *forward-executing* control trace: the
    /// pass's own trace when it was forward, its reversal when backward
    /// (the paper's "reverse of `T'_k`").
    ///
    /// # Errors
    ///
    /// Propagates mapping errors (none are expected, since the winning
    /// pass already mapped successfully once).
    pub fn replay(
        &self,
        mapper: &Mapper<'_>,
        program: &Program,
    ) -> Result<(MappingOutcome, Trace), MapError> {
        let tracing = mapper.clone().record_trace(true);
        let outcome = match self.direction {
            PassDirection::Forward => tracing.map(program, &self.initial_placement)?,
            PassDirection::Backward => tracing.map(&program.reversed(), &self.initial_placement)?,
        };
        let trace = outcome.trace().expect("trace recording was enabled");
        let forward = match self.direction {
            PassDirection::Forward => trace.clone(),
            PassDirection::Backward => trace.reversed(),
        };
        Ok((outcome, forward))
    }
}

/// A pluggable placement engine.
///
/// Implementations search for an initial placement minimizing the
/// mapped execution latency of `program` under `mapper`'s policy. The
/// trait is object safe; flows store `dyn Placer` so engines are a
/// one-line swap.
///
/// # Examples
///
/// A trivial third-party placer that just proposes the deterministic
/// center placement:
///
/// ```
/// use std::time::Instant;
///
/// use qspr_fabric::{Fabric, TechParams};
/// use qspr_place::{PassDirection, Placer, PlacerSolution};
/// use qspr_qasm::Program;
/// use qspr_sim::{MapError, Mapper, MapperPolicy, Placement};
///
/// struct CenterPlacer;
///
/// impl Placer for CenterPlacer {
///     fn name(&self) -> &str {
///         "center"
///     }
///
///     fn place(
///         &self,
///         mapper: &Mapper<'_>,
///         program: &Program,
///     ) -> Result<PlacerSolution, MapError> {
///         let started = Instant::now();
///         let placement = Placement::center(mapper.fabric(), program.num_qubits());
///         let outcome = mapper.map(program, &placement)?;
///         Ok(PlacerSolution {
///             latency: outcome.latency(),
///             direction: PassDirection::Forward,
///             initial_placement: placement,
///             runs: 1,
///             cpu: started.elapsed(),
///         })
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fabric = Fabric::quale_45x85();
/// let tech = TechParams::date2012();
/// let mapper = Mapper::new(&fabric, tech, MapperPolicy::qspr(&tech));
/// let program = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\n")?;
/// let engine: &dyn Placer = &CenterPlacer;
/// let solution = engine.place(&mapper, &program)?;
/// assert_eq!(solution.runs, 1);
/// # Ok(())
/// # }
/// ```
pub trait Placer {
    /// Short stable engine name for reports (`"mvfb"`, `"monte-carlo"`).
    fn name(&self) -> &str;

    /// Runs the placement search.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MapError`] encountered while evaluating
    /// candidate placements; placers configured to evaluate zero
    /// candidates report a stall.
    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError>;
}

impl<P: Placer + ?Sized> Placer for &P {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError> {
        (**self).place(mapper, program)
    }
}

impl<P: Placer + ?Sized> Placer for std::sync::Arc<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError> {
        (**self).place(mapper, program)
    }
}

impl<P: Placer + ?Sized> Placer for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError> {
        (**self).place(mapper, program)
    }
}

/// Checks that `fabric` has a trap for each of `num_qubits` qubits,
/// the seats a center placement ([`Placement::center`] and its
/// permutations) draws. Both placers and the flow's center-placed
/// baselines call it before drawing one, so a program larger than the
/// fabric is a [`MapError::NotEnoughTraps`], not a panic.
///
/// # Errors
///
/// [`MapError::NotEnoughTraps`] when the fabric has fewer traps than
/// `num_qubits`.
pub fn check_center_seats(fabric: &Fabric, num_qubits: usize) -> Result<(), MapError> {
    let traps = fabric.topology().traps().len();
    if traps < num_qubits {
        return Err(MapError::NotEnoughTraps {
            traps,
            qubits: num_qubits,
        });
    }
    Ok(())
}

/// Runs `task(i)` for every `i` in `0..len` on up to `workers` scoped
/// threads and returns the results in index order, or the error of the
/// lowest failing index — exactly what a sequential loop with `?`
/// returns.
///
/// Indices are striped by number (worker `w` takes `w, w + W, …`), and
/// each task must depend only on its index, so the output does not
/// depend on scheduling. After a failure at index `e`, workers skip
/// indices above `e`: those results could never be returned, while
/// every index below `e` still runs, because the recorded failure index
/// only ever decreases. One worker runs inline on the caller's thread.
/// Workers relay the caller's span context ([`qspr_obs::Relay`]) so
/// their spans nest under the caller's open span.
pub(crate) fn map_striped<T, F>(workers: usize, len: usize, task: F) -> Result<Vec<T>, MapError>
where
    T: Send,
    F: Fn(usize) -> Result<T, MapError> + Sync,
{
    let workers = workers.min(len);
    if workers <= 1 {
        return (0..len).map(task).collect();
    }
    let first_err = AtomicUsize::new(usize::MAX);
    let relay = qspr_obs::Relay::capture();
    let mut done: Vec<(usize, Result<T, MapError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (task, first_err, relay) = (&task, &first_err, &relay);
                scope.spawn(move || {
                    let _sink = relay.install();
                    let mut out = Vec::new();
                    for i in (w..len).step_by(workers) {
                        if i > first_err.load(Ordering::Relaxed) {
                            break;
                        }
                        let result = task(i);
                        if result.is_err() {
                            first_err.fetch_min(i, Ordering::Relaxed);
                        }
                        out.push((i, result));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("placer worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_results_come_back_in_index_order() {
        for workers in 0..=5 {
            for len in 0..10 {
                let out = map_striped(workers, len, |i| Ok(i * 10)).unwrap();
                assert_eq!(out, (0..len).map(|i| i * 10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn the_lowest_failing_index_wins_at_every_worker_count() {
        let fail = |i: usize| MapError::Stalled { remaining: i };
        for workers in 1..=4 {
            // Index 3 fails fast while lower indices are still running.
            let out = map_striped(workers, 9, |i| {
                if i == 5 || i == 3 {
                    return Err(fail(i));
                }
                std::thread::sleep(Duration::from_millis(2));
                Ok(i)
            });
            assert_eq!(out, Err(fail(3)), "workers={workers}");
        }
    }

    #[test]
    fn pass_direction_names_are_stable() {
        assert_eq!(PassDirection::Forward.as_str(), "forward");
        assert_eq!(PassDirection::Backward.as_str(), "backward");
    }

    #[test]
    fn placer_is_object_safe() {
        fn _takes_dyn(_: &dyn Placer) {}
    }
}
