//! Host-speed reference: a fixed kernel, independent of the QSPR
//! crates, timed between the segments of every suite pass and around
//! every set-up.
//!
//! The shared VM this benchmark was built on changes speed by up to
//! 1.8x over minutes as other tenants come and go, with no time spent
//! waiting for a CPU or stolen by the hypervisor. Dividing a pass's
//! wall time by the reference time measured during it cancels most of
//! that drift: the quotient moves when the mapper's own work changes,
//! and much less with the host. The kernel churns a small hash map of
//! growable vectors (hashing, probing, small allocations and frees).
//! Of the kernels tried it tracked the suite's slowdowns best; a
//! binary-heap grid Dijkstra, closer to the router on paper, slowed
//! only 1.5x when the suite slowed 1.8x.

use std::collections::HashMap;
use std::time::Instant;

/// Map operations per sample (two pushes to one removal).
const OPS: u32 = 20_000;
/// Distinct keys; the map and its vectors stay within L2.
const KEYS: u64 = 4096;
/// Samples per measurement; a measurement is their median.
const SAMPLES: usize = 3;
/// Reference time the normalised metrics are expressed at: about one
/// sample on that 2-vCPU x86-64 VM in its fastest stretches, so there
/// normalised times read close to wall times.
pub const NOMINAL_MS: f64 = 0.8;

/// Median time of [`SAMPLES`] kernel samples, milliseconds.
pub fn measure_ms() -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES).map(|_| sample_ms()).collect();
    crate::median(&mut samples)
}

/// Factor that turns a wall time measured while the reference read
/// `ref_ms` (several measurements, of which the median counts) into
/// the time it would take on a host where a sample takes
/// [`NOMINAL_MS`].
pub fn scale(ref_ms: &mut [f64]) -> f64 {
    NOMINAL_MS / crate::median(ref_ms)
}

fn sample_ms() -> f64 {
    let started = Instant::now();
    let mut rng = crate::Rng::new(0x00C0_FFEE);
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    for i in 0..OPS {
        let key = rng.below(KEYS);
        if i % 3 == 0 {
            map.remove(&key);
        } else {
            map.entry(key).or_default().push(i);
        }
    }
    std::hint::black_box(&map);
    started.elapsed().as_nanos() as f64 / 1e6
}
