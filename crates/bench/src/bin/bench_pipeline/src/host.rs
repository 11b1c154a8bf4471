//! Host-speed calibration for the end-to-end timings.
//!
//! The host this benchmark was written on is shared: for seconds to
//! minutes at a time, other tenants slow cache- and branch-heavy code by
//! 20–50% while a register-only loop barely moves, so a run's timings
//! depended more on when it ran than on the code (across ten runs the
//! spread of the per-run medians reached 14–35%). Every timed phase is
//! therefore cut into chunks with a fixed reference workload between
//! them, standard-library code the program under test never runs, and
//! each chunk's time is scaled by how fast the host ran the references on
//! either side of it: `measured ÷ (reference ÷ REFERENCE_NS)^exponent`.
//! A change to the program moves the scaled figure as it moves the
//! measured one; the host's state moves both the chunk and the references
//! and cancels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys the reference sorts.
const SORTED: usize = 1 << 18;
/// Keys it then counts into a map of [`BUCKETS`] keys.
const COUNTED: usize = 1 << 16;
const BUCKETS: u64 = 4096;

/// Chunks a metered phase is cut into, so the reference samples the host
/// nine times across the phase instead of only at its ends.
pub const CHUNKS: usize = 8;

/// How much harder than the reference the sensor phase slows when the
/// host is contended. Fitting `log(chunk time)` against `log(slowdown)`
/// within each run gave slopes of 1.17–1.55 for the sensor phase (1.3 in
/// the middle) and 0.9–1.2 for the ingest, over two sets of forty runs.
/// With an exponent of 1 the sensor phase's per-run figures still rose
/// with the host's slowdown (correlation 0.7–0.99 on three workloads).
/// 1.25, chosen on one set, cut the spread of the other set's per-run
/// medians from 2.8–7.4% to 1.7–3.6%. The ingest keeps an exponent of 1.
pub const SENSOR_EXPONENT: f64 = 1.25;

/// What one [`reference_ns`] call takes on a quiet host of the kind the
/// baselines were taken on (Xeon, 2 vCPUs); scaled figures read in
/// nanoseconds at that speed.
pub const REFERENCE_NS: f64 = 9.0e6;

/// Times one pass of the reference workload: sort 2^18 pseudo-random keys
/// (streaming through L2), then count 2^16 of them into a `BTreeMap` of up
/// to 4096 keys (branchy, L1-resident). Together they track the host's
/// slow phases closely for every phase of the pipeline (correlation 0.8
/// per round, where a memory copy or a hash loop reached 0.3–0.4). The
/// keys are generated before the clock starts, so every call times the
/// same work.
pub fn reference_ns() -> f64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut keys: Vec<u64> = (0..SORTED)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let start = Instant::now();
    black_box(&mut keys).sort_unstable();
    let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
    for &key in black_box(&keys).iter().step_by(SORTED / COUNTED) {
        *counts.entry(key % BUCKETS).or_default() += 1;
    }
    black_box(counts.len());
    start.elapsed().as_nanos() as f64
}

/// How much slower than the reference speed the host ran, given what the
/// reference took around a phase: a time at the reference speed is the
/// measured time divided by this.
pub fn slowdown(reference_ns: f64) -> f64 {
    if reference_ns > 0.0 {
        reference_ns / REFERENCE_NS
    } else {
        1.0
    }
}

/// A time as measured and at the reference speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    pub measured: f64,
    pub scaled: f64,
}

impl Timed {
    /// How much slower than the reference speed the host ran over the
    /// time's chunks, weighted by their length.
    pub fn slowdown(&self) -> f64 {
        if self.scaled > 0.0 {
            self.measured / self.scaled
        } else {
            1.0
        }
    }

    /// Both figures divided by `n` (a per-frame or per-session time).
    pub fn per(&self, n: f64) -> Timed {
        if n == 0.0 {
            return Timed::default();
        }
        Timed {
            measured: self.measured / n,
            scaled: self.scaled / n,
        }
    }
}

/// A phase timed in chunks, with a reference call before the first chunk
/// and after each one. Each chunk is scaled by the mean of the two
/// reference calls around it, raised to the phase's exponent. The calls
/// sit outside the timed chunks.
pub struct Meter {
    exponent: f64,
    /// The reference call that opened the current chunk.
    last: f64,
    pub total: Timed,
}

impl Meter {
    pub fn start(exponent: f64) -> Meter {
        Meter {
            exponent,
            last: reference_ns(),
            total: Timed::default(),
        }
    }

    /// Closes a chunk whose timed work took `ns`: calls the reference and
    /// returns the chunk's slowdown.
    pub fn lap(&mut self, ns: u64) -> f64 {
        let next = reference_ns();
        let s = slowdown((self.last + next) / 2.0).powf(self.exponent);
        self.last = next;
        self.total.measured += ns as f64;
        self.total.scaled += ns as f64 / s;
        s
    }
}

/// Length of each of [`CHUNKS`] chunks over `items` items (at least 1).
pub fn chunk_len(items: usize) -> usize {
    items.div_ceil(CHUNKS).max(1)
}
