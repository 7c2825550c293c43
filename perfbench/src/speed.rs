//! Host-speed normalisation.
//!
//! The benchmark host is a shared 2-vCPU VM whose speed drifts by ±10 %
//! over seconds: a fixed loop of work measured back to back takes anywhere
//! from 0.7× to 1.5× its typical time, and 4-second averages still differ
//! by 10 %. Run-to-run spread from that drift swamps the effects a bound of
//! 0.25 can resolve. So the measured phases are interleaved with a short
//! probe of fixed work, and every end-to-end time is scaled by
//! `(REFERENCE_PROBE_S / median probe time around the interval)^s` — host
//! time at the reference speed. The sensitivity `s` is a measured property
//! of the workload: CPU-bound work slows down as much as the probe (`s` =
//! 1), memory-bound work less. Raw times are printed beside the scaled
//! ones.
//!
//! The probe is self-contained: multiply/xorshift mixing over a private
//! 1 KiB block and pseudo-random read-modify-writes of a private 4 MiB
//! table. It calls no code of the repository's crates and never
//! allocates, so a change to the program moves the program's intervals
//! and never the probe's.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's typical duration on the reference host (2-vCPU VM,
/// rustc 1.95, release build).
pub const REFERENCE_PROBE_S: f64 = 2.1e-4;

/// How far around an interval its probes are taken from.
const WINDOW: Duration = Duration::from_millis(250);

/// The fewest probes a scale factor is taken from.
const MIN_PROBES: usize = 5;

/// Passes of the mixing lanes over the probe's block per step.
const MIX_ROUNDS: usize = 4;

/// Words in the probe's scratch table (4 MiB: larger than a core's share
/// of cache, so the probe's random accesses feel memory contention too).
const TABLE_WORDS: usize = 1 << 19;

thread_local! {
    /// The run's measured-phase sensitivity (see [`reset`]).
    static SENSITIVITY: Cell<f64> = const { Cell::new(1.0) };
    /// `(when, seconds)` of every probe this run, in time order.
    static PROBES: RefCell<Vec<(Instant, f64)>> = const { RefCell::new(Vec::new()) };
    /// The probe's scratch table, allocated and touched once per thread so
    /// the probe never calls the allocator (whose state the program
    /// shapes).
    static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![1; TABLE_WORDS]);
}

/// One timed host interval.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start: Instant,
    pub end: Instant,
}

impl Interval {
    /// The interval from `start` to now.
    pub fn since(start: Instant) -> Interval {
        Interval {
            start,
            end: Instant::now(),
        }
    }

    /// Raw host seconds.
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Measured-phase host seconds at the reference speed: raw seconds
    /// divided by the local slowdown raised to the run's sensitivity.
    pub fn scaled_secs(&self) -> f64 {
        self.scaled_secs_with(SENSITIVITY.with(Cell::get))
    }

    /// Set-up host seconds at the reference speed.
    pub fn scaled_setup_secs(&self) -> f64 {
        self.scaled_secs_with(SETUP_SENSITIVITY)
    }

    fn scaled_secs_with(&self, sensitivity: f64) -> f64 {
        let slowdown = local_probe_s(self) / REFERENCE_PROBE_S;
        self.secs() / slowdown.powf(sensitivity)
    }
}

/// How strongly set-up times follow the probe. Building a world is
/// allocation-heavy on every workload: across two host states whose probe
/// times differed by 38 %, set-up times scaled at 0.5 moved by 0–4 %, at 1
/// by 15–35 %.
pub const SETUP_SENSITIVITY: f64 = 0.5;

/// Forgets every probe (a new run starts) and sets how strongly the run's
/// measured-phase times follow the probe: 1 when they slow down exactly as
/// much as the probe, 0.5 when a 2× slower probe means √2× slower work.
pub fn reset(sensitivity: f64) {
    PROBES.with(|p| p.borrow_mut().clear());
    SENSITIVITY.with(|s| s.set(sensitivity));
    TABLE.with(|t| black_box(t.borrow().len()));
}

/// Runs the fixed probe work `n` times and records each duration: four
/// independent multiply/xorshift mixing lanes over a 1 KiB block (plenty
/// of instruction-level parallelism, as in a hash), each step ending in a
/// pseudo-random read-modify-write of the scratch table.
pub fn probe(n: usize) {
    for _ in 0..n {
        let mut table = TABLE.with(|t| std::mem::take(&mut *t.borrow_mut()));
        let t0 = Instant::now();
        let mut block = [0x0123_4567_89ab_cdefu64; 128];
        for i in 0..300u64 {
            let mut lanes = [black_box(i), i ^ 1, i ^ 2, i ^ 3];
            for _ in 0..MIX_ROUNDS {
                for words in block.chunks_exact_mut(lanes.len()) {
                    for (h, word) in lanes.iter_mut().zip(words) {
                        *h = (*h ^ *word).wrapping_mul(0xff51_afd7_ed55_8ccd);
                        *h ^= *h >> 29;
                        *word = word.rotate_left(7) ^ *h;
                    }
                }
            }
            let j = (lanes[0] >> 20) as usize % TABLE_WORDS;
            table[j] = table[j].wrapping_add(lanes[1]);
        }
        black_box(&block);
        black_box(&table);
        let s = t0.elapsed().as_secs_f64();
        TABLE.with(|t| *t.borrow_mut() = table);
        PROBES.with(|p| p.borrow_mut().push((t0, s)));
        crate::common::rss_mib();
    }
}

/// Median probe time within `WINDOW` of `iv` (at least the `MIN_PROBES`
/// nearest probes).
fn local_probe_s(iv: &Interval) -> f64 {
    PROBES.with(|p| {
        let probes = p.borrow();
        assert!(!probes.is_empty(), "intervals are scaled after probing");
        let lo = probes.partition_point(|(at, _)| *at + WINDOW < iv.start);
        let hi = probes.partition_point(|(at, _)| *at <= iv.end + WINDOW);
        let (mut lo, mut hi) = (lo, hi.max(lo));
        while hi - lo < MIN_PROBES.min(probes.len()) {
            let before = (lo > 0).then(|| iv.start.duration_since(probes[lo - 1].0));
            let after = (hi < probes.len()).then(|| probes[hi].0.duration_since(iv.end));
            match (before, after) {
                (Some(b), Some(a)) if b <= a => lo -= 1,
                (Some(_), None) => lo -= 1,
                _ => hi += 1,
            }
        }
        let window: Vec<f64> = probes[lo..hi].iter().map(|(_, s)| *s).collect();
        crate::common::median(&window)
    })
}

/// Median probe time of the run so far, as a multiple of the reference.
pub fn slowdown() -> f64 {
    PROBES.with(|p| {
        let all: Vec<f64> = p.borrow().iter().map(|(_, s)| *s).collect();
        crate::common::median(&all) / REFERENCE_PROBE_S
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_uses_the_probes_around_an_interval() {
        reset(1.0);
        probe(MIN_PROBES);
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let iv = Interval::since(start);
        probe(MIN_PROBES);
        let local = local_probe_s(&iv);
        assert!(local > 0.0);
        let expected = iv.secs() * REFERENCE_PROBE_S / local;
        assert!((iv.scaled_secs() - expected).abs() < 1e-12);
        let expected = iv.secs() * (REFERENCE_PROBE_S / local).sqrt();
        assert!((iv.scaled_setup_secs() - expected).abs() < 1e-12);
    }
}
