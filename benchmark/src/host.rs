//! How fast this host runs while the benchmark measures.
//!
//! The recorded host shares its cores, and its last-level cache, with
//! other tenants. For identical work, the attacks' time over a 15 s
//! window varied by 15 to 17% (standard deviation over mean) from one
//! window to the next during a busy hour. A fixed probe timed between the measured calls
//! drifts with the attacks, so every time the benchmark reports is
//! divided by the run's *slowdown*, the mean probe time over its
//! reference, and every rate is multiplied by it. The probe is the
//! benchmark's own code, so no change to the program under test can make
//! it faster or slower.
//!
//! The probe chases pointers around one random cycle through a 256 KiB
//! table, so each step waits on a cache load, as the SAT solver's
//! propagation does. Over 45 such windows its time moved with the
//! attacks' at an elasticity of 1.0 to 1.2 (correlation 0.91 to 0.97),
//! and dividing by it left 4 to 7% of the 15 to 17%. An arithmetic loop
//! moved only 0.6 times as far as the attacks, and left 7 to 9%. The
//! mean is used, not the median, because the attacks pay for every slow
//! moment of the host, not for a typical one.

use std::hint::black_box;
use std::time::Instant;

/// Slots of the pointer-chase table: 256 KiB of `u32`.
const SLOTS: usize = 1 << 16;

/// Chase steps per probe.
const STEPS: usize = 300_000;

/// Mean seconds of one probe on the recorded host (2 cores) in a quiet
/// hour. It only sets the scale: a reported time is the wall time the
/// run would have taken with the host at that speed.
const REFERENCE_PROBE_S: f64 = 0.001_9;

/// Measured time per probe taken after a measured call.
const PROBE_EVERY_S: f64 = 0.1;

/// The host probe and the times it has taken.
#[derive(Debug)]
pub struct Probe {
    /// `next[i]` is the slot after `i` on one cycle through every slot.
    next: Vec<u32>,
    samples: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// A probe with no samples yet.
    pub fn new() -> Probe {
        // Sattolo's shuffle with a fixed xorshift stream: one random cycle
        // through all slots, the same on every run.
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut r = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..SLOTS).rev() {
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            next.swap(i, (r % i as u64) as usize);
        }
        Probe {
            next,
            samples: Vec::new(),
        }
    }

    fn run(&self) -> f64 {
        let begin = Instant::now();
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        begin.elapsed().as_secs_f64()
    }

    /// Times the chase `n` times, after one untimed pass that brings its
    /// table back into cache.
    pub fn sample(&mut self, n: usize) {
        self.run();
        for _ in 0..n {
            let t = self.run();
            self.samples.push(t);
        }
    }

    /// Probes after a measured call of `busy_s` seconds: one probe per
    /// `PROBE_EVERY_S` of it, at least one and at most 40.
    pub fn sample_after(&mut self, busy_s: f64) {
        let n = (busy_s / PROBE_EVERY_S).ceil() as usize;
        self.sample(n.clamp(1, 40));
    }

    /// The mean probe time over the reference; 1 before any sample.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64 / REFERENCE_PROBE_S
        }
    }

    /// Number of timed probes.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_count_follows_the_measured_time() {
        let mut probe = Probe::new();
        assert_eq!(probe.slowdown(), 1.0);
        probe.sample_after(0.0);
        assert_eq!(probe.samples(), 1);
        probe.sample_after(0.25);
        assert_eq!(probe.samples(), 4);
        probe.sample_after(60.0);
        assert_eq!(probe.samples(), 44);
        assert!(probe.slowdown() > 0.0);
    }

    #[test]
    fn the_chase_visits_every_slot_once_per_cycle() {
        let probe = Probe::new();
        let mut seen = vec![false; SLOTS];
        let mut at = 0u32;
        for _ in 0..SLOTS {
            assert!(!seen[at as usize], "slot {at} visited twice");
            seen[at as usize] = true;
            at = probe.next[at as usize];
        }
        assert_eq!(at, 0);
        assert!(seen.iter().all(|&s| s));
    }
}
