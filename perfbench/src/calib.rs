//! Host-speed calibration.
//!
//! The host the benchmark was tuned on is shared, and its speed drifts
//! by a third over tens of minutes as its neighbours come and go, which
//! no number of samples inside a 30-second run can average out. So every
//! run also times a fixed kernel, interleaved with the workload's own
//! samples, and scales its timings to the reference host's speed:
//! `reported = raw × REFERENCE_S / kernel time`, where both times are
//! the lower quartiles of the run's samples. The kernel
//! belongs to this package, so no change to the program moves it; a
//! change that speeds the program up still shows in full.
//!
//! The kernel runs on as many threads as the workloads use (2): each
//! thread makes multiply-add chains over an L1-sized array and streams
//! over a 4 MiB buffer, so both a neighbour taking CPU time and one
//! taking cache or memory bandwidth slow it down. The buffers live only
//! while the kernel runs, so they never raise a run's peak RSS.

use std::time::Instant;

use crate::report::lower_quartile;

/// Kernel time on the reference host (2-CPU Intel Xeon, lower quartile
/// over the runs' samples), s.
pub const REFERENCE_S: f64 = 0.021;

/// Threads the kernel runs on.
const THREADS: usize = 2;
/// f32 values in the compute array (16 KiB).
const COMPUTE_LEN: usize = 4096;
/// Passes over the compute array.
const COMPUTE_REPS: usize = 10_000;
/// u64 values in the streamed buffer (4 MiB).
const STREAM_LEN: usize = 512 * 1024;
/// Passes over the streamed buffer.
const STREAM_REPS: usize = 40;

/// Kernel times taken during one run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Time the kernel `n` times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let buffers: Vec<Vec<u64>> = (0..THREADS as u64)
                .map(|t| (0..STREAM_LEN as u64).map(|i| i ^ t).collect())
                .collect();
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for buf in &buffers {
                    s.spawn(move || std::hint::black_box(kernel(buf)));
                }
            });
            self.samples.push(t0.elapsed().as_secs_f64());
        }
    }

    /// The run's kernel time (lower quartile of its samples), s.
    pub fn kernel_s(&self) -> f64 {
        lower_quartile(&self.samples)
    }

    pub fn samples(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Scale a raw timing to the reference host's speed.
    pub fn scale(&self, raw: f64) -> f64 {
        let k = self.kernel_s();
        if k > 0.0 {
            raw * REFERENCE_S / k
        } else {
            raw
        }
    }
}

/// The per-thread work: multiply-add chains, then a streaming sum.
fn kernel(buf: &[u64]) -> u64 {
    let xs: Vec<f32> = (0..COMPUTE_LEN).map(|i| (i % 97) as f32 * 1e-3).collect();
    let mut acc = [0.0f32; 8];
    for r in 0..COMPUTE_REPS {
        let a = 1.0 + r as f32 * 1e-6;
        for chunk in xs.chunks_exact(8) {
            for (s, &x) in acc.iter_mut().zip(chunk) {
                *s = *s * 0.999 + x * a;
            }
        }
    }
    let mut sum = acc.iter().map(|v| u64::from(v.to_bits())).fold(0u64, u64::wrapping_add);
    for r in 0..STREAM_REPS {
        sum = buf.iter().fold(sum.rotate_left(r as u32), |s, &v| s.wrapping_add(v));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_the_host_speed() {
        let mut c = Calibration { samples: vec![REFERENCE_S * 2.0; 3] };
        assert!((c.scale(10.0) - 5.0).abs() < 1e-12);
        c.samples = vec![REFERENCE_S];
        assert!((c.scale(10.0) - 10.0).abs() < 1e-12);
        c.samples.clear();
        assert_eq!(c.scale(10.0), 10.0);
        c.sample(1);
        assert_eq!(c.samples(), 1);
        assert!(c.kernel_s() > 0.0);
    }
}
