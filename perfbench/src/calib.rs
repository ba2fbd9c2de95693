//! Host-speed calibration.
//!
//! On a shared host the same simulation can take twice as long from one
//! minute to the next, because other tenants contend for the cores, caches
//! and memory bandwidth. So every timed segment is bracketed by calibration
//! passes of a fixed kernel written here, independent of the program under
//! test: [`pass`], an event-loop-shaped kernel (a binary-heap hold model
//! with a FIFO lane and scattered state updates) for `run_until`, and
//! [`text_pass`], a text-formatting kernel for set-up and exports, which
//! that first kernel does not track. A segment is reported in *calibrated
//! seconds*: its wall time scaled by [`NOMINAL_S`] over the mean pass time
//! around it, i.e. the seconds it would take on a host where one pass takes
//! [`NOMINAL_S`]. A program change moves calibrated seconds as it moves
//! wall time; host contention slows the segment and the pass alike, and
//! cancels.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Calibration time of the reference host: a 2-core Xeon VM at its usual
/// speed, where one pass takes about 20 ms.
pub const NOMINAL_S: f64 = 0.02;

/// Operations per calibration pass.
const OPS: u64 = 1 << 18;

/// A timed segment: wall seconds and the mean calibration pass around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall seconds.
    pub raw: f64,
    /// Seconds of one calibration pass around the segment (for a segment
    /// calibrated in parts, the pass time that gives the same result).
    pub cal: f64,
}

impl Timed {
    /// The segment whose wall seconds `raw` calibrate to `norm` seconds
    /// (a sum of separately calibrated parts).
    pub fn from_norm(raw: f64, norm: f64) -> Timed {
        Timed { raw, cal: raw * NOMINAL_S / norm }
    }

    /// Calibrated seconds.
    pub fn norm(self) -> f64 {
        self.raw * NOMINAL_S / self.cal
    }
}

/// Wall seconds of a [`text_pass`] on the reference host.
const TEXT_NOMINAL_S: f64 = 0.04;

/// One calibration pass on each of `threads` threads at once; returns the
/// wall seconds of the slowest, the pace a barrier-synchronized engine on
/// that many workers would see.
pub fn pass(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel();
    }
    let t = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(kernel)).collect();
        for h in handles {
            h.join().expect("calibration thread panicked");
        }
    });
    t.elapsed().as_secs_f64()
}

/// The calibration kernel: pop the earliest of a 512-key heap and a FIFO
/// lane, update a 16 MB state table, and push a successor on one or the
/// other. Returns its wall seconds.
fn kernel() -> f64 {
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut lane: VecDeque<(u64, u64, u32)> = VecDeque::new();
    let mut state = vec![0u64; 1 << 21];
    let mut x = 7u64;
    let mut seq = 0u64;
    for i in 0..512u64 {
        seq += 1;
        heap.push(Reverse((i * 37 % 1000, seq, i as u32)));
        lane.push_back((1000 + i, seq + 512, i as u32));
    }
    seq += 512;
    let t = Instant::now();
    for _ in 0..OPS {
        let from_lane = match (heap.peek(), lane.front()) {
            (Some(Reverse(h)), Some(l)) => l < h,
            (None, _) => true,
            (_, None) => false,
        };
        let (now, _, id) = if from_lane {
            lane.pop_front().expect("lane non-empty")
        } else {
            heap.pop().expect("heap non-empty").0
        };
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let k = ((x >> 40) as usize ^ id as usize) & (state.len() - 1);
        state[k] = state[k].wrapping_add(now);
        seq += 1;
        if x >> 63 == 0 {
            lane.push_back((now + 1000, seq, (x >> 20) as u32));
        } else {
            heap.push(Reverse((now + (x >> 54), seq, (x >> 20) as u32)));
        }
    }
    black_box(&state);
    t.elapsed().as_secs_f64()
}

/// The calibration pass for artifact exports, which stream hundreds of
/// megabytes of formatted text and so feel memory-bandwidth contention
/// the event-loop kernel does not: format 131 072 JSON-like records from
/// a 1 MB table into a fresh string. Returns its wall
/// seconds scaled to [`pass`] units (`NOMINAL_S` on the reference host),
/// so [`Timed`] treats both passes alike.
pub fn text_pass() -> f64 {
    use std::fmt::Write as _;
    let table: Vec<u64> =
        (0..1u64 << 17).map(|i| i.wrapping_mul(2_654_435_761) % 1_000_003).collect();
    let t = Instant::now();
    let mut out = String::new();
    for (i, v) in table.iter().enumerate() {
        write!(out, "{{\"ts\":{i},\"v\":{:.3}}},", *v as f64 / 7.0).expect("write to String");
    }
    black_box(&out);
    drop(out);
    t.elapsed().as_secs_f64() * NOMINAL_S / TEXT_NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_seconds_scale_with_the_pass() {
        let at_nominal = Timed { raw: 2.0, cal: NOMINAL_S };
        assert_eq!(at_nominal.norm(), 2.0);
        let slow_host = Timed { raw: 4.0, cal: 2.0 * NOMINAL_S };
        assert_eq!(slow_host.norm(), 2.0);
        let parts = Timed::from_norm(3.0, 1.5);
        assert!((parts.norm() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn passes_take_time_on_any_thread_count() {
        assert!(pass(1) > 0.0);
        assert!(pass(2) > 0.0);
        assert!(text_pass() > 0.0);
    }
}
