//! Op-loop accounting: host-speed normalization, medians, the fixed
//! tail percentile, and the attempted/failed tally behind `ok_ops_frac`.
//!
//! The host's speed drifts by up to 45% over minutes on a shared machine
//! (another guest on the sibling hyperthread, clock changes), which
//! would swamp any regression bound. Each op is therefore preceded by a
//! short reference owned by the benchmark ([`crate::host::Reference`]),
//! and each op's wall time is scaled to what it would read on a host
//! running that reference at [`NOMINAL_GFLOPS`]. The program cannot move
//! the reference, so a change to the program shows in full while host
//! drift cancels.
//!
//! Throughput and tail are then taken per window of consecutive ops and
//! the median over the windows is reported: a burst of stolen CPU time
//! moves one window, not the run's figure.

/// Reference rate the end-to-end timings are normalized to: about what
/// [`crate::host::Reference`] reads on an uncontended core of the
/// machine the benchmark was calibrated on (an Intel Xeon guest).
pub const NOMINAL_GFLOPS: f64 = 20.0;

/// Reference passes on each side of an op whose median gives the host
/// speed the op ran at.
const REF_HALF_SPAN: usize = 8;

/// Percentiles tried for `op_tail_ms`, highest first.
const TAIL_PERCENTILES: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Windows a run's ops are split into (odd, so the median is one
/// window's figure).
pub const WINDOWS: usize = 3;

/// Median of `v` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let h = s.len() / 2;
    if s.len() % 2 == 1 {
        s[h]
    } else {
        0.5 * (s[h - 1] + s[h])
    }
}

/// The highest percentile of `n` samples with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, rank)`: the
/// nearest-rank value is the `rank`-th smallest sample. It depends only
/// on `n`, so a fixed op count fixes it.
pub fn tail_rank(n: usize) -> Option<(f64, usize)> {
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then_some((p, rank))
    })
}

/// The tail of a run: per window, the highest percentile with
/// [`TAIL_MIN_BEYOND`] samples beyond it; the value is the median over
/// the windows. Every field but `value_s` depends on the op count alone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile.
    pub percentile: f64,
    /// Ops per window.
    pub window: usize,
    /// Samples beyond the percentile in each window.
    pub beyond: usize,
    /// Median over the windows, in seconds.
    pub value_s: f64,
}

/// Throughput, median and tail of one series of op times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median window throughput: ops over op wall time (checks excluded).
    pub ops_per_s: f64,
    /// Median op time over all ops, in seconds.
    pub p50_s: f64,
    /// The windowed tail; `None` below `2 × TAIL_MIN_BEYOND` ops per window.
    pub tail: Option<Tail>,
}

fn summarize(walls: &[f64]) -> Summary {
    let len = (walls.len() / WINDOWS).max(1);
    let windows = || walls[..len * WINDOWS.min(walls.len())].chunks(len);
    let rates: Vec<f64> = windows()
        .map(|w| w.len() as f64 / w.iter().sum::<f64>())
        .collect();
    let tail = tail_rank(len).map(|(percentile, rank)| {
        let tails: Vec<f64> = windows()
            .map(|w| {
                let mut s = w.to_vec();
                s.sort_by(f64::total_cmp);
                s[rank - 1]
            })
            .collect();
        Tail {
            percentile,
            window: len,
            beyond: len - rank,
            value_s: median(&tails),
        }
    });
    Summary {
        ops_per_s: median(&rates),
        p50_s: median(walls),
        tail,
    }
}

/// Wall times, reference rates and outcomes of one run's ops.
#[derive(Default)]
pub struct OpLog {
    walls_s: Vec<f64>,
    ref_gflops: Vec<f64>,
    failed: usize,
}

impl OpLog {
    /// Records one op: its wall time, the reference rate measured just
    /// before it, and whether its output checked out.
    pub fn push(&mut self, wall_s: f64, ref_gflops: f64, ok: bool) {
        self.walls_s.push(wall_s);
        self.ref_gflops.push(ref_gflops);
        if !ok {
            self.failed += 1;
        }
    }

    /// Ops issued.
    pub fn attempted(&self) -> usize {
        self.walls_s.len()
    }

    /// Ops whose call failed or whose output did not check out.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Share of ops that succeeded and checked out.
    pub fn ok_ops_frac(&self) -> f64 {
        if self.walls_s.is_empty() {
            return 0.0;
        }
        (self.attempted() - self.failed) as f64 / self.attempted() as f64
    }

    /// Median reference rate over the run, GF/s.
    pub fn ref_gflops(&self) -> f64 {
        median(&self.ref_gflops)
    }

    /// Each op's wall time scaled to a host running the reference at
    /// [`NOMINAL_GFLOPS`]; the host's speed at op `i` is the median
    /// reference rate of the ops within [`REF_HALF_SPAN`] of it.
    pub fn normalized_walls(&self) -> Vec<f64> {
        let n = self.walls_s.len();
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(REF_HALF_SPAN);
                let hi = (i + REF_HALF_SPAN + 1).min(n);
                self.walls_s[i] * median(&self.ref_gflops[lo..hi]) / NOMINAL_GFLOPS
            })
            .collect()
    }

    /// Summary of the host-normalized op times (the reported figures).
    pub fn normalized(&self) -> Summary {
        summarize(&self.normalized_walls())
    }

    /// Summary of the raw host-clock op times (provenance only).
    pub fn raw(&self) -> Summary {
        summarize(&self.walls_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(150), Some((90.0, 135)));
        assert_eq!(tail_rank(1000), Some((99.0, 990)));
        assert_eq!(tail_rank(20), Some((50.0, 10)));
        assert_eq!(tail_rank(15), None);
    }

    #[test]
    fn a_failed_op_lowers_ok_frac() {
        let mut log = OpLog::default();
        log.push(0.5, NOMINAL_GFLOPS, true);
        log.push(0.5, NOMINAL_GFLOPS, false);
        log.push(0.5, NOMINAL_GFLOPS, true);
        assert_eq!(log.ok_ops_frac(), 2.0 / 3.0);
        assert_eq!(log.normalized().ops_per_s, 2.0);
    }

    #[test]
    fn one_slow_window_does_not_move_the_run() {
        let mut log = OpLog::default();
        for w in 0..WINDOWS {
            for _ in 0..40 {
                log.push(if w == 0 { 0.5 } else { 0.25 }, NOMINAL_GFLOPS, true);
            }
        }
        let s = log.normalized();
        assert_eq!(s.ops_per_s, 4.0);
        let tail = s.tail.expect("40 ops per window");
        assert_eq!((tail.percentile, tail.window, tail.beyond), (75.0, 40, 10));
        assert_eq!(tail.value_s, 0.25);
    }

    #[test]
    fn a_uniformly_slower_host_cancels() {
        let (mut fast, mut slow) = (OpLog::default(), OpLog::default());
        for i in 0..60 {
            let wall = 0.25 * (1 + i % 3) as f64;
            fast.push(wall, NOMINAL_GFLOPS, true);
            slow.push(2.0 * wall, NOMINAL_GFLOPS / 2.0, true);
        }
        assert_eq!(fast.normalized(), slow.normalized());
        assert_eq!(slow.raw().p50_s, 2.0 * fast.raw().p50_s);
    }
}
