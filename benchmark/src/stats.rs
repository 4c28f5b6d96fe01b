//! Order statistics and process memory counters.

/// Candidate percentiles for a tail figure, lowest first.
const TAIL_PERCENTILES: [f64; 7] = [75.0, 80.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples beyond a percentile needed before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (0 for no samples).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A sample set sorted once, queried many times.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

/// A tail figure: the percentile chosen, its value, and how many
/// samples lie beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.0, 50.0)
    }

    /// The highest candidate percentile that still has at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it; the median when the set
    /// is too small for any of them.
    pub fn tail(&self) -> Tail {
        let n = self.0.len();
        let mut best = Tail {
            pct: 50.0,
            value: self.p50(),
            beyond: n - (n as f64 * 0.5).ceil() as usize,
        };
        for pct in TAIL_PERCENTILES {
            let rank = (pct / 100.0 * n as f64).ceil() as usize;
            if n.saturating_sub(rank) >= TAIL_MIN_BEYOND {
                best = Tail {
                    pct,
                    value: percentile(&self.0, pct),
                    beyond: n - rank,
                };
            }
        }
        best
    }
}

/// A statistic taken per consecutive part of `size` samples of a time
/// series, summarised by the `over`-th percentile across the parts.
/// With a low `over` the figure is the latency of the window's quiet
/// moments, so bursts of interference from other tenants of the host
/// do not set it, while a slower system still raises every part.
/// Returns the figure and the part count.
pub fn per_part(
    series: &[f64],
    size: usize,
    over: f64,
    stat: impl Fn(&Samples) -> f64,
) -> (f64, usize) {
    let size = size.min(series.len()).max(1);
    let mut values: Vec<f64> = series
        .chunks_exact(size)
        .map(|c| stat(&Samples::new(c.to_vec())))
        .collect();
    values.sort_by(f64::total_cmp);
    (percentile(&values, over), values.len())
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).p50()
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage() -> Option<RUsage> {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly sized, writable `struct rusage`
    // for LP64 Linux, and RUSAGE_SELF (0) is always valid.
    let rc = unsafe { getrusage(0, &mut usage) };
    (rc == 0).then_some(usage)
}

/// Peak resident set size of this process, KiB (`getrusage`).
pub fn peak_rss_kb() -> f64 {
    rusage().map_or(0.0, |u| u.maxrss as f64)
}

/// CPU time this process has used, user plus system, in seconds
/// (`getrusage`).  On a virtual machine the time the hypervisor gives
/// to other guests is not in it.
pub fn cpu_secs() -> f64 {
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    rusage().map_or(0.0, |u| secs(u.utime) + secs(u.stime))
}

/// Current resident set size of this process, KiB, from the kernel's
/// own per-process counters (`/proc/self/statm`, 4 KiB pages).
pub fn current_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map(|pages| pages * 4.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s = Samples::new((1..=1000).map(f64::from).collect());
        let t = s.tail();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let s = Samples::new((1..=150).map(f64::from).collect());
        assert_eq!(s.tail().pct, 90.0);
        assert_eq!(s.p50(), 75.0);
        let s = Samples::new((1..=82).map(f64::from).collect());
        assert_eq!(s.tail().pct, 80.0);
    }
}
