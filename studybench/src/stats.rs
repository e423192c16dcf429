//! Small measurement helpers: the clock, percentiles, output digests
//! and the process's own resource figures from procfs.

use std::time::Instant;

use malnet_core::Datasets;

/// A started wall clock. The benchmark's clock reads all live here.
pub struct Clock(Instant);

impl Clock {
    /// Start timing now.
    pub fn start() -> Clock {
        // Timing studies is this program's purpose. lint: clock-ok
        Clock(Instant::now())
    }

    /// Seconds since [`Clock::start`].
    pub fn secs(&self) -> f64 {
        // lint: clock-ok
        self.0.elapsed().as_secs_f64()
    }
}

/// Seconds spent in `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let clock = Clock::start();
    let out = f();
    (clock.secs(), out)
}

/// Linear-interpolation percentile (`p` in 0..=100) of `values`, the
/// rule NumPy uses by default; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a study's output: the dataset dump followed by the vendor
/// database dump.
pub fn study_digest(data: &Datasets, vendor_dump: &str) -> u64 {
    let mut dump = data.canonical_dump();
    dump.push_str(vendor_dump);
    fnv1a(dump.as_bytes())
}

/// How many of `digests` disagree with the most common one (a `None`
/// is a run that produced no output and always counts). Ties go to the
/// digest seen first.
pub fn disagreeing(digests: &[Option<u64>]) -> usize {
    let mut best = (0usize, None);
    for d in digests.iter().flatten() {
        let n = digests.iter().filter(|e| **e == Some(*d)).count();
        if n > best.0 {
            best = (n, Some(*d));
        }
    }
    digests.len() - best.0
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU seconds this process has used, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields after it are fixed.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `after` starts at field 3 (state), so field n sits at index n - 3.
    (tick(14 - 3) + tick(15 - 3)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_known_values() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 25.0), 20.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert!((percentile(&v, 99.0) - 49.6).abs() < 1e-9);
        assert!((percentile(&[1.0, 2.0], 10.0) - 1.1).abs() < 1e-9);
    }

    #[test]
    fn digest_check_fires_on_a_perturbed_dump() {
        let data = Datasets::default();
        let base = study_digest(&data, "vendors\n");
        assert_eq!(base, study_digest(&data, "vendors\n"));
        assert_ne!(base, study_digest(&data, "vendorz\n"));
        let mut perturbed = data.clone();
        perturbed.health.exit_counts.insert("exited".to_string(), 1);
        let other = study_digest(&perturbed, "vendors\n");
        assert_ne!(base, other);
        assert_eq!(disagreeing(&[Some(base), Some(base), Some(base)]), 0);
        assert_eq!(disagreeing(&[Some(base), Some(other), Some(base)]), 1);
        assert_eq!(disagreeing(&[Some(base), None]), 1);
        assert_eq!(disagreeing(&[None, None]), 2);
    }

    #[test]
    fn procfs_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
