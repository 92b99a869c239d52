//! Small measurement helpers: order statistics, report digests, peak
//! RSS, process CPU time, and deltas of the daemon's `/metrics`
//! exposition.

use std::collections::BTreeMap;

/// Linear-interpolated quantile (`q` in [0, 1]) of unsorted samples;
/// 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a over bytes: a stable, dependency-free digest for reports.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time, seconds, of a whole process (every thread, live or ended):
/// this one for `None`, else the process `pid`. Read from the kernel's
/// per-process CPU clock (`CLOCK_PROCESS_CPUTIME_ID`, or the clock
/// `clock_getcpuclockid` names for `pid`). On a shared virtual host it
/// leaves out the time the host gave this CPU to other guests, which a
/// wall clock counts, so it repeats from run to run where wall time
/// drifts with the neighbours' load.
pub fn cpu_time_s(pid: Option<u32>) -> Result<f64, String> {
    // CLOCK_PROCESS_CPUTIME_ID is 2; Linux encodes another process's
    // CPU clock as `(!pid << 3) | 2`.
    let clock = pid.map_or(2, |p| (!(p as i32) << 3) | 2);
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!(
            "reading the CPU clock of {}: {}",
            pid.map_or("this process".into(), |p| format!("process {p}")),
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// This process's CPU time, seconds; see [`cpu_time_s`].
pub fn self_cpu_s() -> f64 {
    cpu_time_s(None).expect("the process CPU clock is readable on Linux")
}

/// One scrape of the daemon's `/metrics` text: plain samples by name,
/// and cumulative histogram buckets by histogram name.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    values: BTreeMap<String, f64>,
    buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Scrape {
    pub fn parse(text: &str) -> Self {
        let mut s = Scrape::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if let Some((hist, le)) = name.split_once("_bucket{le=\"") {
                let le = le.trim_end_matches("\"}");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::INFINITY)
                };
                s.buckets
                    .entry(hist.to_owned())
                    .or_default()
                    .push((le, value));
            } else {
                s.values.insert(name.to_owned(), value);
            }
        }
        for b in s.buckets.values_mut() {
            b.sort_by(|x, y| x.0.total_cmp(&y.0));
        }
        s
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Cumulative count of histogram `hist` at or below `le` (the
    /// exposition lists only the bounds where the count steps).
    fn cumulative(&self, hist: &str, le: f64) -> f64 {
        self.buckets
            .get(hist)
            .and_then(|b| b.iter().rev().find(|(bound, _)| *bound <= le))
            .map_or(0.0, |(_, c)| *c)
    }

    /// Quantile of the samples histogram `hist` gained between `before`
    /// and `self` (bucket upper bound; 0 when no samples arrived).
    pub fn delta_quantile(&self, before: &Scrape, hist: &str, q: f64) -> f64 {
        let Some(bounds) = self.buckets.get(hist) else {
            return 0.0;
        };
        let total = self.delta_count(before, hist);
        if total <= 0.0 {
            return 0.0;
        }
        let rank = (q * total).ceil().max(1.0);
        for &(le, _) in bounds {
            if self.cumulative(hist, le) - before.cumulative(hist, le) >= rank {
                return if le.is_finite() { le } else { 0.0 };
            }
        }
        0.0
    }

    /// Samples histogram `hist` gained between `before` and `self`.
    pub fn delta_count(&self, before: &Scrape, hist: &str) -> f64 {
        self.value(&format!("{hist}_count")) - before.value(&format!("{hist}_count"))
    }

    /// Change of a plain counter between `before` and `self`.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.value(name) - before.value(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_counts_work_by_pid_too() {
        let pid = Some(std::process::id());
        let (a, b) = (self_cpu_s(), cpu_time_s(pid).unwrap());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (c, d) = (self_cpu_s(), cpu_time_s(pid).unwrap());
        assert!(c > a && d > b, "{a} {c} / {b} {d}");
        assert!(((d - b) - (c - a)).abs() < 0.05, "{} vs {}", c - a, d - b);
        // Above the kernel's PID_MAX_LIMIT, so no process has it.
        assert!(cpu_time_s(Some(4_194_305)).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn scrape_deltas() {
        let before = Scrape::parse(
            "serve/stage/run_us_bucket{le=\"10\"} 1\nserve/stage/run_us_bucket{le=\"+Inf\"} 1\n\
             serve/stage/run_us_count 1\nserve/stage/run_us_sum 10\nserve/jobs_cached 2\n",
        );
        let after = Scrape::parse(
            "# TYPE x histogram\nserve/stage/run_us_bucket{le=\"10\"} 1\n\
             serve/stage/run_us_bucket{le=\"20\"} 3\nserve/stage/run_us_bucket{le=\"40\"} 5\n\
             serve/stage/run_us_bucket{le=\"+Inf\"} 5\nserve/stage/run_us_count 5\n\
             serve/stage/run_us_sum 130\nserve/jobs_cached 2\n",
        );
        let h = "serve/stage/run_us";
        assert_eq!(after.delta_count(&before, h), 4.0);
        assert_eq!(after.delta_quantile(&before, h, 0.5), 20.0);
        assert_eq!(after.delta_quantile(&before, h, 0.99), 40.0);
        assert_eq!(after.delta(&before, "serve/jobs_cached"), 0.0);
        assert_eq!(before.delta_quantile(&before, h, 0.5), 0.0);
    }
}
