//! A run's result: named metrics, request counts and correctness gates,
//! plus the summaries of latency samples every workload shares.

use crate::schedule::Timing;
use crate::stats::{quantile, tail_quantile, P50, P99, P999};

/// Latency limit a request must meet, from its due time, to count
/// towards `slo_ratio`.
pub const SLO_NS: u64 = 1_000_000;

/// The load generator is trusted only if, against a no-op call, its own
/// p99 lateness stays under a tenth of the latency limit.
pub const GENERATOR_LATE_NS: u64 = SLO_NS / 10;

/// Named metric values with their units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness gates and whether each passed.
    pub gates: Vec<(&'static str, bool)>,
    /// Workload sizes for the provenance record.
    pub sizes: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn gate(&mut self, name: &'static str, passed: bool) {
        if !passed {
            eprintln!("gate failed: {name}");
        }
        self.gates.push((name, passed));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|&(_, ok)| ok)
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Requests that succeeded within [`SLO_NS`] of their due time.
pub fn within_slo(timings: &[Timing], ok: &[bool]) -> usize {
    timings
        .iter()
        .zip(ok)
        .filter(|(t, &ok)| ok && t.latency_ns() <= SLO_NS)
        .count()
}

/// p50 and p99 of ascending latency samples. Errors when fewer than ten
/// samples lie beyond p99.
pub fn p50_p99(sorted: &[u64]) -> Result<(u64, u64), String> {
    let p99 = tail_quantile(sorted, P99).ok_or(format!(
        "{} requests leave fewer than ten beyond p99",
        sorted.len()
    ))?;
    Ok((quantile(sorted, P50).ok_or("no requests")?, p99))
}

/// p999 of ascending latency samples in microseconds; 0 when fewer than
/// ten samples lie beyond it.
pub fn p999_us(sorted: &[u64]) -> f64 {
    us(tail_quantile(sorted, P999).unwrap_or(0))
}

/// Load-generator metrics: how late calls started (p99 and worst case)
/// in the real run, and the generator's own p99 lateness against a no-op
/// call on the same arrival schedule. Returns whether it kept up.
pub fn generator_metrics(timings: &[Timing], null: &[Timing], m: &mut Metrics) -> bool {
    let mut wait: Vec<u64> = timings.iter().map(Timing::wait_ns).collect();
    wait.sort_unstable();
    let mut null_lat: Vec<u64> = null.iter().map(Timing::latency_ns).collect();
    null_lat.sort_unstable();
    let null_p99 = quantile(&null_lat, P99).unwrap_or(0);
    let valid = null_p99 < GENERATOR_LATE_NS;
    m.put("driver.samples", timings.len() as f64, "count");
    m.put(
        "driver.queue_wait_p99_us",
        us(quantile(&wait, P99).unwrap_or(0)),
        "us",
    );
    m.put(
        "driver.lag_max_ms",
        wait.last().copied().unwrap_or(0) as f64 / 1e6,
        "ms",
    );
    m.put("driver.null_p99_us", us(null_p99), "us");
    m.put("driver.valid", f64::from(u8::from(valid)), "bool");
    if !valid {
        eprintln!(
            "run invalid: the load generator alone ran {:.1} us late at p99 (limit {:.1} us)",
            us(null_p99),
            us(GENERATOR_LATE_NS)
        );
    }
    valid
}

/// Service-time statistics of one op class: count, p50, p99 (0 when
/// fewer than ten samples lie beyond it) and total busy seconds.
pub fn op_metrics(prefix: &str, mut durations_ns: Vec<u64>, m: &mut Metrics) {
    durations_ns.sort_unstable();
    let busy: u64 = durations_ns.iter().sum();
    m.put(format!("{prefix}.n"), durations_ns.len() as f64, "count");
    m.put(
        format!("{prefix}.p50_us"),
        us(quantile(&durations_ns, P50).unwrap_or(0)),
        "us",
    );
    m.put(
        format!("{prefix}.p99_us"),
        us(tail_quantile(&durations_ns, P99).unwrap_or(0)),
        "us",
    );
    m.put(format!("{prefix}.busy_s"), busy as f64 / 1e9, "s");
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_needs_ten_beyond_and_counts_failures_as_misses() {
        // Latencies of 1..=1000 us; the last one sits exactly on the limit.
        let timings: Vec<Timing> = (1..=1_000u64)
            .map(|i| Timing {
                due_ns: i,
                start_ns: i + 10,
                end_ns: i + i * 1_000,
            })
            .collect();
        let mut ok = vec![true; timings.len()];
        ok[0] = false;
        assert_eq!(within_slo(&timings, &ok), 999);
        let sorted: Vec<u64> = timings.iter().map(Timing::latency_ns).collect();
        assert_eq!(p50_p99(&sorted), Ok((500_000, 990_000)));
        // 999 samples leave nine beyond rank 990.
        assert!(p50_p99(&sorted[..999]).is_err());
        assert_eq!(p999_us(&sorted), 0.0);
    }
}
