//! Metric collection, summary statistics and the result line.

use std::fmt::Write as _;

/// One reported metric: a measured number, or absent with the reason the
/// program does not expose it on this workload.
#[derive(Debug, Clone)]
pub enum Value {
    Measured(f64),
    Absent(String),
}

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, Value, &'static str)>,
}

/// The number an absent metric carries in the result line. The line admits
/// only a value and a unit per metric, and no negative value, so absence is
/// told by the `metric <name> absent <unit> (<reason>)` line printed before
/// it, never by this number.
pub const ABSENT: f64 = 0.0;

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, Value::Measured(value), unit);
    }

    pub fn absent(&mut self, name: &str, unit: &'static str, reason: &str) {
        self.push(name, Value::Absent(reason.to_string()), unit);
    }

    fn push(&mut self, name: &str, value: Value, unit: &'static str) {
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find_map(|(n, v, _)| match v {
            Value::Measured(x) if n == name => Some(*x),
            _ => None,
        })
    }

    /// Prints one `metric` line per entry, with its unit.
    pub fn print_lines(&self) {
        for (name, value, unit) in &self.metrics {
            match value {
                Value::Measured(x) => println!("metric {name} {x} {unit}"),
                Value::Absent(reason) => println!("metric {name} absent {unit} ({reason})"),
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `names`, each exactly a non-negative value and its unit. An
    /// absent metric carries [`ABSENT`]; its reason is on its `metric` line.
    pub fn json_line(&self, names: &[&str], attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, name) in names.iter().enumerate() {
            let (_, value, unit) = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was never reported"));
            if i > 0 {
                out.push_str(", ");
            }
            let x = match value {
                Value::Measured(x) => *x,
                Value::Absent(_) => ABSENT,
            };
            assert!(
                x.is_finite() && x >= 0.0,
                "metric {name} is not a finite non-negative number: {x}"
            );
            write!(
                out,
                "\"{name}\": {{\"value\": {x:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("formatting into a String");
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Latency samples (seconds) as `<prefix>_p50_ms` and `<prefix>_p99_ms`,
/// both over every sample of the run. Prints the sample count so the p99's
/// tail size is visible.
pub fn latency_ms(report: &mut Report, prefix: &str, samples: &[f64]) {
    assert!(!samples.is_empty(), "no {prefix} latency samples");
    println!("samples {prefix} {}", samples.len());
    report.set(&format!("{prefix}_p50_ms"), median(samples) * 1e3, "ms");
    report.set(
        &format!("{prefix}_p99_ms"),
        percentile(samples, 0.99) * 1e3,
        "ms",
    );
}

/// `num / den`, or absent when nothing was counted.
pub fn ratio(report: &mut Report, name: &str, num: f64, den: f64, unit: &'static str, why: &str) {
    if den > 0.0 {
        report.set(name, num / den, unit);
    } else {
        report.absent(name, unit, why);
    }
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(f64::NAN)
}

/// Resets the kernel's peak resident size (`VmHWM`) to the current
/// resident size and returns that size, in KiB.
pub fn reset_peak_rss_kb() -> f64 {
    // "5" resets VmHWM to VmRSS (proc(5), /proc/pid/clear_refs).
    std::fs::write("/proc/self/clear_refs", "5").expect("cannot reset VmHWM");
    status_kb("VmRSS:")
}

/// Peak resident size (`VmHWM`) since the last reset, in KiB.
pub fn peak_rss_kb() -> f64 {
    status_kb("VmHWM:")
}

/// CPU time this process has used so far, all threads, user and system, in
/// seconds. Time a hypervisor gives to other guests (steal) is not in it.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        // /proc reports in USER_HZ, 100 per second on Linux.
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

/// `cpu_us_per_op`: the process's CPU time over the measured run, all
/// threads (the benchmark's own load generation and checking included),
/// per unit of the workload's `throughput_ops_s`.
pub fn cpu_per_op(report: &mut Report, cpu_s: f64, ops: f64) {
    report.set("cpu_us_per_op", cpu_s / ops * 1e6, "us");
}

/// Bytes this process has caused to be written to storage so far
/// (`/proc/self/io` `write_bytes`), or `None` where the kernel does not
/// expose it.
pub fn disk_write_bytes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
}
