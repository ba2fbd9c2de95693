//! Result output: the human-readable table, the host context, and the
//! one-line JSON result that ends the benchmark's standard output.

use crate::stats::Summary;
use std::fmt::Write as _;
use std::process::Command;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Reported value (the median, for timed metrics).
    pub value: f64,
    /// Median, quartiles and sample count, for timed metrics.
    pub summary: Option<Summary>,
}

impl Metric {
    /// A timed metric, reported as the median of `samples`.
    pub fn timed(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples);
        Metric { name: name.into(), unit, value: summary.map_or(0.0, |s| s.median), summary }
    }

    /// A single value: a count, a ratio, or a reading taken once.
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value, summary: None }
    }
}

/// Render the metrics as a table: value, and for timed metrics the
/// quartiles and sample count.
pub fn table(metrics: &[Metric]) -> String {
    let mut s = format!(
        "  {:<34} {:>14} {:>14} {:>14} {:>4}  unit\n",
        "metric", "median|value", "q1", "q3", "n"
    );
    for m in metrics {
        let (q1, q3, n) = match m.summary {
            Some(q) => (format!("{:.6}", q.q1), format!("{:.6}", q.q3), q.n.to_string()),
            None => ("-".into(), "-".into(), "-".into()),
        };
        writeln!(
            s,
            "  {:<34} {:>14.6} {:>14} {:>14} {:>4}  {}",
            m.name, m.value, q1, q3, n, m.unit
        )
        .expect("write to String");
    }
    s
}

/// Escape `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number, with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit.
pub fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted > 0 && failed == 0,
        body.join(", ")
    )
}

/// First line of `program args` run to completion, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Host context of a set of runs, as one JSON object: commit, rustc, CPU
/// model, available parallelism and load average.
pub fn context_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    format!(
        "{{\"commit\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {nproc}, \"loadavg\": {}}}",
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&cpu),
        json_str(&load)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = [
            Metric::timed("run_s", "s", &[0.5, 0.25, 1.0]),
            Metric::value("peak_rss_mb", "MB", 11.71875),
        ];
        assert_eq!(
            result_json(3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"run_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 11.71875, \"unit\": \"MB\"}}}"
        );
        assert!(result_json(3, 1, &metrics).starts_with("{\"correct\": false"));
        assert!(result_json(0, 0, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1e-7), "0.0000001");
    }

    #[test]
    fn table_lists_quartiles_of_timed_metrics_only() {
        let t = table(&[
            Metric::timed("run_s", "s", &[1.0, 2.0]),
            Metric::value("events", "count", 5.0),
        ]);
        assert!(t.contains("0.750000") && t.contains("2.250000"));
        assert!(t.lines().nth(2).is_some_and(|l| l.contains(" - ")));
    }
}
