//! Correctness gates, metric lists and the result line.

use std::fmt::Write as _;

/// Keeps the first few gate failures and counts them all.
#[derive(Default)]
pub struct Gates {
    failures: u64,
    first: Vec<String>,
}

impl Gates {
    pub fn fail(&mut self, msg: String) {
        self.failures += 1;
        if self.first.len() < 8 {
            self.first.push(msg);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// Named metrics with units, in the order they were pushed.
#[derive(Default)]
pub struct Metrics(Vec<(String, &'static str, f64)>);

impl Metrics {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push((name.to_string(), unit, value));
    }
}

/// The human-readable report (for stderr) and the one-line JSON result
/// (the last line of stdout).
pub fn render(
    gates: &Gates,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> Result<(String, String), String> {
    let mut table = String::new();
    let mut json = String::new();
    for (name, unit, value) in &metrics.0 {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let _ = writeln!(table, "{name:<32} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        let _ = write!(
            json,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let _ = writeln!(
        table,
        "{:<32} {failed_frac:>16.6} ratio ({failed} of {attempted} requests)",
        "failed_frac"
    );
    for msg in &gates.first {
        let _ = writeln!(table, "gate failed: {msg}");
    }
    if gates.failures > gates.first.len() as u64 {
        let _ = writeln!(table, "gate failed: … {} failures in all", gates.failures);
    }
    let line = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}",
        gates.passed()
    );
    Ok((table, line))
}
