//! Order statistics and the process figures read from `/proc`.

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it. Returns 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let kb = proc_field("/proc/self/status", "VmHWM:")?;
    Ok(kb as f64 / 1024.0)
}

/// Bytes this process has passed to `write`-like calls (`wchar`).
pub fn written_bytes() -> Result<u64, String> {
    proc_field("/proc/self/io", "wchar:")
}

/// The first number after `key` in a `/proc` key-value file.
fn proc_field(path: &str, key: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: no `{key}` field"))
}
