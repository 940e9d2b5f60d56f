//! End-to-end and per-layer benchmark for `bshm`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline-batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one thread, one client in a closed loop: each request is
//! sent only after the previous reply. Inputs come from `--seed` alone.
//! Set-up (instance generation, lower bounds, service boot and a warm-up
//! pass) runs `SETUP_REPS` times and `setup_s` is the median; then whole
//! passes over the workload's requests run until `--seconds` have
//! passed. Every timing is host-calibrated (see `calib`). `--trace 1`
//! instead runs a traced pass of every workload and reports the
//! per-layer figures. The last line of stdout is the JSON result; a
//! readable table goes to stderr. See `README.md` for every metric.

mod batch;
mod calib;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;

use batch::{Batch, Mode, OFFLINE_ALGS};
use calib::{Block, Calibrator, Latency};
use report::{Gates, Metrics};
use serve::Session;
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str =
    "usage: bshm-perfbench --workload <offline-batch|online-observed|serve-session> \
                     --seed <u64> --seconds <n> --trace <0|1>";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Traced/untraced pass pairs per workload in a traced run (the exact
/// counts are compared across them).
const TRACED_PAIRS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    OfflineBatch,
    OnlineObserved,
    ServeSession,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("offline-batch", Workload::OfflineBatch),
    ("online-observed", Workload::OnlineObserved),
    ("serve-session", Workload::ServeSession),
];

struct Args {
    workload: Workload,
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let flag = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    if argv.len() != 8 {
        return Err("expected exactly four flags".to_string());
    }
    let w = flag("--workload")?;
    let &(name, workload) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == w)
        .ok_or(format!("unknown workload `{w}`"))?;
    let seconds: u32 = flag("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a whole number".to_string())?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".to_string());
    }
    Ok(Args {
        workload,
        name,
        seed: flag("--seed")?
            .parse()
            .map_err(|_| "--seed must be a u64".to_string())?,
        seconds: f64::from(seconds),
        trace: match flag("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bshm-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let data_root = match scratch_dir(&args) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("bshm-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = run(&args, &data_root);
    let _ = std::fs::remove_dir_all(&data_root);
    match result {
        Ok((table, line)) => {
            eprint!("{table}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bshm-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fresh directory for service data, next to the executable so the
/// benchmark writes only inside its build directory. Named after the
/// workload and seed, so runs of different inputs never share one.
fn scratch_dir(args: &Args) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join(format!("perfbench-data-{}-{}", args.name, args.seed));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// What every request needs besides its inputs.
pub struct Ctx {
    pub tr: Tracer,
    pub cal: Calibrator,
    pub gates: Gates,
}

fn run(args: &Args, data_root: &Path) -> Result<(String, String), String> {
    let mut cx = Ctx {
        tr: Tracer::new(false),
        cal: Calibrator::new(),
        gates: Gates::default(),
    };
    let (attempted, failed, metrics) = if args.trace {
        traced(args, data_root, &mut cx)?
    } else {
        end_to_end(args, data_root, &mut cx)?
    };
    report::render(&cx.gates, attempted, failed, &metrics)
}

/// A workload's requests, whichever layer serves them.
enum Driver {
    Batch(Batch),
    Serve(Session),
}

/// What one pass over a workload's requests did.
#[derive(Default)]
pub struct Round {
    /// Latency of every timed request (every `STEP` for the service).
    pub latencies: Vec<Latency>,
    pub jobs: u64,
    pub requests: u64,
    pub failed: u64,
    pub cost_ratio: f64,
    /// `wchar` bytes written during `STEP`s, counted when tracing only.
    pub step_write_bytes: u64,
    /// The degradation rung the service ended on.
    pub rung: u64,
}

impl Driver {
    /// Generates the inputs (and, for the service, runs the reference
    /// session without `KILL`).
    fn new(w: Workload, seed: u64, data_root: &Path, cx: &mut Ctx) -> Result<Driver, String> {
        Ok(match w {
            Workload::OfflineBatch => Driver::Batch(Batch::new(Mode::Offline, seed, &mut cx.gates)),
            Workload::OnlineObserved => {
                Driver::Batch(Batch::new(Mode::Observed, seed, &mut cx.gates))
            }
            Workload::ServeSession => Driver::Serve(Session::new(seed, data_root, cx)?),
        })
    }

    fn round(&mut self, cx: &mut Ctx) -> Result<Round, String> {
        let round = self.pass(cx)?;
        self.clean()?;
        Ok(round)
    }

    /// Times one round as a calibrated block. Removing the service's
    /// data afterwards is not part of the block.
    fn timed_round(&mut self, cx: &mut Ctx) -> Result<(Round, Block), String> {
        let start = cx.cal.start();
        let round = self.pass(cx)?;
        let block = cx.cal.finish(start);
        self.clean()?;
        Ok((round, block))
    }

    fn pass(&mut self, cx: &mut Ctx) -> Result<Round, String> {
        match self {
            Driver::Batch(b) => Ok(b.pass(cx)),
            Driver::Serve(s) => s.session(cx),
        }
    }

    fn clean(&mut self) -> Result<(), String> {
        match self {
            Driver::Batch(_) => Ok(()),
            Driver::Serve(s) => s.clean(),
        }
    }

    fn generate(&self) -> Result<(), String> {
        match self {
            Driver::Batch(b) => {
                b.generate();
                Ok(())
            }
            Driver::Serve(s) => s.generate(),
        }
    }
}

/// Checks that the clock-free figures of `r` repeat those of `first`.
fn check_exact(first: &Round, r: &Round, gates: &mut Gates) {
    if r.requests != first.requests || r.jobs != first.jobs {
        gates.fail(format!(
            "pass sent {} requests for {} jobs, the first sent {} for {}",
            r.requests, r.jobs, first.requests, first.jobs
        ));
    }
    if r.cost_ratio.to_bits() != first.cost_ratio.to_bits() {
        gates.fail(format!(
            "cost ratio {} after {}",
            r.cost_ratio, first.cost_ratio
        ));
    }
    if r.step_write_bytes != first.step_write_bytes {
        gates.fail(format!(
            "STEPs wrote {} bytes after {}",
            r.step_write_bytes, first.step_write_bytes
        ));
    }
}

/// The untraced run: every end-to-end metric.
fn end_to_end(args: &Args, data_root: &Path, cx: &mut Ctx) -> Result<(u64, u64, Metrics), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut driver = None;
    for _ in 0..SETUP_REPS {
        let start = cx.cal.start();
        let mut d = Driver::new(args.workload, args.seed, data_root, cx)?;
        d.round(cx)?; // warm-up
        setup_s.push(cx.cal.finish(start).seconds());
        driver = Some(d);
    }
    let mut driver = driver.expect("SETUP_REPS > 0");
    let start = bshm_obs::span::now();
    let (mut first, mut loop_s, mut raw_loop_s) = (None::<Round>, 0.0, 0.0);
    let mut latencies_ms = Vec::new();
    let (mut jobs, mut requests, mut failed) = (0, 0, 0);
    while first.is_none() || calib::ns_to_s(calib::elapsed_ns(start)) < args.seconds {
        let (r, block) = driver.timed_round(cx)?;
        loop_s += block.seconds();
        raw_loop_s += calib::ns_to_s(block.raw_ns);
        latencies_ms.extend(r.latencies.iter().map(|l| cx.cal.latency_ms(l)));
        jobs += r.jobs;
        requests += r.requests;
        failed += r.failed;
        match &first {
            Some(f) => check_exact(f, &r, &mut cx.gates),
            None => first = Some(r),
        }
    }
    let first = first.expect("the loop ran at least once");
    let mut m = Metrics::default();
    m.push("setup_s", "s", median(&setup_s));
    m.push("jobs_per_s", "1/s", jobs as f64 / loop_s);
    m.push("latency_p50_ms", "ms", quantile(&latencies_ms, 0.5));
    m.push("latency_p90_ms", "ms", quantile(&latencies_ms, 0.9));
    m.push("cost_ratio", "ratio", first.cost_ratio);
    m.push("peak_rss_mb", "MB", stats::peak_rss_mb()?);
    eprintln!(
        "{}: seed {}, {} passes, {} requests ({} latency samples), raw jobs_per_s {:.1}, host.ref_ms {:.4}",
        args.name,
        args.seed,
        requests / first.requests.max(1),
        requests,
        latencies_ms.len(),
        jobs as f64 / raw_loop_s,
        cx.cal.raw_median_ms()
    );
    Ok((requests, failed, m))
}

/// The traced run: every per-layer metric. Each workload runs
/// `TRACED_PAIRS` untraced and traced passes (the named workload keeps
/// going until `--seconds` have passed), then its layer probes.
fn traced(args: &Args, data_root: &Path, cx: &mut Ctx) -> Result<(u64, u64, Metrics), String> {
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut own = Vec::new();
    for &(_, w) in &WORKLOADS {
        let mut d = Driver::new(w, args.seed, data_root, cx)?;
        let (generated, generate) = cx.cal.time(|_| d.generate());
        generated?;
        d.round(cx)?; // warm-up
        let start = bshm_obs::span::now();
        let (mut plain_s, mut traced_s, mut rounds) = (0.0, 0.0, Vec::new());
        while rounds.len() < TRACED_PAIRS
            || (w == args.workload && calib::ns_to_s(calib::elapsed_ns(start)) < args.seconds)
        {
            let (r, plain) = d.timed_round(cx)?;
            plain_s += plain.seconds();
            cx.tr.set_enabled(true);
            let mark = cx.tr.mark();
            let (rt, t) = d.timed_round(cx)?;
            cx.tr.set_enabled(false);
            cx.tr.calibrate_since(mark, t.factor);
            traced_s += t.seconds();
            attempted += r.requests + rt.requests;
            failed += r.failed + rt.failed;
            rounds.push(rt);
        }
        for r in &rounds[1..] {
            check_exact(&rounds[0], r, &mut cx.gates);
        }
        match &d {
            Driver::Batch(b) => b.layers(cx, &mut m),
            Driver::Serve(_) => {
                m.push(
                    "serve.step_write_bytes",
                    "bytes",
                    rounds[0].step_write_bytes as f64,
                );
                m.push("serve.final_rung", "count", rounds[0].rung as f64);
            }
        }
        if w == args.workload {
            own = vec![
                ("workload.generate_ms", "ms", generate.seconds() * 1e3),
                ("bench.requests", "count", rounds[0].requests as f64),
                ("bench.trace_overhead", "ratio", traced_s / plain_s),
            ];
        }
    }
    let spans = cx.tr.self_ms();
    let p50 = |name: &str| spans.get(name).map_or(0.0, |v| median(v));
    for alg in OFFLINE_ALGS {
        m.push(
            &format!("algos.{alg}.solve_ms"),
            "ms",
            p50(&format!("algos.{alg}.solve")),
        );
    }
    m.push("core.validate_ms", "ms", p50("core.validate"));
    m.push("core.cost_ms", "ms", p50("core.cost"));
    Session::layers(&spans, &mut m);
    for (name, unit, value) in own {
        m.push(name, unit, value);
    }
    m.push("host.ref_ms", "ms", cx.cal.raw_median_ms());
    let exe_dir = data_root.parent().ok_or("data directory has no parent")?;
    cx.tr
        .write_jsonl(&exe_dir.join(format!("perfbench-spans-{}-{}.jsonl", args.name, args.seed)))?;
    Ok((attempted, failed, m))
}
