//! The `offline-batch` and `online-observed` workloads: one client that
//! sends (instance, algorithm) requests one after another, each solved,
//! validated and costed in-process as `bshm solve` does.

use crate::calib::{elapsed_ns, ns_to_ms, Calibrator};
use crate::inputs::{self, Case, FAMILIES};
use crate::report::{Gates, Metrics};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Ctx, Round};
use bshm_chart::placement::{place_jobs, verify_two_allocation, PlacementOrder};
use bshm_cli::commands::{run_alg, run_alg_traced, run_alg_xray};
use bshm_core::instance::Instance;
use bshm_core::lower_bound::lower_bound;
use bshm_core::schedule::Schedule;
use bshm_core::validate::validate_schedule;
use bshm_core::{schedule_cost, Cost};
use bshm_obs::span::now;
use bshm_obs::{GapProbe, HealthProbe, NoProbe, Recorder, SloSpec};
use std::hint::black_box;

/// How a request runs its algorithm.
#[derive(Clone, Copy)]
pub enum Mode {
    /// `run_alg` on an offline approximation; the quadratic offline
    /// kernels (`chart::placement`, `algos::dbp::offline_fit`) dominate.
    Offline,
    /// An online algorithm under `GapProbe(HealthProbe(Recorder))`; the
    /// gap gauges' lower-bound DP (`obs`, `core::lower_bound`) dominates.
    Observed,
}

pub const OFFLINE_ALGS: [&str; 5] = [
    "auto",
    "dec-offline",
    "inc-offline",
    "gen-offline",
    "part-ffd",
];
pub const ONLINE_ALGS: [&str; 5] = [
    "dec-online",
    "inc-online",
    "gen-online",
    "first-fit-any",
    "best-fit",
];

/// Jobs per instance and instances per family (dec, inc, saw). Many
/// mid-size instances give many short requests per run, and large scans
/// are memory-bound and swing most with the host. Request latency
/// differs by family; the counts keep the median and the 90th
/// percentile inside one family's cluster rather than on the edge
/// between two, where a seed could move them by a whole cluster.
const OFFLINE_SIZE: (usize, [usize; 3]) = (2_000, [4, 4, 4]);
const OBSERVED_SIZE: (usize, [usize; 3]) = (1_000, [4, 3, 8]);

/// One probe stack run to completion on (algorithm, instance).
type Stack = fn(&str, &Instance) -> Result<(), String>;

pub struct Batch {
    mode: Mode,
    cases: Vec<Case>,
    algs: [&'static str; 5],
    solve_spans: Vec<String>,
    /// Cost of each (case, algorithm) pair from its first request.
    costs: Vec<Option<Cost>>,
    seed: u64,
}

impl Batch {
    /// Generates the instances and their lower bounds. Offline, it also
    /// checks each instance's chart placement, so that the untraced run
    /// checks it too.
    pub fn new(mode: Mode, seed: u64, gates: &mut Gates) -> Batch {
        let (algs, layer) = match mode {
            Mode::Offline => (OFFLINE_ALGS, "algos"),
            Mode::Observed => (ONLINE_ALGS, "obs"),
        };
        let cases = inputs::with_lower_bounds(Self::instances(mode, seed));
        if let Mode::Offline = mode {
            for case in &cases {
                check_chart(case, gates);
            }
        }
        Batch {
            mode,
            costs: vec![None; cases.len() * algs.len()],
            cases,
            algs,
            solve_spans: algs.iter().map(|a| format!("{layer}.{a}.solve")).collect(),
            seed,
        }
    }

    fn instances(mode: Mode, seed: u64) -> Vec<(&'static str, Instance)> {
        let (n, counts) = match mode {
            Mode::Offline => OFFLINE_SIZE,
            Mode::Observed => OBSERVED_SIZE,
        };
        inputs::instances(seed, n, counts)
    }

    /// Generates the instances again, for timing.
    pub fn generate(&self) {
        black_box(Self::instances(self.mode, self.seed));
    }

    /// Sends every (instance, algorithm) request once.
    pub fn pass(&mut self, cx: &mut Ctx) -> Round {
        let mut pass = Round {
            latencies: Vec::with_capacity(self.costs.len()),
            ..Round::default()
        };
        let (mut cost_sum, mut lower_sum): (Cost, Cost) = (0, 0);
        for (c, case) in self.cases.iter().enumerate() {
            for (a, &alg) in self.algs.iter().enumerate() {
                cx.tr.next_request();
                cx.tr.begin("request");
                let start = cx.cal.start();
                let outcome = request(
                    self.mode,
                    alg,
                    &case.instance,
                    &self.solve_spans[a],
                    &mut cx.tr,
                );
                pass.latencies.push(cx.cal.latency(&start));
                cx.tr.end();
                cx.cal.tick();
                pass.requests += 1;
                let cost = match outcome {
                    Ok(cost) => cost,
                    Err(e) => {
                        pass.failed += 1;
                        cx.gates
                            .fail(format!("{alg} on {} instance {c}: {e}", case.family));
                        continue;
                    }
                };
                pass.jobs += case.instance.job_count() as u64;
                cost_sum += cost;
                lower_sum += case.lower;
                if cost < case.lower {
                    cx.gates.fail(format!(
                        "{alg}: cost {cost} below lower bound {}",
                        case.lower
                    ));
                }
                match self.costs[c * self.algs.len() + a].replace(cost) {
                    Some(first) if first != cost => {
                        cx.gates.fail(format!(
                            "{alg} on instance {c}: cost {cost}, earlier {first}"
                        ));
                    }
                    _ => {}
                }
            }
        }
        pass.cost_ratio = cost_sum as f64 / lower_sum as f64;
        pass
    }

    /// The layer figures this workload owns, measured outside its
    /// requests: op counts for its algorithms, plus the lower-bound and
    /// chart kernels (offline) or each probe layer's marginal cost
    /// (observed).
    pub fn layers(&self, cx: &mut Ctx, out: &mut Metrics) {
        let jobs: u64 = self
            .cases
            .iter()
            .map(|c| c.instance.job_count() as u64)
            .sum();
        for alg in self.algs {
            // Two passes: the counts are the clock-free evidence, so they
            // must repeat exactly.
            let ops = [0, 1].map(|_| {
                self.cases
                    .iter()
                    .map(|c| match run_alg_xray(alg, &c.instance, &mut NoProbe) {
                        Ok((_, totals)) => totals.total_ops(),
                        Err(e) => {
                            cx.gates.fail(format!("{alg} under x-ray: {e}"));
                            0
                        }
                    })
                    .sum::<u64>()
            });
            if ops[0] != ops[1] {
                cx.gates
                    .fail(format!("{alg}: x-ray ops {} then {}", ops[0], ops[1]));
            }
            out.push(
                &format!("algos.{alg}.ops_per_job"),
                "count",
                ops[0] as f64 / jobs as f64,
            );
        }
        match self.mode {
            Mode::Offline => self.offline_layers(cx, out),
            Mode::Observed => self.observed_layers(cx, out),
        }
    }

    fn offline_layers(&self, cx: &mut Ctx, out: &mut Metrics) {
        for family in FAMILIES {
            let cases: Vec<&Case> = self.cases.iter().filter(|c| c.family == family).collect();
            let ms = time_each(&mut cx.cal, &cases, |c| {
                if lower_bound(&c.instance) != c.lower {
                    cx.gates
                        .fail(format!("{family}: lower bound changed between runs"));
                }
            });
            out.push(&format!("core.lower_bound_ms.{family}"), "ms", median(&ms));
        }
        let cases: Vec<&Case> = self.cases.iter().collect();
        let ms = time_each(&mut cx.cal, &cases, |c| check_chart(c, &mut cx.gates));
        out.push("chart.place_ms", "ms", median(&ms));
    }

    fn observed_layers(&self, cx: &mut Ctx, out: &mut Metrics) {
        let pairs: Vec<(&str, &Instance)> = self
            .cases
            .iter()
            .flat_map(|c| self.algs.iter().map(move |&a| (a, &c.instance)))
            .collect();
        // Mean time per request of each probe stack, innermost first; a
        // layer's marginal cost is its stack minus the stack beneath it.
        // Means, unlike medians, subtract exactly. The four stacks run
        // back to back on each pair inside one block, so every difference
        // is taken in the same host phase.
        let stacks: [Stack; 4] = [
            |alg, inst| run_alg(alg, inst).map(|s| drop(black_box(s))),
            |alg, inst| {
                let mut rec = Recorder::new(alg, inst.catalog().len());
                run_alg_traced(alg, inst, &mut rec)?;
                rec.into_metrics().map(|m| drop(black_box(m)))
            },
            |alg, inst| {
                let n = inst.catalog().len();
                let mut hp = HealthProbe::new(SloSpec::default(), n, Recorder::new(alg, n));
                run_alg_traced(alg, inst, &mut hp)?;
                finish_health(hp)
            },
            |alg, inst| observed_run(alg, inst).map(|s| drop(black_box(s))),
        ];
        let runs: Vec<(&Stack, &str, &Instance)> = pairs
            .iter()
            .flat_map(|&(alg, inst)| stacks.iter().map(move |stack| (stack, alg, inst)))
            .collect();
        let ms = time_each(&mut cx.cal, &runs, |&(stack, alg, inst)| {
            if let Err(e) = stack(alg, inst) {
                cx.gates.fail(format!("{alg} probe stack: {e}"));
            }
        });
        let mut means = [0.0; 4];
        for (i, t) in ms.iter().enumerate() {
            means[i % stacks.len()] += t / pairs.len() as f64;
        }
        out.push("sim.bare_ms", "ms", means[0]);
        for (k, name) in ["obs.recorder_ms", "obs.health_ms", "obs.gap_ms"]
            .into_iter()
            .enumerate()
        {
            let marginal = means[k + 1] - means[k];
            if marginal < 0.0 {
                eprintln!(
                    "{name}: marginal cost {marginal:.4} ms is below the noise; reported as 0"
                );
            }
            out.push(name, "ms", marginal.max(0.0));
        }
    }
}

/// Places the instance's jobs on the chart and checks that the placement
/// is a 2-allocation.
fn check_chart(case: &Case, gates: &mut Gates) {
    let placement = place_jobs(case.instance.jobs(), PlacementOrder::Arrival);
    if let Some((t, at)) = verify_two_allocation(&placement) {
        gates.fail(format!(
            "{} chart: not a 2-allocation at t={t}, altitude {at}",
            case.family
        ));
    }
}

/// One request: solve, validate, cost. Returns the schedule's cost.
fn request(
    mode: Mode,
    alg: &str,
    inst: &Instance,
    span: &str,
    tr: &mut Tracer,
) -> Result<Cost, String> {
    let schedule = tr.span(span, || match mode {
        Mode::Offline => run_alg(alg, inst),
        Mode::Observed => observed_run(alg, inst),
    })?;
    tr.span("core.validate", || validate_schedule(&schedule, inst))
        .map_err(|e| format!("infeasible schedule: {e}"))?;
    Ok(tr.span("core.cost", || schedule_cost(&schedule, inst)))
}

/// Runs `alg` under `GapProbe(HealthProbe(Recorder))` and folds every
/// layer's output, as the BENCH suite's observed rows do.
fn observed_run(alg: &str, inst: &Instance) -> Result<Schedule, String> {
    let n = inst.catalog().len();
    let mut probe = GapProbe::new(
        inst.catalog(),
        HealthProbe::new(SloSpec::default(), n, Recorder::new(alg, n)),
    );
    let schedule = run_alg_traced(alg, inst, &mut probe)?;
    if let Some(e) = probe.error() {
        return Err(format!("gap gauges over the run's own stream: {e}"));
    }
    let (health, timeline) = probe.into_parts();
    black_box(timeline);
    finish_health(health)?;
    Ok(schedule)
}

fn finish_health(hp: HealthProbe<Recorder>) -> Result<(), String> {
    let (rec, report) = hp.into_parts();
    black_box(report);
    rec.into_metrics().map(|m| drop(black_box(m)))
}

/// Runs `f` on every item inside one calibrated block and returns each
/// item's calibrated milliseconds.
pub fn time_each<T>(cal: &mut Calibrator, items: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    let (ns, block) = cal.time(|cal| {
        items
            .iter()
            .map(|item| {
                let start = now();
                f(item);
                let ns = elapsed_ns(start);
                cal.tick();
                ns
            })
            .collect::<Vec<u64>>()
    });
    ns.iter().map(|&ns| ns_to_ms(ns) * block.factor).collect()
}
