//! The `serve-session` workload: one client drives a `bshm-serve`
//! service in-process through `Service::handle_line`, with no socket.
//!
//! A session admits one tenant per online algorithm and family, sends
//! `SUBMIT t 1` + `STEP t` round-robin until every tenant is done, kills
//! and restores each tenant once at a fixed step, then sends `STATS` and
//! `DRAIN`. Every `STEP` resumes from a checkpoint, rewrites the tenant's
//! whole log and re-runs the SLO and gap folds over the whole history, so
//! step latency grows with history.

use crate::inputs::derive_seed;
use crate::report::Metrics;
use crate::stats::{mean, median, written_bytes};
use crate::{Ctx, Round};
use bshm_obs::compute_gap_timeline;
use bshm_serve::{builtin_factory, Service, ServiceConfig, TenantSpec};
use serde::Deserialize;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// (algorithm, family) of each tenant: the paper's three online
/// algorithms on each family. Nine tenants average out how much one
/// seed's instances cost. The greedy baselines are left out because
/// their gap ratio on INC and sawtooth catalogs swings from 1.2 to 4
/// between seeds.
const TENANTS: [(&str, &str); 9] = [
    ("dec-online", "dec"),
    ("inc-online", "dec"),
    ("gen-online", "dec"),
    ("dec-online", "inc"),
    ("inc-online", "inc"),
    ("gen-online", "inc"),
    ("dec-online", "saw"),
    ("inc-online", "saw"),
    ("gen-online", "saw"),
];
const TENANT_JOBS: u64 = 700;
/// Each tenant is killed and restored right after this many of its steps.
const KILL_AFTER_STEP: u32 = 16;
/// A session that takes more steps than this is stuck.
const MAX_STEPS: u32 = 100_000;

pub struct Session {
    admits: Vec<String>,
    names: Vec<String>,
    data_root: PathBuf,
    sessions: u64,
    /// Data directories of finished sessions, removed by `clean`.
    stale: Vec<PathBuf>,
    /// Final per-tenant state digests of the script run without `KILL`.
    reference: Vec<u64>,
}

/// One client of the service: sends a line, counts the request and any
/// `ERR` or `OVERLOAD` reply, and lets the calibrator sample between
/// requests.
struct Client<'a> {
    svc: Service,
    cx: &'a mut Ctx,
    requests: u64,
    failed: u64,
}

impl Client<'_> {
    fn send(&mut self, span: &str, line: &str) -> String {
        let reply = self.request(span, line);
        self.cx.cal.tick();
        reply
    }

    /// Sends a line without a calibration tick after it.
    fn request(&mut self, span: &str, line: &str) -> String {
        self.cx.tr.next_request();
        let svc = &mut self.svc;
        let reply = self.cx.tr.span(span, || svc.handle_line(line));
        self.requests += 1;
        if reply.starts_with("ERR") || reply.starts_with("OVERLOAD") {
            self.failed += 1;
            self.cx.gates.fail(format!("`{line}` -> {reply}"));
        }
        reply
    }
}

#[derive(Deserialize)]
struct Stats {
    rung: u64,
    tenants: Vec<TenantRow>,
}

#[derive(Deserialize)]
struct TenantRow {
    name: String,
    done: bool,
    gap_ratio: Option<f64>,
    state_digest: u64,
}

impl Session {
    /// Builds the session script and runs it once without `KILL` to
    /// record the reference digests.
    pub fn new(seed: u64, data_root: &Path, cx: &mut Ctx) -> Result<Session, String> {
        let names: Vec<String> = (0..TENANTS.len()).map(|i| format!("t{i}")).collect();
        let admits = TENANTS
            .iter()
            .zip(&names)
            .enumerate()
            .map(|(i, ((alg, family), name))| {
                let s = derive_seed(seed, 1_000 + i as u64) % 1_000_000;
                format!("ADMIT {name} {alg} 1 {family}:{TENANT_JOBS}:{s}")
            })
            .collect();
        let mut session = Session {
            admits,
            names,
            data_root: data_root.to_path_buf(),
            sessions: 0,
            stale: Vec::new(),
            reference: Vec::new(),
        };
        let (_, digests) = session.run(false, cx)?;
        session.reference = digests;
        session.clean()?;
        Ok(session)
    }

    /// Generates every tenant's instance, as `ADMIT` does, for timing.
    pub fn generate(&self) -> Result<(), String> {
        for line in &self.admits {
            let args: Vec<&str> = line.split_whitespace().skip(1).collect();
            black_box(TenantSpec::parse(&args)?.build_instance()?);
        }
        Ok(())
    }

    /// Runs the full script with `KILL`+`RESTORE` and checks the final
    /// digests against the reference run.
    pub fn session(&mut self, cx: &mut Ctx) -> Result<Round, String> {
        let (out, digests) = self.run(true, cx)?;
        if digests != self.reference {
            cx.gates.fail(format!(
                "state digests after KILL+RESTORE {digests:x?} differ from the run without KILL {:x?}",
                self.reference
            ));
        }
        Ok(out)
    }

    fn run(&mut self, kill: bool, cx: &mut Ctx) -> Result<(Round, Vec<u64>), String> {
        self.sessions += 1;
        let dir = self.data_root.join(format!("session-{}", self.sessions));
        let config = ServiceConfig::new(&dir);
        let slo = config.slo.clone();
        let mut c = Client {
            svc: Service::new(config, builtin_factory())?,
            cx,
            requests: 0,
            failed: 0,
        };
        for line in &self.admits {
            c.send("serve.admit", line);
        }
        let mut steps = vec![0u32; self.names.len()];
        let mut done = vec![false; self.names.len()];
        let mut steps_latency = Vec::new();
        let mut step_write_bytes = 0;
        // Reading /proc around each STEP costs time: count only when
        // tracing.
        let count_writes = c.cx.tr.enabled();
        while done.iter().any(|d| !d) {
            for (i, name) in self.names.iter().enumerate() {
                if done[i] {
                    continue;
                }
                c.send("serve.submit", &format!("SUBMIT {name} 1"));
                let line = format!("STEP {name}");
                let written = if count_writes { written_bytes()? } else { 0 };
                let start = c.cx.cal.start();
                let reply = c.request("serve.step", &line);
                steps_latency.push(c.cx.cal.latency(&start));
                if count_writes {
                    step_write_bytes += written_bytes()? - written;
                }
                c.cx.cal.tick();
                done[i] = reply.contains(" done=true ");
                steps[i] += 1;
                if steps[i] > MAX_STEPS {
                    return Err(format!("tenant {name} not done after {MAX_STEPS} steps"));
                }
                if kill && steps[i] == KILL_AFTER_STEP && !done[i] {
                    c.send("serve.kill", &format!("KILL {name}"));
                    let reply = c.send("serve.restore", &format!("RESTORE {name}"));
                    if !reply.contains(" verified=true ") {
                        c.failed += 1;
                        c.cx.gates
                            .fail(format!("RESTORE {name} not verified: {reply}"));
                    }
                }
            }
        }
        let reply = c.send("serve.stats", "STATS");
        let stats: Stats =
            serde_json::from_str(&reply).map_err(|e| format!("parsing STATS reply: {e}"))?;
        // Every tenant has the same job count, so the job-weighted mean of
        // the final gap ratios is their plain mean.
        let mut ratios = Vec::with_capacity(stats.tenants.len());
        for t in &stats.tenants {
            match t.gap_ratio {
                Some(r) if t.done => ratios.push(r),
                _ => {
                    c.cx.gates
                        .fail(format!("tenant {} ended without a gap ratio", t.name))
                }
            }
        }
        if c.cx.tr.enabled() {
            // The two whole-history folds every STEP repeats, timed on
            // each tenant's final history.
            for name in &self.names {
                let tenant = c
                    .svc
                    .tenant(name)
                    .ok_or(format!("tenant {name} vanished"))?;
                let instance = tenant.spec().build_instance()?;
                c.cx.tr
                    .span("obs.slo_replay", || black_box(tenant.evaluate_slo(&slo)));
                c.cx.tr.span("obs.gap_timeline", || {
                    black_box(compute_gap_timeline(tenant.events(), instance.catalog()))
                });
            }
        }
        let reply = c.send("serve.drain", "DRAIN");
        if !reply.starts_with("OK") {
            c.cx.gates.fail(format!("DRAIN -> {reply}"));
        }
        let out = Round {
            latencies: steps_latency,
            requests: c.requests,
            failed: c.failed,
            jobs: TENANT_JOBS * self.names.len() as u64,
            cost_ratio: mean(&ratios),
            rung: stats.rung,
            step_write_bytes,
        };
        self.stale.push(dir);
        Ok((out, stats.tenants.iter().map(|t| t.state_digest).collect()))
    }

    /// Removes the data of finished sessions. Call it outside timed
    /// blocks: it is housekeeping, not service work.
    pub fn clean(&mut self) -> Result<(), String> {
        for dir in self.stale.drain(..) {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
        Ok(())
    }

    /// Per-layer figures from the spans of traced sessions.
    pub fn layers(spans: &std::collections::BTreeMap<&str, Vec<f64>>, out: &mut Metrics) {
        let p50 = |name: &str| spans.get(name).map_or(0.0, |v| median(v));
        out.push("serve.admit_ms", "ms", p50("serve.admit"));
        out.push("serve.submit_ms", "ms", p50("serve.submit"));
        let steps = spans.get("serve.step").map_or(&[][..], |v| v);
        out.push("serve.step_ms.p50", "ms", median(steps));
        out.push(
            "serve.step_ms.p90",
            "ms",
            crate::stats::quantile(steps, 0.9),
        );
        out.push("serve.restore_ms", "ms", p50("serve.restore"));
        out.push("serve.drain_ms", "ms", p50("serve.drain"));
        out.push("obs.slo_replay_ms", "ms", p50("obs.slo_replay"));
        out.push("obs.gap_timeline_ms", "ms", p50("obs.gap_timeline"));
    }
}
