//! The three workloads and one pass of the tuning loop over each.
//!
//! Every call into a layer's public function is wrapped in a span named
//! `<layer>.<call>`; grouping spans (`loop`, `land`, `recommend`) carry
//! no dot and their self time is the loop's glue. The end-to-end timers
//! (`loop_s`, `recommend_s`, each landing) run whether or not spans are
//! recorded.

use crate::trace::Tracer;
use kea_core::whatif::Granularity;
use kea_core::{
    check_implicit_slos, evaluate_deployment, optimize_max_containers, FitMethod, Guardrail,
    OperatingPoint, PerformanceMonitor, WhatIfEngine, YarnOptimization,
};
use kea_sim::{
    run_with_exec, ClusterSpec, ConfigPatch, ExecConfig, Flight, SimConfig, SimOutput, WorkloadSpec,
};
use kea_telemetry::{
    daily_group_aggregates_window, DailyAggregate, GroupKey, GroupUtilization, MachineHourRecord,
    Metric, SyncStats, TelemetryStore,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

const SUB_CLUSTERS: u32 = 8;
/// Rows a group needs before the What-if Engine fits it.
const FIT_MIN_ROWS: usize = 24;
/// The observation window of `tune-deploy`, and the evaluation window
/// that follows it (paper §5.2.2, 48 h + 48 h).
const OBSERVE_HOURS: u64 = 48;
const EVAL_HOURS: u64 = 48;
/// Metrics compared before and after the deployment.
const EVAL_METRICS: [Metric; 3] = [
    Metric::TotalDataRead,
    Metric::AverageTaskLatency,
    Metric::AverageRunningContainers,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One simulated day lands in one batch into a durable store.
    FleetDay,
    /// A simulated week lands hour by hour into a durable store.
    StreamWeek,
    /// Observe, recommend, deploy as flights and evaluate; the observed
    /// window lands hour by hour into an in-memory store.
    TuneDeploy,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fleet-day" => Some(Kind::FleetDay),
            "stream-week" => Some(Kind::StreamWeek),
            "tune-deploy" => Some(Kind::TuneDeploy),
            _ => None,
        }
    }
}

/// Everything built before the loop: cluster, workload and plan.
pub struct Workload {
    pub kind: Kind,
    /// The simulation whose telemetry the loop lands.
    pub observe: SimConfig,
    pub exec: ExecConfig,
    /// Extra runs of the stage from landed rows to a plan per measured
    /// pass.
    pub stage_reps: usize,
}

/// Builds the inputs of `kind` from `seed`.
pub fn setup(kind: Kind, seed: u64) -> Workload {
    let (scale, hours, coarsen, occupancy, stage_reps) = match kind {
        Kind::FleetDay => (43, 24, 8, 0.75, 1),
        Kind::StreamWeek => (6, 168, 32, 0.75, 1),
        Kind::TuneDeploy => (6, OBSERVE_HOURS, 8, 1.02, 4),
    };
    // The default mix has 1,500 machines; each workload scales it.
    let mut skus = kea_sim::default_skus(1);
    for s in &mut skus {
        s.machine_count *= scale;
    }
    let cluster = ClusterSpec::build(skus, SUB_CLUSTERS);
    let mut observe = SimConfig::baseline(cluster, hours, seed);
    observe.workload = WorkloadSpec::default_for(&observe.cluster, occupancy).scaled_tasks(coarsen);
    // The loop reads no task log; recurring jobs are always logged and
    // the SLO check of `tune-deploy` reads them.
    observe.task_log_every = 1_000;
    observe.adhoc_job_log_every = if kind == Kind::TuneDeploy { 8 } else { 64 };
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    Workload {
        kind,
        observe,
        exec: ExecConfig {
            // `1` would select the global scheduling domain instead.
            shards: shards.max(2),
            emit_window_hours: 24,
        },
        stage_reps,
    }
}

/// Calls, rows and checks of a run, and what failed.
#[derive(Debug, Default)]
pub struct Acct {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Acct {
    /// Records one layer call and passes its result through.
    fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Result<T, ()> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        })
    }

    fn ok_call(&mut self) {
        self.attempted += 1;
    }

    /// Records a failed output check; checks do not count as attempts.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Measurements of one pass of the loop.
#[derive(Debug, Default)]
pub struct Rep {
    pub loop_s: f64,
    /// The loop's recommendation first, then each repeated stage's.
    pub recommend_s: Vec<f64>,
    pub land_ms: Vec<f64>,
    /// Per-layer counts; timings come from the spans.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Rep {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.counts.insert(name, v);
    }
}

/// Counts that must repeat exactly for one seed.
pub const EXACT: [&str; 6] = [
    "sim.tasks",
    "sim.machine_hours",
    "fit.rows",
    "persist.segment_bytes",
    "persist.rotations",
    "persist.wal_records",
];

/// What the in-memory sim store answers, kept small: a digest of each
/// query result rather than the result itself.
struct Reference {
    rows: usize,
    util: Vec<GroupUtilization>,
    daily: u64,
}

impl Reference {
    fn of(store: &TelemetryStore) -> Self {
        Reference {
            rows: store.len(),
            util: kea_telemetry::group_utilization(store),
            daily: digest_daily(&kea_telemetry::daily_group_aggregates(store)),
        }
    }
}

/// 1e-12 relative, in units in the last place of a double (2^-52 each).
const UTIL_MAX_ULPS: u64 = 4_503;

/// Distance in units in the last place between two finite doubles.
fn ulps(a: f64, b: f64) -> u64 {
    let key = |x: f64| {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    };
    key(a).abs_diff(key(b))
}

/// Largest distance, in units in the last place, between the means of
/// two `group_utilization` results, or `None` when their groups or
/// machine counts differ.
fn util_ulps(a: &[GroupUtilization], b: &[GroupUtilization]) -> Option<u64> {
    if a.len() != b.len() {
        return None;
    }
    let mut worst = 0;
    for (x, y) in a.iter().zip(b) {
        if x.group != y.group || x.machines != y.machines {
            return None;
        }
        worst = worst
            .max(ulps(x.mean_cpu_utilization, y.mean_cpu_utilization))
            .max(ulps(x.mean_running_containers, y.mean_running_containers));
    }
    Some(worst)
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn group(&mut self, g: GroupKey) {
        self.word(u64::from(g.sku.0) << 8 | u64::from(g.sc.0));
    }
}

fn digest_daily(daily: &[DailyAggregate]) -> u64 {
    let mut h = Fnv::new();
    for d in daily {
        h.word(u64::from(d.machine.0));
        h.group(d.group);
        h.word(d.day);
        h.word(u64::from(d.hours_observed));
        for m in Metric::ALL {
            h.word(d.mean(m).to_bits());
        }
    }
    h.0
}

/// One pass of the loop. `dir` is a fresh directory the pass may fill
/// and the caller removes; the durable store lives in `dir/store`.
///
/// After the loop's clock stops, the stage from landed rows to a plan
/// runs `stage_reps` more times, untraced, so that `recommend_s` and
/// the landings of `tune-deploy` and `fleet-day` get more samples per
/// pass.
/// `tune-deploy` repeats it between recommending and deploying, with
/// the loop's clock and span closed around the repeats.
pub fn run_once(
    w: &Workload,
    stage_reps: usize,
    dir: &Path,
    tr: &mut Tracer,
    acct: &mut Acct,
) -> Result<Rep, ()> {
    let mut rep = Rep::default();
    let store_dir = dir.join("store");
    let t_loop = Instant::now();
    let root = tr.enter("loop");
    let observed = tr.span("sim.observe", || run_with_exec(&w.observe, w.exec));
    acct.ok_call();
    let reference = Reference::of(&observed.telemetry);
    sim_counts(&mut rep, &observed);

    let (store, recommend_start, recommend_span) = if w.kind == Kind::TuneDeploy {
        let mut store = TelemetryStore::new();
        let hours = w.observe.duration_hours;
        land_hourly(
            &mut store,
            &observed.telemetry,
            hours,
            false,
            tr,
            acct,
            &mut rep,
        )?;
        drop(observed);
        rep.set("store.run_count", store.run_count() as f64);
        (store, Instant::now(), tr.enter("recommend"))
    } else {
        land_durable(w, observed, &store_dir, tr, acct, &mut rep)?;
        let t = Instant::now();
        let recommend_span = tr.enter("recommend");
        let store = recover(&store_dir, tr, acct)?;
        rep.set("recover.runs", store.run_count() as f64);
        (store, t, recommend_span)
    };
    let rec = recommend(&store, tr, acct)?;
    tr.exit(recommend_span);
    rep.recommend_s
        .push(recommend_start.elapsed().as_secs_f64());

    rep.add("scan.rows", 2.0 * store.len() as f64);
    rep.set("scan.resident_runs", store.resident_runs() as f64);
    let fit_rows: usize = rec.engine.groups().map(|g| g.n_rows).sum();
    rep.set("fit.rows", fit_rows as f64);
    rep.set("fit.groups", rec.engine.len() as f64);
    let steps = steps(&rec.plan);
    let nonzero = steps.iter().filter(|&&s| s != 0).count();
    rep.set("optimize.nonzero_steps", nonzero as f64);
    rep.set("optimize.predicted_gain", rec.plan.predicted_capacity_gain);
    let util_ulps = check_recommendation(&store, &rec, &reference, acct);
    rep.set("scan.util_ulps", util_ulps.map_or(f64::NAN, |u| u as f64));
    tr.exit(root);
    let mut loop_s = t_loop.elapsed().as_secs_f64();

    repeat_stage(
        w, stage_reps, store, dir, &reference, &steps, acct, &mut rep,
    )?;

    let evaluated = if w.kind == Kind::TuneDeploy {
        let t = Instant::now();
        let root = tr.enter("loop");
        let evaluated = deploy_and_evaluate(w, &rec.plan, tr, acct, &mut rep)?;
        tr.exit(root);
        loop_s += t.elapsed().as_secs_f64();
        Some(evaluated)
    } else {
        None
    };
    rep.loop_s = loop_s;

    // Counted after the loop's clock stops: these reads serve the report.
    if let Some((world, windows)) = evaluated {
        let samples: usize = windows
            .iter()
            .map(|&(start, end)| world.telemetry.by_hours(start, end).count())
            .sum();
        rep.set("evaluate.samples", (samples * EVAL_METRICS.len()) as f64);
    }
    Ok(rep)
}

/// What the recommend stage yields, kept for the checks.
struct Recommendation {
    util: Vec<GroupUtilization>,
    daily: u64,
    engine: WhatIfEngine,
    plan: YarnOptimization,
}

/// Reopens the durable store at `dir` and verifies it.
fn recover(dir: &Path, tr: &mut Tracer, acct: &mut Acct) -> Result<TelemetryStore, ()> {
    let store = tr.span("recover.open", || TelemetryStore::open(dir));
    let store = acct.call("recover.open", store)?;
    let verified = tr.span("recover.verify", || store.verify());
    acct.call("recover.verify", verified)?;
    Ok(store)
}

/// Scans, fits and optimizes over a landed store.
fn recommend(
    store: &TelemetryStore,
    tr: &mut Tracer,
    acct: &mut Acct,
) -> Result<Recommendation, ()> {
    let util = tr.span("scan.group_utilization", || {
        PerformanceMonitor::new(store).group_utilization()
    });
    acct.ok_call();
    let daily = tr.span("scan.daily_aggregates", || {
        digest_daily(&PerformanceMonitor::new(store).daily_aggregates())
    });
    acct.ok_call();
    let fitted = tr.span("fit.fit_at", || {
        WhatIfEngine::fit_at(
            &PerformanceMonitor::new(store),
            FitMethod::Huber,
            Granularity::Hourly,
            FIT_MIN_ROWS,
        )
    });
    let engine = acct.call("fit.fit_at", fitted)?;
    let machine_counts: BTreeMap<GroupKey, usize> =
        util.iter().map(|g| (g.group, g.machines)).collect();
    let optimized = tr.span("optimize.optimize_max_containers", || {
        optimize_max_containers(&engine, &machine_counts, 1.0, OperatingPoint::Median)
    });
    let plan = acct.call("optimize.optimize_max_containers", optimized)?;
    Ok(Recommendation {
        util,
        daily,
        engine,
        plan,
    })
}

fn steps(plan: &YarnOptimization) -> Vec<i32> {
    plan.suggestions.iter().map(|s| s.delta_step).collect()
}

/// Checks a recommendation against the in-memory sim store and returns
/// the distance of its group means in units in the last place.
fn check_recommendation(
    store: &TelemetryStore,
    rec: &Recommendation,
    reference: &Reference,
    acct: &mut Acct,
) -> Option<u64> {
    acct.check(store.len() == reference.rows, || {
        format!(
            "landed store holds {} rows, the simulation {}",
            store.len(),
            reference.rows
        )
    });
    // Groups and machine counts must match exactly. The means are sums
    // taken side by side over the store's sealed runs, so a store whose
    // rows are split into other runs than the sim store's rounds
    // differently in the last bits; the distance is reported as
    // `scan.util_ulps` and gated at a relative 1e-12.
    let util_ulps = util_ulps(&rec.util, &reference.util);
    acct.check(util_ulps.is_some_and(|u| u <= UTIL_MAX_ULPS), || {
        format!("group_utilization differs from the in-memory sim store: {util_ulps:?} ulps")
    });
    acct.check(rec.daily == reference.daily, || {
        "daily roll-up differs from the in-memory sim store".into()
    });
    acct.check(rec.engine.len() == reference.util.len(), || {
        format!(
            "fitted {} of {} groups",
            rec.engine.len(),
            reference.util.len()
        )
    });
    let plan = &rec.plan;
    acct.check(
        plan.predicted_latency <= plan.baseline_latency * (1.0 + 1e-9),
        || {
            format!(
                "predicted latency {} above baseline {}",
                plan.predicted_latency, plan.baseline_latency
            )
        },
    );
    util_ulps
}

/// Runs the stage from landed rows to a plan `reps` more times,
/// untraced, adding each `recommend_s` and landing to `rep`. Each
/// repeat reads its rows from the previous stage's store, so no second
/// copy of them is held. `stream-week` repeats only `recover` and the
/// recommendation, as a pass already lands 168 times; the other
/// workloads land the rows again first, into a fresh store (`fleet-day`
/// under `dir/stage`). Every repeat passes the same checks as the
/// loop's stage and must yield the same steps.
#[allow(clippy::too_many_arguments)]
fn repeat_stage(
    w: &Workload,
    reps: usize,
    mut store: TelemetryStore,
    dir: &Path,
    reference: &Reference,
    steps_in_loop: &[i32],
    acct: &mut Acct,
    rep: &mut Rep,
) -> Result<(), ()> {
    let quiet = &mut Tracer::new(false);
    let stage_dir = dir.join("stage");
    for _ in 0..reps {
        let mut landed = Rep::default();
        let t = match w.kind {
            Kind::StreamWeek => {
                drop(store);
                let t = Instant::now();
                store = recover(&dir.join("store"), quiet, acct)?;
                t
            }
            Kind::FleetDay => {
                let batch: Vec<MachineHourRecord> = store.iter().copied().collect();
                drop(store);
                let _ = std::fs::remove_dir_all(&stage_dir);
                let mut fresh = acct.call("create store", TelemetryStore::open(&stage_dir))?;
                land(&mut fresh, batch, quiet, acct, &mut landed)?;
                drop(fresh);
                let t = Instant::now();
                store = recover(&stage_dir, quiet, acct)?;
                t
            }
            Kind::TuneDeploy => {
                let mut fresh = TelemetryStore::new();
                let hours = w.observe.duration_hours;
                land_hourly(&mut fresh, &store, hours, false, quiet, acct, &mut landed)?;
                store = fresh;
                Instant::now()
            }
        };
        let rec = recommend(&store, quiet, acct)?;
        rep.recommend_s.push(t.elapsed().as_secs_f64());
        rep.land_ms.extend(landed.land_ms);
        check_recommendation(&store, &rec, reference, acct);
        acct.check(steps(&rec.plan) == steps_in_loop, || {
            format!(
                "a repeated stage recommends {:?}, the loop {steps_in_loop:?}",
                steps(&rec.plan)
            )
        });
    }
    Ok(())
}

fn sim_counts(rep: &mut Rep, out: &SimOutput) {
    rep.add("sim.machine_hours", out.telemetry.len() as f64);
    rep.add("sim.tasks", out.counters.total as f64);
    rep.add("sim.jobs", out.jobs.len() as f64);
    rep.add("sim.nonfinite_dropped", out.nonfinite_dropped as f64);
}

/// One landing: `extend_validated`, then `sync` on a durable store or
/// `seal` on an in-memory one. Returns the sync's stats, if any.
fn land(
    store: &mut TelemetryStore,
    batch: Vec<MachineHourRecord>,
    tr: &mut Tracer,
    acct: &mut Acct,
    rep: &mut Rep,
) -> Result<Option<SyncStats>, ()> {
    let offered = batch.len();
    let t = Instant::now();
    let open = tr.enter("land");
    let rejected = tr.span("store.extend_validated", || store.extend_validated(batch));
    acct.ok_call();
    let stats = if store.is_durable() {
        let synced = tr.span("persist.sync", || store.sync());
        Some(acct.call("persist.sync", synced)?)
    } else {
        tr.span("store.seal", || store.seal());
        acct.ok_call();
        None
    };
    tr.exit(open);
    rep.land_ms.push(t.elapsed().as_secs_f64() * 1e3);
    acct.attempted += offered as u64;
    acct.failed += rejected as u64;
    rep.add("store.rows_in", offered as f64);
    rep.add("store.rows_rejected", rejected as f64);
    acct.check(rejected == 0, || {
        format!("{rejected} rows rejected on landing")
    });
    Ok(stats)
}

/// Lands the simulated telemetry into a fresh durable store at `dir`:
/// the whole day in one batch (`fleet-day`) or hour by hour with a
/// one-day window read after each day (`stream-week`).
fn land_durable(
    w: &Workload,
    observed: SimOutput,
    dir: &Path,
    tr: &mut Tracer,
    acct: &mut Acct,
    rep: &mut Rep,
) -> Result<(), ()> {
    let mut store = acct.call("create store", TelemetryStore::open(dir))?;
    if w.kind == Kind::FleetDay {
        let batch: Vec<MachineHourRecord> = observed.telemetry.iter().copied().collect();
        drop(observed);
        if let Some(stats) = land(&mut store, batch, tr, acct, rep)? {
            record(stats, rep);
        }
    } else {
        let hours = w.observe.duration_hours;
        land_hourly(&mut store, &observed.telemetry, hours, true, tr, acct, rep)?;
        drop(observed);
    }
    rep.set("store.run_count", store.run_count() as f64);
    let dir_bytes = dir_bytes(dir);
    let written = rep.counts["persist.segment_bytes"] + rep.counts["persist.wal_bytes"];
    rep.set(
        "persist.disk_bytes_per_row",
        dir_bytes as f64 / store.len().max(1) as f64,
    );
    rep.set("persist.write_amp", written / dir_bytes.max(1) as f64);
    Ok(())
}

/// Lands the first `hours` of `source` into `store`, one batch per
/// hour. With `window_reads`, a one-day window read follows each day
/// and must return exactly the rows landed that day.
fn land_hourly(
    store: &mut TelemetryStore,
    source: &TelemetryStore,
    hours: u64,
    window_reads: bool,
    tr: &mut Tracer,
    acct: &mut Acct,
    rep: &mut Rep,
) -> Result<(), ()> {
    let mut day_rows = 0;
    for hour in 0..hours {
        let batch: Vec<MachineHourRecord> = source.by_hours(hour, hour + 1).copied().collect();
        day_rows += batch.len();
        if let Some(stats) = land(store, batch, tr, acct, rep)? {
            record(stats, rep);
        }
        if window_reads && (hour + 1) % 24 == 0 {
            let start = hour + 1 - 24;
            let day = tr.span("scan.window", || {
                daily_group_aggregates_window(store, start, hour + 1)
            });
            acct.ok_call();
            let rows: u64 = day.iter().map(|d| u64::from(d.hours_observed)).sum();
            rep.add("scan.rows", rows as f64);
            acct.check(rows as usize == day_rows, || {
                format!(
                    "window [{start}, {}) read {rows} of {day_rows} rows",
                    hour + 1
                )
            });
            day_rows = 0;
        }
    }
    Ok(())
}

fn record(stats: SyncStats, rep: &mut Rep) {
    rep.add("persist.syncs", 1.0);
    rep.add("persist.rotations", f64::from(u8::from(stats.rotated)));
    rep.add("persist.segments_written", stats.segments_written as f64);
    rep.add("persist.segment_bytes", stats.segment_bytes as f64);
    rep.add("persist.wal_records", stats.wal_records as f64);
    rep.add("persist.wal_bytes", stats.wal_bytes as f64);
}

/// Bytes of the regular files directly under `dir` and its subdirectories.
fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for e in entries.flatten() {
        match e.metadata() {
            Ok(m) if m.is_dir() => total += dir_bytes(&e.path()),
            Ok(m) => total += m.len(),
            Err(_) => {}
        }
    }
    total
}

/// Deploys every non-zero step as a per-SKU flight from the end of the
/// observation window, simulates both windows, and evaluates the
/// roll-out with the latency guardrail and the implicit SLOs.
fn deploy_and_evaluate(
    w: &Workload,
    plan: &YarnOptimization,
    tr: &mut Tracer,
    acct: &mut Acct,
    rep: &mut Rep,
) -> Result<(SimOutput, [(u64, u64); 2]), ()> {
    let total = OBSERVE_HOURS + EVAL_HOURS;
    let mut cfg = w.observe.clone();
    cfg.duration_hours = total;
    for s in plan.suggestions.iter().filter(|s| s.delta_step != 0) {
        let sku = s.group.sku;
        let base = i64::from(cfg.plan.base[&sku].max_running_containers);
        let machines: BTreeSet<_> = cfg.cluster.machines_of_sku(sku).map(|m| m.id).collect();
        cfg.plan.add_flight(Flight {
            label: format!("deploy-{sku:?}"),
            machines,
            start_hour: OBSERVE_HOURS,
            end_hour: total,
            patch: ConfigPatch {
                max_running_containers: Some((base + i64::from(s.delta_step)).max(1) as u32),
                ..ConfigPatch::default()
            },
        });
    }
    let world = tr.span("sim.deploy", || run_with_exec(&cfg, w.exec));
    acct.ok_call();
    sim_counts(rep, &world);

    // Skip the first hour of each window so backlogs do not bleed across.
    let before = (1, OBSERVE_HOURS);
    let after = (OBSERVE_HOURS + 1, total);
    let guardrails = [Guardrail {
        metric: Metric::AverageTaskLatency,
        higher_is_worse: true,
        max_regression: 0.02,
        alpha: 0.05,
    }];
    let evaluated = tr.span("evaluate.evaluate_deployment", || {
        evaluate_deployment(&world.telemetry, before, after, &EVAL_METRICS, &guardrails)
    });
    let report = acct.call("evaluate.evaluate_deployment", evaluated)?;
    let split = OBSERVE_HOURS as f64;
    let (before_jobs, after_jobs): (Vec<_>, Vec<_>) = world
        .jobs
        .iter()
        .cloned()
        .partition(|j| j.arrival_hour < split);
    let checked = tr.span("slo.check_implicit_slos", || {
        check_implicit_slos(&before_jobs, &after_jobs, 3, 0.01)
    });
    let slo = acct.call("slo.check_implicit_slos", checked)?;

    for m in EVAL_METRICS {
        let finite = report
            .effects
            .iter()
            .find(|(em, _)| *em == m)
            .is_some_and(|(_, e)| {
                [
                    e.baseline_mean,
                    e.treated_mean,
                    e.effect,
                    e.relative_effect,
                    e.test.t,
                    e.test.p_value,
                ]
                .iter()
                .all(|v| v.is_finite())
            });
        acct.check(finite, || format!("no finite effect for {m}"));
    }
    rep.set("evaluate.approved", f64::from(u8::from(report.approved)));
    rep.set("slo.templates", slo.templates.len() as f64);
    rep.set("slo.all_hold", f64::from(u8::from(slo.all_hold)));
    Ok((world, [before, after]))
}
