//! End-to-end benchmark of the KEA tuning loop.
//!
//! ```text
//! cargo run --release --manifest-path loopbench/Cargo.toml -- \
//!     --workload <fleet-day|stream-week|tune-deploy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one unmeasured warm-up pass, then repeats the whole loop
//! (simulate, land, recover, scan, fit, optimize, and on `tune-deploy`
//! deploy and evaluate) until about `--seconds` have passed and at least
//! two measured passes ran. Each pass also repeats the stage from landed
//! rows to a plan a few times, off the loop's clock. Every pass's outputs
//! are checked, and one JSON object is printed as the last line of
//! standard output. With `--trace 0` it reports the end-to-end metrics
//! as medians; with `--trace 1` it alternates plain and traced passes and
//! reports the per-layer metrics of the median traced pass. See
//! `loopbench/README.md` for the metric and layer map.

mod loops;
mod trace;

use loops::{Acct, Kind, Rep, EXACT};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{self_times, Span, Tracer};

/// Set-ups timed before each pass; `setup_s` is the median of all.
const SETUP_REPS: usize = 25;
/// Passes of the loop per run, at least; the exact counts are compared
/// across them.
const MIN_REPS: usize = 2;
/// No pass starts that would end after this much of the run, so a run
/// ends well inside three minutes.
const START_BUDGET: Duration = Duration::from_secs(120);

const END_TO_END: [(&str, &str); 6] = [
    ("loop_s", "s"),
    ("recommend_s", "s"),
    ("land_mean_ms", "ms"),
    ("land_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

const PER_LAYER: [(&str, &str); 48] = [
    ("sim.busy_s", "s"),
    ("sim.observe_s", "s"),
    ("sim.deploy_s", "s"),
    ("sim.machine_hours", "count"),
    ("sim.tasks", "count"),
    ("sim.tasks_per_s", "1/s"),
    ("sim.jobs", "count"),
    ("sim.nonfinite_dropped", "count"),
    ("store.extend_s", "s"),
    ("store.seal_s", "s"),
    ("store.rows_in", "count"),
    ("store.rows_rejected", "count"),
    ("store.run_count", "count"),
    ("land_p50_ms", "ms"),
    ("persist.sync_s", "s"),
    ("persist.syncs", "count"),
    ("persist.rotations", "count"),
    ("persist.segments_written", "count"),
    ("persist.segment_bytes", "B"),
    ("persist.wal_records", "count"),
    ("persist.wal_bytes", "B"),
    ("persist.write_amp", "ratio"),
    ("persist.disk_bytes_per_row", "B"),
    ("recover.open_s", "s"),
    ("recover.verify_s", "s"),
    ("recover.runs", "count"),
    ("scan.busy_s", "s"),
    ("scan.rows", "count"),
    ("scan.window_p50_ms", "ms"),
    ("scan.resident_runs", "count"),
    ("scan.util_ulps", "count"),
    ("fit.busy_s", "s"),
    ("fit.rows", "count"),
    ("fit.groups", "count"),
    ("fit.rows_per_s", "1/s"),
    ("optimize.busy_us", "us"),
    ("optimize.nonzero_steps", "count"),
    ("optimize.predicted_gain", "ratio"),
    ("evaluate.busy_s", "s"),
    ("evaluate.samples", "count"),
    ("evaluate.approved", "bool"),
    ("slo.busy_s", "s"),
    ("slo.templates", "count"),
    ("slo.all_hold", "bool"),
    ("trace.loop_s", "s"),
    ("trace.glue_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        workload,
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A directory removed when dropped, on success, error or panic alike.
struct TempDir(PathBuf);

impl TempDir {
    fn new(parent: &Path) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = parent.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

fn land_mean_ms(rep: &Rep) -> f64 {
    rep.land_ms.iter().sum::<f64>() / rep.land_ms.len() as f64
}

/// Median over passes of one per-pass value.
fn median_over(passes: &[Pass], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(&p.rep)).collect::<Vec<_>>())
}

/// Linear-interpolated percentile, `p` in [0, 100]; NaN when empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One finished pass and the span range it recorded.
struct Pass {
    traced: bool,
    rep: Rep,
    spans: std::ops::Range<usize>,
}

/// Per-layer metrics of one traced pass: timings from its spans, counts
/// from the pass itself.
fn layer_metrics(pass: &Pass, spans: &[Span]) -> Vec<(&'static str, f64)> {
    let busy = |prefix: &str| -> f64 {
        // `+ 0.0` turns the empty sum's -0.0 into 0.0.
        spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::dur_s)
            .sum::<f64>()
            + 0.0
    };
    let windows: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "scan.window")
        .map(|s| s.dur_s() * 1e3)
        .collect();
    let selfs = self_times(spans, pass.spans.start);
    let glue: f64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| !s.name.contains('.'))
        .map(|(_, t)| t)
        .sum();
    let count = |name: &str| pass.rep.counts.get(name).copied().unwrap_or(0.0);
    let mut out = vec![
        ("sim.busy_s", busy("sim.")),
        ("sim.observe_s", busy("sim.observe")),
        ("sim.deploy_s", busy("sim.deploy")),
        ("sim.tasks_per_s", count("sim.tasks") / busy("sim.")),
        ("store.extend_s", busy("store.extend_validated")),
        ("store.seal_s", busy("store.seal")),
        ("land_p50_ms", percentile(&pass.rep.land_ms, 50.0)),
        ("persist.sync_s", busy("persist.sync")),
        ("recover.open_s", busy("recover.open")),
        ("recover.verify_s", busy("recover.verify")),
        ("scan.busy_s", busy("scan.")),
        (
            "scan.window_p50_ms",
            if windows.is_empty() {
                0.0
            } else {
                median(&windows)
            },
        ),
        ("fit.busy_s", busy("fit.")),
        ("fit.rows_per_s", count("fit.rows") / busy("fit.")),
        ("optimize.busy_us", busy("optimize.") * 1e6),
        ("evaluate.busy_s", busy("evaluate.")),
        ("slo.busy_s", busy("slo.")),
        ("trace.loop_s", pass.rep.loop_s),
        ("trace.glue_s", glue),
        ("trace.spans", spans.len() as f64),
    ];
    for (name, _) in PER_LAYER {
        if !out.iter().any(|(n, _)| *n == name) && name != "trace.overhead_pct" {
            out.push((name, count(name)));
        }
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tmp = match TempDir::new(&bench_dir.join("tmp")) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: temporary directory: {e}");
            return ExitCode::from(2);
        }
    };

    let mut acct = Acct::default();
    // Set-up runs in batches before every pass, so its median samples the
    // machine's speed across the whole run; each pass uses the newest.
    let mut setup_s = Vec::new();
    let mut setups = 0;
    let mut set_up = |setup_s: &mut Vec<f64>, acct: &mut Acct| {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let w = loops::setup(args.kind, args.seed);
            let dir = tmp.0.join(format!("setup-{setups}"));
            let made = std::fs::create_dir(&dir);
            setup_s.push(t.elapsed().as_secs_f64());
            acct.check(made.is_ok(), || {
                format!("create {}: {made:?}", dir.display())
            });
            setups += 1;
            last = Some((w, dir));
        }
        last.expect("SETUP_REPS is positive")
    };
    let (w, _) = set_up(&mut setup_s, &mut acct);
    println!(
        "workload {} seed {}: {} machines, {} h, {} CPUs",
        args.workload,
        args.seed,
        w.observe.cluster.n_machines(),
        w.observe.duration_hours,
        w.exec.shards
    );

    let mut tracer = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    let t_run = Instant::now();
    // A fresh process runs its first pass up to half again as slow as
    // later ones, while its memory is first touched. So one pass without
    // repeated stages runs first; it is checked, and its exact counts
    // are compared, but nothing of it is measured.
    let (w, dir) = set_up(&mut Vec::new(), &mut acct);
    let warm = loops::run_once(&w, 0, &dir, &mut tracer, &mut acct);
    let _ = std::fs::remove_dir_all(&dir);
    let mut broke = warm.is_err();
    if let Ok(rep) = &warm {
        println!("warm-up: loop {:.3} s", rep.loop_s);
    }
    while !broke {
        let t_pass = Instant::now();
        let (w, dir) = set_up(&mut setup_s, &mut acct);
        let traced = args.trace && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        let first = tracer.mark();
        let result = loops::run_once(&w, w.stage_reps, &dir, &mut tracer, &mut acct);
        let _ = std::fs::remove_dir_all(&dir);
        let Ok(rep) = result else {
            broke = true;
            break;
        };
        println!(
            "pass {}{}: loop {:.3} s, recommend median {:.3} s, land mean {:.3} ms",
            passes.len(),
            if traced { " (traced)" } else { "" },
            rep.loop_s,
            median(&rep.recommend_s),
            land_mean_ms(&rep)
        );
        passes.push(Pass {
            traced,
            rep,
            spans: first..tracer.mark(),
        });
        // Another pass runs if it would end nearer `--seconds` than
        // stopping now does, and well inside the run's time limit.
        let last = t_pass.elapsed().as_secs_f64();
        let next_end = t_run.elapsed().as_secs_f64() + last;
        let wanted = passes.len() < MIN_REPS || next_end <= args.seconds as f64 + last / 2.0;
        if !wanted || next_end > START_BUDGET.as_secs_f64() {
            break;
        }
    }

    for name in EXACT {
        let values: Vec<f64> = warm
            .iter()
            .chain(passes.iter().map(|p| &p.rep))
            .map(|r| r.counts.get(name).copied().unwrap_or(0.0))
            .collect();
        acct.check(values.windows(2).all(|v| v[0] == v[1]), || {
            format!("{name} differs across passes of one seed: {values:?}")
        });
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        traced.sort_by(|a, b| a.rep.loop_s.total_cmp(&b.rep.loop_s));
        let plain: Vec<f64> = passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.rep.loop_s)
            .collect();
        if let Some(pass) = traced.get(traced.len().saturating_sub(1) / 2) {
            let spans = tracer.spans(pass.spans.clone());
            let values = layer_metrics(pass, spans);
            // Layer spans never nest, so their durations plus the glue
            // must add up to the traced pass.
            let layers: f64 = spans
                .iter()
                .filter(|s| s.name.contains('.'))
                .map(Span::dur_s)
                .sum();
            let glue = values
                .iter()
                .find(|(n, _)| *n == "trace.glue_s")
                .map_or(0.0, |v| v.1);
            acct.check((layers + glue - pass.rep.loop_s).abs() < 1e-3, || {
                format!(
                    "spans account for {} s of a {} s pass",
                    layers + glue,
                    pass.rep.loop_s
                )
            });
            let traced_loops: Vec<f64> = traced.iter().map(|p| p.rep.loop_s).collect();
            let overhead = (median(&traced_loops) / median(&plain) - 1.0) * 100.0;
            for (name, unit) in PER_LAYER {
                let v = if name == "trace.overhead_pct" {
                    overhead
                } else {
                    values
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |(_, v)| *v)
                };
                metrics.push((name, v, unit));
            }
        }
        let out_dir = bench_dir.join("out");
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&out_dir).and_then(|()| tracer.write_jsonl(&path)) {
            eprintln!("warning: spans not written to {}: {e}", path.display());
        } else {
            println!("spans written to {}", path.display());
        }
    } else {
        // A pass's landings are summarised by their mean and p90, and
        // the timings are then medians over passes; `recommend_s` is the
        // median of every recommendation of the run.
        let recommends: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.rep.recommend_s.iter().copied())
            .collect();
        let values = [
            median_over(&passes, |r| r.loop_s),
            median(&recommends),
            median_over(&passes, land_mean_ms),
            median_over(&passes, |r| percentile(&r.land_ms, 90.0)),
            peak_rss_mb(),
            median(&setup_s),
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, v, unit));
        }
        let landings: usize = passes.iter().map(|p| p.rep.land_ms.len()).sum();
        println!(
            "passes {}, landings {landings}, recommendations {}",
            passes.len(),
            recommends.len()
        );
        // Loop metrics printed for people but kept out of the result line:
        // the landing median is unstable on `stream-week`, and the bytes
        // per row read 0 where nothing persists (see README.md).
        let disk = median_over(&passes, |r| {
            r.counts
                .get("persist.disk_bytes_per_row")
                .copied()
                .unwrap_or(0.0)
        });
        let p50 = median_over(&passes, |r| percentile(&r.land_ms, 50.0));
        println!("{:<28} {p50:>16.6} ms", "land_p50_ms");
        println!("{:<28} {disk:>16.6} B", "disk_bytes_per_row");
    }

    for (name, v, unit) in &metrics {
        acct.check(v.is_finite(), || format!("{name} is not finite"));
        println!("{name:<28} {v:>16.6} {unit}");
    }
    for f in &acct.failures {
        eprintln!("check failed: {f}");
    }
    let correct = !broke && acct.failed == 0 && !passes.is_empty();
    println!(
        "{:<28} {:>16.6} ratio ({} of {})",
        "failed_share",
        acct.failed as f64 / acct.attempted.max(1) as f64,
        acct.failed,
        acct.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        acct.attempted.max(1),
        acct.failed,
        body.join(", ")
    );
    drop(tmp);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
