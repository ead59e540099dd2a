//! `perfbench` — one seeded, layer-traced benchmark of the dQMA stack.
//!
//! ```text
//! bash perfbench/run.sh --workload batch|serve|faults|fleet|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload runs untraced and the end-to-end metrics
//! are reported. With `--trace 1` the workload runs twice, untraced and
//! traced, for half the time each (the ratio is `tracing.overhead_ratio`),
//! and the other workloads run traced for a quarter of the time each, so
//! that every per-layer metric is reported, each measured on the workload
//! it belongs to. The last line of standard output is one JSON object.
//! The exit code is non-zero on any correctness-gate miss. See
//! `perfbench/README.md`.

mod batch;
mod faults;
mod fleet;
mod gen;
mod http;
mod loadgen;
mod rng;
mod run;
mod serve;
mod stamp;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::{Ctx, Outcome};
use trace::{Span, Tracer};

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "batch",
        "offline estimation in process: the lane kernel and block driver do the work; no sockets, service or r>=64 walk",
    ),
    (
        "serve",
        "open-loop jobs against a real dqma-server: HTTP, admission, journal, memo, plan cache and the r>=64 walk on the blocking path",
    ),
    (
        "faults",
        "transport rounds under seeded fault plans: netsim::transport and dqma::net retries do the work; the kernel only looks up tables",
    ),
    (
        "fleet",
        "a 33-process dqma-node TCP fleet: netsim::tcp stop-and-wait hops dominate; kernel work as in batch",
    ),
];

/// End-to-end metrics, their units, and whether the result line carries
/// them. A closed loop's gated latency and rate read the fast calls (see
/// [`run::FAST_PERCENTILE`]); its whole-run rate and p50 are printed but
/// left out of the result line, as they follow the host's speed. So are
/// the p99 and the ladder's maximum rate: on a shared 2-vCPU host a stall
/// of another tenant sets the slowest 1 % of jobs, and their run-to-run
/// spread is wider than any bound a regression gate could use (see
/// `perfbench/README.md`). A workload that has no such figure prints none.
pub const E2E: [(&str, &str, bool); 8] = [
    ("rounds_per_s", "1/s", true),
    ("latency_p5_ms", "ms", true),
    ("rounds_per_s_all", "1/s", false),
    ("latency_p50_ms", "ms", false),
    ("latency_p99_ms", "ms", false),
    ("max_rate_jobs_per_s", "1/s", false),
    ("setup_s", "s", true),
    ("peak_rss_mb", "MB", true),
];

/// Per-layer metrics: unit, and the end-to-end metric and workload each
/// should move.
pub const LAYERS: [(&str, &str, &str); 25] = [
    (
        "plan.compile_ms",
        "ms",
        "setup_s on batch/faults; latency_p99_ms on serve",
    ),
    (
        "kernel.lane_ns_per_round",
        "ns",
        "rounds_per_s on batch; flat on fleet",
    ),
    (
        "kernel.walk_ns_per_round",
        "ns",
        "latency_p99_ms, max_rate_jobs_per_s on serve; flat on batch",
    ),
    (
        "trials.parallel_efficiency",
        "ratio",
        "callers at nproc workers; batch and faults call at 1",
    ),
    ("trials.driver_overhead", "ratio", "rounds_per_s on batch"),
    ("service.submit_us", "us", "latency_p50_ms on serve"),
    (
        "service.queue_wait_ms",
        "ms",
        "latency_p99_ms on serve at the highest rate",
    ),
    ("service.sample_ms_short", "ms", "latency_p50_ms on serve"),
    ("service.sample_ms_long", "ms", "latency_p99_ms on serve"),
    ("service.memo_hit_ratio", "ratio", "latency_p50_ms on serve"),
    (
        "service.shed_ratio",
        "ratio",
        "fail_ratio (failed/attempted) on serve",
    ),
    ("http.post_ms", "ms", "latency_p50_ms on serve"),
    ("http.get_ms", "ms", "latency_p50_ms on serve"),
    ("http.polls_per_job", "count", "latency_p50_ms on serve"),
    ("journal.bytes_per_job", "bytes", "latency_p50_ms on serve"),
    ("server.rss_kb_per_job", "kB", "peak_rss_mb on serve"),
    ("transport.ns_per_round", "ns", "rounds_per_s on faults"),
    (
        "transport.msgs_per_round",
        "count",
        "rounds_per_s on faults",
    ),
    (
        "transport.retries_per_round",
        "count",
        "rounds_per_s on faults",
    ),
    (
        "transport.useful_msg_ratio",
        "ratio",
        "rounds_per_s on faults",
    ),
    ("tcp.us_per_msg", "us", "rounds_per_s on fleet"),
    ("tcp.retries_per_round", "count", "rounds_per_s on fleet"),
    ("cluster.launch_ms", "ms", "setup_s on fleet"),
    (
        "loadgen.lag_ms_p99",
        "ms",
        "run validity (serve): the generator kept its schedule",
    ),
    (
        "tracing.overhead_ratio",
        "ratio",
        "run validity: traced over untraced cost",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val:?}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val:?}"))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, ctx: &Ctx<'_>) -> Outcome {
    match name {
        "batch" => batch::run(ctx),
        "serve" => serve::run(ctx),
        "faults" => faults::run(ctx),
        "fleet" => fleet::run(ctx),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Runs workload `name` for `seconds` under `tracer`; `e2e` when its
/// end-to-end metrics are the ones reported.
fn pass(
    name: &str,
    args: &Args,
    out: &Path,
    nproc: usize,
    seconds: f64,
    tracer: &Tracer,
    e2e: bool,
) -> Outcome {
    run_workload(
        name,
        &Ctx {
            seed: args.seed,
            seconds,
            nproc,
            tracer,
            e2e,
            out: out.to_path_buf(),
        },
    )
}

/// One `--workload` run: end-to-end metrics, or with `trace` every
/// per-layer metric. Returns the outcome and the spans of each traced pass.
fn measure(
    name: &str,
    args: &Args,
    out: &Path,
    nproc: usize,
) -> (Outcome, Vec<(String, Vec<Span>)>) {
    let off = Tracer::new(false);
    if !args.trace {
        return (
            pass(name, args, out, nproc, args.seconds, &off, true),
            Vec::new(),
        );
    }
    let base = pass(name, args, out, nproc, args.seconds / 2.0, &off, false);
    let tracer = Tracer::new(true);
    let mut res = pass(name, args, out, nproc, args.seconds / 2.0, &tracer, false);
    let (b, t) = (base.headline, res.headline);
    let overhead = if b.1 { b.0 / t.0 } else { t.0 / b.0 };
    res.attempted += base.attempted;
    res.failed += base.failed;
    res.misses.extend(base.misses);
    res.layers.push(("tracing.overhead_ratio", overhead));
    let mut traces = vec![(name.to_string(), tracer.spans())];
    for (other, _) in WORKLOADS.iter().filter(|(w, _)| *w != name) {
        let tracer = Tracer::new(true);
        let o = pass(other, args, out, nproc, args.seconds / 4.0, &tracer, false);
        res.attempted += o.attempted;
        res.failed += o.failed;
        res.misses.extend(o.misses);
        res.layers.extend(o.layers);
        traces.push((other.to_string(), tracer.spans()));
    }
    (res, traces)
}

fn json_num(x: f64) -> String {
    // Non-finite values never reach a passing run (see `main`).
    if x.is_finite() {
        format!("{x}")
    } else {
        "-1".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload batch|serve|faults|fleet|all --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(
        std::env::var("PERFBENCH_OUT").unwrap_or_else(|_| ".bench_build/perfbench-out".to_string()),
    );
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = stamp::render(nproc);
    let _ = std::fs::write(out.join("stamp.json"), &stamp);
    println!("config {stamp}");

    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|(w, _)| *w).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut misses) = (0u64, 0u64, Vec::new());
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for name in &names {
        let why = WORKLOADS.iter().find(|(w, _)| w == name).expect("known").1;
        println!(
            "workload {name} (seed {}, {} s): {why}",
            args.seed, args.seconds
        );
        let (res, traces) = measure(name, &args, &out, nproc);
        for (w, spans) in traces {
            let (lines, table) = trace::render(&spans);
            let base = format!("{name}-seed{}-{w}", args.seed);
            let _ = std::fs::write(out.join(format!("trace-{base}.jsonl")), lines);
            let _ = std::fs::write(out.join(format!("selftime-{base}.txt")), &table);
            println!("self time, {w} pass:\n{table}");
        }
        let prefix = |m: &str| {
            if names.len() > 1 {
                format!("{name}/{m}")
            } else {
                m.to_string()
            }
        };
        if args.trace {
            for (m, unit, moves) in LAYERS {
                let v = res.layers.iter().find(|(k, _)| *k == m).map(|&(_, v)| v);
                let v = v.unwrap_or_else(|| {
                    misses.push(format!("per-layer metric {m} was not measured"));
                    f64::NAN
                });
                println!("  {m:<28} {v:>14.4} {unit:<6} -> {moves}");
                metrics.push((prefix(m), v, unit));
            }
        } else {
            for (m, unit, gated) in E2E {
                let v = res.e2e.iter().find(|(k, _)| *k == m).map(|&(_, v)| v);
                let Some(v) = v.or(gated.then_some(f64::NAN)) else {
                    continue;
                };
                let note = if gated { "" } else { "  (printed only)" };
                println!("  {m:<22} {v:>14.4} {unit}{note}");
                if gated {
                    metrics.push((prefix(m), v, unit));
                }
            }
        }
        println!(
            "  fail_ratio {}/{} (failed/attempted)",
            res.failed, res.attempted
        );
        attempted += res.attempted;
        failed += res.failed;
        misses.extend(res.misses);
    }
    for (m, v, _) in &metrics {
        if !v.is_finite() {
            misses.push(format!("metric {m} is not a finite number"));
        }
    }
    for m in &misses {
        println!("GATE MISS: {m}");
    }
    let correct = misses.is_empty() && failed == 0 && attempted > 0;
    let mut body = String::new();
    for (i, (m, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{m}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*v)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
