//! `serve`: open-loop Poisson job arrivals against a real `dqma-server`
//! (`--workers nproc`, journal on) over loopback HTTP, at a ladder of fixed
//! rates. Completion is seen by polling `GET /v1/jobs/<id>` at a fixed
//! interval.

use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dqma::service::{CompiledPlan, JobStatus, Service, ServiceConfig};
use dqma::trials::{run_trials_with_workers, BLOCK_TRIALS};

use crate::gen::{self, JobClass, ServeJob};
use crate::http::{self, HttpClient, Server};
use crate::loadgen::{self, JobEnd, JobResult, Rung, Settings};
use crate::run::{self, Ctx, Outcome};
use crate::stats;
use crate::trace::Tracer;

/// The reference offered rate, jobs per second: light load, a tenth or
/// less of what a 2-vCPU host serves, so that a slowed host still keeps up.
pub const REF_RATE: f64 = 100.0;
/// Rungs of the rate ladder above the reference: `2 · REF_RATE · √2^i`,
/// up to 2263/s.
pub const RUNGS: usize = 8;
/// Shortest measured stretch of a rung above the reference.
pub const RUNG_SECS: f64 = 2.0;
/// The p99 latency limit a rung must meet.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Status poll interval of the generator.
pub const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Jobs per rung: enough for a p99 with ten samples beyond it.
pub const MIN_JOBS: usize = 1000;
/// Server spawns whose median is `setup_s`.
const SPAWNS: usize = 5;

pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx.out.join(format!("serve-{}", std::process::id()));
    let result = serve(ctx, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        out.attempted += 1;
        out.miss(format!("serve: {e}"));
    }
    out
}

/// Everything one rung produced.
struct RungRun {
    jobs: Vec<ServeJob>,
    results: Vec<JobResult>,
    t0: Instant,
}

fn serve(ctx: &Ctx<'_>, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let tracer = ctx.tracer;
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SPAWNS {
        let s = Server::spawn(&dir.join(format!("spawn{k}")), ctx.nproc)?;
        setups.push(s.startup.as_secs_f64());
        let now = Instant::now();
        tracer.span("server.spawn", None, k as u64, now - s.startup, now);
        if let Some(old) = server.replace(s) {
            old.stop();
        }
    }
    let server = server.expect("spawned");
    let rss0 = http::proc_kb(server.pid(), "VmRSS").unwrap_or(0);

    // The ladder, or the reference rate alone when the end-to-end metrics
    // are not reported. Each rung sends enough jobs for its p99; the
    // reference rung gets half the window, and a rung above it at least
    // `RUNG_SECS`.
    let above = if ctx.e2e { RUNGS } else { 0 };
    let rates: Vec<f64> = std::iter::once(REF_RATE)
        .chain((0..above).map(|i| 2.0 * REF_RATE * 2f64.sqrt().powi(i as i32)))
        .collect();
    let jobs_at = |i: usize, rate: f64| {
        let secs = if i == 0 { ctx.seconds / 2.0 } else { RUNG_SECS };
        MIN_JOBS.max((rate * secs) as usize)
    };
    let settings = Settings {
        poll_interval: POLL_INTERVAL,
        give_up: Duration::from_secs(60),
    };
    let mut rungs = Vec::new();
    let mut runs = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let jobs = gen::serve_schedule(ctx.seed, i, rate, jobs_at(i, rate));
        let plan: Vec<(Duration, String)> = jobs
            .iter()
            .map(|j| (Duration::from_secs_f64(j.at), j.spec.to_json()))
            .collect();
        let clients = (0..ctx.nproc)
            .map(|_| HttpClient {
                addr: server.addr.clone(),
            })
            .collect();
        let t0 = Instant::now();
        let results = loadgen::run(&plan, clients, settings);
        let latencies: Vec<f64> = results.iter().map(JobResult::latency_ms).collect();
        let p99 = stats::percentile(&latencies, 99.0).ok_or("too few jobs for a p99")?;
        let last = results.last().map_or(Duration::ZERO, |r| r.scheduled);
        let backlog = loadgen::outstanding_at(&results, last);
        let ok = results.iter().all(|r| r.end.is_ok());
        let pass = ok && p99 <= P99_LIMIT_MS && loadgen::backlog_ok(backlog, rate, P99_LIMIT_MS);
        println!(
            "  rung {rate:>6.0}/s: {} jobs, p50 {:.3} ms, p99 {p99:.3} ms, {backlog} in flight at the last send, {}",
            results.len(),
            stats::median(&latencies),
            if pass { "pass" } else { "fail" }
        );
        let ended = results
            .iter()
            .map(|r| r.ended)
            .max()
            .unwrap_or(Duration::ZERO);
        let done = results.iter().filter(|r| r.end.is_ok()).count();
        rungs.push(Rung {
            achieved: done as f64 / ended.as_secs_f64(),
            p99_ms: p99,
            pass,
        });
        runs.push(RungRun { jobs, results, t0 });
        if !pass {
            break;
        }
    }
    println!(
        "  poll interval {} ms, p99 limit {P99_LIMIT_MS} ms",
        POLL_INTERVAL.as_secs_f64() * 1e3
    );

    // Server-side accounting, then stop the server.
    let (_, health) = server
        .get("/v1/healthz")
        .map_err(|e| format!("healthz: {e}"))?;
    let stat = |k: &str| http::num(&health, k).unwrap_or(u64::MAX);
    let hwm = http::proc_kb(server.pid(), "VmHWM").unwrap_or(0);
    let journal = std::fs::metadata(&server.journal).map_or(0, |m| m.len());
    server.stop();

    let all: Vec<(&ServeJob, &JobResult)> = runs
        .iter()
        .flat_map(|r| r.jobs.iter().zip(&r.results))
        .collect();
    out.attempted = all.len() as u64;
    let admitted = all.iter().filter(|(_, r)| r.id.is_some()).count() as u64;
    let live = all
        .iter()
        .filter(|(_, r)| r.id.is_some() && matches!(r.end, JobEnd::Error(_)))
        .count() as u64;
    let (submitted, completed, partial, failed) = (
        stat("submitted"),
        stat("completed"),
        stat("partial"),
        stat("failed"),
    );
    if submitted != completed + partial + failed + live || submitted != admitted {
        out.miss(format!(
            "serve accounting: healthz {health} against {admitted} admitted, {live} live"
        ));
    }
    check_answers(&all, ctx.nproc, out);

    // End-to-end metrics: latency at the reference rate, and the ladder.
    let reference = &runs[0];
    let latencies: Vec<f64> = reference
        .results
        .iter()
        .map(JobResult::latency_ms)
        .collect();
    let p50 = stats::median(&latencies);
    let trials: u64 = reference
        .jobs
        .iter()
        .zip(&reference.results)
        .filter(|(_, r)| r.end.is_ok())
        .map(|(j, _)| j.spec.trials)
        .sum();
    let span = reference
        .results
        .iter()
        .map(|r| r.ended)
        .max()
        .unwrap_or(Duration::ZERO)
        .as_secs_f64();
    out.e2e = vec![
        ("rounds_per_s", trials as f64 / span),
        (
            "latency_p5_ms",
            stats::low_percentile(&latencies, run::FAST_PERCENTILE),
        ),
        ("latency_p50_ms", p50),
        ("latency_p99_ms", rungs[0].p99_ms),
        (
            "max_rate_jobs_per_s",
            loadgen::max_rate(&rungs, P99_LIMIT_MS),
        ),
        ("setup_s", stats::median(&setups)),
        ("peak_rss_mb", hwm as f64 / 1024.0),
    ];
    out.headline = (p50, false);

    if tracer.is_on() {
        record_spans(tracer, reference);
        let res = &reference.results;
        let oks: Vec<&JobResult> = res.iter().filter(|r| r.end.is_ok()).collect();
        let posts: Vec<f64> = res.iter().map(|r| r.post.as_secs_f64() * 1e3).collect();
        let gets: Vec<f64> = res
            .iter()
            .flat_map(|r| r.gets.iter().map(|g| g.1.as_secs_f64() * 1e3))
            .collect();
        let lags: Vec<f64> = res.iter().map(JobResult::lag_ms).collect();
        let blocks: u64 = all.iter().map(|(j, _)| j.spec.trials / BLOCK_TRIALS).sum();
        out.layers.extend([
            ("http.post_ms", stats::median(&posts)),
            ("http.get_ms", stats::median(&gets)),
            (
                "http.polls_per_job",
                oks.iter().map(|r| f64::from(r.polls)).sum::<f64>() / oks.len().max(1) as f64,
            ),
            (
                "journal.bytes_per_job",
                journal as f64 / submitted.max(1) as f64,
            ),
            (
                "server.rss_kb_per_job",
                hwm.saturating_sub(rss0) as f64 / submitted.max(1) as f64,
            ),
            (
                "service.memo_hit_ratio",
                stat("memo_hits") as f64 / blocks.max(1) as f64,
            ),
            (
                "service.shed_ratio",
                stat("shed") as f64 / (submitted + stat("shed")).max(1) as f64,
            ),
            (
                "loadgen.lag_ms_p99",
                stats::percentile(&lags, 99.0).unwrap_or(f64::NAN),
            ),
        ]);
        replay_in_process(ctx, dir, &reference.jobs, out)?;
    }
    Ok(())
}

/// Gate: every job completed in full, and every answer equals in-process
/// `run_trials` on the same `(instance, trials, seed)`.
fn check_answers(all: &[(&ServeJob, &JobResult)], nproc: usize, out: &mut Outcome) {
    let mut plans: HashMap<u64, CompiledPlan> = HashMap::new();
    let mut answers: HashMap<(u64, u64, u64), u64> = HashMap::new();
    for (job, res) in all {
        let (accepts, completed) = match &res.end {
            JobEnd::Done {
                accepts,
                completed,
                partial: false,
            } => (*accepts, *completed),
            other => {
                out.failed += 1;
                if out.misses.len() < 20 {
                    out.misses.push(format!("serve job ended {other:?}"));
                }
                continue;
            }
        };
        let spec = &job.spec;
        let key = spec.instance.key();
        let plan = plans.entry(key).or_insert_with(|| spec.instance.compile());
        let want = *answers
            .entry((key, spec.seed, spec.trials))
            .or_insert_with(|| {
                run_trials_with_workers(plan, spec.trials, spec.seed, nproc).accepts
            });
        if accepts != want || completed != spec.trials {
            out.miss(format!(
                "serve job {:?}: {accepts} accepts over {completed}, in process {want} over {}",
                res.id, spec.trials
            ));
        }
    }
}

/// The generator's timings as spans: one `serve.job` per job (scheduled to
/// terminal poll), with its `http.post` and `http.get` children.
fn record_spans(tracer: &Tracer, run: &RungRun) {
    for (i, r) in run.results.iter().enumerate() {
        let at = |d: Duration| run.t0 + d;
        let job = tracer.id();
        let req = i as u64;
        tracer.span("http.post", Some(job), req, at(r.sent), at(r.sent + r.post));
        for &(start, dur) in &r.gets {
            tracer.span("http.get", Some(job), req, at(start), at(start + dur));
        }
        tracer.record(job, "serve.job", None, req, at(r.scheduled), at(r.ended));
    }
}

/// An in-process `Service::submit` / `wait` replay of the reference
/// schedule: where a job's time goes inside the service.
fn replay_in_process(
    ctx: &Ctx<'_>,
    dir: &Path,
    jobs: &[ServeJob],
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer = ctx.tracer;
    let _ = std::fs::create_dir_all(dir);
    let cfg = ServiceConfig {
        workers: ctx.nproc,
        queue_capacity: 8192,
        journal: Some(dir.join("replay-journal")),
        ..ServiceConfig::default()
    };
    let svc = Service::start(cfg).map_err(|e| format!("in-process service: {e}"))?;
    let (tx, rx) = mpsc::channel::<(usize, u64, Instant)>();
    let t0 = Instant::now();
    let mut submit_us = Vec::new();
    let mut waits: Vec<(usize, f64, f64)> = Vec::new();
    std::thread::scope(|s| {
        let svc = &svc;
        let waiter = s.spawn(move || {
            let mut w = Vec::new();
            for (i, id, submitted) in rx {
                let status = svc.wait(id, Duration::from_secs(60));
                let done = Instant::now();
                tracer.span("service.wait", None, i as u64, submitted, done);
                if let Some(JobStatus::Done(rep)) = status {
                    let wait_ms = (done - submitted).as_secs_f64() * 1e3;
                    w.push((i, wait_ms, rep.elapsed.as_secs_f64() * 1e3));
                }
            }
            w
        });
        for (i, job) in jobs.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(job.at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            let id = svc.submit(job.spec.clone());
            let e = Instant::now();
            tracer.span("service.submit", None, i as u64, t, e);
            submit_us.push((e - t).as_secs_f64() * 1e6);
            match id {
                Ok(id) => tx.send((i, id, e)).expect("waiter is alive"),
                Err(err) => out.miss(format!("in-process submit refused: {err:?}")),
            }
        }
        drop(tx);
        waits = waiter.join().expect("waiter panicked");
    });
    svc.shutdown();
    if waits.len() != jobs.len() {
        out.miss(format!(
            "in-process replay: {} of {} jobs done",
            waits.len(),
            jobs.len()
        ));
    }
    let class_ms = |c: JobClass| -> Vec<f64> {
        waits
            .iter()
            .filter(|(i, ..)| jobs[*i].class == c)
            .map(|w| w.2)
            .collect()
    };
    let queue: Vec<f64> = waits.iter().map(|(_, w, e)| (w - e).max(0.0)).collect();
    out.layers.extend([
        ("service.submit_us", stats::median(&submit_us)),
        ("service.queue_wait_ms", stats::median(&queue)),
        (
            "service.sample_ms_short",
            stats::median(&class_ms(JobClass::Short)),
        ),
        (
            "service.sample_ms_long",
            stats::median(&class_ms(JobClass::Long)),
        ),
    ]);
    Ok(())
}
