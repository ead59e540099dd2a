//! `fleet`: batches of the reference EQ-path r = 32 instance on a
//! 33-process `dqma-node` TCP fleet, no churn, one closed-loop caller.

use std::time::Instant;

use dqma::cluster::{ChurnSchedule, Cluster, ClusterConfig, ClusterReport, ProgramSpec};
use dqma::net::{sample_transport_rounds, ChainNetProgram};
use netsim::FaultPlan;

use crate::faults::Program;
use crate::gen;
use crate::run::{self, Ctx, Outcome};
use crate::stats;

/// Trials per call: one batch, small enough for a thousand calls per run.
const CALL_TRIALS: u64 = 8;

/// Fleet launches whose median is `setup_s` (each spawns 33 processes).
const LAUNCHES: usize = 5;

pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let tracer = ctx.tracer;
    let mut out = Outcome::default();
    let Program::Chain(program) = Program::compile(&gen::fleet_instance(ctx.seed)) else {
        unreachable!("the fleet instance is an EQ path");
    };
    let cfg = ClusterConfig::default();

    let mut setups = Vec::new();
    let mut cluster = None;
    for rep in 0..LAUNCHES {
        let t = Instant::now();
        let launched = Cluster::launch(ProgramSpec::from_chain(&program), cfg.clone());
        let e = Instant::now();
        tracer.span("cluster.launch", None, rep as u64, t, e);
        match launched {
            Ok(c) => {
                setups.push((e - t).as_secs_f64());
                if let Some(mut old) = cluster.replace(c) {
                    old.shutdown();
                }
            }
            Err(err) => {
                out.miss(format!("fleet launch failed: {err}"));
                return out;
            }
        }
    }
    let mut cluster: Cluster = cluster.expect("launched");
    // Warm-up, untimed: connections between the nodes open on first use.
    if let Err(e) = cluster.run(CALL_TRIALS, 0, &ChurnSchedule::none()) {
        out.miss(format!("fleet warm-up failed: {e}"));
        return out;
    }

    let mut ops = Vec::new();
    let mut runs: Vec<(u64, ClusterReport)> = Vec::new();
    let t0 = Instant::now();
    for (req, seed) in gen::call_seeds(ctx.seed, "fleet").enumerate() {
        if run::closed_loop_done(ctx, t0, ops.len()) {
            break;
        }
        let t = Instant::now();
        let rep = cluster.run(CALL_TRIALS, seed, &ChurnSchedule::none());
        let e = Instant::now();
        tracer.span("cluster.run", None, req as u64, t, e);
        match rep {
            Ok(r) => {
                ops.push(((e - t).as_secs_f64() * 1e3, r.trials, 0));
                runs.push((seed, r));
            }
            Err(err) => {
                out.attempted += 1;
                out.miss(format!("fleet run failed: {err}"));
                break;
            }
        }
    }
    cluster.shutdown();
    out.attempted += ops.len() as u64;
    // Every call is alike: a deck of one.
    run::closed_loop_metrics(&mut out, &ops, 1, &setups, run::own_peak_rss_kb());

    // Gate: every batch bit-identical to the in-process transport sampler.
    for (seed, r) in &runs {
        gate(&program, &cfg, *seed, r, &mut out);
    }

    if tracer.is_on() {
        let msgs: u64 = runs.iter().map(|(_, r)| r.outcomes.messages).sum();
        let retries: u64 = runs.iter().map(|(_, r)| r.outcomes.retries).sum();
        let rounds: u64 = ops.iter().map(|o| o.1).sum();
        let busy: f64 = ops.iter().map(|o| o.0).sum::<f64>() * 1e3;
        out.layers.extend([
            ("tcp.us_per_msg", busy / msgs.max(1) as f64),
            (
                "tcp.retries_per_round",
                retries as f64 / rounds.max(1) as f64,
            ),
            ("cluster.launch_ms", stats::median(&setups) * 1e3),
        ]);
    }
    out
}

fn gate(
    program: &ChainNetProgram,
    cfg: &ClusterConfig,
    seed: u64,
    r: &ClusterReport,
    out: &mut Outcome,
) {
    let reference =
        sample_transport_rounds(program, &FaultPlan::none(), &cfg.policy, r.trials, seed, 1);
    let (f, s) = (&r.outcomes, &reference.outcomes);
    // Unique messages (`sent − retries`): a wall-clock retransmit under
    // host load is deduplicated and changes no decision or digest.
    let same = f.accepts == s.accepts
        && f.rejects == s.rejects
        && f.aborts == 0
        && f.messages - f.retries == s.messages - s.retries
        && f.digest == s.digest;
    if !same {
        out.miss(format!(
            "fleet seed {seed}: {f:?} differs from in-process {s:?}"
        ));
    }
}
