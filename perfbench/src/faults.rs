//! `faults`: transport rounds under seeded fault plans, in process, one
//! closed-loop caller; each call is one `sample_transport_rounds` at
//! [`CALL_WORKERS`] workers. No socket is opened.

use std::time::Instant;

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use dqma::chain::ChainCheat;
use dqma::net::{sample_transport_rounds, ChainNetProgram, TreeNetProgram};
use dqma::service::InstanceSpec;
use dqma::trials::{BlockOutcomes, OutcomeReport};
use dqma::{EqPathProtocol, EqTreeProtocol};
use netsim::{topology, FaultPlan, RetryPolicy};

use crate::gen;
use crate::run::{self, Ctx, Outcome, CALL_WORKERS, SETUP_REPS};

/// A compiled per-node program of either shape.
pub enum Program {
    Chain(ChainNetProgram),
    Tree(TreeNetProgram),
}

impl Program {
    /// Compiles an honest EQ-path or spider instance into its program.
    pub fn compile(spec: &InstanceSpec) -> Program {
        let bs = BitString::from_u64;
        match *spec {
            InstanceSpec::EqPath {
                r,
                bits,
                x,
                y,
                scheme_seed,
                reps,
                ..
            } => {
                let p = EqPathProtocol::with_scheme(
                    r,
                    FingerprintScheme::small(bits, scheme_seed),
                    reps,
                );
                Program::Chain(p.net_program(&bs(x, bits), &bs(y, bits), ChainCheat::Interpolate))
            }
            InstanceSpec::EqTree {
                arms,
                arm_len,
                bits,
                x,
                y,
                scheme_seed,
                reps,
            } => {
                let g = topology::spider(arms, arm_len);
                let terminals: Vec<usize> = (0..arms)
                    .map(|k| topology::spider_leaf(k, arm_len))
                    .collect();
                let p = EqTreeProtocol::with_scheme(
                    &g,
                    &terminals,
                    FingerprintScheme::small(bits, scheme_seed),
                    reps,
                );
                let mut inputs = vec![bs(x, bits); arms];
                inputs[arms - 1] = bs(y, bits);
                Program::Tree(p.net_program(&inputs, &p.uniform_proof(&bs(x, bits))))
            }
            InstanceSpec::Relay { .. } => unreachable!("faults runs no relay program"),
        }
    }

    pub fn sample(&self, plan: &FaultPlan, n: u64, seed: u64, workers: usize) -> OutcomeReport {
        let policy = RetryPolicy::default();
        match self {
            Program::Chain(p) => sample_transport_rounds(p, plan, &policy, n, seed, workers),
            Program::Tree(p) => sample_transport_rounds(p, plan, &policy, n, seed, workers),
        }
    }
}

pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let tracer = ctx.tracer;
    let instances = gen::faults_instances(ctx.seed);
    let plans = gen::fault_plans();
    let mut out = Outcome::default();

    // Setup: compile the programs several times before the window and once
    // more after each deck inside it, as in `batch`.
    let mut setups = Vec::new();
    let compile = |setups: &mut Vec<f64>| -> Vec<Program> {
        let t = Instant::now();
        let programs = instances.iter().map(|(_, s)| Program::compile(s)).collect();
        let e = Instant::now();
        tracer.span("plan.compile_programs", None, 0, t, e);
        setups.push((e - t).as_secs_f64());
        programs
    };
    let mut programs = Vec::new();
    for _ in 0..SETUP_REPS {
        programs = compile(&mut setups);
    }
    let cases = gen::faults_cases();
    let deck: Vec<usize> = cases.iter().map(|c| c.calls).collect();
    let deck_len: usize = deck.iter().sum();

    let mut ops = Vec::new();
    let mut total = BlockOutcomes::default();
    let mut firsts: Vec<Option<(u64, BlockOutcomes)>> = vec![None; cases.len()];
    let t0 = Instant::now();
    let calls = gen::deck_order(ctx.seed, "faults", &deck).zip(gen::call_seeds(ctx.seed, "faults"));
    for (req, (c, seed)) in calls.enumerate() {
        if run::closed_loop_done(ctx, t0, ops.len()) {
            break;
        }
        if !ops.is_empty() && ops.len() % deck_len == 0 {
            std::hint::black_box(compile(&mut setups));
        }
        let (p, f) = (cases[c].program, cases[c].plan);
        let t = Instant::now();
        let rep = programs[p].sample(&plans[f].1, cases[c].trials, seed, CALL_WORKERS);
        let e = Instant::now();
        tracer.span("transport.call", None, req as u64, t, e);
        ops.push(((e - t).as_secs_f64() * 1e3, rep.trials, c));
        total.merge(&rep.outcomes);
        if rep.outcomes.rejects != 0 {
            out.miss(format!(
                "faults {} under {}: {} honest rounds rejected (seed {seed})",
                instances[p].0, plans[f].0, rep.outcomes.rejects
            ));
        }
        firsts[c].get_or_insert((seed, rep.outcomes));
    }
    out.attempted = ops.len() as u64;
    run::closed_loop_metrics(&mut out, &ops, deck_len, &setups, run::own_peak_rss_kb());

    // Gate: each case's first call, re-run at `nproc` workers, is
    // bit-identical.
    for (c, first) in firsts.iter().enumerate() {
        let Some((seed, outcomes)) = first else {
            continue;
        };
        let (p, f) = (cases[c].program, cases[c].plan);
        let t = Instant::now();
        let wide = programs[p].sample(&plans[f].1, cases[c].trials, *seed, ctx.nproc);
        tracer.span("transport.call_wide", None, c as u64, t, Instant::now());
        if wide.outcomes != *outcomes {
            out.miss(format!(
                "faults {} under {}: {:?} at {CALL_WORKERS} worker(s) but {:?} at {} (seed {seed})",
                instances[p].0, plans[f].0, outcomes, wide.outcomes, ctx.nproc
            ));
        }
    }

    if tracer.is_on() {
        let rounds: u64 = ops.iter().map(|o| o.1).sum();
        let call_ms: f64 = ops.iter().map(|o| o.0).sum();
        let per = |x: u64| x as f64 / rounds.max(1) as f64;
        out.layers.extend([
            (
                "transport.ns_per_round",
                call_ms * 1e6 / rounds.max(1) as f64,
            ),
            ("transport.msgs_per_round", per(total.messages)),
            ("transport.retries_per_round", per(total.retries)),
            (
                "transport.useful_msg_ratio",
                (total.messages - total.retries) as f64 / total.messages.max(1) as f64,
            ),
        ]);
    }
    out
}
