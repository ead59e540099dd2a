//! `batch`: offline estimation, in process, one closed-loop caller. Each
//! call compiles nothing new: the family is compiled in setup, and every
//! call is one `run_trials_with_workers` at [`CALL_WORKERS`] workers.

use std::time::Instant;

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use commproto::OneWayProtocol;
use dqma::chain::{cheating_proof, ChainCheat, SwapTestChain};
use dqma::service::{CompiledPlan, InstanceSpec};
use dqma::trials::{run_trials_with_workers, BatchSampler, BlockRng, BLOCK_TRIALS};
use dqma::{EqPathProtocol, EqTreeProtocol, RelayEqProtocol};
use netsim::topology;
use qsim::swap_test::swap_test_acceptance_pure;
use qsim::PureState;

use crate::gen;
use crate::run::{self, Ctx, Outcome, CALL_WORKERS, SETUP_REPS};
use crate::stats;
use crate::trace::Tracer;

/// Confidence of the per-instance Hoeffding gate.
const DELTA: f64 = 1e-9;

/// A sampler whose blocks are recorded as spans under one parent.
pub struct Traced<'a, S> {
    pub inner: &'a S,
    pub tracer: &'a Tracer,
    pub parent: u64,
    pub request: u64,
}

impl<S: BatchSampler> BatchSampler for Traced<'_, S> {
    type Scratch = S::Scratch;

    fn scratch(&self) -> S::Scratch {
        self.inner.scratch()
    }

    fn sample_block(&self, trials: u64, scratch: &mut S::Scratch, stream: &BlockRng) -> u64 {
        let t0 = Instant::now();
        let a = self.inner.sample_block(trials, scratch, stream);
        self.tracer.span(
            "kernel.sample_block",
            Some(self.parent),
            self.request,
            t0,
            Instant::now(),
        );
        a
    }
}

/// The exact single-round acceptance of an instance, where it can be
/// computed: EQ-path with either prover, and the honest relay and spider
/// instances.
pub fn exact_acceptance(spec: &InstanceSpec) -> Option<f64> {
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
            let p =
                EqPathProtocol::with_scheme(r, FingerprintScheme::small(bits, scheme_seed), reps);
            let (x, y) = (bs(x, bits), bs(y, bits));
            let chain = p.chain(&x, &y);
            let proof = cheating_proof(
                &chain,
                &p.one_way().alice_message(&y),
                ChainCheat::Interpolate,
            );
            Some(chain_acceptance(&chain, &proof))
        }
        InstanceSpec::Relay {
            r,
            bits,
            x,
            y,
            seed,
            ..
        } if x == y => Some(RelayEqProtocol::new(bits, r, seed).completeness(&bs(x, bits))),
        InstanceSpec::EqTree {
            arms,
            arm_len,
            bits,
            x,
            y,
            scheme_seed,
            reps,
        } if x == y => {
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
            Some(p.completeness(&bs(x, bits)))
        }
        _ => None,
    }
}

/// Acceptance of a SWAP-test chain with a separable proof, averaged over
/// the 2^k symmetrisation patterns in O(k): the state after node `j` is
/// which of its two registers it forwarded, so the average is a product of
/// 2×2 transfer steps. Node `j` keeps `b_j` and forwards `a_j` when its
/// coin is 1, and the reverse when it is 0; the right end measures the last
/// forwarded register.
pub fn chain_acceptance(chain: &SwapTestChain, proof: &[(PureState, PureState)]) -> f64 {
    let boundary = |s: &PureState| {
        chain
            .right_effect()
            .quadratic_form(s.amplitudes())
            .re
            .clamp(0.0, 1.0)
    };
    let Some((a0, b0)) = proof.first() else {
        return boundary(chain.left_state());
    };
    let left = chain.left_state();
    // weight[c]: total weight of the patterns so far whose last coin is c.
    let mut weight = [
        0.5 * swap_test_acceptance_pure(left, a0),
        0.5 * swap_test_acceptance_pure(left, b0),
    ];
    for pair in proof.windows(2) {
        let ((pa, pb), (a, b)) = (&pair[0], &pair[1]);
        // Coin 0 kept `pa` and forwarded `pb`; coin 1 the reverse.
        let sent = [pb, pa];
        let mut next = [0.0; 2];
        for (c, kept) in [a, b].into_iter().enumerate() {
            next[c] = 0.5
                * (weight[0] * swap_test_acceptance_pure(sent[0], kept)
                    + weight[1] * swap_test_acceptance_pure(sent[1], kept));
        }
        weight = next;
    }
    let (a, b) = proof.last().expect("non-empty");
    (weight[0] * boundary(b) + weight[1] * boundary(a)).clamp(0.0, 1.0)
}

pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let tracer = ctx.tracer;
    let family = gen::batch_family(ctx.seed);
    let mut out = Outcome::default();

    // Setup: compile the whole family, several times before the window and
    // once more after each deck inside it, so that `setup_s` meets the host
    // as the calls do. The calls' latencies leave these compiles out.
    let mut setups = Vec::new();
    let mut compile_ms = Vec::new();
    let mut compile = |setups: &mut Vec<f64>| -> Vec<CompiledPlan> {
        let t = Instant::now();
        let plans = family
            .iter()
            .map(|it| {
                let t1 = Instant::now();
                let p = it.spec.compile();
                let t2 = Instant::now();
                tracer.span("plan.compile", None, 0, t1, t2);
                compile_ms.push((t2 - t1).as_secs_f64() * 1e3);
                p
            })
            .collect();
        setups.push(t.elapsed().as_secs_f64());
        plans
    };
    let mut plans = Vec::new();
    for _ in 0..SETUP_REPS {
        plans = compile(&mut setups);
    }
    let deck = family.iter().map(|it| it.calls).sum();

    // The measured window: calls until the time is up.
    let mut tally = vec![(0u64, 0u64); family.len()];
    let mut firsts: Vec<Option<(u64, u64)>> = vec![None; family.len()];
    let mut ops = Vec::new();
    let t0 = Instant::now();
    for (req, (i, seed)) in gen::batch_calls(ctx.seed, &family).enumerate() {
        if run::closed_loop_done(ctx, t0, ops.len()) {
            break;
        }
        if !ops.is_empty() && ops.len() % deck == 0 {
            std::hint::black_box(compile(&mut setups));
        }
        let n = family[i].trials;
        let t = Instant::now();
        let report = if tracer.is_on() {
            let id = tracer.id();
            let traced = Traced {
                inner: &plans[i],
                tracer,
                parent: id,
                request: req as u64,
            };
            let r = run_trials_with_workers(&traced, n, seed, CALL_WORKERS);
            tracer.record(id, "trials.call", None, req as u64, t, Instant::now());
            r
        } else {
            run_trials_with_workers(&plans[i], n, seed, CALL_WORKERS)
        };
        ops.push((t.elapsed().as_secs_f64() * 1e3, report.trials, i));
        tally[i].0 += report.accepts;
        tally[i].1 += report.trials;
        firsts[i].get_or_insert((seed, report.accepts));
    }
    out.attempted = ops.len() as u64;
    run::closed_loop_metrics(&mut out, &ops, deck, &setups, run::own_peak_rss_kb());

    // Gate: each item's first call, re-run at `nproc` workers, accepts the
    // same rounds.
    for (i, first) in firsts.iter().enumerate() {
        let Some((seed, accepts)) = *first else {
            continue;
        };
        let wide = run_trials_with_workers(&plans[i], family[i].trials, seed, ctx.nproc);
        if wide.accepts != accepts {
            out.miss(format!(
                "batch {}: accepts {accepts} at {CALL_WORKERS} worker(s) but {} at {} (seed {seed})",
                family[i].label, wide.accepts, ctx.nproc
            ));
        }
    }

    // Gate: every sampled rate within the Hoeffding radius of the exact one.
    for (it, &(accepts, trials)) in family.iter().zip(&tally) {
        let Some(exact) = exact_acceptance(&it.spec) else {
            continue;
        };
        if trials == 0 {
            continue;
        }
        let rate = accepts as f64 / trials as f64;
        let radius = stats::hoeffding_radius(trials, DELTA);
        if (rate - exact).abs() > radius + 1e-12 {
            out.miss(format!(
                "batch {}: sampled {rate:.6} over {trials} trials, exact {exact:.6}, radius {radius:.6}",
                it.label
            ));
        }
    }

    if tracer.is_on() {
        layer_probes(ctx, &plans[0], &mut out);
        out.layers
            .push(("plan.compile_ms", stats::median(&compile_ms)));
    }
    out
}

/// Kernel and trial-driver probes on the reference plan; also the gate that
/// accept counts at `nproc` workers equal those at one worker.
fn layer_probes(ctx: &Ctx<'_>, reference: &CompiledPlan, out: &mut Outcome) {
    let tracer = ctx.tracer;
    let walk = gen::walk_instance(ctx.seed).compile();
    let block_ns = |plan: &CompiledPlan, name: &'static str, blocks: u64| -> f64 {
        let per: Vec<f64> = (0..blocks)
            .map(|b| {
                let t = Instant::now();
                let a = plan.sample_block(BLOCK_TRIALS, &mut (), &BlockRng::new(ctx.seed, b));
                let e = Instant::now();
                std::hint::black_box(a);
                tracer.span(name, None, b, t, e);
                (e - t).as_nanos() as f64 / BLOCK_TRIALS as f64
            })
            .collect();
        stats::median(&per)
    };
    out.layers.push((
        "kernel.lane_ns_per_round",
        block_ns(reference, "kernel.lane_block", 64),
    ));
    out.layers.push((
        "kernel.walk_ns_per_round",
        block_ns(&walk, "kernel.walk_block", 16),
    ));

    let n = 16 * BLOCK_TRIALS;
    let (mut t1, mut tn, mut w1_ids) = (Vec::new(), Vec::new(), Vec::new());
    for (rep, seed) in gen::call_seeds(ctx.seed, "trials.probe")
        .take(12)
        .enumerate()
    {
        let mut accepts = Vec::new();
        for workers in [1, ctx.nproc] {
            let id = tracer.id();
            let traced = Traced {
                inner: reference,
                tracer,
                parent: id,
                request: rep as u64,
            };
            let t = Instant::now();
            let r = run_trials_with_workers(&traced, n, seed, workers);
            let e = Instant::now();
            let name = if workers == 1 {
                "trials.run_w1"
            } else {
                "trials.run_wn"
            };
            tracer.record(id, name, None, rep as u64, t, e);
            let secs = (e - t).as_secs_f64();
            if workers == 1 {
                t1.push(secs);
                w1_ids.push(id);
            } else {
                tn.push(secs);
            }
            accepts.push(r.accepts);
        }
        if accepts[0] != accepts[1] {
            out.miss(format!(
                "batch: accepts {} at 1 worker but {} at {} (seed {seed})",
                accepts[0], accepts[1], ctx.nproc
            ));
        }
    }
    let block_secs: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_some_and(|p| w1_ids.contains(&p)))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    out.layers.push((
        "trials.parallel_efficiency",
        stats::median(&t1) / (ctx.nproc as f64 * stats::median(&tn)),
    ));
    out.layers.push((
        "trials.driver_overhead",
        t1.iter().sum::<f64>() / block_secs,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_acceptance_matches_the_pattern_sum() {
        for (r, seed) in [(2, 1), (5, 2), (9, 3), (12, 4)] {
            let p = EqPathProtocol::with_scheme(r, FingerprintScheme::small(6, seed), 1);
            let (x, y) = (
                BitString::from_u64(0b101101, 6),
                BitString::from_u64(0b011100, 6),
            );
            let chain = p.chain(&x, &y);
            for cheat in [
                ChainCheat::Interpolate,
                ChainCheat::AllLeft,
                ChainCheat::AllRight,
            ] {
                let proof = cheating_proof(&chain, &p.one_way().alice_message(&y), cheat);
                let dp = chain_acceptance(&chain, &proof);
                let sum = chain.acceptance_separable(&proof);
                assert!((dp - sum).abs() < 1e-12, "r {r} {cheat:?}: {dp} vs {sum}");
            }
            assert!(
                (chain_acceptance(&chain, &chain.honest_proof()) - chain.completeness()).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn every_batch_instance_has_an_exact_acceptance() {
        for it in gen::batch_family(1) {
            let p = exact_acceptance(&it.spec).expect("exact acceptance");
            assert!((0.0..=1.0).contains(&p), "{}: {p}", it.label);
        }
    }
}
