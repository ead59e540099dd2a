//! Differential check of the robust layer's virtual-deadline fast path.
//!
//! Over a transport whose deadlines are pure virtual-time filters
//! (`Transport::virtual_deadlines`), `robust_send` / `robust_recv` decide
//! most operations with one call and no jitter hash, and fall back to the
//! exact attempt loop only when the un-jittered bound cannot decide. This
//! suite runs every round twice: once over the per-worker transport of the
//! fault-sweep engine, and once over [`ExactLoop`], a wrapper that forwards
//! every call but reports no virtual deadlines, so every operation takes the
//! exact attempt loop. Over a seeded family of fault plans (drops, ack drops,
//! duplicates, latency with jitter, partitions, scheduled and seeded
//! crashes) and the three program shapes (chain, relay, tree), both runs
//! must agree bit for bit: the batched `BlockOutcomes` (digest included) at
//! one and two workers, and every per-trial outcome with its `FaultReport`
//! node, virtual time and cause.

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use dqma::chain::ChainCheat;
use dqma::eq_path::EqPathProtocol;
use dqma::eq_tree::EqTreeProtocol;
use dqma::net::{run_round, sample_rounds_over, sample_transport_rounds, RoundProgram};
use dqma::relay::RelayEqProtocol;
use dqma::trials::BLOCK_TRIALS;
use netsim::transport::{RecvOutcome, SendOutcome};
use netsim::{
    topology, CrashWindow, Envelope, FaultCause, FaultPlan, FaultyTransport, LocalChannelTransport,
    NodeId, PartitionWindow, RetryPolicy, RoundOutcome, Transport, VTime,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forwards every call to the wrapped transport but keeps the default
/// `virtual_deadlines() == false`, so the robust layer runs its exact
/// attempt loop on every send and receive.
struct ExactLoop<T>(T);

impl<T: Transport> Transport for ExactLoop<T> {
    fn send(&self, now: VTime, env: &Envelope, ack_deadline: VTime) -> SendOutcome {
        self.0.send(now, env, ack_deadline)
    }

    fn recv(&self, node: NodeId, deadline: VTime) -> RecvOutcome {
        self.0.recv(node, deadline)
    }

    fn begin_trial(&self, salt: u64) {
        self.0.begin_trial(salt)
    }

    fn node_down_until(&self, node: NodeId, now: VTime) -> Option<VTime> {
        self.0.node_down_until(node, now)
    }
}

fn local(nodes: usize, plan: &FaultPlan) -> FaultyTransport<LocalChannelTransport> {
    FaultyTransport::new(LocalChannelTransport::poll(nodes), plan.clone())
}

/// The policies under test: the default (jitter 0.25) and jitter 0, where
/// every jittered deadline equals its un-jittered bound.
fn policies() -> Vec<RetryPolicy> {
    vec![
        RetryPolicy::default(),
        RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        },
    ]
}

/// A seeded family of fault plans over a path-like program of `nodes`
/// nodes. Each kind draws its rates and windows from `seed`, so a new seed
/// gives a new family member of every kind.
fn plans(seed: u64, nodes: usize) -> Vec<(&'static str, FaultPlan)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rate = |lo: f64, hi: f64| lo + (hi - lo) * rng.random::<f64>();
    let drop = rate(0.1, 0.4);
    let ack_drop = rate(0.1, 0.5);
    let duplicate = rate(0.2, 0.6);
    let crash_rate = rate(0.05, 0.3);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut span = |lo: VTime, hi: VTime| rng.random_range(lo..hi);
    let mid = nodes / 2;
    vec![
        ("drop", FaultPlan::with_drop(drop)),
        (
            "ack_drop",
            FaultPlan {
                ack_drop_rate: ack_drop,
                ..FaultPlan::none()
            },
        ),
        (
            "duplicate",
            FaultPlan {
                duplicate_rate: duplicate,
                latency_base: span(0, 512),
                latency_jitter: span(256, 2048),
                ..FaultPlan::none()
            },
        ),
        // Acks land around the first timeout, so the send fast path meets
        // acks it must hand to the jittered deadline.
        (
            "latency_jitter",
            FaultPlan {
                latency_base: span(1200, 2200),
                latency_jitter: span(1000, 2500),
                ..FaultPlan::with_drop(drop / 2.0)
            },
        ),
        // Arrivals outrun a receiver's un-jittered budget down the path, so
        // the receive fast path misses and late nodes time out.
        (
            "long_latency",
            FaultPlan {
                latency_base: span(12_000, 30_000),
                latency_jitter: span(4_000, 20_000),
                ..FaultPlan::none()
            },
        ),
        (
            "partition",
            FaultPlan {
                partitions: vec![PartitionWindow {
                    start: 0,
                    end: span(2_000, 40_000),
                    edges: vec![(mid - 1, mid), (mid, mid + 1)],
                }],
                ..FaultPlan::with_drop(drop / 4.0)
            },
        ),
        (
            "scheduled_crash",
            FaultPlan {
                crashes: vec![
                    CrashWindow {
                        node: mid,
                        start: 0,
                        end: span(1_000, 30_000),
                    },
                    CrashWindow {
                        node: nodes - 1,
                        start: span(0, 60_000),
                        end: VTime::MAX,
                    },
                ],
                latency_base: span(0, 4_000),
                ..FaultPlan::none()
            },
        ),
        (
            "crash_restart",
            FaultPlan {
                crash_rate,
                crash_onset_window: span(0, 20_000),
                crash_restart_after: span(1_000, 40_000),
                latency_base: span(0, 1_000),
                latency_jitter: span(0, 3_000),
                ..FaultPlan::with_drop(drop / 2.0)
            },
        ),
    ]
}

/// The three program shapes: an EQ-path chain, a relay path and an EQ-tree
/// spider, each honest so every non-abort accepts.
fn programs() -> (
    dqma::net::ChainNetProgram,
    dqma::net::RelayNetProgram,
    dqma::net::TreeNetProgram,
) {
    let x = BitString::from_u64(11, 4);
    let chain = EqPathProtocol::with_scheme(7, FingerprintScheme::small(4, 7), 2).net_program(
        &x,
        &x,
        ChainCheat::Interpolate,
    );
    let relay = RelayEqProtocol::with_spacing(4, 8, 2, 3);
    let relays = vec![x.clone(); relay.relay_points().len()];
    let relay = relay.net_program(&x, &x, &relays, ChainCheat::AllLeft);
    let g = topology::spider(3, 2);
    let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 2)).collect();
    let tree = EqTreeProtocol::with_scheme(
        &g,
        &terminals,
        FingerprintScheme::with_parameters(4, 1, 1, 5),
        2,
    );
    let tree = tree.net_program(&vec![x.clone(); terminals.len()], &tree.uniform_proof(&x));
    (chain, relay, tree)
}

/// What one trial resolved to: the outcome kind, the `FaultReport`'s node,
/// virtual time and cause on an abort, and the round's statistics.
type TrialView = (u8, Option<(NodeId, VTime, FaultCause)>, u64, u64, u64);

fn view(outcome: RoundOutcome, stats: dqma::net::RoundStats) -> TrialView {
    let (kind, report) = match outcome {
        RoundOutcome::Accept => (0, None),
        RoundOutcome::Reject => (1, None),
        RoundOutcome::Aborted(r) => (2, Some((r.node, r.vtime, r.cause))),
    };
    (kind, report, stats.sent, stats.retries, stats.digest)
}

/// Tallies of which abort causes a family produced, so the suite can show
/// it reached every fallback.
#[derive(Default)]
struct Coverage {
    accepts: u64,
    retries_exhausted: u64,
    recv_timeouts: u64,
    crashed: u64,
}

fn check_program<P: RoundProgram>(name: &str, program: &P, seed: u64, cov: &mut Coverage) {
    let nodes = program.num_nodes();
    // Two blocks, the second short, so a two-worker run splits the work.
    let n = BLOCK_TRIALS + 613;
    for (kind, plan) in plans(seed, nodes) {
        for policy in policies() {
            let case = format!(
                "{name} under {kind} (seed {seed:#x}, jitter {})",
                policy.jitter
            );
            let fast = sample_transport_rounds(program, &plan, &policy, n, seed, 1);
            for workers in [1, 2] {
                let exact = sample_rounds_over(program, &policy, n, seed, workers, || {
                    ExactLoop(local(nodes, &plan))
                });
                assert_eq!(
                    fast.outcomes, exact.outcomes,
                    "{case}: fast path at 1 worker vs exact loop at {workers}"
                );
            }
            let wide = sample_transport_rounds(program, &plan, &policy, n, seed, 2);
            assert_eq!(
                fast.outcomes, wide.outcomes,
                "{case}: fast path at 1 vs 2 workers"
            );

            let fast_t = local(nodes, &plan);
            let exact_t = ExactLoop(local(nodes, &plan));
            let mut rng_fast = StdRng::seed_from_u64(seed ^ 0xF00D);
            let mut rng_exact = StdRng::seed_from_u64(seed ^ 0xF00D);
            for trial in 0..400u64 {
                let salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ trial;
                let (o, s) = run_round(program, &fast_t, &policy, salt, &mut rng_fast);
                let a = view(o, s);
                let (o, s) = run_round(program, &exact_t, &policy, salt, &mut rng_exact);
                let b = view(o, s);
                assert_eq!(a, b, "{case}: trial {trial} differs");
                match &a.1 {
                    None => cov.accepts += u64::from(a.0 == 0),
                    Some((_, _, FaultCause::RetriesExhausted { .. })) => cov.retries_exhausted += 1,
                    Some((_, _, FaultCause::RecvTimeout { .. })) => cov.recv_timeouts += 1,
                    Some((_, _, FaultCause::NodeCrashed { .. })) => cov.crashed += 1,
                    Some((_, _, FaultCause::NodePanicked)) => {}
                }
            }
        }
    }
}

#[test]
fn fast_path_is_bit_identical_to_the_exact_attempt_loop() {
    let (chain, relay, tree) = programs();
    let mut cov = Coverage::default();
    for seed in [0x1u64, 0xC0FFEE] {
        check_program("chain", &chain, seed, &mut cov);
        check_program("relay", &relay, seed, &mut cov);
        check_program("tree", &tree, seed, &mut cov);
    }
    // The family reaches every exact-loop exit, not only the fast decisions.
    assert!(cov.accepts > 0, "no trial accepted");
    assert!(cov.retries_exhausted > 0, "no send exhausted its retries");
    assert!(cov.recv_timeouts > 0, "no receive timed out");
    assert!(cov.crashed > 0, "no node was crashed at round start");
}
