//! Per-node round executors over the message-passing [`netsim::transport`]
//! layer.
//!
//! The batched samplers in [`crate::trials`] evaluate a round as a single
//! closed-form product — correct, but silent about *distribution*: every
//! verifier's test collapses into one process-local multiply, so nothing can
//! be said about what happens when messages are late, lost, duplicated or a
//! node crashes. This module re-expresses the four protocol round paths
//! ([`crate::eq_path`], [`crate::eq_tree`], [`crate::relay`] and the raw
//! [`crate::chain`]) as **per-node programs** exchanging sequence-numbered
//! envelopes over a [`Transport`], wrapped in the retry/timeout/backoff
//! robustness layer of [`netsim::transport`]:
//!
//! * a [`RoundProgram`] gives each network node a little script —
//!   *receive the previous coin, flip your own, run your local test, forward
//!   your coin* — driven through a [`NodeIo`] handle that hides sequencing,
//!   retries and cost accounting;
//! * [`run_round`] executes the program over any transport on one thread (the
//!   schedule is a topological order of the message dependencies, so a
//!   poll-mode transport never blocks); [`run_round_threaded`] runs one
//!   executor per node on the persistent [`qsim::pool`] workers against a
//!   blocking transport;
//! * faults degrade gracefully: an exhausted retry budget, a receive
//!   timeout, a crashed node or a panicking executor all terminate the trial
//!   as [`RoundOutcome::Aborted`] with a [`FaultReport`] carrying the partial
//!   [`CostTracker`] state of the affected verifier — never a hang, never a
//!   poisoned pool;
//! * [`TransportSampler`] plugs a program into the block-deterministic
//!   outcome engine of [`crate::trials`], so fault sweeps inherit the
//!   bit-identical-at-any-worker-count contract of every other sampler;
//!   [`sample_transport_rounds`] runs it over the lock-free per-worker
//!   [`LocalChannelTransport`], whose message path is inlined and, in the
//!   common case, free of hashing (see [`netsim::transport`]).
//!
//! # Statistical equivalence with the in-process samplers
//!
//! A plan-based sampler accepts a round with probability `E_c[Π_v p_v(c)]`
//! using a *single* accept draw; the per-node programs draw one Bernoulli per
//! verifier. Conditioned on the shared coins `c`, the product of independent
//! `Bernoulli(p_v(c))` successes is `Bernoulli(Π_v p_v(c))` — identical to
//! the single draw. Fault-free transport rounds therefore match the
//! in-process samplers in distribution (asserted by the Hoeffding tests in
//! `tests/integration_transport_rounds.rs`), though not bit-for-bit: the RNG
//! consumption differs.
//!
//! # Determinism
//!
//! Each trial derives a fault salt from the block RNG stream, and every
//! fault decision is a pure hash of `(salt, message identity)` — so a
//! `(seed, FaultPlan)` pair reproduces the same accepts/rejects/aborts,
//! message counts and transcript digest at *any* worker count, exactly like
//! the accept counts of [`crate::trials`]. The sequential and pool-threaded
//! drivers are each individually deterministic, but not bit-identical to one
//! another (they consume RNG streams differently).

use crate::chain::ChainRoundPlan;
use crate::relay::RelayRoundPlan;
use crate::trials::{self, BatchSampler, BlockOutcomes, BlockRng, OutcomeReport};
use netsim::transport::{robust_recv, robust_send};
use netsim::{
    ChannelTransport, CostTracker, Envelope, FaultCause, FaultPlan, FaultReport, FaultyTransport,
    LocalChannelTransport, NodeId, ProtocolCosts, RetryPolicy, RoundOutcome, Transport, VTime,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

/// SplitMix64 finalizer: the digest and per-node seed mixer. (Same finalizer
/// the transport layer uses for fault decisions; duplicated locally because
/// the transcript digest is a consumer-side concern.)
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Golden-ratio stride for deriving per-node RNG streams in the threaded
/// driver (the same constant `trials` uses for per-block streams).
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Wall-clock guard for a single blocking receive in the threaded driver: a
/// lost message must not hang a pool worker (liveness only — all timeout
/// *semantics* are virtual).
const BLOCKING_RECV_GUARD: Duration = Duration::from_millis(200);

/// Transmission statistics of one executed round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Envelope transmissions, including retransmissions.
    pub sent: u64,
    /// Retransmissions alone (`sent − distinct messages`).
    pub retries: u64,
    /// XOR-fold of per-delivery hashes: a transcript fingerprint that is
    /// invariant under executor interleaving (XOR is commutative) but
    /// sensitive to *what* was delivered to whom.
    pub digest: u64,
}

impl RoundStats {
    /// Accumulates `other` (commutative).
    fn merge(&mut self, other: &RoundStats) {
        self.sent += other.sent;
        self.retries += other.retries;
        self.digest ^= other.digest;
    }
}

/// Per-node I/O handle handed to [`RoundProgram::run_node`]: wraps a
/// [`Transport`] with the robust send/receive layer, the node's virtual
/// clock, its RNG stream and optional cost accounting.
pub struct NodeIo<'a, T: Transport + ?Sized> {
    transport: &'a T,
    policy: &'a RetryPolicy,
    salt: u64,
    node: NodeId,
    clock: VTime,
    rng: &'a mut StdRng,
    next_seq: u32,
    message_qubits: u64,
    stats: RoundStats,
    costs: Option<&'a mut CostTracker>,
}

impl<'a, T: Transport + ?Sized> NodeIo<'a, T> {
    fn new(
        transport: &'a T,
        policy: &'a RetryPolicy,
        salt: u64,
        rng: &'a mut StdRng,
        message_qubits: u64,
        costs: Option<&'a mut CostTracker>,
    ) -> Self {
        NodeIo {
            transport,
            policy,
            salt,
            node: 0,
            clock: 0,
            rng,
            next_seq: 0,
            message_qubits,
            stats: RoundStats::default(),
            costs,
        }
    }

    /// Re-targets the handle at `node` for a fresh executor (the per-trial
    /// accumulators — stats, cost tracker — carry across nodes). Reports the
    /// node as crashed when the fault schedule has it down at round start.
    fn begin_node(&mut self, node: NodeId) -> Result<(), FaultCause> {
        self.node = node;
        self.clock = 0;
        self.next_seq = 0;
        match self.transport.node_down_until(node, 0) {
            Some(until) => Err(FaultCause::NodeCrashed { until }),
            None => Ok(()),
        }
    }

    /// The node this handle is executing.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's virtual clock (ns).
    pub fn vtime(&self) -> VTime {
        self.clock
    }

    /// Reliably sends `payload` to `dst`: sequence-numbered envelope,
    /// per-message timeout, bounded exponential backoff with deterministic
    /// jitter. Advances the virtual clock through the backoff schedule.
    #[inline(always)]
    pub fn send(&mut self, dst: NodeId, payload: u64) -> Result<(), FaultCause> {
        let env = Envelope {
            src: self.node,
            dst,
            seq: self.next_seq,
            attempt: 0,
            payload,
        };
        self.next_seq += 1;
        let attempts = robust_send(self.transport, self.policy, self.salt, &mut self.clock, env)?;
        self.stats.sent += u64::from(attempts);
        self.stats.retries += u64::from(attempts - 1);
        if let Some(costs) = self.costs.as_deref_mut() {
            costs.record_message(self.node, dst, self.message_qubits);
        }
        Ok(())
    }

    /// Reliably receives the next envelope addressed to this node,
    /// extending the deadline through the backoff schedule. Deliveries are
    /// deduplicated by the transport, so a retransmitted or duplicated
    /// envelope is observed at most once.
    #[inline(always)]
    pub fn recv(&mut self) -> Result<Envelope, FaultCause> {
        let env = robust_recv(
            self.transport,
            self.policy,
            self.salt,
            self.node,
            &mut self.clock,
        )?;
        // One odd-constant multiply spreads the identity word; the full
        // SplitMix finalizer runs once per trial when the block fold mixes
        // the salt in, so a bijective per-delivery fold suffices here.
        let ident = ((env.src as u64) << 40)
            ^ ((env.dst as u64) << 24)
            ^ (u64::from(env.seq) << 1)
            ^ env.payload.rotate_left(17);
        self.stats.digest ^= ident.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Ok(env)
    }

    /// Flips this node's symmetrisation coin (0 or 1).
    pub fn coin(&mut self) -> usize {
        usize::from(self.rng.random::<bool>())
    }

    /// Draws this node's local accept/reject decision at probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.rng.random::<f64>() < p
    }

    /// Draws the node's symmetrisation coin and its accept verdict at the
    /// coin-dependent probability `p(coin)` from a single RNG word: bit 0 is
    /// the coin, bits 11..64 (disjoint from the coin bit) form the uniform
    /// accept draw — one generator call instead of two on the round hot
    /// path, with the two outputs exactly distributed and independent.
    #[inline]
    pub fn coin_accept(&mut self, p: impl FnOnce(usize) -> f64) -> (usize, bool) {
        let h = self.rng.random::<u64>();
        let coin = (h & 1) as usize;
        let accept = ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p(coin);
        (coin, accept)
    }
}

/// A protocol round expressed as one small program per network node.
///
/// `schedule()` must list every participating node in a topological order of
/// the message dependencies (senders before their receivers); the sequential
/// driver runs nodes in exactly that order over a poll-mode transport, the
/// threaded driver uses it as the dispatch order of the per-node executors.
pub trait RoundProgram: Sync {
    /// Number of network nodes (mailboxes) the program needs.
    fn num_nodes(&self) -> usize;

    /// Dependency-ordered executor schedule.
    fn schedule(&self) -> &[NodeId];

    /// Qubits per protocol message, for cost accounting (0 = untracked).
    fn message_qubits(&self) -> u64 {
        0
    }

    /// Executes `node`'s verifier: receive, test, forward. Returns the
    /// node's accept decision, or the fault that prevented it from deciding.
    fn run_node<T: Transport + ?Sized>(
        &self,
        node: NodeId,
        io: &mut NodeIo<'_, T>,
    ) -> Result<bool, FaultCause>;

    /// Exactly how many RNG words `node`'s executor consumes on a
    /// *fault-free* run — the cross-process RNG alignment contract.
    ///
    /// The sequential driver threads one block stream through all nodes in
    /// schedule order; a node process replaying only its own slice must skip
    /// precisely this many words for every node scheduled before it (see
    /// `dqma::cluster`). Every `NodeIo` RNG helper ([`NodeIo::coin`],
    /// [`NodeIo::bernoulli`], [`NodeIo::coin_accept`]) consumes exactly one
    /// word, so this is a static property of the node's script.
    fn fault_free_draws(&self, node: NodeId) -> u64;
}

/// Folds per-node results (in schedule order) into a [`RoundOutcome`]:
/// the first fault wins, otherwise unanimous acceptance is required.
fn fold_outcome(
    failure: Option<(NodeId, VTime, FaultCause)>,
    all_accept: bool,
    partial: ProtocolCosts,
) -> RoundOutcome {
    match failure {
        Some((node, vtime, cause)) => RoundOutcome::Aborted(FaultReport {
            node,
            vtime,
            cause,
            partial,
        }),
        None if all_accept => RoundOutcome::Accept,
        None => RoundOutcome::Reject,
    }
}

fn run_round_inner<P: RoundProgram + ?Sized, T: Transport + ?Sized>(
    program: &P,
    transport: &T,
    policy: &RetryPolicy,
    salt: u64,
    rng: &mut StdRng,
    costs: Option<&mut CostTracker>,
) -> (RoundOutcome, RoundStats) {
    transport.begin_trial(salt);
    let mut io = NodeIo::new(
        transport,
        policy,
        salt,
        rng,
        program.message_qubits(),
        costs,
    );
    let mut failure: Option<(NodeId, VTime, FaultCause)> = None;
    let mut all_accept = true;
    let mut partial = ProtocolCosts::default();
    let mut current = 0;
    // One unwind boundary per trial (not per node): a panic in any node's
    // executor is contained here and attributed to the node that was
    // running. Only the schedule tail after the panic is skipped.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        for &node in program.schedule() {
            current = node;
            let decision = io
                .begin_node(node)
                .and_then(|()| program.run_node(node, &mut io));
            match decision {
                Ok(accept) => all_accept &= accept,
                Err(cause) => {
                    if failure.is_none() {
                        partial = io
                            .costs
                            .as_deref()
                            .map(CostTracker::summary)
                            .unwrap_or_default();
                        failure = Some((node, io.clock, cause));
                    }
                }
            }
        }
    }));
    if caught.is_err() && failure.is_none() {
        partial = io
            .costs
            .as_deref()
            .map(CostTracker::summary)
            .unwrap_or_default();
        failure = Some((current, io.clock, FaultCause::NodePanicked));
    }
    let stats = io.stats;
    (fold_outcome(failure, all_accept, partial), stats)
}

/// Executes one round of `program` over `transport` on the calling thread,
/// visiting nodes in schedule order (so a poll-mode transport never waits).
///
/// Every trial terminates: faults and even executor panics degrade to
/// [`RoundOutcome::Aborted`] with the responsible node's [`FaultReport`].
pub fn run_round<P: RoundProgram + ?Sized, T: Transport + ?Sized>(
    program: &P,
    transport: &T,
    policy: &RetryPolicy,
    salt: u64,
    rng: &mut StdRng,
) -> (RoundOutcome, RoundStats) {
    run_round_inner(program, transport, policy, salt, rng, None)
}

/// As [`run_round`], additionally recording message costs into `costs`. On
/// an abort, the returned [`FaultReport::partial`] snapshots the tracker at
/// the instant of the first fault — the affected verifier's partial view.
pub fn run_round_with_costs<P: RoundProgram + ?Sized, T: Transport + ?Sized>(
    program: &P,
    transport: &T,
    policy: &RetryPolicy,
    salt: u64,
    rng: &mut StdRng,
    costs: &mut CostTracker,
) -> (RoundOutcome, RoundStats) {
    run_round_inner(program, transport, policy, salt, rng, Some(costs))
}

/// Executes one round with **one executor per node** on the persistent
/// [`qsim::pool`] workers, against a blocking transport (one mailbox per
/// node; receives park briefly rather than poll).
///
/// Each node draws from its own RNG stream derived from `(trial_seed,
/// schedule position)`, so the result is deterministic for a fixed
/// `(program, plan, salt, trial_seed)` at any worker count — but not
/// bit-identical to the sequential driver, which threads one stream through
/// all nodes. Deadlock-free by construction: the pool claims chunks in
/// increasing schedule order and every node's senders precede it in the
/// schedule, so the lowest unfinished executor always has its inputs queued.
/// A panicking executor is contained per node ([`FaultCause::NodePanicked`])
/// and the pool remains usable.
pub fn run_round_threaded<P: RoundProgram + ?Sized, T: Transport + Sync + ?Sized>(
    program: &P,
    transport: &T,
    policy: &RetryPolicy,
    salt: u64,
    trial_seed: u64,
) -> (RoundOutcome, RoundStats) {
    let schedule = program.schedule();
    transport.begin_trial(salt);
    let message_qubits = program.message_qubits();
    type NodeResult = (Result<bool, FaultCause>, VTime, RoundStats);
    let results: Mutex<Vec<Option<NodeResult>>> = Mutex::new(vec![None; schedule.len()]);
    qsim::pool::global().dispatch(schedule.len(), schedule.len(), &|_slot, i| {
        let node = schedule[i];
        let mut rng = StdRng::seed_from_u64(trial_seed ^ (i as u64 + 1).wrapping_mul(PHI));
        let mut io = NodeIo::new(transport, policy, salt, &mut rng, message_qubits, None);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            io.begin_node(node)
                .and_then(|()| program.run_node(node, &mut io))
        }))
        .unwrap_or(Err(FaultCause::NodePanicked));
        let entry = (outcome, io.clock, io.stats);
        results
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = Some(entry);
    });
    let results = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut failure: Option<(NodeId, VTime, FaultCause)> = None;
    let mut all_accept = true;
    let mut stats = RoundStats::default();
    for (i, entry) in results.into_iter().enumerate() {
        let (decision, vtime, node_stats) =
            entry.unwrap_or((Err(FaultCause::NodePanicked), 0, RoundStats::default()));
        stats.merge(&node_stats);
        match decision {
            Ok(accept) => all_accept &= accept,
            Err(cause) => {
                if failure.is_none() {
                    failure = Some((schedule[i], vtime, cause));
                }
            }
        }
    }
    (
        fold_outcome(failure, all_accept, ProtocolCosts::default()),
        stats,
    )
}

/// Builds the blocking transport matching `program` and `plan` for the
/// threaded driver: one mailbox per node, wall-guarded receives.
pub fn blocking_transport<P: RoundProgram + ?Sized>(
    program: &P,
    plan: FaultPlan,
) -> FaultyTransport<ChannelTransport> {
    FaultyTransport::new(
        ChannelTransport::blocking(program.num_nodes(), BLOCKING_RECV_GUARD),
        plan,
    )
}

/// Executes **one node's** executor of one trial — the per-process entry
/// point of the multi-process runtime (`dqma::cluster`), where every network
/// node runs in its own OS process over a [`netsim::tcp::TcpTransport`].
///
/// Unlike [`run_round`], this does **not** call `begin_trial`: the caller
/// owns the trial boundary (the cluster node loop pins the TCP epoch to the
/// global trial index so every process agrees on which trial a frame belongs
/// to). On the fault-free path the executor consumes exactly
/// [`RoundProgram::fault_free_draws`]`(node)` words of `rng` — the property
/// the cluster runtime relies on to keep per-process RNG streams aligned
/// with the sequential driver's single thread of consumption. Panics are
/// contained, surfacing as [`FaultCause::NodePanicked`].
pub fn run_single_node<P: RoundProgram + ?Sized, T: Transport + ?Sized>(
    program: &P,
    node: NodeId,
    transport: &T,
    policy: &RetryPolicy,
    salt: u64,
    rng: &mut StdRng,
) -> (Result<bool, FaultCause>, VTime, RoundStats) {
    let mut io = NodeIo::new(transport, policy, salt, rng, program.message_qubits(), None);
    let decision = catch_unwind(AssertUnwindSafe(|| {
        io.begin_node(node)
            .and_then(|()| program.run_node(node, &mut io))
    }))
    .unwrap_or(Err(FaultCause::NodePanicked));
    (decision, io.clock, io.stats)
}

// ---------------------------------------------------------------------------
// Protocol programs
// ---------------------------------------------------------------------------

/// The SWAP-test chain as a per-node program on the path `0..=k+1`:
/// node 0 (left extremity) opens the relay with a fixed token, intermediate
/// node `v` tests its kept register against the forwarded one
/// (`table(v−1, c_prev + 2·c_own)`) and forwards its coin, and the right
/// extremity runs the boundary measurement (`table(k, c_prev)`).
#[derive(Clone, Debug)]
pub struct ChainNetProgram {
    pub(crate) plan: ChainRoundPlan,
    schedule: Vec<NodeId>,
    pub(crate) message_qubits: u64,
}

impl ChainNetProgram {
    /// Wraps a compiled [`ChainRoundPlan`] (see
    /// [`crate::chain::SwapTestChain::round_plan`]).
    pub fn new(plan: ChainRoundPlan) -> Self {
        let nodes = plan.num_intermediate() + 2;
        ChainNetProgram {
            plan,
            schedule: (0..nodes).collect(),
            message_qubits: 0,
        }
    }

    /// Sets the per-message qubit cost recorded by
    /// [`run_round_with_costs`].
    pub fn with_message_qubits(mut self, qubits: u64) -> Self {
        self.message_qubits = qubits;
        self
    }
}

impl RoundProgram for ChainNetProgram {
    fn num_nodes(&self) -> usize {
        self.plan.num_intermediate() + 2
    }

    fn schedule(&self) -> &[NodeId] {
        &self.schedule
    }

    fn message_qubits(&self) -> u64 {
        self.message_qubits
    }

    fn run_node<T: Transport + ?Sized>(
        &self,
        node: NodeId,
        io: &mut NodeIo<'_, T>,
    ) -> Result<bool, FaultCause> {
        let k = self.plan.num_intermediate();
        if node == 0 {
            // Left extremity: opens the chain; its own test is folded into
            // node 1's table (the plan conditions on c_{−1} = 0).
            io.send(1, 0)?;
            Ok(true)
        } else if node <= k {
            let prev = (io.recv()?.payload & 1) as usize;
            let (cur, accept) = io.coin_accept(|cur| self.plan.table(node - 1, prev + 2 * cur));
            io.send(node + 1, cur as u64)?;
            Ok(accept)
        } else {
            // Right extremity: boundary measurement on the forwarded
            // register, selected by the last intermediate's coin.
            let prev = (io.recv()?.payload & 1) as usize;
            Ok(io.bernoulli(self.plan.table(k, prev)))
        }
    }

    fn fault_free_draws(&self, node: NodeId) -> u64 {
        // Node 0 only opens the chain; intermediates draw one `coin_accept`
        // word, the right extremity one `bernoulli` word.
        u64::from(node != 0)
    }
}

/// A path node's role in the relay-point protocol.
#[derive(Clone, Debug)]
pub(crate) enum RelayRole {
    /// Node 0: opens the first segment.
    LeftEnd,
    /// Strictly inside segment `seg`, as its `j`-th intermediate.
    Intermediate { seg: usize, j: usize },
    /// A relay point: right boundary of `prev_seg`, left end of the next.
    Relay { prev_seg: usize },
    /// Node `r`: right boundary of the last segment.
    RightEnd,
}

/// The relay-point protocol ([`crate::relay`]) as a per-node program on the
/// path `0..=r`: relay points measure the incoming segment's boundary and
/// open the next segment with a fresh token, so each segment runs the chain
/// walk of [`ChainNetProgram`] end to end.
#[derive(Clone, Debug)]
pub struct RelayNetProgram {
    pub(crate) segments: Vec<ChainRoundPlan>,
    pub(crate) roles: Vec<RelayRole>,
    schedule: Vec<NodeId>,
    pub(crate) message_qubits: u64,
}

impl RelayNetProgram {
    /// Builds the program from a compiled [`RelayRoundPlan`] and the
    /// protocol's segment boundaries (see
    /// [`crate::relay::RelayEqProtocol::segment_boundaries`]).
    ///
    /// # Panics
    ///
    /// Panics when the boundary spacing disagrees with the per-segment plan
    /// sizes.
    pub fn new(plan: &RelayRoundPlan, boundaries: &[usize]) -> Self {
        Self::from_segments(plan.segment_plans().to_vec(), boundaries)
    }

    /// Assembles the program directly from per-segment chain plans — the
    /// cluster wire-decode path ([`crate::cluster::ProgramSpec`]) rebuilds a
    /// relay program without re-deriving the full [`RelayRoundPlan`].
    pub(crate) fn from_segments(segments: Vec<ChainRoundPlan>, boundaries: &[usize]) -> Self {
        assert_eq!(
            segments.len() + 1,
            boundaries.len(),
            "one segment per consecutive boundary pair required"
        );
        let r = *boundaries.last().expect("at least two boundaries");
        let mut roles = Vec::with_capacity(r + 1);
        for v in 0..=r {
            let role = if v == 0 {
                RelayRole::LeftEnd
            } else if v == r {
                RelayRole::RightEnd
            } else if let Some(i) = boundaries.iter().position(|&b| b == v) {
                // boundaries[i] closes segment i − 1.
                RelayRole::Relay { prev_seg: i - 1 }
            } else {
                let seg = boundaries.iter().take_while(|&&b| b < v).count() - 1;
                RelayRole::Intermediate {
                    seg,
                    j: v - boundaries[seg] - 1,
                }
            };
            roles.push(role);
        }
        for (i, seg) in segments.iter().enumerate() {
            assert_eq!(
                seg.num_intermediate(),
                boundaries[i + 1] - boundaries[i] - 1,
                "segment {i} plan size disagrees with its boundaries"
            );
        }
        RelayNetProgram {
            segments,
            roles,
            schedule: (0..=r).collect(),
            message_qubits: 0,
        }
    }

    /// Sets the per-message qubit cost recorded by
    /// [`run_round_with_costs`].
    pub fn with_message_qubits(mut self, qubits: u64) -> Self {
        self.message_qubits = qubits;
        self
    }

    /// Reconstructs the segment boundaries from the role assignment:
    /// node 0, every relay point, node `r`.
    pub(crate) fn boundaries(&self) -> Vec<usize> {
        let mut b = vec![0usize];
        b.extend(
            self.roles
                .iter()
                .enumerate()
                .filter(|(_, role)| matches!(role, RelayRole::Relay { .. }))
                .map(|(v, _)| v),
        );
        b.push(self.roles.len() - 1);
        b
    }
}

impl RoundProgram for RelayNetProgram {
    fn num_nodes(&self) -> usize {
        self.roles.len()
    }

    fn schedule(&self) -> &[NodeId] {
        &self.schedule
    }

    fn message_qubits(&self) -> u64 {
        self.message_qubits
    }

    fn run_node<T: Transport + ?Sized>(
        &self,
        node: NodeId,
        io: &mut NodeIo<'_, T>,
    ) -> Result<bool, FaultCause> {
        match self.roles[node] {
            RelayRole::LeftEnd => {
                io.send(1, 0)?;
                Ok(true)
            }
            RelayRole::Intermediate { seg, j } => {
                let prev = (io.recv()?.payload & 1) as usize;
                let (cur, accept) =
                    io.coin_accept(|cur| self.segments[seg].table(j, prev + 2 * cur));
                io.send(node + 1, cur as u64)?;
                Ok(accept)
            }
            RelayRole::Relay { prev_seg } => {
                let seg = &self.segments[prev_seg];
                let prev = (io.recv()?.payload & 1) as usize;
                let accept = io.bernoulli(seg.table(seg.num_intermediate(), prev));
                // Measured and re-announced: the next segment starts from
                // the relay's classical string, i.e. a fresh token.
                io.send(node + 1, 0)?;
                Ok(accept)
            }
            RelayRole::RightEnd => {
                let seg = self.segments.last().expect("at least one segment");
                let prev = (io.recv()?.payload & 1) as usize;
                Ok(io.bernoulli(seg.table(seg.num_intermediate(), prev)))
            }
        }
    }

    fn fault_free_draws(&self, node: NodeId) -> u64 {
        // Every role draws exactly one word (coin_accept or bernoulli)
        // except the opening left extremity.
        u64::from(!matches!(self.roles[node], RelayRole::LeftEnd))
    }
}

/// A tree node's role in the EQ-tree program; built by
/// [`crate::eq_tree::EqTreeProtocol::net_program`].
#[derive(Clone, Debug)]
pub(crate) enum TreeRole {
    /// A node id outside the announced tree (no executor).
    Unused,
    /// A terminal leaf: sends its fingerprint token to its parent.
    Leaf {
        /// The leaf's parent in the announced tree.
        parent: NodeId,
    },
    /// An internal node: collects its children's messages, runs the
    /// permutation test, forwards its own coin.
    Internal {
        /// Parent in the announced tree (`None` at the root).
        parent: Option<NodeId>,
        /// Children in tree order; `Some(shift)` marks a non-leaf child
        /// whose coin lands at bit `shift` of the table index.
        children: Vec<(NodeId, Option<u32>)>,
        /// Permutation-test acceptance per coin combination, bit 0 the
        /// node's own coin (the layout of
        /// [`crate::eq_tree::EqTreeProtocol::round_plan`]).
        probs: Vec<f64>,
    },
}

/// The EQ-tree protocol ([`crate::eq_tree`]) as a per-node program over the
/// announced spanning tree: leaves send up, internal nodes gather their
/// children (attributing arrivals by source, so reordering is harmless),
/// test, and forward their coin; the schedule is the tree's post order.
#[derive(Clone, Debug)]
pub struct TreeNetProgram {
    pub(crate) roles: Vec<TreeRole>,
    schedule: Vec<NodeId>,
    pub(crate) message_qubits: u64,
}

impl TreeNetProgram {
    pub(crate) fn new(roles: Vec<TreeRole>, schedule: Vec<NodeId>, message_qubits: u64) -> Self {
        TreeNetProgram {
            roles,
            schedule,
            message_qubits,
        }
    }
}

impl RoundProgram for TreeNetProgram {
    fn num_nodes(&self) -> usize {
        self.roles.len()
    }

    fn schedule(&self) -> &[NodeId] {
        &self.schedule
    }

    fn message_qubits(&self) -> u64 {
        self.message_qubits
    }

    fn run_node<T: Transport + ?Sized>(
        &self,
        node: NodeId,
        io: &mut NodeIo<'_, T>,
    ) -> Result<bool, FaultCause> {
        match &self.roles[node] {
            TreeRole::Unused => Ok(true),
            TreeRole::Leaf { parent } => {
                io.send(*parent, 0)?;
                Ok(true)
            }
            TreeRole::Internal {
                parent,
                children,
                probs,
            } => {
                let mut idx = 0usize;
                for _ in 0..children.len() {
                    let env = io.recv()?;
                    // Attribute by source: children may arrive in any order
                    // under latency jitter.
                    if let Some((_, Some(shift))) = children.iter().find(|(c, _)| *c == env.src) {
                        idx |= ((env.payload & 1) as usize) << shift;
                    }
                }
                // Child coins occupy bits >= 1, so the own coin (bit 0) ors
                // in cleanly.
                let (own, accept) = io.coin_accept(|own| probs[idx | own]);
                if let Some(p) = parent {
                    io.send(*p, own as u64)?;
                }
                Ok(accept)
            }
        }
    }

    fn fault_free_draws(&self, node: NodeId) -> u64 {
        // Only internal nodes flip a coin; unused ids and leaves are
        // draw-free.
        u64::from(matches!(self.roles[node], TreeRole::Internal { .. }))
    }
}

// ---------------------------------------------------------------------------
// Batched fault-sweep sampling
// ---------------------------------------------------------------------------

/// A [`BatchSampler`] of [`BlockOutcomes`] running a [`RoundProgram`] over
/// per-worker transports: each pool worker owns the transport `transport()`
/// builds (scratch), each trial draws a fresh fault salt from its block
/// stream ([`BlockRng::block_rng`]), so outcomes — accepts, rejects, aborts,
/// message counts and the transcript digest — are bit-identical at any
/// worker count.
pub struct TransportSampler<'a, P: RoundProgram, F> {
    program: &'a P,
    policy: RetryPolicy,
    transport: F,
}

impl<'a, P: RoundProgram, F> TransportSampler<'a, P, F> {
    /// Builds the sampler for `program`, giving each worker the transport
    /// `transport()` returns.
    pub fn new(program: &'a P, policy: RetryPolicy, transport: F) -> Self {
        TransportSampler {
            program,
            policy,
            transport,
        }
    }
}

impl<P, F, T> BatchSampler<BlockOutcomes> for TransportSampler<'_, P, F>
where
    P: RoundProgram,
    F: Fn() -> T + Sync,
    T: Transport + Send,
{
    type Scratch = T;

    fn scratch(&self) -> T {
        (self.transport)()
    }

    fn sample_block(&self, trials: u64, scratch: &mut T, stream: &BlockRng) -> BlockOutcomes {
        let rng = &mut stream.block_rng();
        let mut out = BlockOutcomes::default();
        for _ in 0..trials {
            let salt = rng.random::<u64>();
            let (outcome, stats) = run_round(self.program, scratch, &self.policy, salt, rng);
            match outcome {
                RoundOutcome::Accept => out.accepts += 1,
                RoundOutcome::Reject => out.rejects += 1,
                RoundOutcome::Aborted(_) => out.aborts += 1,
            }
            out.messages += stats.sent;
            out.retries += stats.retries;
            out.digest ^= mix(stats.digest.wrapping_add(salt));
        }
        out
    }
}

/// Runs `n` transport-level rounds of `program` under fault schedule `plan`,
/// dispatched over at most `workers` pool slots. The block-index determinism
/// contract of [`crate::trials`] applies: every field of the report's
/// [`BlockOutcomes`] is bit-identical at any worker count.
///
/// Each worker owns a [`FaultyTransport`] over a [`LocalChannelTransport`]:
/// exclusive ownership needs no locks, and its deadlines are virtual-time
/// filters, so the robust layer takes its hash-free fast path.
pub fn sample_transport_rounds<P: RoundProgram>(
    program: &P,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    n: u64,
    seed: u64,
    workers: usize,
) -> OutcomeReport {
    let nodes = program.num_nodes();
    sample_rounds_over(program, policy, n, seed, workers, || {
        FaultyTransport::new(LocalChannelTransport::poll(nodes), plan.clone())
    })
}

/// As [`sample_transport_rounds`], over per-worker transports built by
/// `transport` (for instance a decorated or instrumented transport). The
/// trial salts and RNG streams are those of [`sample_transport_rounds`], so
/// two transports that deliver alike give bit-identical reports.
pub fn sample_rounds_over<P, T, F>(
    program: &P,
    policy: &RetryPolicy,
    n: u64,
    seed: u64,
    workers: usize,
    transport: F,
) -> OutcomeReport
where
    P: RoundProgram,
    F: Fn() -> T + Sync,
    T: Transport + Send,
{
    let sampler = TransportSampler::new(program, policy.clone(), transport);
    trials::run_outcome_trials_with_workers(&sampler, n, seed, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainCheat;
    use crate::eq_path::EqPathProtocol;
    use commproto::bitstring::BitString;
    use commproto::fingerprint::FingerprintScheme;

    fn eq_path_program(equal: bool) -> ChainNetProgram {
        let protocol = EqPathProtocol::with_scheme(4, FingerprintScheme::small(6, 7), 8);
        let x = BitString::from_u64(0b101010, 6);
        let y = if equal {
            x.clone()
        } else {
            BitString::from_u64(0b010110, 6)
        };
        protocol.net_program(&x, &y, ChainCheat::Interpolate)
    }

    #[test]
    fn honest_chain_round_accepts_over_fault_free_transport() {
        let program = eq_path_program(true);
        let transport = ChannelTransport::poll(program.num_nodes());
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(7);
        for salt in 0..64u64 {
            let (outcome, stats) = run_round(&program, &transport, &policy, salt, &mut rng);
            assert!(outcome.is_accept(), "honest round must accept: {outcome:?}");
            assert_eq!(stats.retries, 0, "fault-free transport must not retry");
            // One message per hop on the path 0..=r.
            assert_eq!(stats.sent as usize, program.num_nodes() - 1);
        }
    }

    #[test]
    fn full_partition_aborts_with_retries_exhausted() {
        let program = eq_path_program(true);
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::none()
        };
        let transport = FaultyTransport::new(ChannelTransport::poll(program.num_nodes()), plan);
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(11);
        let (outcome, _) = run_round(&program, &transport, &policy, 3, &mut rng);
        match outcome {
            RoundOutcome::Aborted(report) => {
                assert_eq!(report.node, 0, "the first sender hits the wall first");
                assert!(matches!(
                    report.cause,
                    FaultCause::RetriesExhausted { to: 1, .. }
                ));
            }
            other => panic!("expected an abort, got {other:?}"),
        }
    }

    #[test]
    fn panicking_program_degrades_to_aborted() {
        struct Bomb;
        impl RoundProgram for Bomb {
            fn num_nodes(&self) -> usize {
                2
            }
            fn schedule(&self) -> &[NodeId] {
                &[0, 1]
            }
            fn run_node<T: Transport + ?Sized>(
                &self,
                node: NodeId,
                _io: &mut NodeIo<'_, T>,
            ) -> Result<bool, FaultCause> {
                if node == 1 {
                    panic!("verifier bug");
                }
                Ok(true)
            }
            fn fault_free_draws(&self, _node: NodeId) -> u64 {
                0
            }
        }
        let transport = ChannelTransport::poll(2);
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(0);
        let (outcome, _) = run_round(&Bomb, &transport, &policy, 1, &mut rng);
        match outcome {
            RoundOutcome::Aborted(report) => {
                assert_eq!(report.node, 1);
                assert_eq!(report.cause, FaultCause::NodePanicked);
            }
            other => panic!("expected an abort, got {other:?}"),
        }
        // The poll transport (and the driver) stay usable.
        let program = eq_path_program(true);
        let transport = ChannelTransport::poll(program.num_nodes());
        let (outcome, _) = run_round(&program, &transport, &policy, 2, &mut rng);
        assert!(outcome.is_accept());
    }

    #[test]
    fn crashed_node_reports_partial_costs() {
        let program = eq_path_program(true).with_message_qubits(3);
        let plan = FaultPlan {
            crashes: vec![netsim::transport::CrashWindow {
                node: 2,
                start: 0,
                end: VTime::MAX,
            }],
            ..FaultPlan::none()
        };
        let transport = FaultyTransport::new(ChannelTransport::poll(program.num_nodes()), plan);
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut costs = CostTracker::new();
        let (outcome, _) =
            run_round_with_costs(&program, &transport, &policy, 9, &mut rng, &mut costs);
        match outcome {
            RoundOutcome::Aborted(report) => {
                // Node 1's send into the crashed node exhausts first (send
                // order precedes node 2's own crash check in the schedule).
                assert!(
                    matches!(report.cause, FaultCause::RetriesExhausted { to: 2, .. })
                        || matches!(report.cause, FaultCause::NodeCrashed { .. }),
                    "unexpected cause: {:?}",
                    report.cause
                );
                // The partial tracker saw node 0's opening message at least.
                assert!(report.partial.total_message_qubits >= 3);
            }
            other => panic!("expected an abort, got {other:?}"),
        }
    }

    #[test]
    fn threaded_driver_matches_outcome_determinism() {
        let program = eq_path_program(false);
        let plan = FaultPlan::with_drop(0.2);
        let policy = RetryPolicy::default();
        let transport = blocking_transport(&program, plan);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut accepts = 0u64;
            let mut digest = 0u64;
            for trial in 0..32u64 {
                let (outcome, stats) =
                    run_round_threaded(&program, &transport, &policy, trial, trial ^ 0xABCD);
                accepts += u64::from(outcome.is_accept());
                digest ^= mix(stats.digest.wrapping_add(trial));
            }
            runs.push((accepts, digest));
        }
        assert_eq!(runs[0], runs[1], "threaded driver must be reproducible");
    }
}
