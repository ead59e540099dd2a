//! Batched, zero-allocation Monte-Carlo trial engine for the sampled
//! protocol rounds.
//!
//! The paper's guarantees (completeness ≈ 1 on yes-instances, rejection
//! ≥ `4/(81 r²)` per round on no-instances) are only *observable* through
//! many sampled rounds, yet until this module every consumer of
//! `simulate_round` ran trials serially, one round at a time, re-preparing
//! proof states and reallocating scratch per round. Here the per-instance
//! preparation is hoisted into a *round plan* (see
//! [`crate::chain::ChainRoundPlan`] and friends), and one block driver splits
//! the trials into fixed-size blocks dispatched over the persistent
//! [`qsim::pool`] workers.
//!
//! # One driver, one sampler trait
//!
//! Every runner here — [`run_trials_with_workers`], [`run_trials_observed`],
//! [`run_outcome_trials_with_workers`] — and every caller above them
//! ([`crate::net::sample_transport_rounds`], the served jobs of
//! [`crate::service`]) goes through the same private driver. It
//! alone splits trials into blocks, clamps the worker count, builds the
//! per-slot scratch, dispatches over the pool (inline and in order at
//! width 1), applies the cache / observe / deadline hooks and folds the
//! per-block tallies. Samplers implement one trait, [`BatchSampler`], whose
//! tally defaults to a `u64` accept count; transport-backed rounds tally
//! [`BlockOutcomes`] instead.
//!
//! # Determinism across worker counts (and lane widths)
//!
//! Every block of [`BLOCK_TRIALS`] trials owns dedicated RNG streams derived
//! *from the block index alone*, handed to samplers as a [`BlockRng`]
//! coordinate with two stream families:
//!
//! * [`BlockRng::block_rng`] — the sequential per-block stream
//!   (`StdRng::seed_from_u64(seed ⊕ (block+1)·φ)` with φ the 64-bit golden
//!   ratio), used by samplers that walk trials one at a time (the
//!   mixed-proof chain sampler, transport-backed outcome rounds);
//! * [`BlockRng::trial_rng`] — a counter-based stream **per trial**
//!   ([`qsim::random::CounterRng`] keyed by `(seed, block, trial)`), used by
//!   the lane-batched engine: a trial's draws are a pure function of its
//!   coordinates, so its outcome cannot depend on how trials are grouped
//!   into lanes.
//!
//! Blocks are claimed dynamically by workers, but a block's tally depends
//! only on `(seed, block index, plan)`, and the fold is commutative — so
//! the [`TrialReport`] accept count is **bit-identical at any worker count**
//! (1, 2, 4, 8, …) *and*, for [`LaneBatched`] plans,
//! at any lane width and under either the scalar or the AVX2 executors —
//! all pinned by the integration suite. (Changing [`BLOCK_TRIALS`] or a
//! stream derivation changes accept counts *across versions*; the contract
//! is invariance across execution configurations, never across versions.)
//!
//! # Lane batching
//!
//! Plans whose rounds are pure table walks implement [`LaneBatched`] as
//! well: [`LaneBatched::sample_lane_block`] runs a lane batch of `L` trials
//! in lockstep over structure-of-arrays buffers (one coin word and one
//! acceptance accumulator per lane), which the [`qsim::simd`] executors
//! process four lanes per instruction on an AVX2 host (chosen at run
//! time) — with the scalar lane path always compiled as the oracle.
//! [`BatchSampler`] is blanket-forwarded per plan at [`default_lane_width`];
//! tests pin other widths via [`with_lane_width`].
//!
//! # Scratch reuse
//!
//! A [`BatchSampler`] declares a `Scratch` type built once per worker slot
//! and reused across every block (and every trial) that worker processes —
//! per-worker arenas via [`qsim::pool::SlotScratch`]. The pure-state plans
//! need none (their tables make a round a handful of lookups); the
//! mixed-proof chain sampler reuses its density-matrix frontier buffers
//! across all trials instead of reallocating three matrices per node per
//! round.

use qsim::random::CounterRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Trials per RNG-stream block. Fixed — it is part of the determinism
/// contract: changing it changes which trial consumes which random draw, so
/// accept counts would differ (across versions, never across worker counts).
pub const BLOCK_TRIALS: u64 = 8192;

/// 64-bit golden-ratio increment (the SplitMix64 stream constant); spaces
/// the per-block seeds so `SeedableRng::seed_from_u64`'s SplitMix64
/// expansion yields decorrelated streams.
const STREAM_PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The dedicated RNG stream of block `block` under master seed `seed`.
pub fn stream_rng(seed: u64, block: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ block.wrapping_add(1).wrapping_mul(STREAM_PHI))
}

/// Shared statistical bounds for the Monte-Carlo test batteries.
///
/// The integration suites (`integration_sampled_rounds`,
/// `integration_transport_rounds`, `integration_adversarial`) all assert
/// measured rates against exact probabilities through the same two
/// instruments; they live here — next to the engine whose outputs they
/// bound — instead of being copy-pasted per test file.
pub mod stats {
    /// Confidence parameter of the suite-wide default margin: a correct
    /// sampler violates a [`hoeffding_margin`] assertion with probability
    /// ≤ 1e-9 per check, so a battery of thousands of checks still fails
    /// spuriously less than once in a million runs.
    pub const SUITE_DELTA: f64 = 1e-9;

    /// Two-sided Hoeffding deviation `ε` such that
    /// `Pr[|p̂ − p| ≥ ε] ≤ delta` for a correct Bernoulli sampler over
    /// `trials` draws: `ε = sqrt(ln(2/δ) / (2n))`.
    pub fn hoeffding_radius(trials: u64, delta: f64) -> f64 {
        if trials == 0 {
            return 1.0;
        }
        (f64::ln(2.0 / delta) / (2.0 * trials as f64)).sqrt()
    }

    /// [`hoeffding_radius`] at the suite-wide [`SUITE_DELTA`].
    pub fn hoeffding_margin(trials: u64) -> f64 {
        hoeffding_radius(trials, SUITE_DELTA)
    }

    /// Wilson score interval for a true Bernoulli probability given
    /// `successes` out of `trials` at normal quantile `z` (e.g. `z = 1.96`
    /// for 95%): the binomial interval that stays inside `[0, 1]` and
    /// behaves at the boundary rates the protocols actually produce
    /// (completeness ≈ 1).
    pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
        if trials == 0 {
            return (0.0, 1.0);
        }
        let n = trials as f64;
        let p = successes as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = p + z2 / (2.0 * n);
        let spread = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        (
            ((centre - spread) / denom).clamp(0.0, 1.0),
            ((centre + spread) / denom).clamp(0.0, 1.0),
        )
    }
}

/// Length of block `b` when `n` trials split into `nblocks` fixed-size
/// blocks: [`BLOCK_TRIALS`] everywhere except a shorter final remainder
/// block when `n` is not a multiple (a full final block when it is).
pub(crate) fn block_len(n: u64, nblocks: u64, b: u64) -> u64 {
    if b + 1 == nblocks && !n.is_multiple_of(BLOCK_TRIALS) {
        n % BLOCK_TRIALS
    } else {
        BLOCK_TRIALS
    }
}

/// The RNG coordinate of one trial block: hands samplers both stream
/// families derived from `(seed, block)` — see the module docs.
#[derive(Clone, Copy, Debug)]
pub struct BlockRng {
    seed: u64,
    block: u64,
    trial_key: u64,
    noise_key: u64,
}

/// Salt separating the noise-draw stream family from the coin/accept family.
/// An arbitrary odd 64-bit constant; it is finalised through a SplitMix64
/// round in [`BlockRng::new`], so the two families share no linear structure.
const NOISE_STREAM_SALT: u64 = 0xB5AD_4ECE_DA1C_E2A9;

impl BlockRng {
    /// The coordinate of block `block` under master seed `seed`.
    pub fn new(seed: u64, block: u64) -> Self {
        let trial_key = CounterRng::block_key(seed, block);
        BlockRng {
            seed,
            block,
            trial_key,
            noise_key: CounterRng::block_key(trial_key, NOISE_STREAM_SALT),
        }
    }

    /// The block's index.
    pub fn block(&self) -> u64 {
        self.block
    }

    /// The legacy sequential per-block stream (identical to
    /// [`stream_rng`]`(seed, block)`) for samplers that walk trials one at
    /// a time.
    pub fn block_rng(&self) -> StdRng {
        stream_rng(self.seed, self.block)
    }

    /// The counter-based stream of trial `trial` (0-based within the block):
    /// independent per trial, so draws never depend on lane grouping.
    #[inline]
    pub fn trial_rng(&self, trial: u64) -> CounterRng {
        CounterRng::for_trial_key(self.trial_key, trial)
    }

    /// The counter-based **noise-draw** stream of trial `trial`: the same
    /// `(block key, trial index)` derivation as [`BlockRng::trial_rng`], but
    /// keyed through [`NOISE_STREAM_SALT`], so noise-branch selections are a
    /// pure per-trial function that never consumes from — and therefore never
    /// perturbs — the coin/accept draw schedule. Toggling a noise model off
    /// reproduces the noise-free accept counts bit-exactly (pinned by the
    /// adversarial integration suite).
    #[inline]
    pub fn noise_rng(&self, trial: u64) -> CounterRng {
        CounterRng::for_trial_key(self.noise_key, trial)
    }

    /// Fills one lane batch of per-trial draws starting at trial `t0`:
    /// `words.len() / draws.len()` coin-word planes (plane-major) followed
    /// by one accept draw per lane, bit-identical to pulling the same draws
    /// from [`BlockRng::trial_rng`] lane by lane — but evaluated four
    /// trials per instruction when the `qsim::simd` AVX2 path is selected.
    #[inline]
    pub fn fill_lane_streams(&self, t0: u64, words: &mut [u64], draws: &mut [f64]) {
        qsim::simd::fill_trial_streams(self.trial_key, t0, words, draws);
    }
}

/// A prepared sampler that can run a block of protocol rounds, tallying them
/// as `T`: the accept count (`u64`, the default) or, for transport-backed
/// rounds, the three-way [`BlockOutcomes`].
///
/// Implementations must make a block's tally a pure function of
/// `(self, trials, stream)` — independent of the worker slot — to preserve
/// the engine's determinism guarantee.
pub trait BatchSampler<T = u64>: Sync {
    /// Per-worker scratch, built once per slot and reused across blocks.
    type Scratch: Send;

    /// Builds one scratch arena.
    fn scratch(&self) -> Self::Scratch;

    /// Runs `trials` rounds drawing from `stream`, returning their tally.
    fn sample_block(&self, trials: u64, scratch: &mut Self::Scratch, stream: &BlockRng) -> T;
}

/// Hard upper bound on the lane width of [`LaneBatched::sample_lane_block`]:
/// implementations keep their per-lane planes in fixed stack arrays of this
/// size.
pub const MAX_LANES: usize = 64;

/// The lane width the [`BatchSampler`] forwarding impls of the lane-batched
/// plans use: 32 lanes — eight AVX2 registers of accumulators, deep enough
/// to overlap the table-gather latency of consecutive chunks while the
/// lane planes (coin words, accept draws, accumulators) stay inside one
/// cache line pair each. Measured on the reference Xeon it is the scalar
/// path's best width and within a few percent of the AVX2 path's.
pub fn default_lane_width() -> usize {
    32
}

/// A plan whose rounds run as a lane batch of trials in lockstep over
/// SoA-across-trials buffers.
///
/// The contract on top of [`BatchSampler`]'s purity requirement: the accept
/// count must be **identical for every `lanes` value** in
/// `1..=`[`MAX_LANES`]. Implementations get this by drawing each trial's
/// randomness from [`BlockRng::trial_rng`] (a pure function of the trial
/// index) and keeping every cross-lane operation elementwise.
pub trait LaneBatched: Sync {
    /// Runs `trials` rounds in lane batches of (at most) `lanes`, returning
    /// the accept count.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is `0` or exceeds [`MAX_LANES`].
    fn sample_lane_block(&self, trials: u64, stream: &BlockRng, lanes: usize) -> u64;
}

/// A [`LaneBatched`] plan pinned to an explicit lane width — the adapter the
/// lane-invariance tests drive through [`run_trials_with_workers`].
#[derive(Clone, Copy, Debug)]
pub struct LanePinned<'a, S: LaneBatched> {
    inner: &'a S,
    lanes: usize,
}

/// Pins `sampler` to an explicit lane width (see [`LanePinned`]).
///
/// # Panics
///
/// Panics if `lanes` is `0` or exceeds [`MAX_LANES`].
pub fn with_lane_width<S: LaneBatched>(sampler: &S, lanes: usize) -> LanePinned<'_, S> {
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "lane width {lanes} outside 1..={MAX_LANES}"
    );
    LanePinned {
        inner: sampler,
        lanes,
    }
}

impl<S: LaneBatched> BatchSampler for LanePinned<'_, S> {
    type Scratch = ();
    fn scratch(&self) {}
    fn sample_block(&self, trials: u64, _scratch: &mut (), stream: &BlockRng) -> u64 {
        self.inner.sample_lane_block(trials, stream, self.lanes)
    }
}

/// `num / den`, or 0 when `den` is 0 (an empty or instant run): the rate
/// and timing figures of both report types.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The outcome of a batched trial run.
#[derive(Clone, Debug)]
pub struct TrialReport {
    /// Number of sampled rounds.
    pub trials: u64,
    /// Number of accepting rounds.
    pub accepts: u64,
    /// Worker slots the run was dispatched over — the *effective* width:
    /// the requested worker count clamped to the number of RNG blocks
    /// (`⌈trials / BLOCK_TRIALS⌉`), since a block is the dispatch unit.
    pub workers: usize,
    /// Wall-clock duration of the batch.
    pub elapsed: Duration,
}

impl TrialReport {
    /// Empirical acceptance rate `accepts / trials` (0 when empty).
    pub fn acceptance_rate(&self) -> f64 {
        ratio(self.accepts as f64, self.trials as f64)
    }

    /// Empirical rejection rate `1 − acceptance`.
    pub fn rejection_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            1.0 - self.acceptance_rate()
        }
    }

    /// Wilson score interval for the true acceptance probability at normal
    /// quantile `z` — see [`stats::wilson_interval`].
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        stats::wilson_interval(self.accepts, self.trials, z)
    }

    /// Two-sided Hoeffding deviation ε such that
    /// `Pr[|p̂ − p| ≥ ε] ≤ delta` for a correct Bernoulli sampler — see
    /// [`stats::hoeffding_radius`].
    pub fn hoeffding_radius(&self, delta: f64) -> f64 {
        stats::hoeffding_radius(self.trials, delta)
    }

    /// Nanoseconds of wall clock per sampled round.
    pub fn ns_per_round(&self) -> f64 {
        ratio(self.elapsed.as_nanos() as f64, self.trials as f64)
    }

    /// Sampled rounds per second of wall clock.
    pub fn rounds_per_sec(&self) -> f64 {
        ratio(1e9, self.ns_per_round())
    }
}

/// Default dispatch width: the pool's worker policy when the `parallel`
/// feature is enabled, serial otherwise. Explicit widths are always
/// available through [`run_trials_with_workers`].
pub fn default_workers() -> usize {
    if cfg!(feature = "parallel") {
        qsim::pool::worker_count()
    } else {
        1
    }
}

/// Runs `n` trials of `sampler` under master seed `seed` at the default
/// width. See [`run_trials_with_workers`].
pub fn run_trials<S: BatchSampler>(sampler: &S, n: u64, seed: u64) -> TrialReport {
    run_trials_with_workers(sampler, n, seed, default_workers())
}

/// Runs `n` trials of `sampler` under master seed `seed`, dispatched over at
/// most `workers` pool slots. The accept count is identical for every
/// `workers` value (see the module docs); only the wall clock changes.
pub fn run_trials_with_workers<S: BatchSampler>(
    sampler: &S,
    n: u64,
    seed: u64,
    workers: usize,
) -> TrialReport {
    run_trials_observed(sampler, n, seed, workers, None, &|_| None, &|_, _, _| {})
}

/// Runs up to `n` trials of `sampler` under master seed `seed` over at most
/// `workers` pool slots, issuing no block once `deadline` (when given) has
/// passed. Returns a *partial* [`TrialReport`] over the contiguous prefix
/// of completed blocks: its `trials` field is some `k · BLOCK_TRIALS ≤ n`
/// (or `n` when the run completes).
///
/// That prefix is bit-identical to the same prefix of an unbounded
/// [`run_trials`] with the same `(sampler, n, seed)`: deadline expiry never
/// changes *which* rounds were sampled, only how many. This is the property
/// the serving layer's crash-recovery journal relies on (see
/// [`crate::service`]).
///
/// For each block `b`, the engine first consults `cached(b)`; a
/// `Some(accepts)` is taken as the block's accept count without sampling
/// (the caller vouches it came from an identical `(sampler, seed, block)`
/// run — block determinism makes such reuse exact). Freshly sampled blocks
/// are reported to `observe(b, len, accepts)` as they finish, possibly from
/// several workers at once and out of block order; that is the journaling
/// hook: a crash loses at most the blocks in flight, and replaying observed
/// blocks through `cached` resumes the run bit-identically.
///
/// The deadline is checked before each block is sampled (a block is the
/// unit of both dispatch and determinism), and cached blocks never consume
/// budget.
pub fn run_trials_observed<S: BatchSampler>(
    sampler: &S,
    n: u64,
    seed: u64,
    workers: usize,
    deadline: Option<Instant>,
    cached: &(dyn Fn(u64) -> Option<u64> + Sync),
    observe: &(dyn Fn(u64, u64, u64) + Sync),
) -> TrialReport {
    let (trials, accepts, workers, elapsed) =
        drive(sampler, n, seed, workers, deadline, cached, observe);
    TrialReport {
        trials,
        accepts,
        workers,
        elapsed,
    }
}

// ---------------------------------------------------------------------------
// Three-way outcome engine (transport-backed rounds)
// ---------------------------------------------------------------------------

/// Tallies of one block of transport-backed rounds. Unlike the boolean
/// accept count of a `BatchSampler<u64>`, fault-injected rounds terminate
/// in one of *three* states (accept / reject / abort-with-cause), and the
/// engine additionally folds a transcript digest for the reproducibility
/// tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockOutcomes {
    /// Rounds where every verifier completed and all accepted.
    pub accepts: u64,
    /// Rounds where every verifier completed and at least one rejected.
    pub rejects: u64,
    /// Rounds that aborted on a fault (`RoundOutcome::Aborted`).
    pub aborts: u64,
    /// Envelope transmissions (including retransmissions).
    pub messages: u64,
    /// Retransmissions alone.
    pub retries: u64,
    /// XOR-fold of per-delivery transcript hashes. XOR is commutative, so
    /// the digest — like the counts — is bit-identical at any worker count.
    pub digest: u64,
}

impl BlockOutcomes {
    /// Accumulates `other` (commutative, so block merge order is free).
    pub fn merge(&mut self, other: &BlockOutcomes) {
        self.accepts += other.accepts;
        self.rejects += other.rejects;
        self.aborts += other.aborts;
        self.messages += other.messages;
        self.retries += other.retries;
        self.digest ^= other.digest;
    }
}

/// The outcome of a batched three-way trial run.
#[derive(Clone, Debug)]
pub struct OutcomeReport {
    /// Number of sampled rounds.
    pub trials: u64,
    /// Merged per-block tallies.
    pub outcomes: BlockOutcomes,
    /// Effective dispatch width (see [`TrialReport::workers`]).
    pub workers: usize,
    /// Wall-clock duration of the batch.
    pub elapsed: Duration,
}

impl OutcomeReport {
    /// Empirical accept rate `accepts / trials` (0 when empty). Aborted
    /// rounds count against acceptance — graceful degradation shows up as a
    /// completeness loss, exactly what the fault sweeps chart.
    pub fn accept_rate(&self) -> f64 {
        ratio(self.outcomes.accepts as f64, self.trials as f64)
    }

    /// Empirical abort rate `aborts / trials` (0 when empty).
    pub fn abort_rate(&self) -> f64 {
        ratio(self.outcomes.aborts as f64, self.trials as f64)
    }

    /// Two-sided Hoeffding deviation for the accept rate; see
    /// [`stats::hoeffding_radius`].
    pub fn hoeffding_radius(&self, delta: f64) -> f64 {
        stats::hoeffding_radius(self.trials, delta)
    }

    /// Nanoseconds of wall clock per sampled round.
    pub fn ns_per_round(&self) -> f64 {
        ratio(self.elapsed.as_nanos() as f64, self.trials as f64)
    }

    /// Sampled rounds per second of wall clock.
    pub fn rounds_per_sec(&self) -> f64 {
        ratio(1e9, self.ns_per_round())
    }
}

/// Runs `n` three-way trials of `sampler` under master seed `seed`,
/// dispatched over at most `workers` pool slots. Identical block-index
/// determinism contract as [`run_trials_with_workers`]: counts *and* the
/// transcript digest are bit-identical at every worker count.
pub fn run_outcome_trials_with_workers<S: BatchSampler<BlockOutcomes>>(
    sampler: &S,
    n: u64,
    seed: u64,
    workers: usize,
) -> OutcomeReport {
    let (trials, outcomes, workers, elapsed) =
        drive(sampler, n, seed, workers, None, &|_| None, &|_, _, _| {});
    OutcomeReport {
        trials,
        outcomes,
        workers,
        elapsed,
    }
}

// ---------------------------------------------------------------------------
// The block driver
// ---------------------------------------------------------------------------

/// A per-block tally the driver folds. Both folds are commutative, so the
/// total cannot depend on which worker ran which block.
trait Tally: Copy + Default + Send + Sync {
    fn fold(&mut self, block: &Self);
}

impl Tally for u64 {
    fn fold(&mut self, block: &u64) {
        *self += block;
    }
}

impl Tally for BlockOutcomes {
    fn fold(&mut self, block: &BlockOutcomes) {
        self.merge(block);
    }
}

/// The block driver behind every runner in this module: splits `n` trials
/// into [`BLOCK_TRIALS`] blocks, dispatches them over at most `workers`
/// [`qsim::pool`] slots (clamped to the block count, since a block is the
/// dispatch unit; at width 1 the pool runs every block inline, in order)
/// with one scratch arena per slot, applies the `cached` / `deadline` /
/// `observe` hooks as [`run_trials_observed`] documents them, and folds the
/// tallies of the contiguous prefix of counted blocks. That prefix is what
/// makes a deadline-cut run bit-identical to the same prefix of an
/// unbounded run at any width. Returns `(trials, tally, workers, elapsed)`
/// over the prefix.
fn drive<T: Tally, S: BatchSampler<T>>(
    sampler: &S,
    n: u64,
    seed: u64,
    workers: usize,
    deadline: Option<Instant>,
    cached: &(dyn Fn(u64) -> Option<T> + Sync),
    observe: &(dyn Fn(u64, u64, T) + Sync),
) -> (u64, T, usize, Duration) {
    let start = Instant::now();
    let nblocks = n.div_ceil(BLOCK_TRIALS);
    let workers = workers.max(1).min((nblocks as usize).max(1));
    let scratch = qsim::pool::SlotScratch::new(workers, || sampler.scratch());
    let tallies: Vec<OnceLock<T>> = (0..nblocks).map(|_| OnceLock::new()).collect();
    qsim::pool::global().dispatch(workers, nblocks as usize, &|slot, chunk| {
        let b = chunk as u64;
        let tally = match cached(b) {
            Some(t) => t,
            None => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return;
                }
                let len = block_len(n, nblocks, b);
                // SAFETY: `slot` is the pool-provided slot id of this job.
                let s = unsafe { scratch.get(slot) };
                let t = sampler.sample_block(len, s, &BlockRng::new(seed, b));
                observe(b, len, t);
                t
            }
        };
        let _ = tallies[chunk].set(tally);
    });
    let mut trials = 0;
    let mut total = T::default();
    for (b, t) in tallies.iter().map_while(OnceLock::get).enumerate() {
        trials += block_len(n, nblocks, b as u64);
        total.fold(t);
    }
    (trials, total, workers, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A Bernoulli(p) sampler whose scratch counts the blocks it served —
    /// enough to pin the engine's plumbing without any protocol machinery.
    struct Coin {
        p: f64,
    }

    impl BatchSampler for Coin {
        type Scratch = u64;
        fn scratch(&self) -> u64 {
            0
        }
        fn sample_block(&self, trials: u64, scratch: &mut u64, stream: &BlockRng) -> u64 {
            *scratch += 1;
            let mut rng = stream.block_rng();
            (0..trials).filter(|_| rng.random::<f64>() < self.p).count() as u64
        }
    }

    /// A lane-batched Bernoulli(p) sampler drawing per-trial counter
    /// streams — pins the grouping-invariance contract without any protocol
    /// machinery.
    struct LaneCoin {
        p: f64,
    }

    impl LaneBatched for LaneCoin {
        fn sample_lane_block(&self, trials: u64, stream: &BlockRng, lanes: usize) -> u64 {
            assert!((1..=MAX_LANES).contains(&lanes));
            let mut draw = [0.0f64; MAX_LANES];
            let mut acc = [0.0f64; MAX_LANES];
            let mut accepts = 0u64;
            let mut t = 0u64;
            while t < trials {
                let l = (lanes as u64).min(trials - t) as usize;
                for (i, d) in draw[..l].iter_mut().enumerate() {
                    *d = stream.trial_rng(t + i as u64).random::<f64>();
                }
                acc[..l].fill(self.p);
                accepts += qsim::simd::count_accepts(&draw[..l], &acc[..l]);
                t += l as u64;
            }
            accepts
        }
    }

    #[test]
    fn accept_counts_are_identical_across_worker_counts() {
        let coin = Coin { p: 0.37 };
        let n = 3 * BLOCK_TRIALS + 1234;
        let base = run_trials_with_workers(&coin, n, 99, 1);
        for workers in [2usize, 4, 8] {
            let r = run_trials_with_workers(&coin, n, 99, workers);
            assert_eq!(
                r.accepts, base.accepts,
                "accept count must not depend on worker count ({workers})"
            );
            assert_eq!(r.trials, n);
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let coin = Coin { p: 0.5 };
        let a = run_trials(&coin, 2 * BLOCK_TRIALS, 1);
        let b = run_trials(&coin, 2 * BLOCK_TRIALS, 2);
        assert_ne!(a.accepts, b.accepts, "distinct seeds should diverge");
    }

    #[test]
    fn rate_tracks_the_true_probability() {
        let coin = Coin { p: 0.25 };
        let r = run_trials(&coin, 100_000, 7);
        let eps = r.hoeffding_radius(1e-9);
        assert!(
            (r.acceptance_rate() - 0.25).abs() < eps,
            "rate {} vs 0.25 (margin {eps})",
            r.acceptance_rate()
        );
        let (lo, hi) = r.wilson_interval(5.0);
        assert!(lo <= 0.25 && 0.25 <= hi, "wilson ({lo}, {hi}) misses 0.25");
    }

    #[test]
    fn partial_last_block_and_empty_runs_are_handled() {
        let coin = Coin { p: 1.0 };
        let r = run_trials(&coin, BLOCK_TRIALS + 17, 3);
        assert_eq!(r.accepts, BLOCK_TRIALS + 17);
        let zero = run_trials(&coin, 0, 3);
        assert_eq!(zero.trials, 0);
        assert_eq!(zero.accepts, 0);
        assert_eq!(zero.acceptance_rate(), 0.0);
        let small = run_trials(&coin, 5, 3);
        assert_eq!(small.accepts, 5);
    }

    /// A three-way sampler splitting trials accept/reject/abort by two
    /// thresholds, with a toy digest — pins the outcome engine's plumbing.
    struct ThreeWay {
        accept: f64,
        abort: f64,
    }

    impl BatchSampler<BlockOutcomes> for ThreeWay {
        type Scratch = ();
        fn scratch(&self) {}
        fn sample_block(&self, trials: u64, _s: &mut (), stream: &BlockRng) -> BlockOutcomes {
            let mut rng = stream.block_rng();
            let mut out = BlockOutcomes::default();
            for _ in 0..trials {
                let x: f64 = rng.random();
                if x < self.abort {
                    out.aborts += 1;
                } else if x < self.abort + self.accept {
                    out.accepts += 1;
                } else {
                    out.rejects += 1;
                }
                out.messages += 2;
                out.digest ^= x.to_bits().rotate_left(out.accepts as u32);
            }
            out
        }
    }

    #[test]
    fn outcome_engine_is_worker_invariant_including_digest() {
        let s = ThreeWay {
            accept: 0.5,
            abort: 0.2,
        };
        let n = 3 * BLOCK_TRIALS + 77;
        let base = run_outcome_trials_with_workers(&s, n, 13, 1);
        assert_eq!(
            base.outcomes.accepts + base.outcomes.rejects + base.outcomes.aborts,
            n,
            "every trial must terminate in exactly one outcome"
        );
        for workers in [2usize, 4, 8] {
            let r = run_outcome_trials_with_workers(&s, n, 13, workers);
            assert_eq!(r.outcomes, base.outcomes, "workers = {workers}");
        }
        let other = run_outcome_trials_with_workers(&s, n, 14, 1);
        assert_ne!(other.outcomes.digest, base.outcomes.digest);
    }

    #[test]
    fn block_len_is_full_on_exact_multiples_and_truncates_the_tail() {
        // Exact multiple: every block — including the last — is full.
        let n = 3 * BLOCK_TRIALS;
        let nblocks = n.div_ceil(BLOCK_TRIALS);
        assert_eq!(nblocks, 3);
        for b in 0..nblocks {
            assert_eq!(block_len(n, nblocks, b), BLOCK_TRIALS, "block {b}");
        }
        // Remainder: only the final block shortens.
        let n = 3 * BLOCK_TRIALS + 17;
        let nblocks = n.div_ceil(BLOCK_TRIALS);
        assert_eq!(nblocks, 4);
        assert_eq!(block_len(n, nblocks, 0), BLOCK_TRIALS);
        assert_eq!(block_len(n, nblocks, 2), BLOCK_TRIALS);
        assert_eq!(block_len(n, nblocks, 3), 17);
        // Sub-block run: one short block.
        assert_eq!(block_len(5, 1, 0), 5);
        // Engine-level pin of the exact-multiple boundary: totals add up.
        let r = run_trials(&Coin { p: 1.0 }, 2 * BLOCK_TRIALS, 3);
        assert_eq!(r.accepts, 2 * BLOCK_TRIALS);
    }

    #[test]
    fn lane_batched_accepts_are_invariant_across_lane_widths_and_workers() {
        let coin = LaneCoin { p: 0.37 };
        let n = 3 * BLOCK_TRIALS + 1234;
        let base = run_trials_with_workers(&with_lane_width(&coin, 1), n, 99, 1);
        for lanes in [2usize, 4, 8, 16, 63, MAX_LANES] {
            for workers in [1usize, 2, 4] {
                let r = run_trials_with_workers(&with_lane_width(&coin, lanes), n, 99, workers);
                assert_eq!(
                    r.accepts, base.accepts,
                    "lane width {lanes} × workers {workers} must not change accepts"
                );
            }
        }
        // The counter streams really are per-trial: a different seed moves
        // the count, so the invariance above is not vacuous.
        let other = run_trials_with_workers(&with_lane_width(&coin, 4), n, 100, 1);
        assert_ne!(other.accepts, base.accepts);
    }

    #[test]
    #[should_panic(expected = "lane width")]
    fn lane_width_zero_is_rejected() {
        let coin = LaneCoin { p: 0.5 };
        let _ = with_lane_width(&coin, 0);
    }

    #[test]
    fn noise_stream_is_a_distinct_deterministic_family() {
        use rand::RngCore;
        let b = BlockRng::new(42, 3);
        // Same (seed, block, trial) coordinate, different stream family.
        assert_ne!(b.trial_rng(7).next_u64(), b.noise_rng(7).next_u64());
        // Pure function of the coordinate: reopening reproduces the draws.
        assert_eq!(
            b.noise_rng(7).next_u64(),
            BlockRng::new(42, 3).noise_rng(7).next_u64()
        );
        // Distinct trials and blocks give distinct noise streams.
        assert_ne!(b.noise_rng(7).next_u64(), b.noise_rng(8).next_u64());
        assert_ne!(
            b.noise_rng(7).next_u64(),
            BlockRng::new(42, 4).noise_rng(7).next_u64()
        );
    }

    /// A [`Coin`] that sleeps through every block and records which threads
    /// sampled, so a second worker has time to claim blocks and a test can
    /// check that it did.
    struct SlowCoin {
        coin: Coin,
        threads: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl BatchSampler for SlowCoin {
        type Scratch = u64;
        fn scratch(&self) -> u64 {
            0
        }
        fn sample_block(&self, trials: u64, scratch: &mut u64, stream: &BlockRng) -> u64 {
            let id = std::thread::current().id();
            self.threads.lock().unwrap().insert(id);
            std::thread::sleep(Duration::from_millis(1));
            self.coin.sample_block(trials, scratch, stream)
        }
    }

    /// Runs `case` on a fresh `SlowCoin { p: 0.37 }` until at least
    /// `min(workers, 2)` threads sampled blocks, and returns its result. A
    /// dispatch that meets another test's dispatch on the shared pool runs
    /// inline, so a width-2 case retries until the parallel path really ran.
    fn on_threads<R>(workers: usize, case: impl Fn(&SlowCoin) -> R) -> R {
        for _ in 0..100 {
            let coin = SlowCoin {
                coin: Coin { p: 0.37 },
                threads: Default::default(),
            };
            let r = case(&coin);
            if coin.threads.into_inner().unwrap().len() >= workers.min(2) {
                return r;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!(
            "no run at width {workers} engaged {} threads",
            workers.min(2)
        );
    }

    #[test]
    fn deadline_none_matches_unbounded_engine_bit_identically() {
        let n = 3 * BLOCK_TRIALS + 511;
        let full = run_trials_with_workers(&Coin { p: 0.37 }, n, 21, 1);
        for workers in [1usize, 2] {
            let budgeted = on_threads(workers, |coin| {
                run_trials_observed(coin, n, 21, workers, None, &|_| None, &|_, _, _| {})
            });
            assert_eq!(budgeted.trials, full.trials, "workers = {workers}");
            assert_eq!(budgeted.accepts, full.accepts, "workers = {workers}");
        }
    }

    #[test]
    fn expired_deadline_yields_an_empty_partial_report() {
        let coin = Coin { p: 0.5 };
        let past = Instant::now() - Duration::from_secs(1);
        let n = 10 * BLOCK_TRIALS;
        let r = run_trials_observed(&coin, n, 7, 1, Some(past), &|_| None, &|_, _, _| {});
        assert_eq!(r.trials, 0);
        assert_eq!(r.accepts, 0);
        // A zero-trial report still carries a (vacuous) Wilson interval.
        assert_eq!(r.wilson_interval(1.96), (0.0, 1.0));
    }

    /// Per-block accepts of the unbounded run, in block order, as the
    /// observe hook journals them.
    fn journal_blocks<S: BatchSampler>(
        coin: &S,
        n: u64,
        seed: u64,
        workers: usize,
    ) -> (TrialReport, Vec<u64>) {
        let journal = std::sync::Mutex::new(Vec::new());
        let full = run_trials_observed(coin, n, seed, workers, None, &|_| None, &|b, len, a| {
            journal.lock().unwrap().push((b, len, a))
        });
        let mut journal = journal.into_inner().unwrap();
        journal.sort_unstable();
        assert!(journal
            .iter()
            .enumerate()
            .all(|(i, &(b, _, _))| b == i as u64));
        (full, journal.into_iter().map(|(_, _, a)| a).collect())
    }

    #[test]
    fn partial_prefixes_are_bit_identical_to_the_unbounded_run() {
        // Record per-block accepts of the unbounded run, then check that a
        // resumed run driven through the cache hook reproduces the total
        // without resampling the journaled prefix.
        let n = 5 * BLOCK_TRIALS + 100;
        for workers in [1usize, 2] {
            let (full, journal) = on_threads(workers, |coin| journal_blocks(coin, n, 33, workers));
            assert_eq!(journal.len(), 6);
            // Every observed prefix sums to a valid partial report.
            let prefix: u64 = journal[..3].iter().sum();
            // Resume: blocks 0..3 come from the "journal", the rest sample
            // live.
            let (resumed, resumed_fresh) = on_threads(workers, |coin| {
                let fresh = AtomicU64::new(0);
                let r = run_trials_observed(
                    coin,
                    n,
                    33,
                    workers,
                    None,
                    &|b| (b < 3).then(|| journal[b as usize]),
                    &|_, _, _| {
                        fresh.fetch_add(1, Ordering::Relaxed);
                    },
                );
                (r, fresh.into_inner())
            });
            assert_eq!(
                resumed_fresh, 3,
                "only the unjournaled blocks resample (workers = {workers})"
            );
            assert_eq!(resumed.trials, full.trials);
            assert_eq!(
                resumed.accepts, full.accepts,
                "resume must be bit-identical (workers = {workers})"
            );
            assert_eq!(prefix + journal[3..].iter().sum::<u64>(), full.accepts);
        }
    }

    #[test]
    fn deadline_mid_run_at_width_two_reports_a_contiguous_block_prefix() {
        let n = 64 * BLOCK_TRIALS;
        let (_, journal) = journal_blocks(&Coin { p: 0.37 }, n, 47, 1);
        let r = on_threads(2, |coin| {
            // 64 blocks of at least 1 ms over two workers cannot finish in
            // 10 ms.
            let deadline = Instant::now() + Duration::from_millis(10);
            run_trials_observed(coin, n, 47, 2, Some(deadline), &|_| None, &|_, _, _| {})
        });
        assert!(r.trials < n, "the deadline must cut the run");
        assert_eq!(r.trials % BLOCK_TRIALS, 0, "a partial run ends on a block");
        let k = (r.trials / BLOCK_TRIALS) as usize;
        assert_eq!(
            r.accepts,
            journal[..k].iter().sum::<u64>(),
            "the partial report is the unbounded run's {k}-block prefix"
        );
    }

    #[test]
    fn stats_module_matches_report_methods() {
        let r = run_trials(&Coin { p: 0.5 }, 10_000, 5);
        assert_eq!(r.hoeffding_radius(1e-9), stats::hoeffding_margin(r.trials));
        assert_eq!(
            r.wilson_interval(1.96),
            stats::wilson_interval(r.accepts, r.trials, 1.96)
        );
        assert_eq!(stats::wilson_interval(0, 0, 1.96), (0.0, 1.0));
        assert_eq!(stats::hoeffding_radius(0, 1e-9), 1.0);
    }

    #[test]
    fn wilson_interval_stays_in_bounds_at_the_boundary() {
        let always = run_trials(&Coin { p: 1.0 }, 1000, 11);
        let (lo, hi) = always.wilson_interval(1.96);
        assert!(hi <= 1.0 && lo > 0.9, "interval ({lo}, {hi})");
        let never = run_trials(&Coin { p: 0.0 }, 1000, 11);
        let (lo, hi) = never.wilson_interval(1.96);
        assert!(lo >= 0.0 && hi < 0.1, "interval ({lo}, {hi})");
    }
}
