//! Seeded inputs. Everything the program receives — instances, x/y,
//! scheme seeds, trial seeds, the arrival schedule, fault plans and fault
//! salts (through the per-call trial seeds) — is generated here from the
//! workload seed and nothing else. The same seed gives byte-identical
//! inputs ([`render`] is the byte form the tests compare).

use dqma::service::{CheatSpec, InstanceSpec, JobSpec};
use dqma::trials::BLOCK_TRIALS;
use netsim::FaultPlan;

use crate::rng::SeedRng;

/// Input width of every generated instance.
pub const BITS: usize = 8;

/// A seed a job or instance carries. The server reads JSON numbers as
/// `f64`, which holds integers exactly only up to 2^53, so wire seeds stay
/// below that.
fn wire_seed(rng: &mut SeedRng) -> u64 {
    rng.next_u64() >> 11
}

/// A random `BITS`-bit input.
fn input(rng: &mut SeedRng) -> u64 {
    rng.range(0, (1 << BITS) - 1)
}

/// An input that differs from `x` in at least one bit.
fn other_input(rng: &mut SeedRng, x: u64) -> u64 {
    x ^ rng.range(1, (1 << BITS) - 1)
}

/// An EQ-path instance; `cheat` draws `y ≠ x` against the interpolating
/// prover, otherwise the instance is honest (`y = x`).
pub fn eq_path(rng: &mut SeedRng, r: usize, cheat: bool) -> InstanceSpec {
    let x = input(rng);
    let y = if cheat { other_input(rng, x) } else { x };
    InstanceSpec::EqPath {
        r,
        bits: BITS,
        x,
        y,
        scheme_seed: wire_seed(rng),
        reps: 1,
        cheat: CheatSpec::Interpolate,
    }
}

fn relay(rng: &mut SeedRng, r: usize, cheat: bool) -> InstanceSpec {
    let x = input(rng);
    let y = if cheat { other_input(rng, x) } else { x };
    InstanceSpec::Relay {
        r,
        bits: BITS,
        x,
        y,
        seed: wire_seed(rng),
        cheat: CheatSpec::Interpolate,
    }
}

fn spider(rng: &mut SeedRng, arms: usize, arm_len: usize, cheat: bool) -> InstanceSpec {
    let x = input(rng);
    let y = if cheat { other_input(rng, x) } else { x };
    InstanceSpec::EqTree {
        arms,
        arm_len,
        bits: BITS,
        x,
        y,
        scheme_seed: wire_seed(rng),
        reps: 1,
    }
}

// ---------------------------------------------------------------------------
// batch
// ---------------------------------------------------------------------------

/// One member of the `batch` family.
#[derive(Clone, Debug)]
pub struct BatchItem {
    pub label: &'static str,
    pub spec: InstanceSpec,
    /// Calls per deck.
    pub calls: usize,
    /// Trials per call.
    pub trials: u64,
}

/// The `batch` family: EQ-path r ∈ {8, 32, 62} honest and cheating, relay
/// r = 32, and the 4×3 spider. An EQ-path call samples 2^20 rounds; a relay
/// or spider round costs about seven EQ-path r = 32 rounds, so their calls
/// sample 2^17 and every call takes a similar time. The reference EQ-path
/// r = 32 (item 0) gets 43 of every 50 calls, so the median call is a
/// reference call and the p99 falls among the r = 62 calls.
pub fn batch_family(seed: u64) -> Vec<BatchItem> {
    let mut rng = SeedRng::new(seed, "batch.family");
    let item = |label, spec, calls, trials| BatchItem {
        label,
        spec,
        calls,
        trials,
    };
    let (long, short) = (1 << 20, 1 << 17);
    vec![
        item("eq_path_r32", eq_path(&mut rng, 32, false), 43, long),
        item("eq_path_r32_cheat", eq_path(&mut rng, 32, true), 1, long),
        item("eq_path_r8", eq_path(&mut rng, 8, false), 1, long),
        item("eq_path_r8_cheat", eq_path(&mut rng, 8, true), 1, long),
        item("eq_path_r62", eq_path(&mut rng, 62, false), 1, long),
        item("eq_path_r62_cheat", eq_path(&mut rng, 62, true), 1, long),
        item("relay_r32", relay(&mut rng, 32, false), 1, short),
        item("spider_4x3", spider(&mut rng, 4, 3, false), 1, short),
    ]
}

/// The closed-loop call sequence: decks of every item's calls, each deck
/// in a fresh seeded order, each call with a fresh trial seed. Infinite;
/// the caller stops when its time is up.
pub fn batch_calls(seed: u64, family: &[BatchItem]) -> impl Iterator<Item = (usize, u64)> {
    let mut rng = SeedRng::new(seed, "batch.calls");
    let deck: Vec<usize> = family
        .iter()
        .enumerate()
        .flat_map(|(i, it)| std::iter::repeat_n(i, it.calls))
        .collect();
    std::iter::repeat(()).flat_map(move |()| {
        let mut d = deck.clone();
        rng.shuffle(&mut d);
        d.into_iter()
            .map(|i| (i, rng.next_u64()))
            .collect::<Vec<_>>()
    })
}

/// The r = 128 EQ-path instance whose plan takes the per-trial walk
/// (k > 62), for the kernel probe.
pub fn walk_instance(seed: u64) -> InstanceSpec {
    eq_path(&mut SeedRng::new(seed, "kernel.walk"), 128, false)
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// What part of the `serve` mix a job belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobClass {
    /// 1–4 blocks of a short-path instance, any protocol.
    Short,
    /// An exact repeat of an earlier short job: its blocks come from the
    /// block memo.
    Repeat,
    /// A multi-block EQ-path r ∈ [64, 128] job: the per-trial walk.
    Long,
}

/// One scheduled job of the open-loop `serve` schedule.
#[derive(Clone, Debug)]
pub struct ServeJob {
    /// Send time in seconds from the start of the rung.
    pub at: f64,
    pub class: JobClass,
    pub spec: JobSpec,
}

/// Jobs per deck of the `serve` mix: 40 short, 9 repeats, 1 long, in a
/// seeded order per deck. With one long job in 50, the p99 of 1000 jobs is
/// the median long job: the walk's typical latency, not its luckiest or
/// unluckiest draw.
const SERVE_DECK: [(JobClass, usize); 3] = [
    (JobClass::Short, 40),
    (JobClass::Repeat, 9),
    (JobClass::Long, 1),
];

/// Size of the pool of long-job instances.
const LONG_POOL: usize = 16;

/// Work of every long job, in path length × blocks: a long job on a path of
/// length `r` asks for `LONG_WORK / r` blocks' worth of trials, so each one
/// costs about the same walk time and the tail is not a lottery over sizes.
const LONG_WORK: u64 = 384;

/// The instance pools shared by every rung of one run: 24 short-path
/// instances (8 EQ-path, 8 relay, 8 spider) and 16 long EQ-path instances
/// spread evenly over r ∈ [64, 128).
pub fn serve_pools(seed: u64) -> (Vec<InstanceSpec>, Vec<InstanceSpec>) {
    let mut rng = SeedRng::new(seed, "serve.pools");
    let mut short = Vec::new();
    for _ in 0..8 {
        let r = rng.range(4, 48) as usize;
        let cheat = rng.range(0, 1) == 1;
        short.push(eq_path(&mut rng, r, cheat));
    }
    for _ in 0..8 {
        let r = rng.range(8, 48) as usize;
        let cheat = rng.range(0, 1) == 1;
        short.push(relay(&mut rng, r, cheat));
    }
    for _ in 0..8 {
        let (arms, len) = (rng.range(2, 4) as usize, rng.range(1, 3) as usize);
        let cheat = rng.range(0, 1) == 1;
        short.push(spider(&mut rng, arms, len, cheat));
    }
    let long = (0..LONG_POOL)
        .map(|i| {
            let r = 64 + 4 * i + rng.range(0, 3) as usize;
            let cheat = rng.range(0, 1) == 1;
            eq_path(&mut rng, r, cheat)
        })
        .collect();
    (short, long)
}

/// The open-loop schedule of rung `rung`: `n` jobs with Poisson arrivals at
/// `rate` per second. The arrival times are scaled so the last one lands at
/// exactly `n / rate`: every seed offers the nominal rate. Within a deck
/// the short jobs take 1, 2, 3 and 4 blocks equally often, in seeded
/// order.
pub fn serve_schedule(seed: u64, rung: usize, rate: f64, n: usize) -> Vec<ServeJob> {
    let (short, long) = serve_pools(seed);
    let mut rng = SeedRng::new(seed, &format!("serve.rung{rung}"));
    let mut jobs: Vec<ServeJob> = Vec::with_capacity(n);
    let mut at = 0.0;
    while jobs.len() < n {
        let mut deck: Vec<JobClass> = SERVE_DECK
            .iter()
            .flat_map(|&(c, k)| std::iter::repeat_n(c, k))
            .collect();
        rng.shuffle(&mut deck);
        let mut sizes: Vec<u64> = (0..SERVE_DECK[0].1 as u64).map(|i| 1 + i % 4).collect();
        rng.shuffle(&mut sizes);
        for class in deck.into_iter().take(n - jobs.len()) {
            at += rng.exp(1.0 / rate);
            let earlier: Vec<&ServeJob> = jobs
                .iter()
                .rev()
                .take(40)
                .filter(|j| j.class == JobClass::Short)
                .collect();
            let (class, spec) = match class {
                JobClass::Repeat if !earlier.is_empty() => {
                    let pick = earlier[rng.range(0, earlier.len() as u64 - 1) as usize];
                    (JobClass::Repeat, pick.spec.clone())
                }
                JobClass::Long => {
                    let inst = long[rng.range(0, LONG_POOL as u64 - 1) as usize].clone();
                    let InstanceSpec::EqPath { r, .. } = inst else {
                        unreachable!("long jobs are EQ paths");
                    };
                    let trials = BLOCK_TRIALS * LONG_WORK / r as u64 / 256 * 256;
                    (JobClass::Long, job(inst, trials, wire_seed(&mut rng)))
                }
                _ => {
                    let inst = short[rng.range(0, short.len() as u64 - 1) as usize].clone();
                    let blocks = sizes.pop().unwrap_or(4);
                    (
                        JobClass::Short,
                        job(inst, blocks * BLOCK_TRIALS, wire_seed(&mut rng)),
                    )
                }
            };
            jobs.push(ServeJob { at, class, spec });
        }
    }
    let scale = n as f64 / rate / at;
    for j in &mut jobs {
        j.at *= scale;
    }
    jobs
}

fn job(instance: InstanceSpec, trials: u64, seed: u64) -> JobSpec {
    JobSpec {
        instance,
        trials,
        seed,
        deadline_ms: None,
        chaos: None,
    }
}

// ---------------------------------------------------------------------------
// faults and fleet
// ---------------------------------------------------------------------------

/// The three seeded fault plans of `faults`: quiet, 15 % drops, and 15 %
/// drops with latency jitter (base + jitter stays under the first retry
/// timeout, so jitter reorders messages without forcing retries by itself).
pub fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("quiet", FaultPlan::none()),
        ("drop15", FaultPlan::with_drop(0.15)),
        (
            "drop15_jitter",
            FaultPlan {
                latency_base: 256,
                latency_jitter: 2048,
                ..FaultPlan::with_drop(0.15)
            },
        ),
    ]
}

/// The honest programs of `faults`: EQ-path r = 32 and the 4×3 spider.
pub fn faults_instances(seed: u64) -> Vec<(&'static str, InstanceSpec)> {
    let mut rng = SeedRng::new(seed, "faults.instances");
    vec![
        ("eq_path_r32", eq_path(&mut rng, 32, false)),
        ("spider_4x3", spider(&mut rng, 4, 3, false)),
    ]
}

/// One `faults` case: program and fault plan (indices into
/// [`faults_instances`] and [`fault_plans`]), its calls in every deck, and
/// the trials of each call.
pub struct FaultCase {
    pub program: usize,
    pub plan: usize,
    pub calls: usize,
    pub trials: u64,
}

/// The `faults` cases. A round's cost differs up to eightfold between them,
/// so trials are set in half blocks to make every call cost about the same
/// (20–26 ms at one worker on a 2-vCPU Xeon). The reference case, EQ-path
/// r = 32 under 15 % drops, takes 5 of every 10 calls, so the median call
/// is a reference call rather than the border between two cases.
pub fn faults_cases() -> Vec<FaultCase> {
    let half = BLOCK_TRIALS / 2;
    let case = |program, plan, calls, halves: u64| FaultCase {
        program,
        plan,
        calls,
        trials: halves * half,
    };
    vec![
        case(0, 1, 5, 1),
        case(0, 0, 1, 3),
        case(0, 2, 1, 1),
        case(1, 0, 1, 6),
        case(1, 1, 1, 3),
        case(1, 2, 1, 3),
    ]
}

/// The honest reference EQ-path r = 32 instance the `fleet` runs.
pub fn fleet_instance(seed: u64) -> InstanceSpec {
    eq_path(&mut SeedRng::new(seed, "fleet.instance"), 32, false)
}

/// Per-call trial seeds (and, through them, the per-trial fault salts) of
/// a closed-loop workload, in call order.
pub fn call_seeds(seed: u64, workload: &str) -> impl Iterator<Item = u64> {
    let mut rng = SeedRng::new(seed, &format!("{workload}.calls"));
    std::iter::repeat_with(move || rng.next_u64())
}

/// A deck order over cases, case `i` appearing `calls[i]` times in every
/// deck, reshuffled per deck.
pub fn deck_order(seed: u64, workload: &str, calls: &[usize]) -> impl Iterator<Item = usize> {
    let mut rng = SeedRng::new(seed, &format!("{workload}.deck"));
    let deck: Vec<usize> = calls
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    std::iter::repeat(()).flat_map(move |()| {
        let mut d = deck.clone();
        rng.shuffle(&mut d);
        d
    })
}

/// The byte form of every input a seed generates (first `n` of each
/// stream), compared byte for byte by the determinism test.
#[cfg(test)]
pub fn render(seed: u64, n: usize) -> String {
    let mut out = String::new();
    let family = batch_family(seed);
    for it in &family {
        out += &format!(
            "batch {} {} {} {}\n",
            it.label,
            it.calls,
            it.trials,
            it.spec.encode()
        );
    }
    for (i, s) in batch_calls(seed, &family).take(n) {
        out += &format!("call {i} {s}\n");
    }
    out += &format!("walk {}\n", walk_instance(seed).encode());
    for j in serve_schedule(seed, 0, 200.0, n) {
        out += &format!(
            "job {:016x} {:?} {}\n",
            j.at.to_bits(),
            j.class,
            j.spec.encode()
        );
    }
    for (label, spec) in faults_instances(seed) {
        out += &format!("faults {label} {}\n", spec.encode());
    }
    for (label, p) in fault_plans() {
        out += &format!("plan {label} {p:?}\n");
    }
    let faults_calls: Vec<usize> = faults_cases().iter().map(|c| c.calls).collect();
    for c in faults_cases() {
        out += &format!("case {} {} {} {}\n", c.program, c.plan, c.calls, c.trials);
    }
    for (w, calls) in [("faults", &faults_calls[..]), ("fleet", &[1])] {
        for (c, s) in deck_order(seed, w, calls).zip(call_seeds(seed, w)).take(n) {
            out += &format!("{w} {c} {s}\n");
        }
    }
    out += &format!("fleet {}\n", fleet_instance(seed).encode());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        assert_eq!(render(11, 500), render(11, 500));
        assert_ne!(render(11, 500), render(12, 500));
    }

    #[test]
    fn generated_instances_pass_admission() {
        for seed in 0..20 {
            for it in batch_family(seed) {
                it.spec.validate().expect("batch instance is admissible");
            }
            let (short, long) = serve_pools(seed);
            for s in short.iter().chain(&long) {
                s.validate().expect("serve instance is admissible");
            }
            walk_instance(seed).validate().expect("walk instance");
            fleet_instance(seed).validate().expect("fleet instance");
        }
    }

    #[test]
    fn the_serve_mix_has_its_shares_and_ascending_times() {
        let jobs = serve_schedule(3, 0, 100.0, 2000);
        assert_eq!(jobs.len(), 2000);
        assert!(jobs.windows(2).all(|w| w[0].at < w[1].at));
        let count = |c| jobs.iter().filter(|j| j.class == c).count();
        assert_eq!(count(JobClass::Long), 40);
        assert!(count(JobClass::Repeat) > 300, "{}", count(JobClass::Repeat));
        // 2000 arrivals at 100/s: the last lands at 20 s.
        assert!((jobs.last().expect("non-empty").at - 20.0).abs() < 1e-9);
        for j in &jobs {
            match (j.class, &j.spec.instance) {
                (JobClass::Long, &InstanceSpec::EqPath { r, .. }) => {
                    assert!((64..128).contains(&r));
                    let work = j.spec.trials as f64 * r as f64 / BLOCK_TRIALS as f64;
                    assert!((work - LONG_WORK as f64).abs() <= 4.0, "work {work}");
                }
                (JobClass::Long, other) => panic!("long job on {other:?}"),
                _ => {
                    assert_eq!(j.spec.trials % BLOCK_TRIALS, 0);
                    assert!((1..=4).contains(&(j.spec.trials / BLOCK_TRIALS)));
                }
            }
        }
    }

    #[test]
    fn wire_seeds_survive_a_json_number() {
        let (short, long) = serve_pools(9);
        let jobs = serve_schedule(9, 0, 100.0, 200);
        let seeds = short.iter().chain(&long).map(|s| match *s {
            InstanceSpec::EqPath { scheme_seed, .. } | InstanceSpec::EqTree { scheme_seed, .. } => {
                scheme_seed
            }
            InstanceSpec::Relay { seed, .. } => seed,
        });
        for s in seeds.chain(jobs.iter().map(|j| j.spec.seed)) {
            assert_eq!(s as f64 as u64, s);
        }
    }

    #[test]
    fn repeats_copy_an_earlier_short_job() {
        let jobs = serve_schedule(5, 1, 100.0, 400);
        for (i, j) in jobs.iter().enumerate() {
            if j.class == JobClass::Repeat {
                assert!(jobs[..i]
                    .iter()
                    .any(|e| e.class == JobClass::Short && e.spec == j.spec));
            }
        }
    }
}
