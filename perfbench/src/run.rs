//! What every workload shares: its context, its outcome, and the
//! end-to-end metrics of a closed loop.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use crate::stats;
use crate::trace::Tracer;

/// A workload's inputs from the command line and the host.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub nproc: usize,
    pub tracer: &'a Tracer,
    /// Whether this run reports end-to-end metrics, whose p99 needs
    /// [`MIN_OPS`] operations.
    pub e2e: bool,
    /// Where traces and scratch files go.
    pub out: PathBuf,
}

impl Ctx<'_> {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Named metric values, in report order.
pub type Metrics = Vec<(&'static str, f64)>;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate misses; any one fails the run.
    pub misses: Vec<String>,
    /// End-to-end metrics (from an untraced run).
    pub e2e: Metrics,
    /// Per-layer metrics (from a traced run).
    pub layers: Metrics,
    /// The figure the tracing overhead is judged on, with whether higher
    /// is better.
    pub headline: (f64, bool),
}

impl Outcome {
    /// Records a gate miss, which also counts as a failed operation.
    pub fn miss(&mut self, what: String) {
        self.failed += 1;
        self.misses.push(what);
    }
}

/// Workers per call in the closed loops of `batch` and `faults`. One, not
/// `nproc`: on a shared host whose vCPUs lose time to other tenants, a call
/// split over every vCPU waits for whichever vCPU was stalled, so its
/// latency follows the host; one worker runs on whichever vCPU is free.
/// Over eighteen 10 s windows on a 2-vCPU host with 4–32 % steal time, the
/// median 1-worker call stayed within ±5 % while the 2-worker call moved by
/// ±35 %. Each workload still checks its `nproc`-worker results against the
/// 1-worker ones.
pub const CALL_WORKERS: usize = 1;

/// Setup repetitions whose median is `setup_s`, where setup is cheap.
pub const SETUP_REPS: usize = 21;

/// Operations a closed loop completes at least, whatever the window: a
/// p99 needs ten samples beyond it.
pub const MIN_OPS: usize = 1000;

/// Whether a closed loop that started at `t0` and has done `ops`
/// operations should stop: the window is over and, in an end-to-end run,
/// the p99 has its samples.
pub fn closed_loop_done(ctx: &Ctx<'_>, t0: std::time::Instant, ops: usize) -> bool {
    (ops >= MIN_OPS || !ctx.e2e) && t0.elapsed() >= ctx.window()
}

/// One call of a closed loop: latency in ms, rounds, and the index of the
/// deck item it ran.
pub type Call = (f64, u64, usize);

/// The percentile, in percent, that a closed loop's gated figures read
/// from each deck item's latencies and from the setup repetitions. A
/// shared host's speed switches between levels up to 2× apart, from one
/// call to the next or for minutes at a time, whatever the benchmark does.
/// A median follows the share of the run the host spent slow, while a
/// slowdown of the code slows every call, the fastest too. Over ten seeds
/// on a 2-vCPU Xeon host, the quartile spread over the median of the
/// `batch` reference call's latency was 0.26 at the p50 and 0.07 at the
/// p5; for `faults` it was 0.22 and 0.04.
pub const FAST_PERCENTILE: f64 = 5.0;

/// The end-to-end metrics of a closed loop from its calls, in order. The
/// first `deck` calls are one deck; a workload passes the length of its
/// deck, whose item with the most calls is the reference call.
/// `latency_p5_ms` is the reference call's [`FAST_PERCENTILE`] latency.
/// `rounds_per_s` is the rounds of a deck over the time the deck takes when
/// each call takes its item's [`FAST_PERCENTILE`] latency, so every item
/// counts by its share of the deck. `setup_s` is the [`FAST_PERCENTILE`]
/// of the setup repetitions. The whole-run rate and the median and p99 of
/// all calls are printed beside them.
pub fn closed_loop_metrics(
    out: &mut Outcome,
    ops: &[Call],
    deck: usize,
    setups: &[f64],
    rss_kb: u64,
) {
    let latencies: Vec<f64> = ops.iter().map(|o| o.0).collect();
    let mut per_item: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for o in ops {
        per_item.entry(o.2).or_default().push(o.0);
    }
    let fast: BTreeMap<usize, f64> = per_item
        .iter()
        .map(|(&i, v)| (i, stats::low_percentile(v, FAST_PERCENTILE)))
        .collect();
    let deck = &ops[..deck.clamp(1, ops.len())];
    let mut calls: BTreeMap<usize, usize> = BTreeMap::new();
    for o in deck {
        *calls.entry(o.2).or_default() += 1;
    }
    let reference = calls
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(&i, _)| i)
        .expect("a deck has a call");
    let deck_rounds: u64 = deck.iter().map(|o| o.1).sum();
    let deck_ms: f64 = deck.iter().map(|o| fast[&o.2]).sum();
    let rounds_per_s = deck_rounds as f64 / deck_ms * 1e3;
    let all_ms: f64 = latencies.iter().sum();
    let all_rounds: u64 = ops.iter().map(|o| o.1).sum();
    out.e2e = vec![
        ("rounds_per_s", rounds_per_s),
        ("latency_p5_ms", fast[&reference]),
        ("rounds_per_s_all", all_rounds as f64 / all_ms * 1e3),
        ("latency_p50_ms", stats::median(&latencies)),
        (
            "latency_p99_ms",
            stats::percentile(&latencies, 99.0).unwrap_or(f64::NAN),
        ),
        ("max_rate_jobs_per_s", ops.len() as f64 / all_ms * 1e3),
        ("setup_s", stats::low_percentile(setups, FAST_PERCENTILE)),
        ("peak_rss_mb", rss_kb as f64 / 1024.0),
    ];
    out.headline = (rounds_per_s, true);
}

/// Peak resident set of this process in kB.
pub fn own_peak_rss_kb() -> u64 {
    crate::http::proc_kb(std::process::id(), "VmHWM").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure(out: &Outcome, name: &str) -> f64 {
        out.e2e.iter().find(|(k, _)| *k == name).expect(name).1
    }

    #[test]
    fn gated_figures_read_the_calls_the_host_did_not_slow() {
        // Decks of three calls: item 0 twice (1000 rounds, 1.0 ms), item 1
        // once (100 rounds, 0.5 ms). The host runs 2x slower for all but
        // every tenth deck, and one call stalls for 50 ms.
        let mut ops = Vec::new();
        for d in 0..200 {
            let host = if d % 10 == 3 { 1.0 } else { 2.0 };
            ops.extend([(host, 1000, 0), (0.5 * host, 100, 1), (host, 1000, 0)]);
        }
        ops[3 * 13].0 = 50.0;
        let mut out = Outcome::default();
        closed_loop_metrics(&mut out, &ops, 3, &[3.0, 1.0, 2.0], 1024);
        assert_eq!(figure(&out, "latency_p5_ms"), 1.0);
        assert!((figure(&out, "rounds_per_s") - 2100.0 / 2.5e-3).abs() < 1e-6);
        assert_eq!(figure(&out, "setup_s"), 1.0);
        assert_eq!(figure(&out, "latency_p50_ms"), 2.0);
        let all_ms = 180.0 * 5.0 + 20.0 * 2.5 + 49.0;
        let all = 200.0 * 2100.0 / all_ms * 1e3;
        assert!((figure(&out, "rounds_per_s_all") - all).abs() < 1e-6);
    }
}
