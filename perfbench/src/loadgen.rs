//! Open-loop load generation, lag accounting and the rate ladder.
//!
//! Jobs are sent on a fixed schedule whether or not earlier ones finished,
//! and each job's latency runs from its *scheduled* send time to the poll
//! that sees it terminal — so a stall in the generator or the server is
//! charged to every job it delays. How late the generator sent is reported
//! separately as lag.

use std::time::{Duration, Instant};

/// How a job ended, as the client saw it.
#[derive(Clone, Debug, PartialEq)]
pub enum JobEnd {
    /// Terminal `done` state.
    Done {
        accepts: u64,
        completed: u64,
        partial: bool,
    },
    /// Terminal `aborted` state.
    Aborted(String),
    /// Refused at the door (`503`).
    Shed,
    /// Transport or protocol error, or no terminal state in time.
    Error(String),
}

impl JobEnd {
    /// A complete, non-partial report.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobEnd::Done { partial: false, .. })
    }
}

/// Reply to a submission.
pub enum Submitted {
    Id(u64),
    End(JobEnd),
}

/// One client connection's worth of requests. The generator gives each of
/// its threads its own client.
pub trait Client {
    fn submit(&mut self, body: &str) -> Submitted;
    /// `None` while the job is not terminal.
    fn poll(&mut self, id: u64) -> Option<JobEnd>;
}

/// What happened to one scheduled job. Times are offsets from the start of
/// the schedule.
#[derive(Clone, Debug)]
pub struct JobResult {
    pub scheduled: Duration,
    pub sent: Duration,
    pub post: Duration,
    /// Time of the poll (or refusal) that ended the job.
    pub ended: Duration,
    pub polls: u32,
    /// Each status poll: start offset and duration.
    pub gets: Vec<(Duration, Duration)>,
    pub id: Option<u64>,
    pub end: JobEnd,
}

impl JobResult {
    /// Latency from the scheduled send to the terminal observation;
    /// infinite for a job that did not complete.
    pub fn latency_ms(&self) -> f64 {
        if self.end.is_ok() {
            (self.ended.saturating_sub(self.scheduled)).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent the job.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.scheduled).as_secs_f64() * 1e3
    }
}

/// Generator settings.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Fixed interval between status polls of one job.
    pub poll_interval: Duration,
    /// A job not terminal this long after its send counts as an error.
    pub give_up: Duration,
}

/// Runs one open-loop schedule: `jobs[i] = (send offset, request body)`,
/// split round-robin over the given clients (one thread each). Returns one
/// result per job, in schedule order.
pub fn run<C: Client + Send>(
    jobs: &[(Duration, String)],
    clients: Vec<C>,
    settings: Settings,
) -> Vec<JobResult> {
    let threads = clients.len().max(1);
    let t0 = Instant::now();
    let mut results: Vec<Option<JobResult>> = vec![None; jobs.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, client)| {
                let mine: Vec<usize> = (t..jobs.len()).step_by(threads).collect();
                s.spawn(move || drive(jobs, &mine, client, settings, t0))
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("load generator thread panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job has a result"))
        .collect()
}

struct Pending {
    idx: usize,
    id: u64,
    next_poll: Instant,
    result: JobResult,
}

/// One generator thread: an event loop over its sends and polls, earliest
/// first; a send due at the same time as a poll goes first.
fn drive<C: Client>(
    jobs: &[(Duration, String)],
    mine: &[usize],
    mut client: C,
    settings: Settings,
    t0: Instant,
) -> Vec<(usize, JobResult)> {
    let mut done = Vec::with_capacity(mine.len());
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = mine.iter().copied().peekable();
    loop {
        let send_at = next.peek().map(|&i| t0 + jobs[i].0);
        let poll = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.next_poll)
            .map(|(k, p)| (k, p.next_poll));
        let send_first = match (send_at, poll) {
            (None, None) => break,
            (Some(s), Some((_, p))) => s <= p,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        let due = if send_first {
            send_at.expect("a send is due")
        } else {
            poll.expect("a poll is due").1
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if send_first {
            let idx = next.next().expect("peeked");
            let sent = Instant::now();
            let reply = client.submit(&jobs[idx].1);
            let posted = Instant::now();
            let mut result = JobResult {
                scheduled: jobs[idx].0,
                sent: sent - t0,
                post: posted - sent,
                ended: posted - t0,
                polls: 0,
                gets: Vec::new(),
                id: None,
                end: JobEnd::Error("pending".to_string()),
            };
            match reply {
                Submitted::Id(id) => {
                    result.id = Some(id);
                    pending.push(Pending {
                        idx,
                        id,
                        next_poll: posted + settings.poll_interval,
                        result,
                    });
                }
                Submitted::End(end) => {
                    result.end = end;
                    done.push((idx, result));
                }
            }
        } else {
            let k = poll.expect("a poll is due").0;
            let p = &mut pending[k];
            let start = Instant::now();
            let status = client.poll(p.id);
            let end_t = Instant::now();
            p.result.polls += 1;
            p.result.gets.push((start - t0, end_t - start));
            let expired = end_t - (t0 + p.result.sent) > settings.give_up;
            if status.is_some() || expired {
                let mut p = pending.swap_remove(k);
                p.result.ended = end_t - t0;
                p.result.end = status
                    .unwrap_or_else(|| JobEnd::Error("no terminal state in time".to_string()));
                done.push((p.idx, p.result));
            } else {
                // Fixed cadence; a late poll does not trigger a burst of
                // catch-up polls.
                p.next_poll = (p.next_poll + settings.poll_interval).max(end_t);
            }
        }
    }
    done
}

/// Jobs sent but not yet ended at offset `t`.
pub fn outstanding_at(results: &[JobResult], t: Duration) -> usize {
    results
        .iter()
        .filter(|r| r.sent <= t && r.ended > t)
        .count()
}

/// The backlog rule. With every latency within the limit, about
/// `rate × limit` jobs are in flight at any time; twice that (plus a few
/// for Poisson bursts) still in flight when the last job is sent means
/// the queue was growing.
pub fn backlog_ok(outstanding_at_end: usize, rate: f64, limit_ms: f64) -> bool {
    outstanding_at_end <= (2.0 * rate * limit_ms / 1e3).ceil() as usize + 4
}

/// One measured rung of the rate ladder.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Jobs completed per second, from the first scheduled send to the last
    /// terminal poll.
    pub achieved: f64,
    pub p99_ms: f64,
    /// p99 within the limit, no growing backlog and no failed job.
    pub pass: bool,
}

/// The highest rate that meets the p99 limit: the completion rate achieved
/// at the last rung that passed, climbing from the lowest, before the
/// first that failed. If the lowest rung already fails, its completion rate
/// scaled down by `limit / p99`.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    match rungs.iter().position(|r| !r.pass) {
        Some(0) => rungs[0].achieved * (limit_ms / rungs[0].p99_ms).min(1.0),
        Some(k) => rungs[k - 1].achieved,
        None => rungs.last().map_or(0.0, |r| r.achieved),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completes every job on its second poll; the first submission stalls.
    struct Fake {
        stall: Duration,
        polls: std::collections::HashMap<u64, u32>,
        next: u64,
    }

    impl Client for Fake {
        fn submit(&mut self, _body: &str) -> Submitted {
            if self.next == 0 {
                std::thread::sleep(self.stall);
            }
            self.next += 1;
            Submitted::Id(self.next)
        }
        fn poll(&mut self, id: u64) -> Option<JobEnd> {
            let n = self.polls.entry(id).or_default();
            *n += 1;
            (*n >= 2).then_some(JobEnd::Done {
                accepts: 1,
                completed: 1,
                partial: false,
            })
        }
    }

    fn settings() -> Settings {
        Settings {
            poll_interval: Duration::from_millis(2),
            give_up: Duration::from_secs(5),
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_jobs_it_delays() {
        let jobs: Vec<(Duration, String)> = (0..5)
            .map(|i| (Duration::from_millis(i), String::new()))
            .collect();
        let fake = Fake {
            stall: Duration::from_millis(40),
            polls: Default::default(),
            next: 0,
        };
        let res = run(&jobs, vec![fake], settings());
        assert_eq!(res.len(), 5);
        // Jobs 1..4 were due during the stall: they went out late, and
        // their latency counts from the schedule, so it includes the lag.
        for r in &res[1..] {
            assert!(r.lag_ms() >= 35.0, "lag {}", r.lag_ms());
            assert!(r.latency_ms() >= r.lag_ms() + 4.0, "{r:?}");
            assert_eq!(r.polls, 2);
        }
        // Job 0 itself was sent before the stall began.
        assert!(res[1].lag_ms() >= res[0].lag_ms() + 35.0);
        assert!(res[0].post >= Duration::from_millis(40));
    }

    #[test]
    fn sends_stay_on_schedule_without_stalls() {
        let jobs: Vec<(Duration, String)> = (0..20)
            .map(|i| (Duration::from_millis(2 * i), String::new()))
            .collect();
        let clients = (0..2)
            .map(|_| Fake {
                stall: Duration::ZERO,
                polls: Default::default(),
                next: 0,
            })
            .collect();
        let res = run(&jobs, clients, settings());
        for (i, r) in res.iter().enumerate() {
            assert_eq!(r.scheduled, Duration::from_millis(2 * i as u64));
            assert!(r.sent >= r.scheduled);
            assert!(r.latency_ms().is_finite());
        }
    }

    #[test]
    fn refusals_end_at_once_and_miss_every_limit() {
        struct Refuse;
        impl Client for Refuse {
            fn submit(&mut self, _: &str) -> Submitted {
                Submitted::End(JobEnd::Shed)
            }
            fn poll(&mut self, _: u64) -> Option<JobEnd> {
                unreachable!("a refused job is never polled")
            }
        }
        let res = run(&[(Duration::ZERO, String::new())], vec![Refuse], settings());
        assert_eq!(res[0].end, JobEnd::Shed);
        assert_eq!(res[0].latency_ms(), f64::INFINITY);
    }

    fn result(sent_ms: u64, ended_ms: u64) -> JobResult {
        JobResult {
            scheduled: Duration::from_millis(sent_ms),
            sent: Duration::from_millis(sent_ms),
            post: Duration::ZERO,
            ended: Duration::from_millis(ended_ms),
            polls: 1,
            gets: Vec::new(),
            id: Some(0),
            end: JobEnd::Done {
                accepts: 0,
                completed: 0,
                partial: false,
            },
        }
    }

    #[test]
    fn outstanding_counts_jobs_in_flight() {
        let res = [result(0, 10), result(5, 20), result(12, 13)];
        assert_eq!(outstanding_at(&res, Duration::from_millis(6)), 2);
        assert_eq!(outstanding_at(&res, Duration::from_millis(10)), 1);
        assert_eq!(outstanding_at(&res, Duration::from_millis(12)), 2);
        assert_eq!(outstanding_at(&res, Duration::from_millis(30)), 0);
    }

    #[test]
    fn the_backlog_rule_follows_littles_law() {
        // 200/s under a 50 ms limit: 10 in flight is normal, 24 is the cap.
        assert!(backlog_ok(24, 200.0, 50.0));
        assert!(!backlog_ok(25, 200.0, 50.0));
        assert!(backlog_ok(4, 1.0, 1.0));
    }

    fn rung(rate: f64, p99_ms: f64, pass: bool) -> Rung {
        Rung {
            achieved: rate * 0.99,
            p99_ms,
            pass,
        }
    }

    #[test]
    fn the_ladder_stops_at_the_first_failing_rung() {
        let limit = 100.0;
        let r = [
            rung(200.0, 20.0, true),
            rung(400.0, 50.0, true),
            rung(800.0, 200.0, false),
        ];
        assert_eq!(max_rate(&r, limit), 396.0);
        // Every rung passes: the top one, a lower bound.
        assert_eq!(max_rate(&r[..2], limit), 396.0);
        // A rung past the first failure does not count.
        let r = [
            rung(200.0, 20.0, true),
            rung(400.0, 50.0, false),
            rung(800.0, 60.0, true),
        ];
        assert_eq!(max_rate(&r, limit), 198.0);
        // The first rung already fails: scaled down by limit / p99.
        assert_eq!(max_rate(&[rung(100.0, 400.0, false)], limit), 24.75);
        assert_eq!(max_rate(&[rung(100.0, f64::INFINITY, false)], limit), 0.0);
    }
}
