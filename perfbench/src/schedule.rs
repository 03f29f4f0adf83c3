//! Seeded open-loop traffic: Poisson arrival times and a request mix.
//!
//! The schedule is generated before the run from `--seed` alone, so the
//! same seed gives the same due times and the same requests. The load
//! generator then sends each request at its due time whether or not the previous
//! one has finished, and times it from that due time.

use std::time::Instant;

use upskill_core::types::{ItemId, Timestamp, UserId};
use upskill_serve::PredictMode;

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Whether a per-mille event with probability `p / 1000` fires.
    pub fn per_mille(&mut self, p: u32) -> bool {
        self.next_u64() % 1000 < u64::from(p)
    }
}

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ingest one action; `new_user` marks an id the service has not seen.
    Ingest {
        user: UserId,
        item: ItemId,
        time: Timestamp,
        new_user: bool,
    },
    Predict {
        user: UserId,
        mode: PredictMode,
    },
    Recommend {
        user: UserId,
    },
    /// `recommend_policy`, then `record_outcome` on its top item.
    Policy {
        user: UserId,
        correct: bool,
    },
}

/// One scheduled request: its op and when it is due, in nanoseconds
/// from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub due_ns: u64,
    pub op: Op,
}

/// Request mix, in per mille.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub ingest: u32,
    pub predict: u32,
    pub recommend: u32,
    pub policy: u32,
    /// Share of ingests that admit a new user id.
    pub new_user: u32,
    /// Share of predicts that run the DP (`Smoothed` / `Posterior`).
    pub predict_dp: u32,
}

impl Mix {
    /// Write-heavy: ingest commit path and live refits.
    pub const WRITE: Mix = Mix {
        ingest: 650,
        predict: 250,
        recommend: 100,
        policy: 0,
        new_user: 50,
        predict_dp: 300,
    };

    /// Read-heavy with the adaptive policy.
    pub const READ: Mix = Mix {
        ingest: 50,
        predict: 450,
        recommend: 300,
        policy: 200,
        new_user: 50,
        predict_dp: 300,
    };
}

/// The users and items traffic may name, and the clock new actions
/// carry. Admitted users join `known`, so later requests may read them.
#[derive(Debug, Clone)]
pub struct Population {
    pub known: Vec<UserId>,
    pub next_new: UserId,
    pub n_items: usize,
    pub clock: Timestamp,
}

impl Population {
    /// Users `0..n_users` known, new ids above them, and a clock past any
    /// timestamp of the base data.
    pub fn new(n_users: usize, n_items: usize, clock: Timestamp) -> Self {
        Self {
            known: (0..n_users as UserId).collect(),
            next_new: n_users as UserId,
            n_items,
            clock,
        }
    }
}

/// Draws one op from `mix`.
pub fn draw_op(rng: &mut Rng, mix: &Mix, pop: &mut Population) -> Op {
    let total = mix.ingest + mix.predict + mix.recommend + mix.policy;
    let dice = (rng.next_u64() % u64::from(total)) as u32;
    if dice < mix.ingest {
        let new_user = rng.per_mille(mix.new_user);
        let user = if new_user {
            let u = pop.next_new;
            pop.next_new += 1;
            pop.known.push(u);
            u
        } else {
            pop.known[rng.below(pop.known.len())]
        };
        pop.clock += 1;
        return Op::Ingest {
            user,
            item: rng.below(pop.n_items) as ItemId,
            time: pop.clock,
            new_user,
        };
    }
    let user = pop.known[rng.below(pop.known.len())];
    if dice < mix.ingest + mix.predict {
        let dp = rng.per_mille(mix.predict_dp);
        let mode = match (dp, rng.next_u64() % 2) {
            (true, 0) => PredictMode::Smoothed,
            (true, _) => PredictMode::Posterior,
            (false, 0) => PredictMode::Committed,
            (false, _) => PredictMode::Filtered,
        };
        Op::Predict { user, mode }
    } else if dice < mix.ingest + mix.predict + mix.recommend {
        Op::Recommend { user }
    } else {
        Op::Policy {
            user,
            correct: rng.next_u64().is_multiple_of(2),
        }
    }
}

/// `n` requests with Poisson arrivals at `rate` per second.
pub fn open_loop(
    rng: &mut Rng,
    rate: f64,
    n: usize,
    mix: &Mix,
    pop: &mut Population,
) -> Vec<Request> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            Request {
                due_ns: (t * 1e9) as u64,
                op: draw_op(rng, mix, pop),
            }
        })
        .collect()
}

/// When one request was due, started and finished, in nanoseconds from
/// the start of its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Timing {
    /// Latency from due time to completion.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.due_ns)
    }

    /// How late the call started.
    pub fn wait_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.due_ns)
    }
}

/// Sends every request at its due time from this thread (spinning, not
/// sleeping, so wake-up jitter does not make requests late) and records
/// its timing. `call(index, request)` performs the request.
pub fn drive(requests: &[Request], mut call: impl FnMut(usize, &Request)) -> Vec<Timing> {
    let origin = Instant::now();
    let now_ns = |origin: Instant| origin.elapsed().as_nanos() as u64;
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            while now_ns(origin) < r.due_ns {
                std::hint::spin_loop();
            }
            let start_ns = now_ns(origin);
            call(i, r);
            Timing {
                due_ns: r.due_ns,
                start_ns,
                end_ns: now_ns(origin),
            }
        })
        .collect()
}

/// Closed loop: one client sends `n` ops, each as soon as the previous
/// one returns. Returns the seconds they took.
pub fn saturate(n: u64, mut next: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        next();
    }
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> (Vec<Request>, Population) {
        let mut pop = Population::new(100, 50, 1_000);
        let reqs = open_loop(&mut Rng::new(seed), 1_000.0, 5_000, &Mix::WRITE, &mut pop);
        (reqs, pop)
    }

    #[test]
    fn same_seed_gives_same_due_times_and_mix() {
        let (a, pa) = schedule(7);
        let (b, pb) = schedule(7);
        assert_eq!(a, b);
        assert_eq!(pa.known, pb.known);
        let (c, _) = schedule(8);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_follow_the_rate_and_mix() {
        let (reqs, pop) = schedule(3);
        assert!(reqs.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // 5000 arrivals at 1000/s span about five seconds.
        let span_s = reqs.last().unwrap().due_ns as f64 / 1e9;
        assert!((4.5..5.5).contains(&span_s), "{span_s}");
        let ingests = reqs
            .iter()
            .filter(|r| matches!(r.op, Op::Ingest { .. }))
            .count();
        assert!((3_000..3_500).contains(&ingests), "{ingests}");
        let admitted = reqs
            .iter()
            .filter(|r| matches!(r.op, Op::Ingest { new_user: true, .. }))
            .count();
        assert_eq!(pop.known.len(), 100 + admitted);
        assert!(reqs.iter().all(|r| !matches!(r.op, Op::Policy { .. })));
    }

    #[test]
    fn reads_only_name_users_already_known() {
        let (reqs, _) = schedule(11);
        let mut known: std::collections::HashSet<UserId> = (0..100).collect();
        let mut last_time = 1_000;
        for r in &reqs {
            match r.op {
                Op::Ingest {
                    user,
                    time,
                    new_user,
                    ..
                } => {
                    assert_eq!(known.insert(user), new_user);
                    assert!(time > last_time);
                    last_time = time;
                }
                Op::Predict { user, .. } | Op::Recommend { user } | Op::Policy { user, .. } => {
                    assert!(known.contains(&user))
                }
            }
        }
    }
}
