//! The seeded open-loop load generator.
//!
//! Arrivals come at a fixed mean rate whatever the target does, so the
//! offered load does not depend on how fast it answers. Each gap is
//! drawn uniformly from half to one and a half times the mean: requests
//! overlap and batch, but without the long bursts of a Poisson process,
//! whose queueing tail swings with every small change in service time.
//! A run alternates blocks at different rates, so slow drift on the
//! host lands on every rate alike. One generator
//! drives one connection, one request at a time: when the target
//! stalls, later requests go out late, and each is timed from when it
//! was *due*, so the wait a stall imposes on later requests counts in
//! their latency. How late each request went out is kept separately
//! as the generator's lag.

use std::time::{Duration, Instant};

/// SplitMix64: a small, seedable generator; the same seed always gives
/// the same stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a stream tag, so different
    /// uses of one run seed do not share a stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the schedule.
    pub due: Duration,
    /// Which rate block it belongs to (index into the block list).
    pub block: usize,
    /// Which served model it asks (index into the served set).
    pub model: usize,
    /// Which input of that model's pool it sends.
    pub input: usize,
}

/// One rate in an alternating schedule.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// Mean requests per second.
    pub rate: f64,
    /// How long each block at this rate lasts.
    pub len: Duration,
}

/// A schedule over `window` that cycles through `blocks`, each arrival
/// asking a uniformly chosen model of `models` with a uniformly chosen
/// input of `inputs`.
pub fn schedule(
    rng: &mut Rng,
    blocks: &[Block],
    window: Duration,
    models: usize,
    inputs: usize,
) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    let mut block_start = Duration::ZERO;
    for (b, block) in blocks.iter().enumerate().cycle() {
        if block_start >= window {
            return arrivals;
        }
        let end = (block_start + block.len).min(window);
        let mut t = block_start.as_secs_f64();
        loop {
            t += (0.5 + rng.unit()) / block.rate;
            let due = Duration::from_secs_f64(t);
            if due >= end {
                break;
            }
            arrivals.push(Arrival {
                due,
                block: b,
                model: rng.below(models),
                input: rng.below(inputs),
            });
        }
        block_start = end;
    }
    arrivals
}

/// What happened to one scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// From when it was due until its answer arrived.
    pub latency: Duration,
    /// From when it was actually sent until its answer arrived.
    pub rtt: Duration,
    /// How late it was sent.
    pub lag: Duration,
}

/// Sends `schedule` from `start`, one request at a time, calling
/// `call` for each and
/// `idle` with the time left whenever the generator is early, which
/// may do other work or sleep. Returns one sample per arrival.
pub fn drive(
    start: Instant,
    schedule: &[Arrival],
    mut call: impl FnMut(usize, &Arrival),
    mut idle: impl FnMut(Instant),
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(schedule.len());
    for (i, arrival) in schedule.iter().enumerate() {
        let due = start + arrival.due;
        if Instant::now() < due {
            idle(due);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
        }
        let sent = Instant::now();
        call(i, arrival);
        let done = Instant::now();
        samples.push(Sample {
            latency: done - due,
            rtt: done - sent,
            lag: sent.saturating_duration_since(due),
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    fn ms(d: Duration) -> f64 {
        d.as_secs_f64() * 1e3
    }

    #[test]
    fn schedules_repeat_per_seed_and_hit_each_blocks_rate() {
        let blocks = [
            Block {
                rate: 100.0,
                len: Duration::from_secs(1),
            },
            Block {
                rate: 600.0,
                len: Duration::from_secs(1),
            },
        ];
        let window = Duration::from_secs(20);
        let a = schedule(&mut Rng::new(7, 1), &blocks, window, 2, 64);
        let b = schedule(&mut Rng::new(7, 1), &blocks, window, 2, 64);
        let c = schedule(&mut Rng::new(8, 1), &blocks, window, 2, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let light = a.iter().filter(|x| x.block == 0).count();
        let heavy = a.iter().filter(|x| x.block == 1).count();
        assert!((980..1010).contains(&light), "{light} light arrivals");
        assert!((5950..6010).contains(&heavy), "{heavy} heavy arrivals");
        assert!(a.windows(2).all(|w| w[0].due < w[1].due));
        assert!(a.iter().all(|x| x.due < window));
        // Blocks alternate every second.
        assert!(a.iter().all(|x| x.block == (x.due.as_secs() % 2) as usize));
        // No gap is under half the mean or over one and a half times it.
        for w in a.windows(2).filter(|w| w[0].block == 1 && w[1].block == 1) {
            let gap = (w[1].due - w[0].due).as_secs_f64() * 600.0;
            assert!((0.5..=1.5).contains(&gap), "gap {gap} means");
        }
        let digits = a.iter().filter(|x| x.model == 0).count();
        assert!(
            digits.abs_diff(a.len() / 2) < a.len() / 20,
            "uneven mix: {digits}"
        );
    }

    /// A stub target that answers in 1 ms but stalls 120 ms on one
    /// request: the requests due during the stall go out late, and
    /// their latency, timed from when they were due, must include the
    /// wait.
    #[test]
    fn a_stall_shows_in_later_latencies_and_in_the_lag() {
        let schedule: Vec<Arrival> = (0..40)
            .map(|i| Arrival {
                due: Duration::from_millis(5 * i),
                block: 0,
                model: 0,
                input: 0,
            })
            .collect();
        let stall_at = 5;
        let samples = drive(
            Instant::now(),
            &schedule,
            |i, _| {
                let pause = if i == stall_at { 120 } else { 1 };
                std::thread::sleep(Duration::from_millis(pause));
            },
            |_| {},
        );
        assert_eq!(samples.len(), schedule.len());
        // The request due 5 ms after the stall began waited for the
        // stall to end (~115 ms) before it was even sent.
        let next = samples[stall_at + 1];
        assert!(ms(next.latency) >= 100.0, "latency {:?}", next.latency);
        assert!(ms(next.lag) >= 100.0, "lag {:?}", next.lag);
        // Its round trip alone stays short: timing from the actual send
        // would have hidden the stall.
        assert!(ms(next.rtt) < 50.0, "rtt {:?}", next.rtt);
        // The generator catches up 4 ms per request, so about thirty of
        // the forty ran late: the lag tail the benchmark reports (p75
        // here, the highest level with ten samples beyond it) shows it.
        let lags: Vec<f64> = samples.iter().map(|s| ms(s.lag)).collect();
        let lag = summarize(&lags, 0.99).expect("samples");
        assert_eq!(lag.tail_level, 0.75);
        assert!(lag.tail >= 20.0, "lag tail {lag:?}");
        // Before the stall, nothing ran anywhere near that late (the
        // margin leaves room for a busy machine's timer slack).
        assert!(samples[..stall_at].iter().all(|s| ms(s.lag) < 50.0));
    }

    #[test]
    fn idle_time_is_offered_before_early_requests() {
        let schedule = [Arrival {
            due: Duration::from_millis(20),
            block: 0,
            model: 0,
            input: 0,
        }];
        let mut offered = 0;
        let samples = drive(Instant::now(), &schedule, |_, _| {}, |_| offered += 1);
        assert_eq!(offered, 1);
        assert!(ms(samples[0].lag) < 10.0);
    }
}
