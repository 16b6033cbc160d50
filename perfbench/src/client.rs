//! The closed loop: one client sends the request stream, a write after
//! every `reads_per_write` requests, and checks every output against the
//! oracle outside the timed sections.

use crate::fleet::{set_up, Fleet, Workload};
use crate::inputs::{Inputs, BOUNDS, VIEW};
use crate::layers::Layers;
use crate::oracle::{check_stream, Oracle};
use crate::sink::{FirstAnswer, Gaps};
use crate::stats::{median, pool, quantile, quiet_order};
use cqc_common::AnswerBlock;
use cqc_storage::Epoch;
use std::time::{Duration, Instant};

/// One request in this many is timed for its §2.3 delay (with a sink that
/// stamps every answer) and kept out of the latency and rate samples.
pub const DELAY_ONE_IN: usize = 8;

/// A latency request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Read {
    /// When it was sent, in ns since the phase began.
    pub at_ns: u64,
    /// Answers delivered.
    pub answers: usize,
    /// Call to return.
    pub wall_ns: u64,
    /// Call to first answer (to return when there was none).
    pub ttfa_ns: u64,
}

/// A timing and when it was taken, in ns since the phase began.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// When the call was made.
    pub at_ns: u64,
    /// What was measured, in ns.
    pub ns: u64,
}

/// The samples of one measured phase, in time order.
#[derive(Debug)]
pub struct Samples {
    /// When the phase began.
    pub start: Instant,
    /// How long it ran, in ns.
    pub length_ns: u64,
    /// Latency requests.
    pub reads: Vec<Read>,
    /// Delays of the delay requests.
    pub delays: Vec<Timed>,
    /// `apply_update` wall times.
    pub updates: Vec<Timed>,
    /// Set-up times of the fleets built and dropped during the phase,
    /// each filed at the time it ended.
    pub setups: Vec<Timed>,
    /// Their `register_view` times, in ns.
    pub registers_ns: Vec<u64>,
}

/// Length of the windows the estimator ranks. The host's slow phases
/// last seconds; quarter-second windows still find the quiet moments
/// between them.
pub const WINDOW_NS: u64 = 250_000_000;
/// Fewest latency requests in a window that can be ranked.
const MIN_RANKED: usize = 20;
/// Samples each estimate pools from the quietest windows: enough latency
/// requests for a steady median, two passes of the write cycle's 128
/// deltas (whose costs differ) for the update median and p90, and
/// set-ups for a median.
const NEED_READS: usize = 6000;
const NEED_DELAYS: usize = 800;
const NEED_UPDATES: usize = 256;
const NEED_SETUPS: usize = 5;
/// Set-ups made per second of a measured phase.
const SETUP_EVERY: Duration = Duration::from_secs(1);

impl Samples {
    /// The phase's windows, quietest first, ranked by their median
    /// request wall time (see `stats`).
    pub fn quiet_order(&self) -> Vec<usize> {
        let walls: Vec<(u64, f64)> = self
            .reads
            .iter()
            .map(|r| (r.at_ns, r.wall_ns as f64))
            .collect();
        quiet_order(&walls, self.length_ns, WINDOW_NS, MIN_RANKED)
    }

    /// The end-to-end timings of the phase, each over the samples of its
    /// quietest windows.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let order = self.quiet_order();
        let timed = |v: &[Timed], need: usize, scale: f64| -> Vec<f64> {
            pool(v, |t| t.at_ns, &order, self.length_ns, WINDOW_NS, need)
                .into_iter()
                .map(|t| t.ns as f64 / scale)
                .collect()
        };
        let reads = pool(
            &self.reads,
            |r| r.at_ns,
            &order,
            self.length_ns,
            WINDOW_NS,
            NEED_READS,
        );
        let mut walls: Vec<f64> = reads.iter().map(|r| r.wall_ns as f64 / 1e3).collect();
        let mut ttfas: Vec<f64> = reads.iter().map(|r| r.ttfa_ns as f64 / 1e3).collect();
        // The answer rate of the median request: a total over total would
        // let the few requests that meet a scheduling stall set it.
        let mut rates: Vec<f64> = reads
            .iter()
            .map(|r| r.answers as f64 * 1e9 / r.wall_ns.max(1) as f64)
            .collect();
        let mut updates = timed(&self.updates, NEED_UPDATES, 1e6);
        vec![
            (
                "setup_s",
                median(&mut timed(&self.setups, NEED_SETUPS, 1e9)),
                "s",
            ),
            ("answers_per_s", median(&mut rates), "1/s"),
            ("req_p50_us", median(&mut walls), "us"),
            ("ttfa_p50_us", median(&mut ttfas), "us"),
            (
                "delay_p50_us",
                median(&mut timed(&self.delays, NEED_DELAYS, 1e3)),
                "us",
            ),
            ("update_p50_ms", median(&mut updates), "ms"),
            (
                "update_p90_ms",
                quantile(&mut updates, 0.9).unwrap_or(0.0),
                "ms",
            ),
        ]
    }
}

/// Operations attempted and failed, by kind.
#[derive(Debug, Default)]
pub struct Ops {
    /// Requests sent.
    pub requests: u64,
    /// Requests that failed or returned the wrong number of answers.
    pub requests_failed: u64,
    /// Updates sent.
    pub updates: u64,
    /// Updates that failed or moved the epoch vector wrongly.
    pub updates_failed: u64,
    /// Full re-serves checked against the oracle.
    pub checks: u64,
    /// Checks whose stream differed.
    pub checks_failed: u64,
    /// Set-ups made while measuring.
    pub setups: u64,
    /// Set-ups that failed.
    pub setups_failed: u64,
    /// Whether some output was wrong (not merely an error).
    pub wrong: bool,
    /// The first failure, for the error stream.
    pub first_failure: Option<String>,
}

impl Ops {
    /// All operations attempted.
    pub fn attempted(&self) -> u64 {
        self.requests + self.updates + self.checks + self.setups
    }

    /// All operations failed.
    pub fn failed(&self) -> u64 {
        self.requests_failed + self.updates_failed + self.checks_failed + self.setups_failed
    }
}

/// The client.
pub struct Client<'a> {
    workload: Workload,
    fleet: &'a Fleet,
    inputs: &'a Inputs,
    oracle: Oracle,
    version: Vec<Epoch>,
    next_request: usize,
    next_update: usize,
    check_next: bool,
    setups_made: usize,
    block: AnswerBlock,
    /// What has been attempted and failed so far.
    pub ops: Ops,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

impl<'a> Client<'a> {
    /// A client of `fleet`, which serves `inputs` as generated.
    pub fn new(workload: Workload, fleet: &'a Fleet, inputs: &'a Inputs) -> Client<'a> {
        Client {
            workload,
            fleet,
            inputs,
            oracle: Oracle::new(&inputs.r, &inputs.s),
            version: fleet.service().version(),
            next_request: 0,
            next_update: 0,
            check_next: false,
            setups_made: 0,
            block: AnswerBlock::new(),
            ops: Ops::default(),
        }
    }

    /// Updates sent so far.
    pub fn updates_sent(&self) -> usize {
        self.next_update
    }

    fn fail(&mut self, msg: String) {
        self.ops.first_failure.get_or_insert(msg);
    }

    /// Serves and checks in full the first `n` bounds, untimed, so the
    /// caches are warm before timing starts.
    pub fn warm_up(&mut self, n: usize) {
        let inputs = self.inputs;
        for &x in &inputs.bounds[..n] {
            self.check(x);
        }
    }

    /// Runs whole rounds of the closed loop for `length`.
    pub fn measure(&mut self, length: Duration, mut layers: Option<&mut Layers>) -> Samples {
        let start = Instant::now();
        let mut samples = Samples {
            start,
            length_ns: 0,
            reads: Vec::new(),
            delays: Vec::new(),
            updates: Vec::new(),
            setups: Vec::new(),
            registers_ns: Vec::new(),
        };
        let mut next_setup = Duration::ZERO;
        while start.elapsed() < length {
            // Set-ups are spread over the whole phase, so that some fall
            // in the quiet windows everything else is taken from.
            if start.elapsed() >= next_setup {
                next_setup += SETUP_EVERY;
                self.set_up_once(&mut samples);
            }
            for _ in 0..self.workload.reads_per_write() {
                self.request(&mut samples, layers.as_deref_mut());
            }
            self.update(&mut samples, layers.as_deref_mut());
        }
        samples.length_ns = ns(start.elapsed());
        samples
    }

    /// Builds a second fleet from the generated rows, times it, and drops
    /// it. The set-up is filed under the window it ends in, which holds
    /// the requests that follow it.
    fn set_up_once(&mut self, samples: &mut Samples) {
        self.setups_made += 1;
        match set_up(self.workload, self.inputs, None, self.setups_made) {
            Ok((fleet, total, register)) => {
                fleet.close();
                samples.setups.push(Timed {
                    at_ns: ns(samples.start.elapsed()),
                    ns: ns(total),
                });
                samples.registers_ns.push(ns(register));
            }
            Err(e) => {
                self.ops.setups_failed += 1;
                self.fail(format!("set-up: {e}"));
            }
        }
        self.ops.setups += 1;
    }

    fn request(&mut self, samples: &mut Samples, mut layers: Option<&mut Layers>) {
        let i = self.next_request;
        self.next_request += 1;
        let idx = i % BOUNDS;
        let x = self.inputs.bounds[idx];
        let bound = [x];
        let service = self.fleet.service();
        self.ops.requests += 1;
        if let Some(l) = layers.as_deref_mut() {
            l.before_request(self.fleet, i as u64);
        }
        let (result, count, t0, first, t1, delay) = if i % DELAY_ONE_IN == DELAY_ONE_IN - 1 {
            let t0 = Instant::now();
            let mut sink = Gaps::new(t0);
            let result = service.serve_into(VIEW, &bound, &mut sink);
            let t1 = Instant::now();
            (result, sink.count, t0, None, t1, Some(sink.finish(t1)))
        } else {
            let mut sink = FirstAnswer::default();
            let t0 = Instant::now();
            let result = service.serve_into(VIEW, &bound, &mut sink);
            let t1 = Instant::now();
            (result, sink.count, t0, sink.first, t1, None)
        };
        let want = self.oracle.count(x);
        match result {
            Ok(n) if n == want && count == want => match delay {
                Some(d) => {
                    samples.delays.push(Timed {
                        at_ns: ns(t0 - samples.start),
                        ns: ns(d),
                    });
                    if let Some(l) = layers {
                        l.after_delay_request(t0, t1);
                    }
                }
                None => {
                    let read = Read {
                        at_ns: ns(t0 - samples.start),
                        answers: n,
                        wall_ns: ns(t1 - t0),
                        ttfa_ns: ns(first.unwrap_or(t1) - t0),
                    };
                    samples.reads.push(read);
                    if let Some(l) = layers {
                        l.after_request(self.fleet, x, &read, t0, t1, first);
                    }
                }
            },
            Ok(n) => {
                self.ops.requests_failed += 1;
                self.ops.wrong = true;
                self.fail(format!(
                    "request x={x}: {n} answers returned, {count} delivered, oracle counts {want}"
                ));
            }
            Err(e) => {
                self.ops.requests_failed += 1;
                self.fail(format!("request x={x}: {e}"));
            }
        }
        if self.inputs.check[idx] || self.check_next {
            self.check_next = false;
            self.check(x);
        }
    }

    /// Re-serves `x` into a collecting block and compares the stream with
    /// the oracle's answer set and order.
    fn check(&mut self, x: u64) {
        self.ops.checks += 1;
        self.block.reset();
        let result = self.fleet.service().serve_into(VIEW, &[x], &mut self.block);
        let want = self.oracle.answers(x);
        let verdict = match result {
            Ok(n) if n != self.block.len() => {
                Err(format!("returned {n}, delivered {}", self.block.len()))
            }
            Ok(_) => check_stream(self.block.arity(), self.block.values(), &want)
                .inspect_err(|_| self.ops.wrong = true),
            Err(e) => Err(e.to_string()),
        };
        if let Err(e) = verdict {
            self.ops.checks_failed += 1;
            self.fail(format!("check x={x}: {e}"));
        }
    }

    fn update(&mut self, samples: &mut Samples, layers: Option<&mut Layers>) {
        let u = self.next_update;
        self.next_update += 1;
        let inputs = self.inputs;
        let delta = &inputs.deltas[u % inputs.deltas.len()];
        self.ops.updates += 1;
        let t0 = Instant::now();
        let result = match layers {
            Some(l) => l.update(self.fleet, u as u64, delta),
            None => self.fleet.service().apply_update(delta),
        };
        let elapsed = t0.elapsed();
        // The oracle follows the delta whatever happened: a failed update
        // then shows as wrong answers on the requests that follow.
        self.oracle.apply(delta);
        self.check_next = true;
        let verdict = result.map_err(|e| e.to_string()).and_then(|v| {
            let forward = v.len() == self.version.len()
                && v.iter().zip(&self.version).all(|(new, old)| new >= old);
            if !forward || v == self.version {
                return Err(format!(
                    "epochs went from {:?} to {v:?} on a delta that changes the data",
                    self.version
                ));
            }
            let now = self.fleet.service().version();
            if now != v {
                return Err(format!(
                    "update returned epochs {v:?} but version() is {now:?}"
                ));
            }
            self.version = v;
            Ok(())
        });
        match verdict {
            Ok(()) => samples.updates.push(Timed {
                at_ns: ns(t0 - samples.start),
                ns: ns(elapsed),
            }),
            Err(e) => {
                self.ops.updates_failed += 1;
                self.fail(format!("update {u}: {e}"));
            }
        }
    }
}
