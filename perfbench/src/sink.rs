//! The benchmark's timestamping answer sinks.
//!
//! Timestamping an answer costs about as much as enumerating it (two
//! clock reads ~100 ns against 40–70 ns of enumeration per answer), so
//! the two jobs use two sinks: [`FirstAnswer`] reads the clock once per
//! request and is the one latency and throughput requests use, and
//! [`Gaps`] reads it per answer and is kept to the requests sampled for
//! the §2.3 delay.

use cqc_common::{AnswerSink, Value};
use std::time::{Duration, Instant};

/// Counts answers and stamps the first one.
#[derive(Debug, Default)]
pub struct FirstAnswer {
    /// Answers received.
    pub count: usize,
    /// When the first answer arrived.
    pub first: Option<Instant>,
}

impl FirstAnswer {
    fn record(&mut self, now: impl FnOnce() -> Instant) {
        if self.count == 0 {
            self.first = Some(now());
        }
        self.count += 1;
    }
}

impl AnswerSink for FirstAnswer {
    #[inline]
    fn push(&mut self, _tuple: &[Value]) -> bool {
        self.record(Instant::now);
        true
    }
}

/// Tracks the largest gap between consecutive events of one request:
/// the call, every answer, and the return ("done").
#[derive(Debug)]
pub struct Gaps {
    last: Instant,
    max_gap: Duration,
    /// Answers received.
    pub count: usize,
}

impl Gaps {
    /// A sink for a request called at `start`.
    pub fn new(start: Instant) -> Gaps {
        Gaps {
            last: start,
            max_gap: Duration::ZERO,
            count: 0,
        }
    }

    fn record(&mut self, now: Instant) {
        self.max_gap = self.max_gap.max(now - self.last);
        self.last = now;
        self.count += 1;
    }

    /// The request's delay once it returned at `done`: the largest gap,
    /// counting the first answer and the return.
    pub fn finish(&self, done: Instant) -> Duration {
        self.max_gap.max(done.saturating_duration_since(self.last))
    }
}

impl AnswerSink for Gaps {
    #[inline]
    fn push(&mut self, _tuple: &[Value]) -> bool {
        self.record(Instant::now());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_answer_is_stamped_once() {
        let t0 = Instant::now();
        let mut s = FirstAnswer::default();
        s.record(|| t0);
        s.record(|| t0 + Duration::from_secs(1));
        assert_eq!(s.count, 2);
        assert_eq!(s.first, Some(t0));
        assert!(s.push(&[1, 2]), "the sink never stops a stream");
        assert_eq!(s.count, 3);
        assert_eq!(FirstAnswer::default().first, None);
    }

    #[test]
    fn delay_counts_first_answer_gaps_and_done() {
        let t0 = Instant::now();
        let us = |n| t0 + Duration::from_micros(n);
        let mut g = Gaps::new(t0);
        g.record(us(5)); // first answer after 5 µs
        g.record(us(7));
        g.record(us(20)); // 13 µs gap
        g.record(us(21));
        assert_eq!(g.count, 4);
        assert_eq!(g.finish(us(25)), Duration::from_micros(13));
        // A slow "done" is a gap too.
        assert_eq!(g.finish(us(50)), Duration::from_micros(29));
        // A slow first answer is a gap too.
        let mut slow = Gaps::new(t0);
        slow.record(us(40));
        slow.record(us(41));
        assert_eq!(slow.finish(us(42)), Duration::from_micros(40));
        // An empty answer: the delay is the whole call.
        let empty = Gaps::new(t0);
        assert_eq!(empty.finish(us(9)), Duration::from_micros(9));
    }
}
