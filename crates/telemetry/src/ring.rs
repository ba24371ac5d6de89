//! [`EventRing`]: a bounded keep-latest buffer of [`TraceEvent`]s.
//!
//! The recorder must never let a pathological run grow without bound
//! (the exact failure mode `SimStats::queue_samples` had), so the ring
//! overwrites its oldest events once full and counts what it evicted —
//! a truncated trace *says* it is truncated instead of silently OOMing.

use crate::event::TraceEvent;

/// Fixed-capacity ring of trace events, oldest-evicted-first.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    evicted: u64,
}

impl EventRing {
    /// A ring holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> EventRing {
        let cap = cap.max(1);
        EventRing {
            buf: Vec::new(),
            cap,
            head: 0,
            evicted: 0,
        }
    }

    /// Records an event, evicting the oldest if full.
    #[inline]
    pub fn push(&mut self, e: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.cap;
            self.evicted += 1;
        }
    }

    /// How many events were overwritten after the ring filled.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Consumes the ring, returning events in record (chronological)
    /// order.
    pub fn into_events(mut self) -> Vec<TraceEvent> {
        let mut out = self.buf.split_off(self.head);
        out.append(&mut self.buf);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent::new(ts, Phase::Instant, "e", "t", 0)
    }

    #[test]
    fn keeps_latest_on_overflow() {
        let mut r = EventRing::new(3);
        for t in 0..5 {
            r.push(ev(t));
        }
        assert_eq!(r.evicted(), 2);
        let ts: Vec<u64> = r.into_events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn under_capacity_is_in_order() {
        let mut r = EventRing::new(8);
        for t in 0..3 {
            r.push(ev(t));
        }
        assert_eq!(r.evicted(), 0);
        let ts: Vec<u64> = r.into_events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![0, 1, 2]);
    }
}
