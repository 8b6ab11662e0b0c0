//! Simulation statistics.
//!
//! Every non-busy worker cycle is attributed to a *cause* — which memory
//! direction, which queue, which side of the FIFO handshake — so the
//! profiling layer (`cgpa::profile`) can name the resource that limits a
//! run instead of reporting one undifferentiated stall total. Both
//! simulation engines fill these buckets identically: the per-cycle
//! reference stepper increments them cycle by cycle, and the event-driven
//! engine bulk-credits skipped windows into the same buckets
//! (`tests/differential_engines.rs` enforces bit-equality per bucket).

use crate::cache::CacheStats;

/// Cycles a worker spent waiting on one queue, split by handshake side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWait {
    /// Queue index (into the module's queue table).
    pub queue: u32,
    /// Cycles blocked pushing (the queue had no room for an element).
    pub push: u64,
    /// Cycles starved popping (the queue held no complete element).
    pub pop: u64,
}

/// Per-worker cycle accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Cycles doing useful work (state execution progressing).
    pub busy: u64,
    /// Cycles stalled waiting for a load response from the cache.
    pub stall_mem_read: u64,
    /// Cycles stalled on store back-pressure. Structurally zero under the
    /// current fire-and-forget store buffer; the bucket exists so the
    /// attribution schema is closed over both memory directions.
    pub stall_mem_write: u64,
    /// Cycles after finishing, waiting for the join (or clock-gated by an
    /// injected stall window).
    pub idle: u64,
    /// Loop iterations executed (dispatch/header entries).
    pub iterations: u64,
    /// FIFO wait cycles attributed per queue, sorted by queue index.
    /// `stall_push()`/`stall_pop()`/`stall_fifo()` give the totals.
    pub queue_waits: Vec<QueueWait>,
}

impl WorkerStats {
    /// Cycles stalled on a memory response (read + write direction).
    #[must_use]
    pub fn stall_mem(&self) -> u64 {
        self.stall_mem_read + self.stall_mem_write
    }

    /// Cycles blocked pushing into a full queue, summed over queues.
    #[must_use]
    pub fn stall_push(&self) -> u64 {
        self.queue_waits.iter().map(|q| q.push).sum()
    }

    /// Cycles starved popping from an empty queue, summed over queues.
    #[must_use]
    pub fn stall_pop(&self) -> u64 {
        self.queue_waits.iter().map(|q| q.pop).sum()
    }

    /// Cycles stalled on FIFO back-pressure or starvation (push + pop).
    #[must_use]
    pub fn stall_fifo(&self) -> u64 {
        self.stall_push() + self.stall_pop()
    }

    /// Attribute `k` FIFO wait cycles to `queue`, on the push side when
    /// `push` is true, the pop side otherwise.
    pub fn credit_fifo(&mut self, queue: u32, push: bool, k: u64) {
        let slot = match self.queue_waits.binary_search_by_key(&queue, |q| q.queue) {
            Ok(i) => &mut self.queue_waits[i],
            Err(i) => {
                self.queue_waits.insert(i, QueueWait { queue, push: 0, pop: 0 });
                &mut self.queue_waits[i]
            }
        };
        if push {
            slot.push += k;
        } else {
            slot.pop += k;
        }
    }

    /// Cycles the worker existed (busy + stalls + idle).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.busy + self.stall_mem() + self.stall_fifo() + self.idle
    }

    /// Fraction of cycles spent busy (activity factor for the power model).
    #[must_use]
    pub fn activity(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.busy as f64 / t as f64
        }
    }
}

/// Per-queue-set occupancy statistics: beat counters plus a time-weighted
/// per-channel occupancy histogram, credited whenever a channel's length
/// changes and once when the run completes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Queue name (diagnostics).
    pub name: String,
    /// Depth per channel in beats.
    pub depth_beats: u32,
    /// Beats one element occupies.
    pub elem_beats: u32,
    /// Total beats pushed (including duplicated-beat latch-ups).
    pub beats_pushed: u64,
    /// Total beats popped.
    pub beats_popped: u64,
    /// Beats lost to injected drop faults.
    pub beats_dropped: u64,
    /// Peak occupancy in beats over all channels.
    pub peak_beats: u32,
    /// `occupancy_hist[c][b]` = cycles channel `c` spent holding exactly
    /// `b` beats. The last bucket (index `depth_beats + 1`) saturates:
    /// an injected duplicate latch-up can exceed the nominal depth.
    pub occupancy_hist: Vec<Vec<u64>>,
}

impl QueueStats {
    /// Mean occupancy in beats, averaged over channels and cycles.
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        let mut beats_cycles = 0u128;
        let mut samples = 0u128;
        for hist in &self.occupancy_hist {
            for (occ, &cycles) in hist.iter().enumerate() {
                beats_cycles += occ as u128 * u128::from(cycles);
                samples += u128::from(cycles);
            }
        }
        if samples == 0 {
            0.0
        } else {
            beats_cycles as f64 / samples as f64
        }
    }

    /// Fraction of (cycle, channel) samples in which the channel could not
    /// accept one more element (occupancy + element size exceeds depth).
    #[must_use]
    pub fn full_fraction(&self) -> f64 {
        self.fraction_where(|occ| occ + self.elem_beats as usize > self.depth_beats as usize)
    }

    /// Fraction of (cycle, channel) samples in which the channel held no
    /// complete element.
    #[must_use]
    pub fn empty_fraction(&self) -> f64 {
        self.fraction_where(|occ| occ < self.elem_beats as usize)
    }

    fn fraction_where(&self, pred: impl Fn(usize) -> bool) -> f64 {
        let mut hit = 0u128;
        let mut samples = 0u128;
        for hist in &self.occupancy_hist {
            for (occ, &cycles) in hist.iter().enumerate() {
                if pred(occ) {
                    hit += u128::from(cycles);
                }
                samples += u128::from(cycles);
            }
        }
        if samples == 0 {
            0.0
        } else {
            hit as f64 / samples as f64
        }
    }
}

/// Whole-accelerator run statistics.
#[derive(Debug, Clone, Default)]
pub struct SystemStats {
    /// Kernel cycles from fork to join.
    pub cycles: u64,
    /// Per-worker stats, in worker order.
    pub workers: Vec<WorkerStats>,
    /// FIFO beats moved (pushes + pops).
    pub fifo_beats: u64,
    /// Per-queue occupancy statistics, in module queue order.
    pub queues: Vec<QueueStats>,
    /// Cache statistics.
    pub cache: CacheStats,
    /// Cycles the event-driven engine bulk-credited instead of evaluating
    /// (0 under the per-cycle reference stepper). Diagnostic only: every
    /// other field is engine-independent, this one is not.
    pub skipped_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_fraction() {
        let mut w = WorkerStats {
            busy: 75,
            stall_mem_read: 15,
            stall_mem_write: 0,
            idle: 0,
            iterations: 5,
            queue_waits: Vec::new(),
        };
        w.credit_fifo(2, true, 4);
        w.credit_fifo(0, false, 6);
        assert!((w.activity() - 0.75).abs() < 1e-12);
        assert_eq!(w.total(), 100);
        assert_eq!(w.stall_fifo(), 10);
        assert_eq!(w.stall_push(), 4);
        assert_eq!(w.stall_pop(), 6);
        assert_eq!(w.stall_mem(), 15);
    }

    #[test]
    fn credit_fifo_keeps_queue_order() {
        let mut w = WorkerStats::default();
        w.credit_fifo(3, true, 1);
        w.credit_fifo(1, false, 2);
        w.credit_fifo(3, false, 5);
        let ids: Vec<u32> = w.queue_waits.iter().map(|q| q.queue).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(w.queue_waits[1], QueueWait { queue: 3, push: 1, pop: 5 });
    }

    #[test]
    fn empty_stats_are_safe() {
        let w = WorkerStats::default();
        assert_eq!(w.activity(), 0.0);
        let q = QueueStats::default();
        assert_eq!(q.mean_occupancy(), 0.0);
        assert_eq!(q.full_fraction(), 0.0);
    }

    #[test]
    fn queue_stats_fractions() {
        // One channel, depth 4, 2-beat elements; 10 cycles at occupancy 4
        // (full), 5 at occupancy 1 (incomplete element), 5 at 2.
        let q = QueueStats {
            name: "q".into(),
            depth_beats: 4,
            elem_beats: 2,
            occupancy_hist: vec![vec![0, 5, 5, 0, 10, 0]],
            ..QueueStats::default()
        };
        assert!((q.full_fraction() - 0.5).abs() < 1e-12); // occ 4 and the occ-3 bucket is empty
        assert!((q.empty_fraction() - 0.25).abs() < 1e-12); // occ 1
        assert!((q.mean_occupancy() - (5.0 + 10.0 + 40.0) / 20.0).abs() < 1e-12);
    }
}
