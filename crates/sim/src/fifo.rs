//! Inter-stage FIFO queue sets (paper §4.1: width 32 bits, depth 16).
//!
//! A queue *set* is one logical pipeline edge expanded into one hardware
//! FIFO per consumer channel. Values wider than 32 bits occupy multiple
//! beats (an `f64` takes two slots and two transfer cycles), matching the
//! paper's fixed 32-bit FIFO width.
//!
//! Every beat is protected the way a production interconnect would protect
//! it: an odd-parity bit over the 32-bit payload and a per-channel
//! monotonically increasing sequence tag. [`QueueState::pop_checked`]
//! verifies both, so an injected single-bit flip, dropped beat, or
//! duplicated beat (see [`crate::fault`]) is *detected* at the consumer
//! instead of silently corrupting downstream state.

use crate::fault::{Corruption, FaultDetection};
use crate::value::Value;
use cgpa_ir::{QueueInfo, Ty};
use std::collections::VecDeque;

/// One protected 32-bit FIFO slot.
#[derive(Debug, Clone, Copy)]
struct Beat {
    data: u32,
    /// Odd parity over `data` at push time.
    parity: bool,
    /// Per-channel push ordinal.
    seq: u32,
}

fn parity_of(data: u32) -> bool {
    data.count_ones() & 1 == 1
}

/// Runtime state of one queue set.
///
/// ```
/// use cgpa_sim::fifo::QueueState;
/// use cgpa_sim::Value;
/// use cgpa_ir::{QueueInfo, Ty};
///
/// let info = QueueInfo { name: "vals".into(), elem_ty: Ty::F64, channels: 2 };
/// let mut q = QueueState::new(&info, 16);
/// q.push(0, Value::F64(2.5));            // an f64 occupies two beats
/// assert_eq!(q.occupancy(0), 2);
/// assert_eq!(q.pop(0), Value::F64(2.5));
/// assert!(q.is_drained());
/// ```
#[derive(Debug, Clone)]
pub struct QueueState {
    /// Queue name (diagnostics).
    pub name: String,
    /// Element type.
    pub elem_ty: Ty,
    /// Depth per channel, in 32-bit beats.
    pub depth_beats: usize,
    channels: Vec<VecDeque<Beat>>,
    /// Next sequence tag per channel (push side).
    push_seq: Vec<u32>,
    /// Expected sequence tag per channel (pop side).
    pop_seq: Vec<u32>,
    /// Total beats pushed (for power accounting). Includes duplicated-beat
    /// latch-ups: an injected duplicate re-writes a slot, which is a beat
    /// transfer the accounting must see, or pop counts drift ahead of push
    /// counts under fault plans.
    pub beats_pushed: u64,
    /// Total beats popped.
    pub beats_popped: u64,
    /// Beats lost to injected drop faults (pushed, then removed before any
    /// consumer could pop them).
    pub beats_dropped: u64,
    /// Total elements pushed across channels (fault-injection trigger
    /// ordinal).
    pub elems_pushed: u64,
    /// Peak occupancy in beats over all channels.
    pub peak_beats: usize,
    /// Time-weighted occupancy histogram per channel:
    /// `occ_hist[c][b]` = cycles channel `c` held exactly `b` beats. The
    /// last bucket (`depth_beats + 1`) saturates — a duplicate latch-up can
    /// exceed the nominal depth by one beat. Credited when a channel
    /// changes length and by [`settle_occupancy`](QueueState::settle_occupancy).
    occ_hist: Vec<Vec<u64>>,
    /// Per channel, the cycle from which it has held its current length.
    settled_at: Vec<u64>,
    /// The cycle the queue's next mutation happens in (see
    /// [`set_cycle`](QueueState::set_cycle)).
    now: u64,
}

impl QueueState {
    /// Create from a module-level declaration with the given depth (in
    /// *elements of 32 bits*, i.e. beats).
    #[must_use]
    pub fn new(info: &QueueInfo, depth_beats: usize) -> Self {
        QueueState {
            name: info.name.clone(),
            elem_ty: info.elem_ty,
            depth_beats,
            channels: vec![VecDeque::new(); info.channels as usize],
            push_seq: vec![0; info.channels as usize],
            pop_seq: vec![0; info.channels as usize],
            beats_pushed: 0,
            beats_popped: 0,
            beats_dropped: 0,
            elems_pushed: 0,
            peak_beats: 0,
            occ_hist: vec![vec![0; depth_beats + 2]; info.channels as usize],
            settled_at: vec![0; info.channels as usize],
            now: 0,
        }
    }

    /// Stamp the queue's following pushes, pops and injected corruptions
    /// with `cycle`. A channel's length after the last change in a cycle is
    /// what the occupancy histogram credits for that cycle, so the
    /// simulator sets the cycle before each handshake and never needs to
    /// sample idle queues.
    #[inline]
    pub fn set_cycle(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// Credit channel `c`'s current length for the cycles since its last
    /// change, up to (not including) `until`.
    fn settle(&mut self, c: usize, until: u64) {
        let bucket = self.channels[c].len().min(self.depth_beats + 1);
        self.occ_hist[c][bucket] += until.saturating_sub(self.settled_at[c]);
        self.settled_at[c] = until;
    }

    /// Close the occupancy histogram at `end` (exclusive): credit every
    /// channel's current length since its last change. The simulator calls
    /// this once when a run completes, with the run's cycle count.
    pub fn settle_occupancy(&mut self, end: u64) {
        for c in 0..self.channels() {
            self.settle(c, end);
        }
    }

    /// The per-channel time-weighted occupancy histograms.
    #[must_use]
    pub fn occupancy_hist(&self) -> &[Vec<u64>] {
        &self.occ_hist
    }

    /// Snapshot the accounting state as a [`QueueStats`](crate::stats::QueueStats)
    /// record.
    #[must_use]
    pub fn stats(&self) -> crate::stats::QueueStats {
        crate::stats::QueueStats {
            name: self.name.clone(),
            depth_beats: self.depth_beats as u32,
            elem_beats: self.elem_beats() as u32,
            beats_pushed: self.beats_pushed,
            beats_popped: self.beats_popped,
            beats_dropped: self.beats_dropped,
            peak_beats: self.peak_beats as u32,
            occupancy_hist: self.occ_hist.clone(),
        }
    }

    /// Record that one beat landed in channel `c`: every mutation that
    /// grows a channel — normal pushes and injected duplicate latch-ups
    /// alike — goes through here so beat counts and peak occupancy never
    /// drift from the channel contents.
    fn account_pushed_beat(&mut self, c: usize) {
        self.beats_pushed += 1;
        self.peak_beats = self.peak_beats.max(self.channels[c].len());
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Beats one element occupies.
    #[must_use]
    pub fn elem_beats(&self) -> usize {
        self.elem_ty.fifo_beats() as usize
    }

    /// Can channel `c` accept one element?
    #[must_use]
    pub fn can_push(&self, c: usize) -> bool {
        self.channels[c].len() + self.elem_beats() <= self.depth_beats
    }

    /// Can every channel accept one element (broadcast)?
    #[must_use]
    pub fn can_push_all(&self) -> bool {
        (0..self.channels()).all(|c| self.can_push(c))
    }

    /// Does channel `c` hold a complete element?
    #[must_use]
    pub fn can_pop(&self, c: usize) -> bool {
        self.channels[c].len() >= self.elem_beats()
    }

    /// Push one element to channel `c`.
    ///
    /// # Panics
    /// Panics when the channel is full (callers must check
    /// [`can_push`](QueueState::can_push) first; the hardware stalls).
    pub fn push(&mut self, c: usize, v: Value) {
        assert!(self.can_push(c), "push to full channel {c}");
        self.settle(c, self.now);
        let bits = v.to_bits();
        for beat in 0..self.elem_beats() {
            let data = (bits >> (32 * beat)) as u32;
            let seq = self.push_seq[c];
            self.push_seq[c] = seq.wrapping_add(1);
            self.channels[c].push_back(Beat { data, parity: parity_of(data), seq });
            self.account_pushed_beat(c);
        }
        self.elems_pushed += 1;
    }

    /// Broadcast one element to all channels.
    ///
    /// # Panics
    /// Panics when any channel is full.
    pub fn push_all(&mut self, v: Value) {
        assert!(self.can_push_all(), "broadcast into a full channel");
        for c in 0..self.channels() {
            self.push(c, v);
        }
        // `push` counted each channel as one element push.
    }

    /// Pop one element from channel `c`, verifying beat protection.
    ///
    /// # Errors
    /// [`FaultDetection::Parity`] when a payload disagrees with its parity
    /// bit, [`FaultDetection::SequenceGap`]/[`FaultDetection::SequenceRepeat`]
    /// when the per-channel sequence tags show a lost or duplicated beat.
    /// `queue` is only used to label the error.
    ///
    /// # Panics
    /// Panics when the channel lacks a complete element (callers check
    /// [`can_pop`](QueueState::can_pop); the hardware stalls).
    pub fn pop_checked(&mut self, queue: u32, c: usize) -> Result<Value, FaultDetection> {
        assert!(self.can_pop(c), "pop from empty channel {c}");
        self.settle(c, self.now);
        let mut bits = 0u64;
        for beat in 0..self.elem_beats() {
            let b = self.channels[c].pop_front().expect("beat available");
            let expected = self.pop_seq[c];
            if b.seq != expected {
                // One lost or repeated beat desynchronizes the tag stream
                // permanently; resync so later diagnostics stay readable.
                self.pop_seq[c] = b.seq.wrapping_add(1);
                let channel = c as u32;
                return Err(if b.seq.wrapping_sub(expected) < u32::MAX / 2 {
                    FaultDetection::SequenceGap { queue, channel, expected, got: b.seq }
                } else {
                    FaultDetection::SequenceRepeat { queue, channel, got: b.seq }
                });
            }
            self.pop_seq[c] = expected.wrapping_add(1);
            if parity_of(b.data) != b.parity {
                return Err(FaultDetection::Parity { queue, channel: c as u32 });
            }
            bits |= u64::from(b.data) << (32 * beat);
        }
        self.beats_popped += self.elem_beats() as u64;
        Ok(Value::from_bits(self.elem_ty, bits))
    }

    /// Pop one element from channel `c` (unprotected convenience API).
    ///
    /// # Panics
    /// Panics when the channel lacks a complete element, or when beat
    /// protection trips (only possible under fault injection — fault-aware
    /// callers use [`pop_checked`](QueueState::pop_checked)).
    pub fn pop(&mut self, c: usize) -> Value {
        match self.pop_checked(0, c) {
            Ok(v) => v,
            Err(e) => panic!("FIFO protection fault: {e}"),
        }
    }

    /// Flip payload bit `bit` of the most recently pushed beat on channel
    /// `c`, leaving its parity bit stale. Returns false if the channel is
    /// empty.
    pub fn corrupt_tail_bit(&mut self, c: usize, bit: u8) -> bool {
        match self.channels[c].back_mut() {
            Some(b) => {
                b.data ^= 1u32 << (bit % 32);
                true
            }
            None => false,
        }
    }

    /// Drop the most recently pushed beat on channel `c` (the push-side
    /// sequence counter keeps its advance, so the loss is a tag gap).
    /// The lost beat is recorded in [`beats_dropped`](QueueState): it was
    /// counted as pushed but will never be popped. Returns false if the
    /// channel is empty.
    pub fn drop_tail_beat(&mut self, c: usize) -> bool {
        self.settle(c, self.now);
        match self.channels[c].pop_back() {
            Some(_) => {
                self.beats_dropped += 1;
                true
            }
            None => false,
        }
    }

    /// Latch the most recently pushed beat on channel `c` a second time
    /// (same payload, same sequence tag). May exceed `depth_beats` by one
    /// beat — a latch-up, not a handshake. The extra slot write goes
    /// through beat accounting: it will eventually be popped (or flagged
    /// undrained), so push counts and peak occupancy must include it.
    /// Returns false if the channel is empty.
    pub fn dup_tail_beat(&mut self, c: usize) -> bool {
        self.settle(c, self.now);
        match self.channels[c].back().copied() {
            Some(b) => {
                self.channels[c].push_back(b);
                self.account_pushed_beat(c);
                true
            }
            None => false,
        }
    }

    /// Apply an injected corruption to the most recent push on channel `c`.
    pub fn apply_corruption(&mut self, c: usize, corruption: Corruption) {
        match corruption {
            Corruption::Drop => {
                self.drop_tail_beat(c);
            }
            Corruption::Duplicate => {
                self.dup_tail_beat(c);
            }
            Corruption::Flip { bit } => {
                self.corrupt_tail_bit(c, bit);
            }
        }
    }

    /// Current occupancy (beats) of channel `c`.
    #[must_use]
    pub fn occupancy(&self, c: usize) -> usize {
        self.channels[c].len()
    }

    /// Total occupancy (beats) across channels.
    #[must_use]
    pub fn total_occupancy(&self) -> usize {
        self.channels.iter().map(VecDeque::len).sum()
    }

    /// True when every channel is empty.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.channels.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(ty: Ty, channels: u32) -> QueueState {
        QueueState::new(&QueueInfo { name: "q".into(), elem_ty: ty, channels }, 16)
    }

    #[test]
    fn i32_roundtrip_fifo_order() {
        let mut qs = q(Ty::I32, 2);
        qs.push(0, Value::I32(1));
        qs.push(0, Value::I32(2));
        qs.push(1, Value::I32(3));
        assert_eq!(qs.pop(0), Value::I32(1));
        assert_eq!(qs.pop(0), Value::I32(2));
        assert_eq!(qs.pop(1), Value::I32(3));
        assert!(qs.is_drained());
    }

    #[test]
    fn f64_takes_two_beats() {
        let mut qs = q(Ty::F64, 1);
        assert_eq!(qs.elem_beats(), 2);
        qs.push(0, Value::F64(-3.5));
        assert_eq!(qs.occupancy(0), 2);
        assert_eq!(qs.pop(0), Value::F64(-3.5));
        assert_eq!(qs.beats_pushed, 2);
        assert_eq!(qs.beats_popped, 2);
    }

    #[test]
    fn capacity_is_in_beats() {
        let mut qs = q(Ty::F64, 1);
        for i in 0..8 {
            assert!(qs.can_push(0), "push {i}");
            qs.push(0, Value::F64(f64::from(i)));
        }
        assert!(!qs.can_push(0)); // 8 × 2 beats = 16 = depth
    }

    #[test]
    fn broadcast_needs_space_everywhere() {
        let mut qs = q(Ty::I32, 2);
        for _ in 0..16 {
            qs.push(0, Value::I32(0));
        }
        assert!(!qs.can_push_all());
        assert!(qs.can_push(1));
        let _ = qs.pop(0);
        assert!(qs.can_push_all());
        qs.push_all(Value::I32(7));
        assert_eq!(qs.pop(1), Value::I32(7));
    }

    #[test]
    #[should_panic(expected = "pop from empty")]
    fn pop_empty_panics() {
        let mut qs = q(Ty::I32, 1);
        let _ = qs.pop(0);
    }

    #[test]
    fn peak_occupancy_tracks() {
        let mut qs = q(Ty::I32, 1);
        qs.push(0, Value::I32(1));
        qs.push(0, Value::I32(2));
        let _ = qs.pop(0);
        assert_eq!(qs.peak_beats, 2);
    }

    // --- boundary behaviour -------------------------------------------------

    #[test]
    fn push_at_exactly_full_occupancy_is_rejected() {
        let mut qs = q(Ty::I32, 1);
        for i in 0..16 {
            qs.push(0, Value::I32(i));
        }
        assert_eq!(qs.occupancy(0), qs.depth_beats);
        // At exactly depth_beats occupancy the handshake must deassert.
        assert!(!qs.can_push(0));
        assert!(!qs.can_push_all());
        // One pop of a 1-beat element reopens exactly one slot.
        let _ = qs.pop(0);
        assert!(qs.can_push(0));
        qs.push(0, Value::I32(99));
        assert!(!qs.can_push(0));
    }

    #[test]
    fn multibeat_f64_straddling_depth_limit_blocks_whole_element() {
        let mut qs = q(Ty::F64, 1);
        for i in 0..7 {
            qs.push(0, Value::F64(f64::from(i)));
        }
        // 14 of 16 beats used: one more f64 fits exactly...
        assert!(qs.can_push(0));
        qs.push(0, Value::F64(7.0));
        assert_eq!(qs.occupancy(0), 16);
        // ...then a following f64 must NOT be able to land a partial beat.
        assert!(!qs.can_push(0));
        let _ = qs.pop(0);
        // 14 beats used, 2 free: a whole f64 fits again.
        assert!(qs.can_push(0));
        // Values are still framed correctly after wrap-around at the limit.
        qs.push(0, Value::F64(8.0));
        for expect in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0] {
            assert_eq!(qs.pop(0), Value::F64(expect));
        }
        assert!(qs.is_drained());
    }

    #[test]
    fn backpressure_release_preserves_order() {
        let mut qs = q(Ty::I32, 1);
        for i in 0..16 {
            qs.push(0, Value::I32(i));
        }
        assert!(!qs.can_push(0)); // producer stalls here
                                  // Consumer drains three beats; producer resumes in push order.
        assert_eq!(qs.pop(0), Value::I32(0));
        assert_eq!(qs.pop(0), Value::I32(1));
        assert_eq!(qs.pop(0), Value::I32(2));
        for i in 16..19 {
            assert!(qs.can_push(0));
            qs.push(0, Value::I32(i));
        }
        assert!(!qs.can_push(0));
        // Everything still comes out FIFO: 3..19 with no reorder across the
        // stall/release boundary.
        for i in 3..19 {
            assert_eq!(qs.pop(0), Value::I32(i));
        }
        assert!(qs.is_drained());
    }

    // --- beat protection ----------------------------------------------------

    #[test]
    fn bit_flip_is_detected_by_parity() {
        let mut qs = q(Ty::I32, 1);
        qs.push(0, Value::I32(0x55));
        qs.corrupt_tail_bit(0, 3);
        assert!(matches!(
            qs.pop_checked(9, 0),
            Err(FaultDetection::Parity { queue: 9, channel: 0 })
        ));
    }

    #[test]
    fn dropped_beat_is_detected_as_sequence_gap() {
        let mut qs = q(Ty::I32, 1);
        qs.push(0, Value::I32(1));
        qs.drop_tail_beat(0);
        qs.push(0, Value::I32(2));
        assert!(matches!(
            qs.pop_checked(0, 0),
            Err(FaultDetection::SequenceGap { expected: 0, got: 1, .. })
        ));
    }

    #[test]
    fn duplicated_beat_is_detected_as_sequence_repeat() {
        let mut qs = q(Ty::I32, 1);
        qs.push(0, Value::I32(1));
        qs.dup_tail_beat(0);
        assert_eq!(qs.pop_checked(0, 0).unwrap(), Value::I32(1));
        assert!(matches!(qs.pop_checked(0, 0), Err(FaultDetection::SequenceRepeat { got: 0, .. })));
    }

    #[test]
    fn dup_tail_beat_goes_through_beat_accounting() {
        // Fill the channel completely, then latch the tail beat a second
        // time: the latch-up must be visible in both the push count and the
        // peak occupancy (it exceeds the nominal depth by one beat).
        let mut qs = q(Ty::I32, 1);
        for i in 0..16 {
            qs.push(0, Value::I32(i));
        }
        assert_eq!(qs.beats_pushed, 16);
        assert_eq!(qs.peak_beats, 16);
        assert!(qs.dup_tail_beat(0));
        assert_eq!(qs.beats_pushed, 17, "duplicate latch-up must count as a pushed beat");
        assert_eq!(qs.peak_beats, 17, "latch-up peak exceeds the nominal depth");
        assert_eq!(qs.occupancy(0), 17);
        // Drain: 16 clean pops, then the duplicate trips sequence-repeat.
        // Every popped beat is accounted, so push/pop counters agree about
        // how many beats actually moved.
        for _ in 0..16 {
            let _ = qs.pop_checked(0, 0).unwrap();
        }
        assert_eq!(qs.beats_popped, 16);
        assert!(matches!(qs.pop_checked(0, 0), Err(FaultDetection::SequenceRepeat { .. })));
    }

    #[test]
    fn drop_tail_beat_is_recorded_as_dropped() {
        let mut qs = q(Ty::I32, 1);
        qs.push(0, Value::I32(1));
        qs.push(0, Value::I32(2));
        assert!(qs.drop_tail_beat(0));
        assert_eq!(qs.beats_dropped, 1);
        assert_eq!(qs.beats_pushed, 2);
        assert_eq!(qs.occupancy(0), 1);
        // Nothing dropped from an empty channel.
        let mut empty = q(Ty::I32, 1);
        assert!(!empty.drop_tail_beat(0));
        assert_eq!(empty.beats_dropped, 0);
    }

    #[test]
    fn occupancy_histogram_is_time_weighted() {
        let mut qs = q(Ty::I32, 2);
        qs.set_cycle(3); // both channels empty for cycles 0..3
        qs.push(0, Value::I32(1));
        qs.settle_occupancy(5); // channel 0 at 1 beat for cycles 3..5
        let hist = qs.occupancy_hist();
        assert_eq!(hist[0][0], 3);
        assert_eq!(hist[0][1], 2);
        assert_eq!(hist[1][0], 5);
        let stats = qs.stats();
        assert_eq!(stats.occupancy_hist, hist.to_vec());
        assert_eq!(stats.beats_pushed, 1);
        assert_eq!(stats.depth_beats, 16);
        assert_eq!(stats.elem_beats, 1);
    }

    #[test]
    fn a_cycle_counts_the_length_after_its_last_change() {
        let mut qs = q(Ty::I32, 1);
        qs.set_cycle(2);
        qs.push(0, Value::I32(1));
        qs.push(0, Value::I32(2)); // same cycle: only the final length counts
        qs.set_cycle(4);
        let _ = qs.pop(0);
        qs.settle_occupancy(6);
        qs.settle_occupancy(6); // settling twice at one cycle credits nothing
        assert_eq!(qs.occupancy_hist()[0][..3], [2, 2, 2]);
    }

    #[test]
    fn clean_stream_passes_protection() {
        let mut qs = q(Ty::F64, 2);
        for i in 0..4u32 {
            qs.push((i % 2) as usize, Value::F64(f64::from(i)));
        }
        for i in 0..4u32 {
            assert_eq!(qs.pop_checked(0, (i % 2) as usize).unwrap(), Value::F64(f64::from(i)));
        }
    }
}
