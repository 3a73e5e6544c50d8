//! Hierarchical timer wheel for the event queue.
//!
//! The simulator's hot loop is push/pop of timestamped events. A
//! `BinaryHeap` costs O(log n) compares per operation over the *whole*
//! pending set — at 100k hosts the heap holds hundreds of thousands of
//! keepalive timers and every packet event pays to sift past them. A
//! hierarchical timer wheel makes push O(1) (index by time digits) and pop
//! amortized O(1) (bitmap scan plus rare cascades), independent of how many
//! long-dated timers are parked in the overflow levels.
//!
//! Layout: 11 levels × 64 slots. Level `i` indexes bits `[6i, 6i+6)` of the
//! event's absolute microsecond timestamp, so level 0 has 1 µs granularity
//! (finer than any link latency), level 1 covers 64 µs per slot, and level
//! 10 reaches the top bits of `u64` — `SimTime::FAR_FUTURE` parks in the
//! wheel like any other deadline. Each level has a 64-bit occupancy bitmap;
//! finding the next event is a `trailing_zeros` per level.
//!
//! # Exact `(at, seq)` order
//!
//! The simulator's determinism contract is that events pop in `(at, seq)`
//! order. Slot vectors make no intra-slot ordering promise, so the wheel
//! never pops from a slot directly: advancing drains the next occupied
//! microsecond into a small `due` min-heap ordered by `(at, seq)`, and
//! pops come from that heap. The heap only ever holds the events of a few
//! microseconds (plus same-instant events pushed while processing), so its
//! O(log k) is over a handful of entries, not the whole pending set.
//!
//! Invariants that make the bitmap scan correct:
//!
//! - Every event stored in a wheel slot has `at` strictly greater than the
//!   cursor `cur`; events with `at ≤ cur` go to the `due` heap.
//! - At level `i`, an occupied slot's index is strictly greater than digit
//!   `i` of `cur`: an event lands at the *highest* level where its time
//!   digit differs from `cur`, and whenever the cursor enters a slot's
//!   window that slot is drained (cascaded downward) in the same step. So
//!   slot indices never alias across wheel revolutions, and the lowest set
//!   bit above the cursor digit — lowest level first — is always the
//!   globally next event.
//! - Cascading moves the cursor to the *start* of the entered window,
//!   which is ≤ every drained event's time, so re-insertion sees a
//!   consistent cursor and time never runs backwards.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Bits of the timestamp consumed per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed so that ⌈64 / SLOT_BITS⌉ digits cover a full `u64`.
const LEVELS: usize = 11;
/// A drained slot keeps its buffer, so the next push into it does not
/// allocate, unless the buffer grew past this many entries: a burst does
/// not pin its peak in all 704 slots. Measured: uncapped retention grew
/// `join-storm`'s peak RSS by 28 % and `ring-maintain`'s 3.1×; 16 keeps
/// nearly all the saving.
const SLOT_KEEP: usize = 16;

/// One pending event inside the `due` heap.
struct DueEntry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for DueEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for DueEntry<T> {}
impl<T> PartialOrd for DueEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for DueEntry<T> {
    // Reversed: BinaryHeap is a max-heap and we want the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A hierarchical timer wheel holding `(at, seq, item)` triples and popping
/// them in exact `(at, seq)` order. Timestamps are absolute microseconds.
pub struct TimerWheel<T> {
    /// `LEVELS × SLOTS` slot vectors, flattened.
    slots: Vec<Vec<(u64, u64, T)>>,
    /// Per-level occupancy bitmap (bit `s` = slot `s` non-empty).
    occupancy: [u64; LEVELS],
    /// Wheel cursor: all slotted events are strictly later than this.
    cur: u64,
    /// Events at or behind the cursor, popped in `(at, seq)` order.
    due: BinaryHeap<DueEntry<T>>,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            cur: 0,
            due: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an event. `seq` must be unique (the caller's monotone event
    /// counter); ties on `at` pop in `seq` order.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        self.len += 1;
        if at <= self.cur {
            // Same-instant (or cursor-lagging) events bypass the wheel; the
            // heap keeps them exactly ordered relative to drained slots.
            self.due.push(DueEntry { at, seq, item });
        } else {
            self.insert_slot(at, seq, item);
        }
    }

    /// Place a strictly-future event in the highest level where its time
    /// digit differs from the cursor's.
    fn insert_slot(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(at > self.cur);
        let differing = at ^ self.cur;
        let level = ((63 - differing.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push((at, seq, item));
        self.occupancy[level] |= 1u64 << slot;
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.due.is_empty() {
            self.advance();
        }
        let e = self.due.pop()?;
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }

    /// The `(at, seq)` key of the earliest event without removing it.
    ///
    /// Takes `&mut self`: finding the next event may advance the cursor and
    /// cascade overflow slots. Events pushed after a peek still pop in
    /// correct order (they join the `due` heap if not strictly future).
    pub fn peek_at(&mut self) -> Option<(u64, u64)> {
        if self.due.is_empty() {
            self.advance();
        }
        self.due.peek().map(|e| (e.at, e.seq))
    }

    /// Advance the cursor to the next occupied microsecond and drain it
    /// into the `due` heap, cascading overflow levels as needed. Leaves
    /// `due` empty only if the wheel holds no events at all.
    fn advance(&mut self) {
        debug_assert!(self.due.is_empty());
        loop {
            // Level 0: slots strictly above the cursor's low digit are
            // whole future microseconds within the current 64 µs window.
            let d0 = (self.cur & (SLOTS as u64 - 1)) as u32;
            let avail = self.occupancy[0] & above_mask(d0);
            if avail != 0 {
                let s = avail.trailing_zeros() as u64;
                self.cur = (self.cur & !(SLOTS as u64 - 1)) | s;
                self.drain_into_due(s as usize);
                return;
            }
            // Cascade: lowest level with a slot beyond the cursor digit
            // holds the globally next window. Enter it (cursor to window
            // start) and redistribute its events downward.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let digit = ((self.cur >> shift) & (SLOTS as u64 - 1)) as u32;
                let avail = self.occupancy[level] & above_mask(digit);
                if avail == 0 {
                    continue;
                }
                let s = avail.trailing_zeros() as u64;
                // Clear digits below `level`, set digit `level` to `s`.
                let high = match shift.checked_add(SLOT_BITS) {
                    Some(sh) if sh < 64 => (self.cur >> sh) << sh,
                    _ => 0,
                };
                self.cur = high | (s << shift);
                self.occupancy[level] &= !(1u64 << (s as u32));
                // Every drained event lands at a lower level or in `due`,
                // never back in this slot, so the buffer can be taken out
                // while they are re-inserted and then returned.
                let idx = level * SLOTS + s as usize;
                let mut drained = std::mem::take(&mut self.slots[idx]);
                for (at, seq, item) in drained.drain(..) {
                    if at <= self.cur {
                        // Exactly the window start: immediately due.
                        self.due.push(DueEntry { at, seq, item });
                    } else {
                        self.insert_slot(at, seq, item);
                    }
                }
                debug_assert!(self.slots[idx].is_empty());
                self.restore_slot(idx, drained);
                cascaded = true;
                break;
            }
            if !cascaded {
                return; // wheel is empty
            }
            if !self.due.is_empty() {
                return; // cascade surfaced window-start events
            }
        }
    }

    /// Move every event of the level-0 slot `s` (one microsecond) to `due`.
    fn drain_into_due(&mut self, s: usize) {
        self.occupancy[0] &= !(1u64 << s);
        let mut drained = std::mem::take(&mut self.slots[s]);
        for (at, seq, item) in drained.drain(..) {
            debug_assert_eq!(at, self.cur);
            self.due.push(DueEntry { at, seq, item });
        }
        self.restore_slot(s, drained);
    }

    /// Hand a drained (empty) buffer back to slot `idx`, or free it if it
    /// is over [`SLOT_KEEP`].
    fn restore_slot(&mut self, idx: usize, buf: Vec<(u64, u64, T)>) {
        debug_assert!(buf.is_empty());
        if buf.capacity() <= SLOT_KEEP {
            self.slots[idx] = buf;
        }
    }
}

/// Bitmap mask of slots strictly above `digit`.
fn above_mask(digit: u32) -> u64 {
    match digit.checked_add(1) {
        Some(sh) if sh < 64 => !0u64 << sh,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Reference: the original BinaryHeap event queue.
    struct RefHeap {
        heap: BinaryHeap<DueEntry<u32>>,
    }

    impl RefHeap {
        fn new() -> Self {
            RefHeap {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, at: u64, seq: u64, item: u32) {
            self.heap.push(DueEntry { at, seq, item });
        }
        fn pop(&mut self) -> Option<(u64, u64, u32)> {
            self.heap.pop().map(|e| (e.at, e.seq, e.item))
        }
    }

    #[test]
    fn pops_in_at_seq_order() {
        let mut w = TimerWheel::new();
        w.push(5, 2, "c");
        w.push(5, 1, "b");
        w.push(1, 0, "a");
        w.push(u64::MAX, 3, "z");
        assert_eq!(w.pop(), Some((1, 0, "a")));
        assert_eq!(w.pop(), Some((5, 1, "b")));
        assert_eq!(w.pop(), Some((5, 2, "c")));
        assert_eq!(w.pop(), Some((u64::MAX, 3, "z")));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn peek_does_not_consume_and_late_pushes_stay_ordered() {
        let mut w = TimerWheel::new();
        w.push(1000, 0, 1);
        assert_eq!(w.peek_at(), Some((1000, 0)));
        // The peek advanced the cursor to 1000; a push earlier than that
        // (legal: the sim clock is still behind) must still pop first.
        w.push(400, 1, 2);
        assert_eq!(w.pop(), Some((400, 1, 2)));
        assert_eq!(w.pop(), Some((1000, 0, 1)));
    }

    #[test]
    fn same_instant_reentrant_pushes_pop_in_seq_order() {
        let mut w = TimerWheel::new();
        w.push(7, 0, 0);
        assert_eq!(w.pop(), Some((7, 0, 0)));
        // Events scheduled "now" while processing time 7.
        w.push(7, 1, 1);
        w.push(7, 2, 2);
        w.push(8, 3, 3);
        assert_eq!(w.pop(), Some((7, 1, 1)));
        assert_eq!(w.pop(), Some((7, 2, 2)));
        assert_eq!(w.pop(), Some((8, 3, 3)));
    }

    #[test]
    fn differential_random_schedules_match_binary_heap() {
        // Random interleavings of pushes and pops, with deadline spreads
        // from sub-µs ties to FAR_FUTURE parking, replayed against the
        // reference heap. Pop streams must match element-for-element.
        for seed in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut wheel = TimerWheel::new();
            let mut heap = RefHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for op in 0..4000 {
                if rng.gen_bool(0.6) || wheel.is_empty() {
                    // Push at `now + spread`, exercising every wheel level.
                    let spread = match rng.gen_range(0..10u32) {
                        0 => 0,
                        1..=3 => rng.gen_range(0..64),
                        4..=6 => rng.gen_range(0..4096),
                        7 => rng.gen_range(0..1_000_000),
                        8 => rng.gen_range(0..10_000_000_000),
                        _ => u64::MAX - now, // far-future park
                    };
                    let at = now.saturating_add(spread);
                    wheel.push(at, seq, op);
                    heap.push(at, seq, op as u32);
                    seq += 1;
                } else {
                    if rng.gen_bool(0.3) {
                        // Peek before pop: must not disturb order.
                        let peeked = wheel.peek_at();
                        assert!(peeked.is_some());
                    }
                    let got = wheel.pop();
                    let want = heap.pop().map(|(at, s, i)| (at, s, i as u64));
                    assert_eq!(got, want, "seed {seed} op {op}");
                    now = got.unwrap().0;
                }
            }
            // Drain both to the end.
            loop {
                let got = wheel.pop();
                let want = heap.pop().map(|(at, s, i)| (at, s, i as u64));
                assert_eq!(got, want, "seed {seed} drain");
                if got.is_none() {
                    break;
                }
            }
            assert_eq!(wheel.len(), 0);
        }
    }

    #[test]
    fn far_future_parks_past_the_top_level_and_returns() {
        // Deadlines whose differing digits sit in the topmost wheel level
        // (bits 60..64) park there without aliasing nearer events, survive
        // interleaved near-term traffic, and pop in exact order at the end.
        let mut w = TimerWheel::new();
        w.push(u64::MAX, 0, "max");
        w.push(1u64 << 63, 1, "top-bit");
        w.push((1u64 << 60) + 5, 2, "level10-low");
        w.push(10, 3, "near");
        assert_eq!(w.pop(), Some((10, 3, "near")));
        // Near-term pushes after the cursor advanced must not disturb the
        // parked giants.
        w.push(20, 4, "near2");
        assert_eq!(w.pop(), Some((20, 4, "near2")));
        assert_eq!(w.pop(), Some(((1u64 << 60) + 5, 2, "level10-low")));
        assert_eq!(w.pop(), Some((1u64 << 63, 1, "top-bit")));
        assert_eq!(w.pop(), Some((u64::MAX, 0, "max")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cascade_at_slot_rollover_preserves_order() {
        // Deadlines straddling level boundaries: 63→64 rolls level 0 over
        // into level 1; 4095→4096 rolls level 1 into level 2. Each window
        // entry cascades exactly the entered slot; order must be exact,
        // including ties at the window-start microsecond.
        let mut w = TimerWheel::new();
        for (i, at) in [63u64, 64, 65, 4095, 4096, 4097, 262_143, 262_144]
            .iter()
            .enumerate()
        {
            w.push(*at, i as u64, *at);
        }
        // Two events at exactly a future window start: the cascade drains
        // them straight into `due` (at == new cursor), keeping seq order.
        w.push(4096, 100, 9996);
        w.push(64, 101, 9964);
        assert_eq!(w.pop(), Some((63, 0, 63)));
        assert_eq!(w.pop(), Some((64, 1, 64)));
        assert_eq!(w.pop(), Some((64, 101, 9964)));
        assert_eq!(w.pop(), Some((65, 2, 65)));
        assert_eq!(w.pop(), Some((4095, 3, 4095)));
        assert_eq!(w.pop(), Some((4096, 4, 4096)));
        assert_eq!(w.pop(), Some((4096, 100, 9996)));
        assert_eq!(w.pop(), Some((4097, 5, 4097)));
        assert_eq!(w.pop(), Some((262_143, 6, 262_143)));
        assert_eq!(w.pop(), Some((262_144, 7, 262_144)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn peek_at_across_a_window_barrier_keeps_commit_pushes_ordered() {
        // The windowed parallel engine peeks (advancing the cursor to the
        // window's first event), drains the window's batch, then commits:
        // pushes landing at or past the window end, behind the advanced
        // cursor's original position. Model a window [1000, 1200) with a
        // commit at the barrier and verify the next window pops exactly.
        let mut w = TimerWheel::new();
        w.push(1000, 0, "b0");
        w.push(1100, 1, "b1");
        w.push(5000, 2, "later");
        // Window open: peek advances the cursor to 1000.
        assert_eq!(w.peek_at(), Some((1000, 0)));
        assert_eq!(w.pop(), Some((1000, 0, "b0")));
        assert_eq!(w.peek_at(), Some((1100, 1)));
        assert_eq!(w.pop(), Some((1100, 1, "b1")));
        // Commit: effects replay pushes children at ≥ window end (1200),
        // some between the cursor (1100) and the parked event, some tying
        // with it at the same microsecond.
        w.push(1200, 3, "c0");
        w.push(1350, 4, "c1");
        w.push(5000, 5, "c2-tie");
        // Next window sees the earliest commit push, not the parked event.
        assert_eq!(w.peek_at(), Some((1200, 3)));
        assert_eq!(w.pop(), Some((1200, 3, "c0")));
        assert_eq!(w.pop(), Some((1350, 4, "c1")));
        assert_eq!(w.pop(), Some((5000, 2, "later")));
        assert_eq!(w.pop(), Some((5000, 5, "c2-tie")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn a_drained_burst_leaves_no_slot_over_the_cap() {
        // 10 000 events in one level-0 slot and 10 000 in one level-2
        // slot (cascaded down through level 1 on the way out). Draining
        // both must leave every slot buffer at or under the cap, while a
        // small slot keeps its buffer for the next push.
        let mut w = TimerWheel::new();
        for i in 0..10_000u64 {
            w.push(5, i, ());
            w.push(100_000, 10_000 + i, ());
        }
        w.push(9, 20_000, ());
        while w.pop().is_some() {}
        let worst = w.slots.iter().map(Vec::capacity).max().unwrap();
        assert!(worst <= SLOT_KEEP, "a slot kept {worst} entries");
        assert!(w.slots[9].capacity() > 0, "a small slot keeps its buffer");
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        for i in 0..100 {
            w.push(i * 1000, i, ());
        }
        assert_eq!(w.len(), 100);
        for _ in 0..40 {
            w.pop();
        }
        assert_eq!(w.len(), 60);
    }
}
