//! The ordered deadline index shared by the keepalive and linking managers.
//!
//! Each manager keeps one `(deadline, peer)` entry here per entry of its own
//! state map and moves it whenever the deadline moves, so "what is the next
//! deadline" is the minimum and "what is due" is a prefix — a tick costs
//! what is due, not what is tracked.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};

use wow_netsim::time::SimTime;

use crate::addr::Address;

/// Ordered by deadline, then address. Packed to 28 bytes: as a tuple the
/// 20-byte address pads to 32, and the B-tree allocates eleven keys per
/// node on every overlay node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(C, packed(4))]
struct Entry {
    at: SimTime,
    peer: Address,
}

/// `(deadline, peer)` pairs, earliest first.
#[derive(Debug, Default)]
pub(crate) struct DeadlineIndex(BTreeSet<Entry>);

impl DeadlineIndex {
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn contains(&self, at: SimTime, peer: Address) -> bool {
        self.0.contains(&Entry { at, peer })
    }

    /// The earliest deadline held. Exact: runtimes arm their wake from it.
    pub(crate) fn next(&self) -> Option<SimTime> {
        self.0.first().map(|e| e.at)
    }

    pub(crate) fn insert(&mut self, at: SimTime, peer: Address) {
        let fresh = self.0.insert(Entry { at, peer });
        debug_assert!(fresh, "peer indexed twice");
    }

    pub(crate) fn remove(&mut self, at: SimTime, peer: Address) {
        let indexed = self.0.remove(&Entry { at, peer });
        debug_assert!(indexed, "peer missing from the deadline index");
        if self.0.is_empty() {
            // An emptied B-tree keeps its root leaf allocated; most nodes
            // have no linking attempt in flight most of the time and should
            // hold nothing for it.
            self.0 = BTreeSet::new();
        }
    }

    /// Move `peer`'s entry from deadline `was` to `at`.
    pub(crate) fn reschedule(&mut self, peer: Address, was: SimTime, at: SimTime) {
        if was != at {
            let indexed = self.0.remove(&Entry { at: was, peer });
            debug_assert!(indexed, "peer missing from the deadline index");
            self.0.insert(Entry { at, peer });
        }
    }

    /// Remove and return every peer whose deadline is `<= now`, in ascending
    /// address order — the order the managers process and emit in, whatever
    /// the deadlines were. The caller re-inserts the survivors, so a peer is
    /// handled once per poll even if its new deadline is again `<= now`.
    pub(crate) fn take_due(&mut self, now: SimTime) -> Due {
        let mut due = Due(DUE.take());
        while let Some(&Entry { at, peer }) = self.0.first() {
            if at > now {
                break;
            }
            self.0.pop_first();
            due.push(peer);
        }
        due.sort_unstable();
        due
    }
}

thread_local! {
    /// The buffer [`DeadlineIndex::take_due`] lends out: one per thread,
    /// shared by every node the thread drives, so a steady poll allocates
    /// nothing and a node holds no scratch of its own.
    static DUE: Cell<Vec<Address>> = const { Cell::new(Vec::new()) };
}

/// The peers one poll found due, in ascending address order, in a buffer
/// on loan from the thread. Dropping it hands the buffer back.
#[derive(Debug)]
pub(crate) struct Due(Vec<Address>);

impl Deref for Due {
    type Target = Vec<Address>;

    fn deref(&self) -> &Vec<Address> {
        &self.0
    }
}

impl DerefMut for Due {
    fn deref_mut(&mut self) -> &mut Vec<Address> {
        &mut self.0
    }
}

impl Drop for Due {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.0);
        buf.clear();
        // During thread teardown the buffer is simply freed.
        let _ = DUE.try_with(|slot| slot.set(buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::U160;

    fn a(v: u64) -> Address {
        Address::from(U160::from(v))
    }

    #[test]
    fn entries_order_by_deadline_then_address_and_pack_to_28_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 28);
        let at = SimTime::from_secs;
        let e = |t, v| Entry {
            at: at(t),
            peer: a(v),
        };
        assert!(e(1, 9) < e(2, 1));
        assert!(e(1, 1) < e(1, 9));
        // 256 µs vs 1 µs: numeric order, not the little-endian byte order.
        let (lo, hi) = (SimTime::from_micros(1), SimTime::from_micros(256));
        assert!(Entry { at: lo, peer: a(1) } < Entry { at: hi, peer: a(1) });
    }

    #[test]
    fn take_due_is_a_deadline_prefix_in_address_order() {
        let mut idx = DeadlineIndex::default();
        let at = SimTime::from_secs;
        idx.insert(at(3), a(1));
        idx.insert(at(1), a(7));
        idx.insert(at(2), a(4));
        idx.insert(at(9), a(2));
        assert_eq!(idx.next(), Some(at(1)));
        assert_eq!(*idx.take_due(at(0)), vec![]);
        // Due at 1, 2 and 3 s — returned by address, not by deadline.
        assert_eq!(*idx.take_due(at(3)), vec![a(1), a(4), a(7)]);
        assert_eq!(idx.next(), Some(at(9)));
        idx.reschedule(a(2), at(9), at(5));
        assert!(idx.contains(at(5), a(2)) && idx.len() == 1);
        idx.remove(at(5), a(2));
        assert_eq!(idx.next(), None);
    }
}
