//! The ordered small table behind every per-peer map of a node.
//!
//! A node keeps a handful of entries per map — its keepalive peers, its
//! linking attempts, its pending CTMs, its shortcut traffic — and most of
//! those maps are empty most of the time. So each map is a `Vec` of
//! `(key, value)` pairs sorted by key, searched by bisection (the layout
//! [`crate::conn::ConnTable`] uses), which:
//!
//! * costs its entries and one `Vec` header, with no hash state or control
//!   bytes, and holds nothing at all once emptied: every removal that
//!   leaves it empty releases the buffer;
//! * iterates in key order by construction, so no protocol output can
//!   depend on a hasher's per-process seed.
//!
//! Inserting in the middle is O(n). An introducer in a join storm holds
//! a few hundred peers, so the shift is a few kilobytes of `memmove`.

/// `(key, value)` pairs sorted by key, at most one per key.
#[derive(Clone, Debug)]
pub(crate) struct Table<K, V>(Vec<(K, V)>);

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Table(Vec::new())
    }
}

impl<K: Ord + Copy, V> Table<K, V> {
    fn find(&self, key: K) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// An emptied table holds no buffer.
    fn release_if_empty(&mut self) {
        if self.0.is_empty() {
            self.0 = Vec::new();
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(crate) fn contains_key(&self, key: K) -> bool {
        self.find(key).is_ok()
    }

    pub(crate) fn get(&self, key: K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.0[i].1)
    }

    pub(crate) fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.0[i].1)
    }

    /// The value at `key`, inserting `make()` first if there is none.
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(key) {
            Ok(i) => i,
            Err(i) => {
                self.0.insert(i, (key, make()));
                i
            }
        };
        &mut self.0[i].1
    }

    /// Insert or replace; returns the replaced value.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key, value));
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, key: K) -> Option<V> {
        let i = self.find(key).ok()?;
        let (_, value) = self.0.remove(i);
        self.release_if_empty();
        Some(value)
    }

    /// Keep the entries `keep` accepts, visiting them in key order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        self.0.retain_mut(|(k, v)| keep(*k, v));
        self.release_if_empty();
    }

    pub(crate) fn clear(&mut self) {
        self.0 = Vec::new();
    }

    /// Entries in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }

    /// Values in ascending key order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }

    /// Values in ascending key order, mutably.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.0.iter_mut().map(|(_, v)| v)
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// Random inserts, removes, lookups, retains and clears against a
    /// `BTreeMap`: same contents in the same order after every step, and no
    /// buffer held whenever the table is empty.
    #[test]
    fn matches_a_btree_map_and_holds_nothing_once_emptied() {
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut table = Table::<u16, u32>::default();
            let mut model = BTreeMap::<u16, u32>::new();
            let mut emptied = 0;
            for step in 0..4_000u32 {
                // A small key space keeps hits and misses frequent; phases
                // that mostly insert and mostly remove fill the table and
                // drain it to empty again and again.
                let key = rng.gen_range(0..48u16);
                let removing = if (step / 250) % 2 == 0 { 35 } else { 75 };
                match rng.gen_range(0..100) {
                    r if r < 89 - removing => {
                        assert_eq!(table.insert(key, step), model.insert(key, step))
                    }
                    r if r < 99 - removing => {
                        let v = *table.get_or_insert_with(key, || step);
                        assert_eq!(v, *model.entry(key).or_insert(step));
                    }
                    0..=89 => assert_eq!(table.remove(key), model.remove(&key)),
                    90..=96 => {
                        let cut = rng.gen_range(0..48u16);
                        table.retain(|k, v| {
                            *v += 1;
                            k % 3 != 0 || k < cut
                        });
                        model.retain(|&k, v| {
                            *v += 1;
                            k % 3 != 0 || k < cut
                        });
                    }
                    97 => {
                        if let Some(v) = table.get_mut(key) {
                            *v ^= 1;
                        }
                        if let Some(v) = model.get_mut(&key) {
                            *v ^= 1;
                        }
                    }
                    _ => {
                        table.clear();
                        model.clear();
                    }
                }
                assert_eq!(table.get(key), model.get(&key));
                assert_eq!(table.contains_key(key), model.contains_key(&key));
                assert_eq!(table.len(), model.len());
                assert!(
                    table.iter().eq(model.iter().map(|(&k, v)| (k, v))),
                    "seed {seed} step {step}: contents or order differ"
                );
                assert!(table.values().eq(model.values()));
                if table.is_empty() {
                    emptied += 1;
                    assert_eq!(
                        table.capacity(),
                        0,
                        "seed {seed} step {step}: empty but holding"
                    );
                }
            }
            assert!(emptied > 10, "seed {seed}: the walk must empty the table");
        }
    }
}
