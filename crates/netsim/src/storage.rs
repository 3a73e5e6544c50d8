//! Dense world-state storage for large topologies.
//!
//! The simulator's per-packet lookups — port bindings, IP ownership,
//! per-path FIFO clamps — were `std::collections::HashMap`s keyed by
//! tuples. At 100k+ hosts those cost a SipHash per packet and scatter
//! entries across the heap. This module replaces them with structures
//! that exploit how the keys are actually produced:
//!
//! * Port bindings are per-host and few (an overlay node binds one or two
//!   ports), so a dense per-host sorted vector beats any hash map.
//! * Public and private IPs are allocated *sequentially* from fixed bases,
//!   so ownership is an offset into a flat arena — plus the bounds check
//!   that a raw incrementing `u32` never had.
//! * Path-FIFO keys are `(src ip, dst ip)` pairs that pack into one `u64`;
//!   a multiply-xor hasher on the packed key replaces tuple SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::PhysIp;
use crate::sim::ActorId;
use crate::time::SimTime;
use crate::topology::HostId;

/// Per-host port bindings: a dense vector indexed by host id, each entry a
/// small port-sorted vector probed by binary search.
#[derive(Debug, Default)]
pub(crate) struct PortTable {
    by_host: Vec<Vec<(u16, ActorId)>>,
}

/// One host's bindings: a small port-sorted vector.
pub(crate) type PortSlot = Vec<(u16, ActorId)>;

/// Bind `port` in a slot, returning the previous binding if any
/// (`HashMap::insert` semantics: the new binding always lands).
pub(crate) fn port_slot_insert(slot: &mut PortSlot, port: u16, actor: ActorId) -> Option<ActorId> {
    match slot.binary_search_by_key(&port, |&(p, _)| p) {
        Ok(i) => Some(std::mem::replace(&mut slot[i].1, actor)),
        Err(i) => {
            slot.insert(i, (port, actor));
            None
        }
    }
}

/// The actor bound on `port` in a slot, if any.
pub(crate) fn port_slot_get(slot: &PortSlot, port: u16) -> Option<ActorId> {
    slot.binary_search_by_key(&port, |&(p, _)| p)
        .ok()
        .map(|i| slot[i].1)
}

/// Drop one binding from a slot.
pub(crate) fn port_slot_remove(slot: &mut PortSlot, port: u16) {
    if let Ok(i) = slot.binary_search_by_key(&port, |&(p, _)| p) {
        slot.remove(i);
    }
}

/// Drop every binding `actor` holds in a slot (actor stop / migration).
pub(crate) fn port_slot_release(slot: &mut PortSlot, actor: ActorId) {
    slot.retain(|&(_, a)| a != actor);
}

impl PortTable {
    pub(crate) fn new() -> Self {
        PortTable::default()
    }

    /// One host's bindings, growing the table to reach it.
    pub(crate) fn slot_mut(&mut self, host: HostId) -> &mut PortSlot {
        let i = host.0 as usize;
        if i >= self.by_host.len() {
            self.by_host.resize_with(i + 1, Vec::new);
        }
        &mut self.by_host[i]
    }

    /// Pre-size the per-host table so lookups and raw per-slot access never
    /// reallocate the outer vector. The parallel engine calls this before
    /// fanning a window out: lanes then reach disjoint slots through a raw
    /// base pointer without any chance of the spine moving underneath them.
    pub(crate) fn ensure_hosts(&mut self, hosts: usize) {
        if self.by_host.len() < hosts {
            self.by_host.resize_with(hosts, Vec::new);
        }
    }

    /// Raw base pointer to the per-host slots, captured once per window by
    /// the parallel engine. Callers must `ensure_hosts` first; a lane then
    /// turns only the slots of hosts in its own shard into `&mut PortSlot`
    /// inside its host handle (see `crate::par`), and the rules that use
    /// the slot are the same ones the sequential core runs.
    pub(crate) fn raw_slots(&mut self) -> *mut PortSlot {
        self.by_host.as_mut_ptr()
    }

    /// Drop every binding on `host` (host restart).
    pub(crate) fn clear_host(&mut self, host: HostId) {
        if let Some(slot) = self.by_host.get_mut(host.0 as usize) {
            slot.clear();
        }
    }
}

/// Sequentially-allocated public IP space with dense ownership storage and
/// an explicit exhaustion bound.
///
/// Allocation hands out consecutive addresses from `base`; ownership of
/// `base + k` is `owners[k]`. `cap` is exclusive: allocating at or past it
/// panics instead of silently walking into reserved address space.
#[derive(Debug)]
pub(crate) struct DenseIpMap<T> {
    base: u32,
    cap: u32,
    owners: Vec<T>,
}

impl<T> DenseIpMap<T> {
    pub(crate) fn new(base: PhysIp, cap: PhysIp) -> Self {
        assert!(base.0 < cap.0, "empty allocatable range");
        DenseIpMap {
            base: base.0,
            cap: cap.0,
            owners: Vec::new(),
        }
    }

    /// Allocate the next address for `owner`.
    ///
    /// # Panics
    /// Panics when the allocatable range `[base, cap)` is exhausted —
    /// continuing would hand out addresses in reserved space.
    pub(crate) fn alloc(&mut self, owner: T) -> PhysIp {
        let offset = self.owners.len() as u32;
        let ip = self.base.checked_add(offset).filter(|&ip| ip < self.cap);
        let Some(ip) = ip else {
            panic!(
                "public IP space exhausted: {} addresses allocated from {}, next would reach reserved space at {}",
                self.owners.len(),
                PhysIp(self.base),
                PhysIp(self.cap),
            );
        };
        self.owners.push(owner);
        PhysIp(ip)
    }

    /// The owner of `ip`, if it was allocated here.
    pub(crate) fn get(&self, ip: PhysIp) -> Option<&T> {
        let offset = ip.0.wrapping_sub(self.base) as usize;
        self.owners.get(offset)
    }
}

/// Per-domain private 10.0.x.y addresses, allocated sequentially from
/// host-octet 2 (10.0.0.2); the host owning octet `n` is `hosts[n - 2]`.
#[derive(Debug, Default)]
pub(crate) struct PrivateIpMap {
    hosts: Vec<HostId>,
}

/// First host octet handed out in a natted domain (10.0.0.2).
const FIRST_PRIVATE_OCTET: u32 = 2;

impl PrivateIpMap {
    pub(crate) fn new() -> Self {
        PrivateIpMap::default()
    }

    /// Record the next sequentially-allocated host. The caller derives the
    /// address from the same octet counter, so offsets stay in lockstep.
    pub(crate) fn push(&mut self, host: HostId) {
        self.hosts.push(host);
    }

    /// The host owning `ip` in this domain, if any.
    pub(crate) fn get(&self, ip: PhysIp) -> Option<HostId> {
        // Allocated addresses are exactly 10.0.x.y with x<<8|y ≥ 2.
        if ip.0 >> 16 != 0x0A00 {
            return None;
        }
        let octet = ip.0 & 0xFFFF;
        let offset = octet.wrapping_sub(FIRST_PRIVATE_OCTET) as usize;
        self.hosts.get(offset).copied()
    }
}

/// Multiply-xor hasher for pre-packed integer keys (FxHash-style). Not for
/// untrusted input — the simulator's IPs are allocator-controlled.
#[derive(Default)]
pub(crate) struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, x: u64) {
        // Same rotate-xor-multiply mix as rustc's FxHasher.
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Append-only string arena for per-host names.
///
/// `HostSpec` names used to be stored as one `String` per host — 24 bytes
/// of struct plus a heap allocation each, a million tiny allocations at
/// ELVIS scale for strings only harnesses ever read. Interning them into
/// one contiguous buffer costs 4 bytes per host (the end offset; spans are
/// contiguous because hosts are append-only) plus the name bytes
/// themselves, shared across the whole arena.
#[derive(Debug, Default)]
pub(crate) struct NameTable {
    data: String,
    ends: Vec<u32>,
}

impl NameTable {
    /// Number of interned names.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Intern the next name; index `len() - 1` after the call.
    pub(crate) fn push(&mut self, name: &str) {
        self.data.push_str(name);
        let end = u32::try_from(self.data.len()).expect("name arena past 4 GiB");
        self.ends.push(end);
    }

    /// The `i`-th interned name.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.data[start..self.ends[i] as usize]
    }

    /// Bytes held by the arena: shared name bytes plus one `u32` end
    /// offset per name (the whole per-host cost of keeping names at all).
    pub(crate) fn bytes(&self) -> usize {
        self.data.len() + self.ends.len() * std::mem::size_of::<u32>()
    }
}

/// Last scheduled arrival per (src ip, dst ip) path, for the FIFO clamp.
/// The pair packs into one u64 key; hashing is one multiply.
#[derive(Debug, Default)]
pub(crate) struct PathFifo {
    last: HashMap<u64, SimTime, BuildHasherDefault<PackedKeyHasher>>,
}

impl PathFifo {
    pub(crate) fn new() -> Self {
        PathFifo::default()
    }

    /// Mutable last-arrival slot for the `src → dst` path, inserted at
    /// `SimTime::ZERO` on first use.
    pub(crate) fn slot(&mut self, src: PhysIp, dst: PhysIp) -> &mut SimTime {
        let key = (u64::from(src.0) << 32) | u64::from(dst.0);
        self.last.entry(key).or_insert(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_table_interns_in_order() {
        let mut t = NameTable::default();
        t.push("node0");
        t.push("");
        t.push("router-b");
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0), "node0");
        assert_eq!(t.get(1), "");
        assert_eq!(t.get(2), "router-b");
    }

    #[test]
    fn port_table_bind_lookup_unbind() {
        let mut t = PortTable::new();
        let slot = t.slot_mut(HostId(5));
        assert_eq!(port_slot_insert(slot, 4000, ActorId(1)), None);
        assert_eq!(port_slot_insert(slot, 80, ActorId(2)), None);
        assert_eq!(port_slot_get(slot, 4000), Some(ActorId(1)));
        assert_eq!(port_slot_get(slot, 80), Some(ActorId(2)));
        assert_eq!(port_slot_get(slot, 81), None);
        // Rebinding returns the previous owner.
        assert_eq!(port_slot_insert(slot, 80, ActorId(3)), Some(ActorId(2)));
        port_slot_remove(slot, 80);
        assert_eq!(port_slot_get(slot, 80), None);
        assert_eq!(port_slot_get(slot, 4000), Some(ActorId(1)));
        assert!(
            t.slot_mut(HostId(99)).is_empty(),
            "grown hosts start unbound"
        );
    }

    #[test]
    fn port_table_clear_host_and_actor_retain() {
        let mut t = PortTable::new();
        let (h1, h2) = (HostId(0), HostId(1));
        port_slot_insert(t.slot_mut(h1), 1, ActorId(1));
        port_slot_insert(t.slot_mut(h1), 2, ActorId(2));
        port_slot_insert(t.slot_mut(h2), 1, ActorId(1));
        port_slot_release(t.slot_mut(h1), ActorId(1));
        assert_eq!(port_slot_get(t.slot_mut(h1), 1), None);
        assert_eq!(port_slot_get(t.slot_mut(h1), 2), Some(ActorId(2)));
        assert_eq!(
            port_slot_get(t.slot_mut(h2), 1),
            Some(ActorId(1)),
            "other hosts untouched"
        );
        t.clear_host(h1);
        assert_eq!(port_slot_get(t.slot_mut(h1), 2), None);
    }

    #[test]
    fn dense_ip_map_allocates_sequentially() {
        let mut m = DenseIpMap::new(PhysIp::new(128, 10, 0, 1), PhysIp::new(172, 16, 0, 0));
        let a = m.alloc("a");
        let b = m.alloc("b");
        assert_eq!(a, PhysIp::new(128, 10, 0, 1));
        assert_eq!(b, PhysIp::new(128, 10, 0, 2));
        assert_eq!(m.get(a), Some(&"a"));
        assert_eq!(m.get(b), Some(&"b"));
        assert_eq!(m.get(PhysIp::new(128, 10, 0, 3)), None);
        assert_eq!(m.get(PhysIp::new(10, 0, 0, 1)), None, "below base");
    }

    #[test]
    #[should_panic(expected = "public IP space exhausted")]
    fn dense_ip_map_panics_at_cap() {
        let mut m = DenseIpMap::new(PhysIp::new(128, 10, 0, 1), PhysIp::new(128, 10, 0, 3));
        m.alloc(());
        m.alloc(());
        m.alloc(()); // 128.10.0.3 is the cap: must panic, not hand it out
    }

    #[test]
    fn private_ip_map_octet_arithmetic() {
        let mut m = PrivateIpMap::new();
        m.push(HostId(7)); // 10.0.0.2
        m.push(HostId(8)); // 10.0.0.3
        for _ in 0..300 {
            m.push(HostId(0));
        }
        m.push(HostId(42)); // octet 304 → 10.0.1.48
        assert_eq!(m.get(PhysIp::new(10, 0, 0, 2)), Some(HostId(7)));
        assert_eq!(m.get(PhysIp::new(10, 0, 0, 3)), Some(HostId(8)));
        assert_eq!(m.get(PhysIp::new(10, 0, 1, 48)), Some(HostId(42)));
        assert_eq!(m.get(PhysIp::new(10, 0, 0, 1)), None, "gateway octet");
        assert_eq!(m.get(PhysIp::new(10, 1, 0, 2)), None, "outside 10.0/16");
        assert_eq!(m.get(PhysIp::new(192, 168, 0, 2)), None);
    }

    #[test]
    fn path_fifo_slots_are_directional() {
        let mut f = PathFifo::new();
        let (a, b) = (PhysIp::new(1, 2, 3, 4), PhysIp::new(5, 6, 7, 8));
        *f.slot(a, b) = SimTime::from_secs(1);
        assert_eq!(*f.slot(a, b), SimTime::from_secs(1));
        assert_eq!(*f.slot(b, a), SimTime::ZERO, "reverse path is distinct");
    }
}
