//! Topology description: domains and hosts.
//!
//! A topology is a set of *domains* (administrative networks), each either
//! public (hosts carry public addresses) or private behind a NAT/firewall
//! device, plus *hosts* inside domains. The concrete WOW testbed of the
//! paper's Figure 1 / Table I is assembled from these pieces by the `wow`
//! crate; this module only provides the vocabulary.

use crate::addr::{PhysAddr, PhysIp};
use crate::link::serialization_delay;
use crate::nat::NatConfig;
use crate::sim::{ActorId, DropReason, NetStats, UDP_IP_OVERHEAD};
use crate::storage::{
    port_slot_get, port_slot_insert, port_slot_release, port_slot_remove, NameTable, PortSlot,
};
use crate::time::{SimDuration, SimTime};

/// Identifier of a domain within one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

/// Identifier of a host within one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// Whether a domain is directly on the WAN or behind a middlebox.
#[derive(Clone, Debug)]
pub enum DomainKind {
    /// Hosts receive public addresses; no translation at the edge.
    Public,
    /// Hosts receive private (10/8) addresses; the edge device translates.
    Natted(NatConfig),
}

/// Static description of a domain.
#[derive(Clone, Debug)]
pub struct DomainSpec {
    /// Human-readable name (e.g. `"ufl.edu"`), used in traces and URIs.
    pub name: String,
    /// Edge behaviour.
    pub kind: DomainKind,
}

impl DomainSpec {
    /// A public domain.
    pub fn public(name: impl Into<String>) -> Self {
        DomainSpec {
            name: name.into(),
            kind: DomainKind::Public,
        }
    }

    /// A private domain behind the given NAT configuration.
    pub fn natted(name: impl Into<String>, nat: NatConfig) -> Self {
        DomainSpec {
            name: name.into(),
            kind: DomainKind::Natted(nat),
        }
    }
}

/// Static description of a host.
#[derive(Clone, Debug)]
pub struct HostSpec {
    /// Human-readable name (e.g. `"node002"`).
    pub name: String,
    /// Relative CPU speed; 1.0 is the testbed's baseline 2.4 GHz Xeon.
    pub cpu_speed: f64,
    /// Uplink capacity in bytes/second.
    pub uplink_bps: f64,
    /// Downlink capacity in bytes/second.
    pub downlink_bps: f64,
}

impl HostSpec {
    /// A host with the given name and default campus-class links
    /// (10 Mbit/s ≈ 1.25 MB/s each way) at baseline CPU speed.
    pub fn new(name: impl Into<String>) -> Self {
        HostSpec {
            name: name.into(),
            cpu_speed: 1.0,
            uplink_bps: 1.25e6,
            downlink_bps: 1.25e6,
        }
    }

    /// Set relative CPU speed.
    pub fn cpu_speed(mut self, speed: f64) -> Self {
        assert!(speed > 0.0, "cpu speed must be positive");
        self.cpu_speed = speed;
        self
    }

    /// Set symmetric link capacity in bytes/second.
    pub fn link_bps(mut self, bps: f64) -> Self {
        assert!(bps > 0.0, "link rate must be positive");
        self.uplink_bps = bps;
        self.downlink_bps = bps;
        self
    }

    /// Set asymmetric link capacities in bytes/second.
    pub fn links_bps(mut self, up: f64, down: f64) -> Self {
        assert!(up > 0.0 && down > 0.0, "link rates must be positive");
        self.uplink_bps = up;
        self.downlink_bps = down;
        self
    }
}

/// Deterministic host → shard assignment for windowed parallel execution.
///
/// Hosts are striped round-robin across shards, so the map is a pure
/// function of `(host, shards)` — no allocation, no rebuild on host add,
/// and identical on every run. Correctness never depends on which shard a
/// host lands in (all cross-host interaction happens at window barriers);
/// the stripe only spreads load. Co-domain hosts deliberately *scatter*:
/// intra-domain chatter is the common case in WOW topologies, and pinning
/// a whole campus to one worker would serialize exactly the busy windows.
#[derive(Clone, Copy, Debug)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map over `shards` shards (min 1).
    pub fn new(shards: usize) -> Self {
        ShardMap {
            shards: (shards.max(1)) as u32,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard a host's events execute on.
    pub fn shard_of(&self, host: HostId) -> usize {
        (host.0 % self.shards) as usize
    }
}

/// Runtime state of one domain.
#[derive(Debug)]
pub struct Domain {
    /// Static description.
    pub spec: DomainSpec,
    /// The NAT device, present iff the domain is natted.
    pub nat: Option<crate::nat::Nat>,
    /// Next host number for private-address allocation.
    pub(crate) next_host_octet: u16,
}

/// Runtime state of every host, stored struct-of-arrays.
///
/// The simulator touches the *hot* per-packet fields (power state,
/// link/CPU free times, rates) on every event; the cold description is
/// only read by harnesses. Splitting them into parallel dense vectors
/// indexed by [`HostId`] keeps the hot data cache-linear and lets a
/// million hosts fit in a few flat allocations instead of a million boxed
/// structs.
///
/// The spec is not retained as a struct at all: its three numeric fields
/// live in the hot vectors of `HostInfo`, and the name — the ROADMAP-identified
/// per-host `String` allocation on the road past n=10⁵ — is interned into
/// one shared arena (`NameTable`: 4 bytes per host plus the shared name
/// bytes, versus 24 bytes plus a heap allocation each).
#[derive(Debug, Default)]
pub struct Hosts {
    /// The columns host-local rules only read.
    pub(crate) info: HostInfo,
    /// Owning domain per host.
    pub(crate) domains: Vec<DomainId>,
    /// Uplink transmit queue: the time the link next becomes free.
    pub(crate) uplink_free_at: Vec<SimTime>,
    /// Downlink receive queue: the time the link next becomes free.
    pub(crate) downlink_free_at: Vec<SimTime>,
    /// CPU queue: the time the CPU next becomes free.
    pub(crate) cpu_free_at: Vec<SimTime>,
    /// Next ephemeral port to hand out.
    pub(crate) next_ephemeral: Vec<u16>,
}

/// The host columns host-local rules only read, kept apart from the queue
/// columns they write so that a [`HostRef`] borrowed from these can sit
/// beside `&mut` borrows of those. Power and load change only in controls,
/// between events; the rest never change.
#[derive(Debug, Default)]
pub(crate) struct HostInfo {
    /// Interned host names, index == host id.
    pub(crate) names: NameTable,
    /// Address per host (private if the domain is natted).
    pub(crate) ips: Vec<PhysIp>,
    /// Power state; packets to a down host are dropped.
    pub(crate) up: Vec<bool>,
    /// Background-load multiplier on CPU work; 1.0 = unloaded.
    pub(crate) load_factors: Vec<f64>,
    /// Uplink capacity in bytes/second (hot copy of the spec field).
    pub(crate) uplink_bps: Vec<f64>,
    /// Downlink capacity in bytes/second (hot copy of the spec field).
    pub(crate) downlink_bps: Vec<f64>,
    /// Relative CPU speed (hot copy of the spec field).
    pub(crate) cpu_speeds: Vec<f64>,
}

impl HostInfo {
    /// One host's read-only columns — the only constructor of [`HostRef`].
    #[inline]
    pub(crate) fn host(&self, id: HostId) -> HostRef<'_> {
        let i = id.0 as usize;
        HostRef {
            id,
            up: self.up[i],
            ip: self.ips[i],
            load_factor: self.load_factors[i],
            cpu_speed: self.cpu_speeds[i],
            uplink_bps: self.uplink_bps[i],
            downlink_bps: self.downlink_bps[i],
            names: &self.names,
        }
    }
}

impl Hosts {
    /// Empty arena.
    pub(crate) fn new() -> Self {
        Hosts::default()
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.info.names.len()
    }

    /// True if no hosts exist.
    pub fn is_empty(&self) -> bool {
        self.info.names.len() == 0
    }

    /// Append a host; returns its id.
    pub(crate) fn push(&mut self, spec: HostSpec, domain: DomainId, ip: PhysIp) -> HostId {
        let id = HostId(self.info.names.len() as u32);
        self.domains.push(domain);
        self.info.ips.push(ip);
        self.info.up.push(true);
        self.info.load_factors.push(1.0);
        self.info.uplink_bps.push(spec.uplink_bps);
        self.info.downlink_bps.push(spec.downlink_bps);
        self.info.cpu_speeds.push(spec.cpu_speed);
        self.uplink_free_at.push(crate::time::SimTime::ZERO);
        self.downlink_free_at.push(crate::time::SimTime::ZERO);
        self.cpu_free_at.push(crate::time::SimTime::ZERO);
        self.next_ephemeral.push(49_152);
        self.info.names.push(&spec.name);
        id
    }

    /// Interned name of one host.
    pub fn name(&self, id: HostId) -> &str {
        self.info.names.get(id.0 as usize)
    }

    /// Total bytes spent storing host names (interned arena + offsets) —
    /// the scale harness divides this by [`Hosts::len`] to regression-gate
    /// the per-host naming cost.
    pub fn name_storage_bytes(&self) -> usize {
        self.info.names.bytes()
    }

    /// Static description of one host, reassembled from the interned name
    /// and the hot field vectors. Cold path: allocates the name `String`;
    /// use [`Hosts::name`] when only the name is needed.
    pub fn spec(&self, id: HostId) -> HostSpec {
        self.info.host(id).spec()
    }

    /// Wall-clock duration of `nominal` CPU work on a host right now,
    /// accounting for relative speed and background load.
    pub fn scaled_work(&self, id: HostId, nominal: SimDuration) -> SimDuration {
        self.info.host(id).scaled_work(nominal)
    }

    /// One host's state for a host-local rule, borrowed column by column so
    /// the caller can lend the host's port slot and a stats block alongside.
    pub(crate) fn host_mut<'a>(
        &'a mut self,
        id: HostId,
        ports: &'a mut PortSlot,
        stats: &'a mut NetStats,
    ) -> HostMut<'a> {
        let i = id.0 as usize;
        HostMut {
            host: self.info.host(id),
            downlink_free_at: &mut self.downlink_free_at[i],
            cpu_free_at: &mut self.cpu_free_at[i],
            next_ephemeral: &mut self.next_ephemeral[i],
            ports,
            stats,
        }
    }

    /// Clean-slate the runtime fields at a restart: queued link and CPU
    /// work died with the old incarnation, ephemeral ports start over.
    pub(crate) fn reset_runtime(&mut self, id: HostId, now: crate::time::SimTime) {
        let i = id.0 as usize;
        self.info.up[i] = true;
        self.uplink_free_at[i] = now;
        self.downlink_free_at[i] = now;
        self.cpu_free_at[i] = now;
        self.next_ephemeral[i] = 49_152;
    }
}

/// One host's read-only columns, copied out of [`HostInfo`] (only the name
/// table stays borrowed): what an actor may ask about the host it runs on.
/// The sequential core reads it from the world's hosts, a parallel lane
/// from the same columns through its window pointer (`crate::par`); the
/// answers come from the same methods either way.
pub(crate) struct HostRef<'a> {
    pub(crate) id: HostId,
    pub(crate) up: bool,
    pub(crate) ip: PhysIp,
    pub(crate) load_factor: f64,
    pub(crate) cpu_speed: f64,
    pub(crate) uplink_bps: f64,
    pub(crate) downlink_bps: f64,
    pub(crate) names: &'a NameTable,
}

impl HostRef<'_> {
    /// Static description, reassembled (allocates the name).
    pub(crate) fn spec(&self) -> HostSpec {
        HostSpec {
            name: self.names.get(self.id.0 as usize).to_owned(),
            cpu_speed: self.cpu_speed,
            uplink_bps: self.uplink_bps,
            downlink_bps: self.downlink_bps,
        }
    }

    /// Wall-clock duration of `nominal` CPU work here right now,
    /// accounting for relative speed and background load.
    pub(crate) fn scaled_work(&self, nominal: SimDuration) -> SimDuration {
        nominal.mul_f64(self.load_factor / self.cpu_speed)
    }
}

/// One host's state, borrowed for one host-local rule. Every rule that
/// touches a single host — port binding, downlink queueing, the delivery
/// check, CPU queueing, releasing a stopped actor's ports — is written once,
/// here: the sequential core borrows the handle from the world, a parallel
/// lane builds it from the columns its shard owns for the window.
pub(crate) struct HostMut<'a> {
    pub(crate) host: HostRef<'a>,
    pub(crate) downlink_free_at: &'a mut SimTime,
    pub(crate) cpu_free_at: &'a mut SimTime,
    pub(crate) next_ephemeral: &'a mut u16,
    pub(crate) ports: &'a mut PortSlot,
    /// The counters this host's rules add to: the world's, or a lane's
    /// per-window delta.
    pub(crate) stats: &'a mut NetStats,
}

impl HostMut<'_> {
    /// Bind `port` to `actor`.
    ///
    /// # Panics
    /// Panics if another actor holds the port.
    pub(crate) fn bind(&mut self, port: u16, actor: ActorId) -> PhysAddr {
        let prev = port_slot_insert(self.ports, port, actor);
        assert!(
            prev.is_none() || prev == Some(actor),
            "port {port} already bound on host {:?}",
            self.host.id,
        );
        PhysAddr::new(self.host.ip, port)
    }

    /// Bind the next free ephemeral port to `actor`.
    pub(crate) fn bind_ephemeral(&mut self, actor: ActorId) -> PhysAddr {
        loop {
            let port = *self.next_ephemeral;
            *self.next_ephemeral = port.checked_add(1).unwrap_or(49_152);
            if port_slot_get(self.ports, port).is_none() {
                return self.bind(port, actor);
            }
        }
    }

    /// Release one binding.
    pub(crate) fn unbind(&mut self, port: u16) {
        port_slot_remove(self.ports, port);
    }

    /// Release every binding a stopped actor holds here.
    pub(crate) fn release(&mut self, actor: ActorId) {
        port_slot_release(self.ports, actor);
    }

    /// A datagram with `payload_len` payload bytes reaches this host's edge
    /// at `now`: dropped if the host is down, else queued on the downlink.
    /// Returns the time it is ready to hand to the bound actor.
    #[inline]
    pub(crate) fn arrive(&mut self, now: SimTime, payload_len: usize) -> Option<SimTime> {
        if !self.host.up {
            self.stats.drop(DropReason::HostDown);
            return None;
        }
        let start = now.max(*self.downlink_free_at);
        let wait = start.saturating_since(now).as_micros();
        if wait > 0 {
            self.stats.downlink_queued += 1;
            self.stats.downlink_queue_wait_us += wait;
        }
        let size = payload_len + UDP_IP_OVERHEAD;
        let ready = start + serialization_delay(size, self.host.downlink_bps);
        *self.downlink_free_at = ready;
        Some(ready)
    }

    /// A datagram cleared the downlink for `port`: the actor to hand it to,
    /// counted as delivered, or `None` with the drop counted (the host went
    /// down meanwhile, or nothing is bound).
    #[inline]
    pub(crate) fn deliver_to(&mut self, port: u16) -> Option<ActorId> {
        if !self.host.up {
            // The packet cleared the downlink before the host went down,
            // but there is no process left to hand it to.
            self.stats.drop(DropReason::HostDown);
            return None;
        }
        let actor = port_slot_get(self.ports, port);
        match actor {
            Some(_) => self.stats.delivered += 1,
            None => self.stats.drop(DropReason::PortUnbound),
        }
        actor
    }

    /// Occupy the CPU for `nominal` work at `now`, FIFO behind earlier
    /// work; returns the completion time.
    pub(crate) fn cpu_acquire(&mut self, now: SimTime, nominal: SimDuration) -> SimTime {
        let start = now.max(*self.cpu_free_at);
        let wait = start.saturating_since(now).as_micros();
        if wait > 0 {
            self.stats.cpu_queued += 1;
            self.stats.cpu_queue_wait_us += wait;
        }
        let done = start + self.host.scaled_work(nominal);
        *self.cpu_free_at = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_spec_builders() {
        let h = HostSpec::new("n1").cpu_speed(1.5).link_bps(2e6);
        assert_eq!(h.cpu_speed, 1.5);
        assert_eq!(h.uplink_bps, 2e6);
        assert_eq!(h.downlink_bps, 2e6);
        let h = HostSpec::new("n2").links_bps(1e6, 4e6);
        assert_eq!(h.uplink_bps, 1e6);
        assert_eq!(h.downlink_bps, 4e6);
    }

    #[test]
    #[should_panic(expected = "cpu speed")]
    fn zero_speed_rejected() {
        let _ = HostSpec::new("bad").cpu_speed(0.0);
    }

    #[test]
    fn scaled_work_accounts_for_speed_and_load() {
        let mut hosts = Hosts::new();
        let id = hosts.push(
            HostSpec::new("n").cpu_speed(2.0),
            DomainId(0),
            PhysIp::new(10, 0, 0, 2),
        );
        // Twice the speed: half the time.
        assert_eq!(
            hosts.scaled_work(id, SimDuration::from_secs(10)),
            SimDuration::from_secs(5)
        );
        // Load factor 3 on top: 15 s.
        hosts.info.load_factors[id.0 as usize] = 3.0;
        assert_eq!(
            hosts.scaled_work(id, SimDuration::from_secs(10)),
            SimDuration::from_secs(15)
        );
    }

    #[test]
    fn arena_push_copies_hot_fields() {
        let mut hosts = Hosts::new();
        let id = hosts.push(
            HostSpec::new("r").cpu_speed(1.7).links_bps(2e6, 8e6),
            DomainId(3),
            PhysIp::new(128, 10, 0, 1),
        );
        let i = id.0 as usize;
        assert_eq!(hosts.len(), 1);
        assert_eq!(hosts.name(id), "r");
        assert_eq!(hosts.spec(id).name, "r");
        assert_eq!(hosts.domains[i], DomainId(3));
        assert_eq!(hosts.info.uplink_bps[i], 2e6);
        assert_eq!(hosts.info.downlink_bps[i], 8e6);
        assert_eq!(hosts.info.cpu_speeds[i], 1.7);
        assert!(hosts.info.up[i]);
    }
}
