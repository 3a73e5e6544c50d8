//! The discrete-event simulator driver.
//!
//! A [`Sim`] owns a [`World`] (domains, hosts, NAT devices, link models, the
//! event queue) and a set of [`Actor`]s bound to hosts. Actors send and
//! receive datagrams and schedule wake-ups through a [`Ctx`]; the driver
//! processes events in (time, sequence) order, so runs are deterministic for
//! a given seed and construction order.
//!
//! The datagram path mirrors a real deployment:
//!
//! ```text
//! sender uplink queue → [NAT egress / hairpin] → WAN (latency, jitter, loss)
//!       → [NAT ingress at arrival time] → receiver downlink queue → actor
//! ```
//!
//! NAT ingress decisions are evaluated at *arrival* time, not send time —
//! hole punching depends on the relative timing of a hole opening and a
//! packet arriving, and evaluating early would get Fig. 4 wrong.

use std::any::Any;
use std::collections::HashMap;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::addr::{PhysAddr, PhysIp};
use crate::fault::{norm_pair, FaultKind, FaultRecord, FaultState};
use crate::link::{serialization_delay, LinkModel};
use crate::nat::{Inbound, Nat, NatDrop};
use crate::rng::SeedSplitter;
use crate::storage::{port_slot_get, DenseIpMap, PathFifo, PortTable, PrivateIpMap};
use crate::time::{SimDuration, SimTime};
use crate::topology::{
    Domain, DomainId, DomainKind, DomainSpec, HostId, HostMut, HostRef, HostSpec, Hosts,
};
use crate::wheel::TimerWheel;

/// Fixed per-datagram header overhead charged on links (IPv4 + UDP).
pub const UDP_IP_OVERHEAD: usize = 28;

/// Identifier of an actor within one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

/// A datagram as seen by the receiver (addresses are post-translation).
#[derive(Clone, Debug)]
pub struct Datagram {
    /// Source address — the sender's NAT-assigned public address when the
    /// sender is behind a NAT and the packet crossed the WAN.
    pub src: PhysAddr,
    /// Destination address — rewritten to the private address by NAT ingress.
    pub dst: PhysAddr,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Why the network dropped a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random loss on a WAN path.
    WanLoss,
    /// Destination host is powered off (e.g. a VM suspended for migration).
    HostDown,
    /// Destination host has no actor bound on the destination port.
    PortUnbound,
    /// No host or NAT owns the destination public IP.
    NoSuchIp,
    /// Private destination address not reachable from the sender's domain.
    PrivateUnroutable,
    /// Dropped by a NAT device.
    Nat(NatDrop),
    /// Dropped by an injected fault (domain partition or link blackhole).
    FaultInjected,
}

/// Aggregate traffic counters for one simulation.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Datagrams handed to the network by actors.
    pub sent: u64,
    /// Datagrams delivered to a bound actor.
    pub delivered: u64,
    /// Extra copies scheduled by chaos-window duplication.
    pub duplicated: u64,
    /// Packets delayed past the per-path FIFO clamp by chaos-window
    /// reordering.
    pub reordered: u64,
    /// Packets that found their sender's uplink still serializing earlier
    /// traffic (queue occupancy > 0 on hand-off).
    pub uplink_queued: u64,
    /// Total microseconds packets waited for the uplink to free up.
    pub uplink_queue_wait_us: u64,
    /// Packets that found the receiver's downlink busy on arrival.
    pub downlink_queued: u64,
    /// Total microseconds packets waited for the downlink to free up.
    pub downlink_queue_wait_us: u64,
    /// `cpu_acquire` calls that queued behind earlier exclusive work.
    pub cpu_queued: u64,
    /// Total microseconds `cpu_acquire` work waited for the CPU.
    pub cpu_queue_wait_us: u64,
    drops: HashMap<DropReason, u64>,
}

impl NetStats {
    pub(crate) fn drop(&mut self, reason: DropReason) {
        *self.drops.entry(reason).or_insert(0) += 1;
    }

    /// Fold another stats block into this one. Every field is a sum, so
    /// folding per-lane deltas at a window barrier gives the same totals
    /// as sequential in-order accumulation.
    pub(crate) fn absorb(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.uplink_queued += other.uplink_queued;
        self.uplink_queue_wait_us += other.uplink_queue_wait_us;
        self.downlink_queued += other.downlink_queued;
        self.downlink_queue_wait_us += other.downlink_queue_wait_us;
        self.cpu_queued += other.cpu_queued;
        self.cpu_queue_wait_us += other.cpu_queue_wait_us;
        for (&reason, &count) in &other.drops {
            *self.drops.entry(reason).or_insert(0) += count;
        }
    }

    /// Count of drops for one reason.
    pub fn dropped(&self, reason: DropReason) -> u64 {
        self.drops.get(&reason).copied().unwrap_or(0)
    }

    /// Total drops across all reasons.
    pub fn total_dropped(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Iterate over (reason, count) pairs in unspecified order.
    pub fn drops(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        self.drops.iter().map(|(&r, &c)| (r, c))
    }
}

/// Extra delay in `(0, max]` for a chaos-duplicated or -reordered packet.
fn chaos_extra_delay(rng: &mut SmallRng, max: SimDuration) -> SimDuration {
    SimDuration::from_micros(rng.gen_range(1..=max.as_micros().max(1)))
}

pub(crate) type ControlFn = Box<dyn FnOnce(&mut Sim)>;

pub(crate) enum Ev {
    Start(ActorId),
    Wake { actor: ActorId, tag: u64 },
    NatIngress { domain: DomainId, dgram: Datagram },
    HostArrive { host: HostId, dgram: Datagram },
    ActorDeliver { host: HostId, dgram: Datagram },
    Control(ControlFn),
}

/// Everything in the simulation except the actors themselves.
pub struct World {
    pub(crate) now: SimTime,
    domains: Vec<Domain>,
    pub(crate) hosts: Hosts,
    /// Path models between and within domains.
    pub links: LinkModel,
    /// Pending events, keyed by `(at µs, seq)` — a hierarchical timer
    /// wheel, so push/pop cost is independent of how many long-dated
    /// timers (keepalives, retries) are parked at large n.
    pub(crate) queue: TimerWheel<Ev>,
    seq: u64,
    rng: SmallRng,
    seeds: SeedSplitter,
    /// While the parallel engine commits a window ending at this µs tick,
    /// every push must land at or past it — the lookahead invariant made
    /// into a runtime tripwire (0 outside commits, so the sequential path
    /// never trips it).
    pub(crate) push_floor: u64,
    /// (host, port) → bound actor: dense per-host sorted tables.
    pub(crate) ports: PortTable,
    /// Public IP → owner (host or NAT): allocations are sequential from
    /// [`PUBLIC_IP_BASE`], so ownership is a flat offset-indexed arena
    /// with an explicit exhaustion bound at [`PUBLIC_IP_CAP`].
    public_ips: DenseIpMap<IpOwner>,
    /// Per-domain private IP → host. Private ranges intentionally overlap
    /// across domains (every natted domain starts at 10.0.0.2), as they do
    /// in reality — the overlay's linking handshake must cope with a
    /// private URI reaching the *wrong* machine in another domain.
    private_ips: Vec<PrivateIpMap>,
    /// Per (src ip, dst ip) last scheduled arrival: paths deliver FIFO.
    /// Real WAN routes rarely reorder a single flow; per-packet IID jitter
    /// without this clamp reorders constantly and wrecks TCP (spurious
    /// fast retransmits).
    path_fifo: PathFifo,
    /// Traffic counters.
    pub stats: NetStats,
    /// Live fault-injection state (see [`crate::fault`]). Its RNG is the
    /// dedicated `"faultlab"` seed stream, so fault decisions never perturb
    /// the world's jitter/loss sampling.
    faults: FaultState,
}

/// First public address handed out: 128.10.0.1.
const PUBLIC_IP_BASE: PhysIp = PhysIp(u32::from_be_bytes([128, 10, 0, 1]));
/// Exclusive upper bound on public allocation: walking into 172.16.0.0/12
/// would hand "public" hosts addresses the NAT layer treats as private.
const PUBLIC_IP_CAP: PhysIp = PhysIp(u32::from_be_bytes([172, 16, 0, 0]));

#[derive(Clone, Copy, Debug)]
enum IpOwner {
    Host(HostId),
    Nat(DomainId),
}

impl World {
    fn new(seed: u64) -> Self {
        let seeds = SeedSplitter::new(seed);
        World {
            now: SimTime::ZERO,
            domains: Vec::new(),
            hosts: Hosts::new(),
            links: LinkModel::default(),
            queue: TimerWheel::new(),
            seq: 0,
            rng: seeds.rng("world"),
            seeds,
            push_floor: 0,
            ports: PortTable::new(),
            public_ips: DenseIpMap::new(PUBLIC_IP_BASE, PUBLIC_IP_CAP),
            private_ips: Vec::new(),
            path_fifo: PathFifo::new(),
            stats: NetStats::default(),
            faults: FaultState::new(seeds.rng("faultlab")),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The root seed splitter for this simulation.
    pub fn seeds(&self) -> SeedSplitter {
        self.seeds
    }

    /// The world RNG (deterministic given event order).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    pub(crate) fn push(&mut self, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        // Window-safety tripwire for the parallel engine (see `crate::par`):
        // if any code path could generate an event inside the window being
        // committed, lanes would have needed to see it and determinism would
        // be lost. `min_base_latency` makes this impossible; keep the check
        // hot so a future zero-latency path fails loudly, not subtly.
        assert!(
            at.as_micros() >= self.push_floor,
            "event at {at} scheduled inside the committing window (floor {} µs): \
             lookahead bound violated",
            self.push_floor,
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at.as_micros(), seq, ev);
    }

    /// Advance the sequence counter without enqueueing — the parallel
    /// commit path numbers in-window child events exactly where the
    /// sequential path would have pushed them.
    pub(crate) fn alloc_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Static description of a host (reassembled; allocates the name —
    /// use [`World::host_name`] when only the name is needed).
    pub fn host_spec(&self, id: HostId) -> HostSpec {
        self.hosts.spec(id)
    }

    /// Interned name of a host.
    pub fn host_name(&self, id: HostId) -> &str {
        self.hosts.name(id)
    }

    /// Total bytes spent storing host names; see
    /// [`Hosts::name_storage_bytes`].
    pub fn host_name_storage_bytes(&self) -> usize {
        self.hosts.name_storage_bytes()
    }

    /// The domain a host lives in.
    pub fn host_domain(&self, id: HostId) -> DomainId {
        self.hosts.domains[id.0 as usize]
    }

    /// Immutable domain access.
    pub fn domain(&self, id: DomainId) -> &Domain {
        &self.domains[id.0 as usize]
    }

    /// Number of hosts in the world.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Power a host on or off. Packets to a down host are dropped.
    pub fn set_host_up(&mut self, id: HostId, up: bool) {
        self.hosts.info.up[id.0 as usize] = up;
    }

    /// Reset a domain's NAT device (drop all mappings/permissions), as a
    /// rebooted or renumbered middlebox would. No-op for public domains.
    pub fn reset_nat(&mut self, id: DomainId) {
        if let Some(nat) = self.domains[id.0 as usize].nat.as_mut() {
            nat.reset_mappings();
        }
    }

    /// Apply one fault right now, recording it in the fault transcript.
    /// This is the single entry point for all of faultlab's mutations —
    /// scheduled plans ([`crate::fault::FaultPlan::inject`]) and direct
    /// harness calls both land here, so the transcript is complete.
    pub fn apply_fault(&mut self, kind: FaultKind) {
        self.faults
            .transcript
            .push(FaultRecord { at: self.now, kind });
        match kind {
            FaultKind::Crash { host } => {
                // Power off; in-flight packets to this host drop HostDown.
                // Port bindings are left in place so a still-running actor
                // shell keeps its (now dead) socket identity — the clean
                // slate happens at restart.
                self.hosts.info.up[host.0 as usize] = false;
            }
            FaultKind::Restart { host } => {
                let now = self.now;
                // The process died with the host: its port bindings do not
                // come back, and neither does a backlog of queued link or
                // CPU work from before the crash.
                self.ports.clear_host(host);
                self.hosts.reset_runtime(host, now);
                let i = host.0 as usize;
                let (domain, ip) = (self.hosts.domains[i], self.hosts.info.ips[i]);
                // A restarted host must earn fresh NAT mappings; the old
                // incarnation's public endpoints are dead.
                if let Some(nat) = self.domains[domain.0 as usize].nat.as_mut() {
                    nat.purge_internal(ip);
                }
            }
            FaultKind::Blackhole { a, b } => {
                self.faults.blackholes.insert(norm_pair(a, b));
            }
            FaultKind::HealBlackhole { a, b } => {
                self.faults.blackholes.remove(&norm_pair(a, b));
            }
            FaultKind::Partition { domain } => {
                self.faults.partitioned.insert(domain);
            }
            FaultKind::HealPartition { domain } => {
                self.faults.partitioned.remove(&domain);
            }
            FaultKind::NatExpiry { domain } => self.reset_nat(domain),
            FaultKind::ChaosOpen {
                dup_per_mille,
                reorder_per_mille,
                extra,
            } => {
                self.faults.chaos = Some(crate::fault::ChaosWindow {
                    dup_per_mille,
                    reorder_per_mille,
                    extra,
                });
            }
            FaultKind::ChaosClose => self.faults.chaos = None,
        }
    }

    /// Crash a host ([`FaultKind::Crash`]).
    pub fn crash_host(&mut self, host: HostId) {
        self.apply_fault(FaultKind::Crash { host });
    }

    /// Restart a crashed host clean-slate ([`FaultKind::Restart`]).
    pub fn restart_host(&mut self, host: HostId) {
        self.apply_fault(FaultKind::Restart { host });
    }

    /// Every fault applied so far, in application order. Two runs with the
    /// same seed and scenario produce identical transcripts.
    pub fn fault_transcript(&self) -> &[FaultRecord] {
        &self.faults.transcript
    }

    /// Set a host's background-load multiplier (≥ 1.0 slows CPU work).
    pub fn set_host_load(&mut self, id: HostId, load_factor: f64) {
        assert!(load_factor >= 1.0, "load factor below 1.0 is meaningless");
        self.hosts.info.load_factors[id.0 as usize] = load_factor;
    }

    /// The public address a packet from `host` to `remote` would carry —
    /// the host's own address for public hosts, or the NAT mapping that an
    /// outbound packet would create/refresh. Read-only convenience used by
    /// tests; the overlay itself learns addresses from handshakes.
    pub fn host_ip(&self, id: HostId) -> PhysIp {
        self.hosts.info.ips[id.0 as usize]
    }

    /// Clamp an arrival so the (src, dst) path delivers in FIFO order.
    fn fifo_clamp(&mut self, src: PhysIp, dst: PhysIp, arrive: SimTime) -> SimTime {
        let slot = self.path_fifo.slot(src, dst);
        let clamped = arrive.max(*slot + SimDuration::from_micros(1));
        *slot = clamped;
        clamped
    }

    /// Hand the datagram to the network at `now` (hoisted by batch sends:
    /// the clock cannot advance inside one actor callback, so a whole
    /// burst shares a single timestamp read). Also the parallel commit
    /// path's replay target: lanes record sends as effects and this
    /// function — unchanged — performs them in global `(at, seq)` order,
    /// which is what keeps RNG draws, NAT state and FIFO clamps
    /// byte-identical to the sequential core.
    pub(crate) fn send_from(
        &mut self,
        now: SimTime,
        from_host: HostId,
        src_port: u16,
        dst: PhysAddr,
        payload: Bytes,
    ) {
        self.stats.sent += 1;
        let size = payload.len() + UDP_IP_OVERHEAD;
        let (src_domain_id, src_ip, depart) = {
            let i = from_host.0 as usize;
            if !self.hosts.info.up[i] {
                // A powered-off host cannot transmit; count as host-down.
                self.stats.drop(DropReason::HostDown);
                return;
            }
            let start = now.max(self.hosts.uplink_free_at[i]);
            let wait = start.saturating_since(now).as_micros();
            if wait > 0 {
                self.stats.uplink_queued += 1;
                self.stats.uplink_queue_wait_us += wait;
            }
            let depart = start + serialization_delay(size, self.hosts.info.uplink_bps[i]);
            self.hosts.uplink_free_at[i] = depart;
            (self.hosts.domains[i], self.hosts.info.ips[i], depart)
        };
        let src_addr = PhysAddr::new(src_ip, src_port);
        let dgram = Datagram {
            src: src_addr,
            dst,
            payload,
        };

        let has_nat = self.domains[src_domain_id.0 as usize].nat.is_some();
        if dst.ip.is_private() {
            // Private destinations are only meaningful inside the sender's
            // own domain.
            match self.private_ips[src_domain_id.0 as usize].get(dst.ip) {
                Some(h2) => self.deliver_intra(src_domain_id, h2, dgram, depart),
                None => self.stats.drop(DropReason::PrivateUnroutable),
            }
            return;
        }
        if has_nat {
            let nat_ip = self.domains[src_domain_id.0 as usize]
                .nat
                .as_ref()
                .expect("checked above")
                .public_ip;
            if dst.ip == nat_ip {
                // Inside → own public address: hairpin case.
                let nat = self.domains[src_domain_id.0 as usize]
                    .nat
                    .as_mut()
                    .expect("checked above");
                match nat.hairpin(src_addr, dst, now) {
                    Ok((wan_src, internal_dst)) => {
                        let h2 =
                            match self.private_ips[src_domain_id.0 as usize].get(internal_dst.ip) {
                                Some(h2) => h2,
                                None => {
                                    self.stats.drop(DropReason::PrivateUnroutable);
                                    return;
                                }
                            };
                        let looped = Datagram {
                            src: wan_src,
                            dst: internal_dst,
                            payload: dgram.payload,
                        };
                        // Two traversals of the domain's internal path.
                        let path = self.links.path(src_domain_id, src_domain_id);
                        let delay =
                            path.sample_delay(&mut self.rng) + path.sample_delay(&mut self.rng);
                        self.push(
                            depart + delay,
                            Ev::HostArrive {
                                host: h2,
                                dgram: looped,
                            },
                        );
                    }
                    Err(r) => self.stats.drop(DropReason::Nat(r)),
                }
                return;
            }
            // Ordinary egress: translate the source.
            let nat = self.domains[src_domain_id.0 as usize]
                .nat
                .as_mut()
                .expect("checked above");
            let wan_src = nat.outbound(src_addr, dst, now);
            let translated = Datagram {
                src: wan_src,
                ..dgram
            };
            self.send_wan(src_domain_id, translated, depart);
        } else {
            self.send_wan(src_domain_id, dgram, depart);
        }
    }

    /// Carry a datagram across the WAN from `src_domain` to whoever owns
    /// `dgram.dst.ip`, departing the source uplink at `depart`.
    fn send_wan(&mut self, src_domain: DomainId, dgram: Datagram, depart: SimTime) {
        let Some(&owner) = self.public_ips.get(dgram.dst.ip) else {
            self.stats.drop(DropReason::NoSuchIp);
            return;
        };
        let dst_domain = match owner {
            IpOwner::Host(h) => self.hosts.domains[h.0 as usize],
            IpOwner::Nat(d) => d,
        };
        if self.faults.blocks(src_domain, dst_domain) {
            // An active partition or blackhole severs this path.
            self.stats.drop(DropReason::FaultInjected);
            return;
        }
        let path = self.links.path(src_domain, dst_domain);
        if path.sample_loss(&mut self.rng) {
            self.stats.drop(DropReason::WanLoss);
            return;
        }
        let mut arrive = depart + path.sample_delay(&mut self.rng);
        // Chaos-window decisions draw from the dedicated faultlab stream:
        // with the window closed no draw happens at all, so opening one
        // later in a run never perturbs the loss/jitter sequences above.
        let chaos = self.faults.chaos;
        let mut reordered = false;
        if let Some(c) = chaos {
            if c.reorder_per_mille > 0
                && self.faults.rng.gen_range(0..1000u16) < c.reorder_per_mille
            {
                arrive += chaos_extra_delay(&mut self.faults.rng, c.extra);
                reordered = true;
                self.stats.reordered += 1;
            }
        }
        // A reordered packet deliberately bypasses the per-path FIFO clamp
        // (and does not advance it): the point of the window is to let a
        // delayed packet land behind traffic sent after it.
        let arrive = if reordered {
            arrive
        } else {
            self.fifo_clamp(dgram.src.ip, dgram.dst.ip, arrive)
        };
        if let Some(c) = chaos {
            if c.dup_per_mille > 0 && self.faults.rng.gen_range(0..1000u16) < c.dup_per_mille {
                let extra = chaos_extra_delay(&mut self.faults.rng, c.extra);
                self.stats.duplicated += 1;
                self.wan_arrival(owner, arrive + extra, dgram.clone());
            }
        }
        self.wan_arrival(owner, arrive, dgram);
    }

    /// Schedule a WAN arrival at the destination's edge (host downlink or
    /// NAT ingress).
    fn wan_arrival(&mut self, owner: IpOwner, arrive: SimTime, dgram: Datagram) {
        match owner {
            IpOwner::Host(h) => self.push(arrive, Ev::HostArrive { host: h, dgram }),
            IpOwner::Nat(d) => self.push(arrive, Ev::NatIngress { domain: d, dgram }),
        }
    }

    /// Deliver within a domain (no NAT involved).
    fn deliver_intra(&mut self, domain: DomainId, host: HostId, dgram: Datagram, from: SimTime) {
        let path = self.links.path(domain, domain);
        let delay = path.sample_delay(&mut self.rng);
        let arrive = self.fifo_clamp(dgram.src.ip, dgram.dst.ip, from + delay);
        self.push(arrive, Ev::HostArrive { host, dgram });
    }

    /// NAT ingress, evaluated at arrival time.
    pub(crate) fn nat_ingress(&mut self, domain: DomainId, dgram: Datagram) {
        let now = self.now;
        let nat = self.domains[domain.0 as usize]
            .nat
            .as_mut()
            .expect("NatIngress scheduled for a domain without a NAT");
        match nat.inbound(dgram.dst.port, dgram.src, now) {
            Inbound::Accept(internal) => {
                let Some(host) = self.private_ips[domain.0 as usize].get(internal.ip) else {
                    self.stats.drop(DropReason::PrivateUnroutable);
                    return;
                };
                let translated = Datagram {
                    src: dgram.src,
                    dst: internal,
                    payload: dgram.payload,
                };
                self.deliver_intra(domain, host, translated, now);
            }
            Inbound::Drop(r) => self.stats.drop(DropReason::Nat(r)),
        }
    }

    /// One host's state for a host-local rule ([`HostMut`]), borrowed
    /// field-disjointly from the host columns, the port table and the stats.
    pub(crate) fn host_mut(&mut self, id: HostId) -> HostMut<'_> {
        self.hosts
            .host_mut(id, self.ports.slot_mut(id), &mut self.stats)
    }
}

/// The backing store a [`Ctx`] operates on.
///
/// Sequential execution hands actors the whole [`World`]. Under the windowed
/// parallel engine (`crate::par`), a lane executes events for its shard of
/// hosts with no `&mut World` in sight. Host-local operations do not care:
/// both arms hand out the same per-host handle ([`HostRef`] / [`HostMut`],
/// through `Ctx::here` / `Ctx::here_mut`) and run the same rules on it. The
/// arms differ only where the semantics do — a send or a wake-up is applied
/// to the world at once sequentially but recorded as an effect (or an
/// in-window child) in a lane, and the world RNG is unavailable in a lane.
pub(crate) enum CtxInner<'a> {
    World(&'a mut World),
    Lane(&'a mut crate::par::LaneCtx),
}

/// The per-event handle actors use to interact with the world.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The running actor's id.
    pub actor: ActorId,
    /// The host the running actor is attached to.
    pub host: HostId,
    pub(crate) inner: CtxInner<'a>,
    pub(crate) stop_requested: bool,
}

impl Ctx<'_> {
    /// The running actor's host, read-only — the handle every `&self`
    /// query goes through, whichever core runs the callback.
    fn here(&self) -> HostRef<'_> {
        match &self.inner {
            CtxInner::World(world) => world.hosts.info.host(self.host),
            CtxInner::Lane(lane) => lane.host(self.host),
        }
    }

    /// The running actor's host for a host-local rule — the handle every
    /// mutating host operation goes through, whichever core runs it.
    fn here_mut(&mut self) -> HostMut<'_> {
        match &mut self.inner {
            CtxInner::World(world) => world.host_mut(self.host),
            CtxInner::Lane(lane) => lane.host_mut(self.host),
        }
    }

    /// Bind a specific UDP-style port on this actor's host.
    ///
    /// # Panics
    /// Panics if the port is already bound on this host.
    pub fn bind(&mut self, port: u16) -> PhysAddr {
        let actor = self.actor;
        self.here_mut().bind(port, actor)
    }

    /// Bind the next free ephemeral port on this actor's host.
    pub fn bind_ephemeral(&mut self) -> PhysAddr {
        let actor = self.actor;
        self.here_mut().bind_ephemeral(actor)
    }

    /// Release a port binding.
    pub fn unbind(&mut self, port: u16) {
        self.here_mut().unbind(port);
    }

    /// Send a datagram from a bound local port.
    pub fn send(&mut self, src_port: u16, dst: PhysAddr, payload: Bytes) {
        self.send_batch(src_port, [(dst, payload)]);
    }

    /// Send a burst of datagrams from one bound local port, amortizing the
    /// port check and the timestamp read over the whole batch. Each frame
    /// is routed, accounted and (possibly) dropped independently — a frame
    /// that drops mid-batch never drops or reorders its successors, and
    /// per-frame [`DropReason`] accounting is identical to looping
    /// [`Ctx::send`].
    pub fn send_batch<I>(&mut self, src_port: u16, frames: I)
    where
        I: IntoIterator<Item = (PhysAddr, Bytes)>,
    {
        debug_assert_eq!(
            port_slot_get(self.here_mut().ports, src_port),
            Some(self.actor),
            "sending from a port this actor has not bound"
        );
        let (now, host) = (self.now, self.host);
        for (dst, payload) in frames {
            match &mut self.inner {
                CtxInner::World(world) => world.send_from(now, host, src_port, dst, payload),
                CtxInner::Lane(lane) => lane.record_send(src_port, dst, payload),
            }
        }
    }

    /// Schedule `on_wake(tag)` at an absolute time.
    pub fn wake_at(&mut self, at: SimTime, tag: u64) {
        let (actor, at) = (self.actor, at.max(self.now));
        match &mut self.inner {
            CtxInner::World(world) => world.push(at, Ev::Wake { actor, tag }),
            CtxInner::Lane(lane) => lane.record_wake(at, actor, tag),
        }
    }

    /// Schedule `on_wake(tag)` after a delay.
    pub fn wake_after(&mut self, after: SimDuration, tag: u64) {
        self.wake_at(self.now + after, tag);
    }

    /// Deterministic world RNG.
    ///
    /// # Panics
    /// Panics under parallel execution (`Sim::set_workers` > 1): the world
    /// RNG's draw order is part of the determinism contract and is owned by
    /// the network path. Actors needing randomness should derive a private
    /// stream from [`crate::rng::SeedSplitter`] at construction instead.
    pub fn rng(&mut self) -> &mut SmallRng {
        match &mut self.inner {
            CtxInner::World(world) => world.rng(),
            CtxInner::Lane(_) => panic!(
                "Ctx::rng is unavailable under parallel execution; \
                 derive a per-actor RNG from SeedSplitter instead"
            ),
        }
    }

    /// This actor's host address (private if behind a NAT).
    pub fn my_ip(&self) -> PhysIp {
        self.here().ip
    }

    /// Occupy this host's CPU for `nominal` work (scaled by speed and
    /// background load), FIFO behind earlier work. Returns the completion
    /// time; pair with [`Ctx::wake_at`] to act on completion.
    pub fn cpu_acquire(&mut self, nominal: SimDuration) -> SimTime {
        let now = self.now;
        self.here_mut().cpu_acquire(now, nominal)
    }

    /// Time-shared CPU work: the completion time for `nominal` work under
    /// the host's speed and load, *without* excluding other work. A guest
    /// OS schedules its network process in millisecond quanta even while a
    /// batch job computes, so packet handling must not queue behind a
    /// 20-second job the way [`Ctx::cpu_acquire`]d work does.
    pub fn cpu_timeshared(&mut self, nominal: SimDuration) -> SimTime {
        self.now + self.here().scaled_work(nominal)
    }

    /// Static description of the host this actor runs on (reassembled;
    /// allocates the name).
    pub fn my_host_spec(&self) -> HostSpec {
        self.here().spec()
    }

    /// Relative CPU speed of the host this actor runs on.
    pub fn my_cpu_speed(&self) -> f64 {
        self.here().cpu_speed
    }

    /// Ask the driver to stop this actor after the current callback:
    /// all its port bindings are dropped and future events are ignored.
    pub fn stop_self(&mut self) {
        self.stop_requested = true;
    }
}

/// A protocol endpoint or application attached to a host.
///
/// All callbacks receive a [`Ctx`] scoped to the event's time, and every
/// callback is dispatched by one rule whichever core runs it: a stopped
/// actor's events are dropped, and one that calls [`Ctx::stop_self`] loses
/// its bindings after the callback returns. Actors must be `'static` (they
/// are owned by the simulator) and `Send` (the windowed parallel engine
/// executes disjoint shards of hosts on a worker pool; an actor is still
/// never called concurrently with itself or with any other actor on the
/// same host, so `Send` — not `Sync` — is all that's needed).
pub trait Actor: Any + Send {
    /// Called once when the actor starts (at its scheduled start time).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    /// Called when a datagram arrives on any port this actor has bound.
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: Datagram) {}
    /// Called when a scheduled wake-up fires.
    fn on_wake(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}
}

pub(crate) struct ActorSlot {
    pub(crate) actor: Option<Box<dyn Actor>>,
    pub(crate) host: HostId,
    pub(crate) alive: bool,
}

impl ActorSlot {
    /// Run one callback on this actor at `now` against `inner` — the
    /// dispatch rule the sequential core and the parallel lanes share.
    /// `None` (event dropped) if the actor is stopped or already running;
    /// after a callback that asked to stop, the actor is marked dead and
    /// its bindings on its host released.
    pub(crate) fn dispatch<R>(
        &mut self,
        id: ActorId,
        now: SimTime,
        inner: CtxInner<'_>,
        call: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        if !self.alive {
            return None;
        }
        let mut actor = self.actor.take()?;
        let mut ctx = Ctx {
            now,
            actor: id,
            host: self.host,
            inner,
            stop_requested: false,
        };
        let out = call(actor.as_mut(), &mut ctx);
        self.actor = Some(actor);
        if ctx.stop_requested {
            self.alive = false;
            ctx.here_mut().release(id);
        }
        Some(out)
    }
}

/// The simulator: a [`World`] plus its actors.
pub struct Sim {
    pub(crate) world: World,
    pub(crate) actors: Vec<ActorSlot>,
    pub(crate) events_processed: u64,
    pub(crate) par: crate::par::ParEngine,
}

impl Sim {
    /// Create an empty simulation with the given root seed.
    ///
    /// The worker count for the parallel event engine defaults to the
    /// `WOW_SIM_WORKERS` environment variable (1 — pure sequential — when
    /// unset); [`Sim::set_workers`] overrides it.
    pub fn new(seed: u64) -> Self {
        Sim {
            world: World::new(seed),
            actors: Vec::new(),
            events_processed: 0,
            par: crate::par::ParEngine::from_env(),
        }
    }

    /// Set the number of event-execution workers. `1` (the default) runs
    /// the classic sequential loop; `k > 1` runs conservative lookahead
    /// windows over `k` pool workers (see `crate::par`). Any value produces
    /// byte-identical results — transcripts, stats, RNG streams and the
    /// fault transcript do not depend on `k`.
    pub fn set_workers(&mut self, workers: usize) {
        self.par.set_workers(workers);
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.par.workers()
    }

    /// Lower the batch size below which a window executes inline instead of
    /// crossing the thread pool (default tuned for throughput). Testing
    /// knob: the differential suite sets `0` so even single-event windows
    /// exercise the pooled path; results are byte-identical either way.
    pub fn set_parallel_inline_threshold(&mut self, events: usize) {
        self.par.inline_batch = events;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Total events popped from the queue so far — the denominator for
    /// events-per-second throughput measurements in scale harnesses.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Access the world (stats, hosts, link models).
    pub fn world(&mut self) -> &mut World {
        &mut self.world
    }

    /// Read-only world access.
    pub fn world_ref(&self) -> &World {
        &self.world
    }

    /// Add a domain; returns its id.
    pub fn add_domain(&mut self, spec: DomainSpec) -> DomainId {
        let id = DomainId(self.world.domains.len() as u32);
        let nat = match &spec.kind {
            DomainKind::Public => None,
            DomainKind::Natted(cfg) => {
                let ip = self.world.public_ips.alloc(IpOwner::Nat(id));
                Some(Nat::new(ip, cfg.clone()))
            }
        };
        self.world.domains.push(Domain {
            spec,
            nat,
            next_host_octet: 2,
        });
        self.world.private_ips.push(PrivateIpMap::new());
        id
    }

    /// Add a host to a domain; returns its id. Natted domains allocate
    /// private 10.0.x.y addresses (deliberately overlapping across domains);
    /// public domains allocate public addresses.
    pub fn add_host(&mut self, domain: DomainId, spec: HostSpec) -> HostId {
        let id = HostId(self.world.hosts.len() as u32);
        let is_public = matches!(
            self.world.domains[domain.0 as usize].spec.kind,
            DomainKind::Public
        );
        let ip = if is_public {
            self.world.public_ips.alloc(IpOwner::Host(id))
        } else {
            let d = &mut self.world.domains[domain.0 as usize];
            let n = d.next_host_octet;
            d.next_host_octet = n
                .checked_add(1)
                .expect("private 10.0/16 address space exhausted in this domain");
            let ip = PhysIp::new(10, 0, (n >> 8) as u8, (n & 0xff) as u8);
            self.world.private_ips[domain.0 as usize].push(id);
            ip
        };
        let got = self.world.hosts.push(spec, domain, ip);
        debug_assert_eq!(got, id);
        id
    }

    /// Attach an actor to a host, starting immediately.
    pub fn add_actor(&mut self, host: HostId, actor: impl Actor) -> ActorId {
        self.add_actor_at(host, self.world.now, actor)
    }

    /// Attach an actor to a host, starting at `start`.
    pub fn add_actor_at(&mut self, host: HostId, start: SimTime, actor: impl Actor) -> ActorId {
        assert!(
            host.0 < self.world.hosts.len() as u32,
            "no such host {host:?}"
        );
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(ActorSlot {
            actor: Some(Box::new(actor)),
            host,
            alive: true,
        });
        self.world.push(start.max(self.world.now), Ev::Start(id));
        id
    }

    /// Schedule arbitrary experiment logic at an absolute time.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) {
        self.world
            .push(at.max(self.world.now), Ev::Control(Box::new(f)));
    }

    /// Stop an actor: drop its bindings and ignore its future events.
    pub fn stop_actor(&mut self, id: ActorId) {
        let slot = &mut self.actors[id.0 as usize];
        slot.alive = false;
        self.world.host_mut(slot.host).release(id);
    }

    /// Move an actor to a different host (VM migration): its port bindings
    /// on the old host are dropped; the actor must re-bind after resuming.
    pub fn move_actor(&mut self, id: ActorId, new_host: HostId) {
        assert!(
            new_host.0 < self.world.hosts.len() as u32,
            "no such host {new_host:?}"
        );
        let slot = &mut self.actors[id.0 as usize];
        self.world.host_mut(slot.host).release(id);
        slot.host = new_host;
    }

    /// The host an actor currently runs on.
    pub fn actor_host(&self, id: ActorId) -> HostId {
        self.actors[id.0 as usize].host
    }

    /// Run a closure against a concretely-typed actor, with a [`Ctx`] at the
    /// current time. Used by experiment harnesses to poke at application
    /// actors (submit a job, read counters).
    ///
    /// # Panics
    /// Panics if the actor is not of type `A` or has been stopped.
    pub fn with_actor<A: Actor, R>(
        &mut self,
        id: ActorId,
        f: impl FnOnce(&mut A, &mut Ctx<'_>) -> R,
    ) -> R {
        let slot = &mut self.actors[id.0 as usize];
        assert!(slot.alive, "with_actor on a stopped actor");
        let now = self.world.now;
        slot.dispatch(id, now, CtxInner::World(&mut self.world), |actor, ctx| {
            let any: &mut dyn Any = actor;
            let concrete = any
                .downcast_mut::<A>()
                .expect("with_actor called with the wrong actor type");
            f(concrete, ctx)
        })
        .expect("actor re-entered")
    }

    fn dispatch(&mut self, id: ActorId, call: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>)) {
        let now = self.world.now;
        self.actors[id.0 as usize].dispatch(id, now, CtxInner::World(&mut self.world), call);
    }

    /// Process one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, _seq, ev)) = self.world.queue.pop() else {
            return false;
        };
        let at = SimTime::from_micros(at);
        debug_assert!(at >= self.world.now, "time went backwards");
        self.world.now = at;
        self.events_processed += 1;
        match ev {
            Ev::Start(id) => self.dispatch(id, |a, ctx| a.on_start(ctx)),
            Ev::Wake { actor, tag } => self.dispatch(actor, |a, ctx| a.on_wake(ctx, tag)),
            Ev::NatIngress { domain, dgram } => self.world.nat_ingress(domain, dgram),
            Ev::HostArrive { host, dgram } => {
                if let Some(ready) = self.world.host_mut(host).arrive(at, dgram.payload.len()) {
                    self.world.push(ready, Ev::ActorDeliver { host, dgram });
                }
            }
            Ev::ActorDeliver { host, dgram } => {
                if let Some(actor) = self.world.host_mut(host).deliver_to(dgram.dst.port) {
                    self.dispatch(actor, |a, ctx| a.on_datagram(ctx, dgram));
                }
            }
            Ev::Control(f) => f(self),
        }
        true
    }

    /// Run until the queue is empty or simulated time would pass `until`.
    /// Events at exactly `until` are processed.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_to(until.as_micros());
        self.world.now = self.world.now.max(until);
    }

    /// Run until no events remain.
    pub fn run_to_quiescence(&mut self) {
        self.run_to(u64::MAX);
    }

    /// Process events until the queue drains or the next one lies past
    /// `until_us`: one at a time on one worker, else through conservative
    /// lookahead windows (`crate::par`). A zero-latency path leaves no
    /// window to parallelize over, so it degrades to single steps for the
    /// rest of the call. Links change only in control events, which end a
    /// window, so the lookahead is re-read after each window, not per event.
    fn run_to(&mut self, until_us: u64) {
        let mut lookahead = match self.par.workers() {
            1 => 0,
            _ => self.world.links.min_base_latency().as_micros(),
        };
        while let Some((first_at, _)) = self.world.queue.peek_at() {
            if first_at > until_us {
                return;
            }
            if lookahead == 0 {
                self.step();
            } else {
                self.run_window(first_at, lookahead, until_us);
                lookahead = self.world.links.min_base_latency().as_micros();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::NatConfig;
    use std::sync::{Arc, Mutex};

    /// An actor that binds a port and records everything it receives.
    struct Sink {
        port: u16,
        seen: Arc<Mutex<Vec<(SimTime, Datagram)>>>,
    }

    impl Actor for Sink {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(self.port);
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            self.seen.lock().unwrap().push((ctx.now, dgram));
        }
    }

    /// An actor that sends one datagram at start.
    struct Shot {
        port: u16,
        dst: PhysAddr,
        payload: &'static [u8],
    }

    impl Actor for Shot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(self.port);
            ctx.send(self.port, self.dst, Bytes::from_static(self.payload));
        }
    }

    fn two_public_hosts() -> (Sim, HostId, HostId) {
        let mut sim = Sim::new(1);
        let d = sim.add_domain(DomainSpec::public("wan"));
        let h1 = sim.add_host(d, HostSpec::new("a"));
        let h2 = sim.add_host(d, HostSpec::new("b"));
        (sim, h1, h2)
    }

    #[test]
    fn public_to_public_delivery() {
        let (mut sim, h1, h2) = two_public_hosts();
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.add_actor(
            h2,
            Sink {
                port: 7,
                seen: seen.clone(),
            },
        );
        let dst = PhysAddr::new(sim.world().host_ip(h2), 7);
        sim.add_actor(
            h1,
            Shot {
                port: 9,
                dst,
                payload: b"hello",
            },
        );
        sim.run_to_quiescence();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        let (at, d) = &seen[0];
        assert_eq!(&d.payload[..], b"hello");
        assert_eq!(d.dst, dst);
        assert_eq!(d.src.ip, sim.world_ref().host_ip(h1));
        // Intra-domain latency is sub-millisecond but nonzero.
        assert!(*at > SimTime::ZERO);
        assert_eq!(sim.world_ref().stats.delivered, 1);
    }

    #[test]
    fn unbound_port_counts_drop() {
        let (mut sim, h1, h2) = two_public_hosts();
        let dst = PhysAddr::new(sim.world().host_ip(h2), 7);
        sim.add_actor(
            h1,
            Shot {
                port: 9,
                dst,
                payload: b"x",
            },
        );
        sim.run_to_quiescence();
        assert_eq!(sim.world_ref().stats.dropped(DropReason::PortUnbound), 1);
        assert_eq!(sim.world_ref().stats.delivered, 0);
    }

    #[test]
    fn down_host_drops() {
        let (mut sim, h1, h2) = two_public_hosts();
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.add_actor(
            h2,
            Sink {
                port: 7,
                seen: seen.clone(),
            },
        );
        // Let the sink bind, then power the host off before the shot.
        sim.run_until(SimTime::from_millis(1));
        sim.world().set_host_up(h2, false);
        let dst = PhysAddr::new(sim.world().host_ip(h2), 7);
        sim.add_actor(
            h1,
            Shot {
                port: 9,
                dst,
                payload: b"x",
            },
        );
        sim.run_to_quiescence();
        assert!(seen.lock().unwrap().is_empty());
        assert_eq!(sim.world_ref().stats.dropped(DropReason::HostDown), 1);
    }

    #[test]
    fn nat_blocks_unsolicited_inbound_but_passes_reply() {
        // public host P, natted host N. N sends to P; P replies to the
        // observed source; the reply passes the NAT back to N.
        let mut sim = Sim::new(2);
        let wan = sim.add_domain(DomainSpec::public("wan"));
        let home = sim.add_domain(DomainSpec::natted("home", NatConfig::typical()));
        let p = sim.add_host(wan, HostSpec::new("p"));
        let n = sim.add_host(home, HostSpec::new("n"));

        /// Replies to whatever it receives.
        struct Echo {
            port: u16,
        }
        impl Actor for Echo {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.bind(self.port);
            }
            fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
                ctx.send(self.port, d.src, d.payload);
            }
        }

        let seen = Arc::new(Mutex::new(Vec::new()));
        struct Client {
            port: u16,
            dst: PhysAddr,
            seen: Arc<Mutex<Vec<(SimTime, Datagram)>>>,
        }
        impl Actor for Client {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.bind(self.port);
                ctx.send(self.port, self.dst, Bytes::from_static(b"ping"));
            }
            fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
                self.seen.lock().unwrap().push((ctx.now, d));
            }
        }

        sim.add_actor(p, Echo { port: 80 });
        let p_addr = PhysAddr::new(sim.world().host_ip(p), 80);
        sim.add_actor(
            n,
            Client {
                port: 5000,
                dst: p_addr,
                seen: seen.clone(),
            },
        );
        sim.run_to_quiescence();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1, "reply should traverse the NAT");
        // The reply's destination was rewritten to N's private address.
        assert!(seen[0].1.dst.ip.is_private());
        // And its source is the public server.
        assert_eq!(seen[0].1.src, p_addr);
    }

    #[test]
    fn unsolicited_inbound_to_natted_host_is_dropped() {
        let mut sim = Sim::new(3);
        let wan = sim.add_domain(DomainSpec::public("wan"));
        let home = sim.add_domain(DomainSpec::natted("home", NatConfig::typical()));
        let p = sim.add_host(wan, HostSpec::new("p"));
        let _n = sim.add_host(home, HostSpec::new("n"));
        // The NAT's public IP is known to the world; blind-fire at a port.
        let nat_ip = sim.world_ref().domain(home).nat.as_ref().unwrap().public_ip;
        sim.add_actor(
            p,
            Shot {
                port: 9,
                dst: PhysAddr::new(nat_ip, 40_000),
                payload: b"x",
            },
        );
        sim.run_to_quiescence();
        assert_eq!(
            sim.world_ref()
                .stats
                .dropped(DropReason::Nat(NatDrop::NoMapping)),
            1
        );
    }

    #[test]
    fn private_addresses_do_not_cross_domains() {
        let mut sim = Sim::new(4);
        let d1 = sim.add_domain(DomainSpec::natted("a", NatConfig::typical()));
        let d2 = sim.add_domain(DomainSpec::natted("b", NatConfig::typical()));
        let h1 = sim.add_host(d1, HostSpec::new("h1"));
        let h2 = sim.add_host(d2, HostSpec::new("h2"));
        // Same private IP allocated in both domains — by design.
        assert_eq!(sim.world_ref().host_ip(h1), sim.world_ref().host_ip(h2));
        // h1 sending to "its own" private address space reaches the host in
        // ITS domain (itself here), not the other domain's twin.
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.add_actor(
            h1,
            Sink {
                port: 7,
                seen: seen.clone(),
            },
        );
        let other_seen = Arc::new(Mutex::new(Vec::new()));
        sim.add_actor(
            h2,
            Sink {
                port: 7,
                seen: other_seen.clone(),
            },
        );
        let dst = PhysAddr::new(sim.world().host_ip(h1), 7);
        sim.add_actor(
            h1,
            Shot {
                port: 9,
                dst,
                payload: b"x",
            },
        );
        sim.run_to_quiescence();
        assert_eq!(seen.lock().unwrap().len(), 1);
        assert!(other_seen.lock().unwrap().is_empty());
    }

    #[test]
    fn wake_and_control_ordering_is_deterministic() {
        let mut sim = Sim::new(5);
        let d = sim.add_domain(DomainSpec::public("wan"));
        let h = sim.add_host(d, HostSpec::new("a"));
        let order = Arc::new(Mutex::new(Vec::new()));

        struct Waker {
            order: Arc<Mutex<Vec<u64>>>,
        }
        impl Actor for Waker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // Same deadline, increasing tags: must fire in schedule order.
                for tag in 0..5 {
                    ctx.wake_at(SimTime::from_secs(1), tag);
                }
            }
            fn on_wake(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                self.order.lock().unwrap().push(tag);
            }
        }
        sim.add_actor(
            h,
            Waker {
                order: order.clone(),
            },
        );
        let order2 = order.clone();
        sim.schedule(SimTime::from_secs(2), move |_sim| {
            order2.lock().unwrap().push(99);
        });
        sim.run_to_quiescence();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 99]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn uplink_serialization_queues_back_to_back_sends() {
        // Two 1250-byte payloads on a 1.25e6 B/s uplink: ~1 ms each, so the
        // second arrives ~1 ms after the first (plus shared latency).
        let (mut sim, h1, h2) = two_public_hosts();
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.add_actor(
            h2,
            Sink {
                port: 7,
                seen: seen.clone(),
            },
        );
        struct Burst {
            dst: PhysAddr,
        }
        impl Actor for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.bind(9);
                ctx.send(9, self.dst, Bytes::from(vec![0u8; 1250 - UDP_IP_OVERHEAD]));
                ctx.send(9, self.dst, Bytes::from(vec![1u8; 1250 - UDP_IP_OVERHEAD]));
            }
        }
        let dst = PhysAddr::new(sim.world().host_ip(h2), 7);
        sim.add_actor(h1, Burst { dst });
        sim.run_to_quiescence();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2);
        let gap = seen[1].0.saturating_since(seen[0].0);
        assert!(
            gap >= SimDuration::from_micros(900),
            "second packet should queue behind the first, gap {gap}"
        );
    }

    #[test]
    fn cpu_acquire_is_fifo() {
        let (mut sim, h1, _) = two_public_hosts();
        struct Jobs {
            done: Arc<Mutex<Vec<SimTime>>>,
        }
        impl Actor for Jobs {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let a = ctx.cpu_acquire(SimDuration::from_secs(2));
                let b = ctx.cpu_acquire(SimDuration::from_secs(3));
                self.done.lock().unwrap().push(a);
                self.done.lock().unwrap().push(b);
            }
        }
        let done = Arc::new(Mutex::new(Vec::new()));
        sim.add_actor(h1, Jobs { done: done.clone() });
        sim.run_to_quiescence();
        assert_eq!(
            *done.lock().unwrap(),
            vec![SimTime::from_secs(2), SimTime::from_secs(5)]
        );
    }

    #[test]
    fn stop_actor_drops_bindings_and_events() {
        let (mut sim, h1, h2) = two_public_hosts();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = sim.add_actor(
            h2,
            Sink {
                port: 7,
                seen: seen.clone(),
            },
        );
        sim.run_until(SimTime::from_millis(1));
        sim.stop_actor(sink);
        let dst = PhysAddr::new(sim.world().host_ip(h2), 7);
        sim.add_actor(
            h1,
            Shot {
                port: 9,
                dst,
                payload: b"x",
            },
        );
        sim.run_to_quiescence();
        assert!(seen.lock().unwrap().is_empty());
        assert_eq!(sim.world_ref().stats.dropped(DropReason::PortUnbound), 1);
    }

    #[test]
    fn move_actor_unbinds_old_host() {
        let (mut sim, h1, h2) = two_public_hosts();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = sim.add_actor(
            h2,
            Sink {
                port: 7,
                seen: seen.clone(),
            },
        );
        sim.run_until(SimTime::from_millis(1));
        sim.move_actor(sink, h1);
        // Old binding is gone: delivery to h2:7 now drops.
        let dst = PhysAddr::new(sim.world().host_ip(h2), 7);
        sim.add_actor(
            h1,
            Shot {
                port: 9,
                dst,
                payload: b"x",
            },
        );
        sim.run_to_quiescence();
        assert!(seen.lock().unwrap().is_empty());
        // The moved actor can rebind on the new host via with_actor.
        sim.with_actor::<Sink, _>(sink, |s, ctx| {
            ctx.bind(s.port);
        });
        let dst = PhysAddr::new(sim.world().host_ip(h1), 7);
        sim.add_actor(
            h2,
            Shot {
                port: 9,
                dst,
                payload: b"y",
            },
        );
        sim.run_to_quiescence();
        assert_eq!(seen.lock().unwrap().len(), 1);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run(seed: u64) -> (u64, u64, SimTime) {
            let mut sim = Sim::new(seed);
            let d = sim.add_domain(DomainSpec::public("wan"));
            let h1 = sim.add_host(d, HostSpec::new("a"));
            let h2 = sim.add_host(d, HostSpec::new("b"));
            let seen = Arc::new(Mutex::new(Vec::new()));
            sim.add_actor(
                h2,
                Sink {
                    port: 7,
                    seen: seen.clone(),
                },
            );
            let dst = PhysAddr::new(sim.world().host_ip(h2), 7);
            for i in 0..20 {
                sim.add_actor_at(
                    h1,
                    SimTime::from_millis(i * 10),
                    Shot {
                        port: (100 + i) as u16,
                        dst,
                        payload: b"z",
                    },
                );
            }
            sim.run_to_quiescence();
            let last = seen.lock().unwrap().last().map(|(t, _)| *t).unwrap();
            (
                sim.world_ref().stats.sent,
                sim.world_ref().stats.delivered,
                last,
            )
        }
        assert_eq!(run(77), run(77));
        // Different seed shifts jitter and hence the last arrival time.
        assert_ne!(run(77).2, run(78).2);
    }
}
