//! The live shard's decisions, with no socket and no clock: [`ShardCore`].
//!
//! A reactor shard ([`crate::reactor`]) runs many overlay nodes on one
//! thread. Everything the shard decides lives here and reaches the world
//! only through [`Wire`] — the clock, readiness, a slot's ingress and a
//! slot's [`Transport`]:
//!
//! * **slots** — a node lives in a slot whose index is its readiness token
//!   (socket ↔ bound port ↔ slot), stamped with a generation its departure
//!   bumps, so a stale handle or timer entry can never address the slot's
//!   next owner. Every access passes one generation check.
//! * **timers** — no polling. Each driver exposes its earliest deadline
//!   through the [`NodeDriver::arm_hint`]/[`NodeDriver::timer_fired`]
//!   discipline (the same one the simulator runtime trusts); the core keeps
//!   a min-heap of `(deadline, slot, generation)` wakes, sleeps until the
//!   earliest one, and lazily drops the entries of nodes that left.
//! * **ingress** — a ready slot is drained through [`Wire::recv`] (at most
//!   [`RECV_BATCH`] datagrams per call, into the shard's [`BufPool`]), at
//!   most [`INGRESS_QUANTUM`] datagrams per wake per node. The quantum plus
//!   level-triggered readiness is the fairness discipline: a flooded slot
//!   stays ready and simply re-enters the next wake's ready set, after every
//!   other ready node has had its turn.
//! * **settle** — after every driver cycle the node's events go to its
//!   handle's channel (a delivered payload's receive buffer back to the
//!   pool), its shared [`NodeSnapshot`] is refreshed and its timer re-armed.
//!
//! The reactor's wire is sockets, epoll and the wall clock; the tests below
//! drive the same core over an in-memory fabric on a virtual clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Sender;
use parking_lot::Mutex;

use wow_netsim::addr::PhysAddr;
use wow_netsim::time::SimTime;
use wow_overlay::addr::Address;
use wow_overlay::driver::{NodeDriver, Transport};
use wow_overlay::uri::TransportUri;

use crate::udprt::{dispatch_events, BufPool, LiveView, NodeSnapshot, UdpEvent, RECV_BATCH};

/// Most datagrams one node may consume per shard wake: the bound that keeps
/// one flooded socket from starving its shard-mates.
pub const INGRESS_QUANTUM: usize = 64;

/// Longest sleep between wakes, so command-channel liveness never depends
/// solely on doorbell datagrams.
const MAX_SLEEP_MS: i32 = 50;

/// The shard's world: a clock, readiness, and each slot's port.
pub(crate) trait Wire {
    /// What a node is bound to (a socket on the live wire).
    type Port;
    /// A slot's transport for one driver cycle.
    type Tx<'a>: Transport
    where
        Self: 'a;
    /// The time every driver timestamp and timer deadline is read against.
    fn now(&self) -> SimTime;
    /// Bind `port` to `slot`: its readiness reports as `slot` from now on.
    fn attach(&mut self, slot: u32, port: Self::Port) -> io::Result<()>;
    /// Unbind and close `slot`'s port.
    fn detach(&mut self, slot: u32);
    /// Move `slot` to a fresh port, returning its address.
    fn rebind(&mut self, slot: u32) -> io::Result<PhysAddr>;
    /// Wait up to `timeout_ms` for readiness; push the ready slots.
    fn wait(&mut self, ready: &mut Vec<u32>, timeout_ms: i32) -> io::Result<()>;
    /// Pull up to `max` of `slot`'s queued datagrams into `out`, into
    /// buffers from `pool`; never blocks. Returns the number pulled.
    fn recv(
        &mut self,
        slot: u32,
        pool: &mut BufPool,
        out: &mut Vec<(PhysAddr, Bytes)>,
        max: usize,
    ) -> io::Result<usize>;
    /// `slot`'s transport, recycling through `pool`.
    fn tx<'a>(&'a mut self, slot: u32, pool: &'a mut BufPool) -> Self::Tx<'a>;
}

/// A node on the shard: its driver, the address its port is bound to, and
/// its handle's event channel and shared snapshot.
pub(crate) struct Node {
    pub driver: NodeDriver,
    pub local: PhysAddr,
    pub ev_tx: Sender<UdpEvent>,
    pub snapshot: Arc<Mutex<NodeSnapshot>>,
}

/// A slot and the generation of its current (or, vacant, its next) owner.
#[derive(Default)]
struct Slot {
    gen: u32,
    node: Option<Node>,
}

/// The node `gen` stamped into slot `idx`, unless it has left: the one
/// generation check every handle command and timer entry passes.
fn occupant(slots: &mut [Slot], idx: u32, gen: u32) -> Option<&mut Node> {
    slots
        .get_mut(idx as usize)
        .filter(|s| s.gen == gen)?
        .node
        .as_mut()
}

/// Every decision of one reactor shard; see the module docs.
#[derive(Default)]
pub(crate) struct ShardCore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Pending timer wakes `(deadline µs, slot, gen)`, earliest first.
    timers: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// Shared ingress/forwarding buffer pool for every node on the shard.
    pool: BufPool,
    ready: Vec<u32>,
    scratch: Vec<(PhysAddr, Bytes)>,
}

impl ShardCore {
    /// Start `node` in a free slot bound to `port`, joining via
    /// `bootstrap`; its `(slot, gen)`.
    pub(crate) fn register<W: Wire>(
        &mut self,
        wire: &mut W,
        port: W::Port,
        node: Node,
        bootstrap: Vec<TransportUri>,
    ) -> io::Result<(u32, u32)> {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            (self.slots.len() - 1) as u32
        });
        wire.attach(idx, port)
            .inspect_err(|_| self.free.push(idx))?;
        let uri = TransportUri::udp(node.local);
        let slot = &mut self.slots[idx as usize];
        slot.node = Some(node);
        let gen = slot.gen;
        self.cycle(wire, idx, gen, |driver, wire, pool, now| {
            driver.start(now, uri, bootstrap, &mut wire.tx(idx, pool));
            now
        });
        Ok((idx, gen))
    }

    /// Stop the node and free its slot for a later generation.
    pub(crate) fn deregister<W: Wire>(&mut self, wire: &mut W, idx: u32, gen: u32) {
        if occupant(&mut self.slots, idx, gen).is_none() {
            return;
        }
        let slot = &mut self.slots[idx as usize];
        slot.node = None;
        slot.gen = gen.wrapping_add(1);
        wire.detach(idx);
        self.free.push(idx);
    }

    /// Route an application payload from the node.
    pub(crate) fn send_app<W: Wire>(
        &mut self,
        wire: &mut W,
        idx: u32,
        gen: u32,
        dst: Address,
        proto: u8,
        data: Bytes,
    ) {
        self.cycle(wire, idx, gen, |driver, wire, pool, now| {
            driver.send_app(now, dst, proto, data, &mut wire.tx(idx, pool));
            now
        });
    }

    /// The node's deep view, `None` once it has left.
    pub(crate) fn view(&mut self, idx: u32, gen: u32) -> Option<LiveView> {
        occupant(&mut self.slots, idx, gen).map(|n| LiveView {
            conns: n.driver.node().conn_snapshot(),
            uris: n.driver.node().advertised_uris(),
            local: n.local,
            counters: *n.driver.counters(),
        })
    }

    /// Move the node to a fresh port without telling its driver.
    pub(crate) fn rebind<W: Wire>(
        &mut self,
        wire: &mut W,
        idx: u32,
        gen: u32,
    ) -> io::Result<PhysAddr> {
        let node =
            occupant(&mut self.slots, idx, gen).ok_or_else(|| io::Error::other("node is gone"))?;
        node.local = wire.rebind(idx)?;
        Ok(node.local)
    }

    /// One shard wake: fire due timers, wait for readiness until the
    /// earliest pending one, serve each ready slot's ingress quantum in
    /// readiness order, and fire what fell due meanwhile.
    pub(crate) fn turn<W: Wire>(&mut self, wire: &mut W) -> io::Result<()> {
        self.fire_due(wire);
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        wire.wait(&mut ready, self.sleep_ms(wire))?;
        for &idx in &ready {
            self.ingress(wire, idx);
        }
        self.ready = ready;
        self.fire_due(wire);
        Ok(())
    }

    fn ingress<W: Wire>(&mut self, wire: &mut W, idx: u32) {
        // Readiness comes only from attached ports, so the slot exists.
        let gen = self.slots[idx as usize].gen;
        let mut scratch = std::mem::take(&mut self.scratch);
        self.cycle(wire, idx, gen, |driver, wire, pool, mut now| {
            let mut budget = INGRESS_QUANTUM;
            while budget > 0 {
                match wire.recv(idx, pool, &mut scratch, budget.min(RECV_BATCH)) {
                    Ok(got) if got > 0 => budget -= got,
                    _ => break,
                }
                now = wire.now();
                let mut tx = wire.tx(idx, pool);
                for (src, frame) in scratch.drain(..) {
                    driver.on_datagram(now, src, frame, &mut tx);
                }
            }
            now
        });
        self.scratch = scratch;
    }

    fn fire_due<W: Wire>(&mut self, wire: &mut W) {
        while let Some(&Reverse((t, idx, gen))) = self.timers.peek() {
            if t > wire.now().as_micros() {
                return;
            }
            self.timers.pop();
            self.cycle(wire, idx, gen, |driver, wire, pool, now| {
                driver.timer_fired();
                driver.on_tick(now, &mut wire.tx(idx, pool));
                now
            });
        }
    }

    /// Milliseconds until the earliest pending timer, clamped to
    /// `[0, MAX_SLEEP_MS]` and rounded up, so a wake never lands just
    /// before its deadline and spins.
    fn sleep_ms<W: Wire>(&self, wire: &W) -> i32 {
        let Some(Reverse((t, _, _))) = self.timers.peek() else {
            return MAX_SLEEP_MS;
        };
        let left = t.saturating_sub(wire.now().as_micros());
        left.div_ceil(1000).min(MAX_SLEEP_MS as u64) as i32
    }

    /// One event cycle of the node `gen` stamped into `idx` — `f` drives it
    /// from the current time and returns the time it finished at — then
    /// settle it: dispatch its events, refresh its snapshot, re-arm its
    /// timer. A node that left is skipped.
    fn cycle<W: Wire>(
        &mut self,
        wire: &mut W,
        idx: u32,
        gen: u32,
        f: impl FnOnce(&mut NodeDriver, &mut W, &mut BufPool, SimTime) -> SimTime,
    ) {
        let Some(node) = occupant(&mut self.slots, idx, gen) else {
            return;
        };
        let now = f(&mut node.driver, wire, &mut self.pool, wire.now());
        dispatch_events(&mut node.driver, &node.ev_tx, &mut self.pool);
        let n = node.driver.node();
        *node.snapshot.lock() = NodeSnapshot {
            routable: n.is_routable(),
            connections: n.conns().len(),
        };
        if let Some(deadline) = node.driver.arm_hint(now) {
            self.timers.push(Reverse((deadline.as_micros(), idx, gen)));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashMap, VecDeque};

    use crossbeam::channel::unbounded;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wow_netsim::addr::PhysIp;
    use wow_netsim::time::SimDuration;
    use wow_overlay::config::OverlayConfig;
    use wow_overlay::node::BrunetNode;
    use wow_overlay::telemetry::{Counter, TelemetryCounters};

    use super::*;
    use crate::audit::audit_ring;

    /// Virtual time a wait costs when it finds datagrams queued: one
    /// loopback hop.
    const HOP: SimDuration = SimDuration::from_micros(50);

    /// An in-memory datagram fabric on a virtual clock. Each attached slot
    /// owns an address and an inbox; a sent frame lands in its
    /// destination's inbox or, unattached, vanishes like UDP to a closed
    /// port. A wait that finds inboxes ready costs one `hop`; one that
    /// does not sleeps its whole timeout. Each transport the core opens
    /// costs `cpu`, standing in for the shard's own work.
    #[derive(Default)]
    struct Fabric {
        now: SimTime,
        hop: SimDuration,
        cpu: SimDuration,
        slots: HashMap<PhysAddr, u32>,
        ports: Vec<Option<PhysAddr>>,
        inbox: Vec<VecDeque<(PhysAddr, Vec<u8>)>>,
        /// Every transport the core opened, as `(time, slot)`: one per
        /// driver cycle, one per received batch.
        opened: Vec<(SimTime, u32)>,
    }

    struct FabricTx<'a> {
        fabric: &'a mut Fabric,
        from: PhysAddr,
        pool: &'a mut BufPool,
    }

    impl Transport for FabricTx<'_> {
        fn transmit(&mut self, to: PhysAddr, frame: Bytes) -> bool {
            if let Some(&slot) = self.fabric.slots.get(&to) {
                let datagram = (self.from, frame.to_vec());
                self.fabric.inbox[slot as usize].push_back(datagram);
            }
            self.pool.reclaim(frame);
            true
        }

        fn reclaim(&mut self, frame: Bytes) {
            self.pool.reclaim(frame);
        }
    }

    impl Wire for Fabric {
        type Port = PhysAddr;
        type Tx<'a> = FabricTx<'a>;

        fn now(&self) -> SimTime {
            self.now
        }

        fn attach(&mut self, slot: u32, port: PhysAddr) -> io::Result<()> {
            let i = slot as usize;
            if self.ports.len() <= i {
                self.ports.resize(i + 1, None);
                self.inbox.resize_with(i + 1, VecDeque::new);
            }
            self.ports[i] = Some(port);
            self.slots.insert(port, slot);
            Ok(())
        }

        fn detach(&mut self, slot: u32) {
            if let Some(port) = self.ports[slot as usize].take() {
                self.slots.remove(&port);
            }
            self.inbox[slot as usize].clear();
        }

        fn rebind(&mut self, _slot: u32) -> io::Result<PhysAddr> {
            Err(io::Error::other("the fabric models no NAT"))
        }

        fn wait(&mut self, ready: &mut Vec<u32>, timeout_ms: i32) -> io::Result<()> {
            let queued = |s: &u32| !self.inbox[*s as usize].is_empty();
            ready.extend((0..self.inbox.len() as u32).filter(queued));
            self.now += match ready.is_empty() {
                true => SimDuration::from_millis(timeout_ms as u64),
                false => self.hop,
            };
            Ok(())
        }

        fn recv(
            &mut self,
            slot: u32,
            pool: &mut BufPool,
            out: &mut Vec<(PhysAddr, Bytes)>,
            max: usize,
        ) -> io::Result<usize> {
            let inbox = &mut self.inbox[slot as usize];
            let n = max.min(inbox.len());
            out.extend(inbox.drain(..n).map(|(src, d)| (src, pool.take_copy(&d))));
            Ok(n)
        }

        fn tx<'a>(&'a mut self, slot: u32, pool: &'a mut BufPool) -> FabricTx<'a> {
            self.opened.push((self.now, slot));
            self.now += self.cpu;
            let from = self.ports[slot as usize].expect("the core reaches only attached slots");
            FabricTx {
                fabric: self,
                from,
                pool,
            }
        }
    }

    /// A registered node: its `(slot, gen)` and its shared snapshot.
    type Handle = ((u32, u32), Arc<Mutex<NodeSnapshot>>);

    /// A shard core on the fabric and every node it registered.
    struct World {
        core: ShardCore,
        fabric: Fabric,
        nodes: Vec<Handle>,
    }

    impl World {
        fn new(hop: SimDuration, cpu: SimDuration) -> World {
            World {
                core: ShardCore::default(),
                fabric: Fabric {
                    hop,
                    cpu,
                    ..Fabric::default()
                },
                nodes: Vec::new(),
            }
        }

        /// Register a node at the next free fabric address.
        fn spawn(&mut self, cfg: &OverlayConfig, boot: &[TransportUri], seed: u64) -> (u32, u32) {
            let local = PhysAddr::new(PhysIp::new(10, 0, 0, 1), 1000 + self.nodes.len() as u16);
            let snapshot = Arc::new(Mutex::new(NodeSnapshot::default()));
            let addr = Address::random(&mut SmallRng::seed_from_u64(seed));
            let node = Node {
                driver: NodeDriver::new(BrunetNode::new(addr, cfg.clone(), seed)),
                local,
                ev_tx: unbounded().0,
                snapshot: snapshot.clone(),
            };
            let id = self
                .core
                .register(&mut self.fabric, local, node, boot.to_vec());
            let id = id.expect("the fabric attaches every port");
            self.nodes.push((id, snapshot));
            id
        }

        fn turn(&mut self) {
            self.core
                .turn(&mut self.fabric)
                .expect("the fabric never fails");
        }

        /// Turn the core until `done` holds, checked every `poll` of virtual
        /// time; false if the clock passes `limit` first.
        fn run_until(
            &mut self,
            limit: SimTime,
            poll: SimDuration,
            mut done: impl FnMut(&mut World) -> bool,
        ) -> bool {
            let mut next_poll = self.fabric.now;
            loop {
                if self.fabric.now >= next_poll {
                    if done(self) {
                        return true;
                    }
                    next_poll = self.fabric.now + poll;
                }
                if self.fabric.now > limit {
                    return false;
                }
                self.turn();
            }
        }

        fn routable(&mut self) -> bool {
            self.nodes.iter().all(|(_, s)| s.lock().routable)
        }

        fn views(&mut self) -> Vec<LiveView> {
            let World { core, nodes, .. } = self;
            let view = |&((slot, gen), _): &Handle| core.view(slot, gen);
            nodes
                .iter()
                .map(view)
                .map(|v| v.expect("no node left"))
                .collect()
        }
    }

    /// The `live-ring` benchmark's `overlay_config()`, copied.
    fn live_ring_config() -> OverlayConfig {
        OverlayConfig {
            link_rto: SimDuration::from_millis(400),
            race_backoff: SimDuration::from_millis(300),
            stabilize_interval: SimDuration::from_millis(600),
            far_check_interval: SimDuration::from_millis(1000),
            join_retry: SimDuration::from_millis(1200),
            ping_interval: SimDuration::from_secs(5),
            ping_rto: SimDuration::from_secs(1),
            ping_retries: 2,
            ..OverlayConfig::default().without_shortcuts()
        }
    }

    /// Form a ring the way `live-ring` does: a bootstrap node, then waves
    /// of `wave` joiners, every node routable (polled every 5 ms) before
    /// the next wave. Returns the world and each wave's completion time.
    fn form(mut w: World, seed: u64, n: usize, wave: usize) -> (World, Vec<SimTime>) {
        let cfg = live_ring_config();
        w.spawn(&cfg, &[], seed);
        let boot = [TransportUri::udp(w.fabric.ports[0].expect("attached"))];
        let mut waves = Vec::new();
        while w.nodes.len() < n {
            for _ in 0..wave.min(n - w.nodes.len()) {
                w.spawn(&cfg, &boot, seed.wrapping_add(w.nodes.len() as u64));
            }
            let poll = SimDuration::from_millis(5);
            let formed = w.run_until(
                w.fabric.now + SimDuration::from_secs(30),
                poll,
                World::routable,
            );
            assert!(formed, "formation stalled at {} nodes", w.nodes.len());
            waves.push(w.fabric.now);
        }
        (w, waves)
    }

    #[test]
    fn a_flooded_slot_takes_one_quantum_per_wake_and_its_mate_is_served() {
        let mut w = World::new(HOP, SimDuration::ZERO);
        let cfg = OverlayConfig::default();
        let (flooded, gen) = w.spawn(&cfg, &[], 1);
        let (mate, _) = w.spawn(&cfg, &[], 2);
        let stranger = PhysAddr::new(PhysIp::new(10, 0, 0, 9), 9);
        let junk = || (stranger, b"junk".to_vec());
        // The quantum is 64, whatever `INGRESS_QUANTUM` is edited to.
        let quantum = 64;
        let flood = 3 * quantum + 5;
        w.fabric.inbox[flooded as usize].extend((0..flood).map(|_| junk()));
        w.fabric.inbox[mate as usize].push_back(junk());
        let queued = |w: &World, slot: u32| w.fabric.inbox[slot as usize].len();
        for wake in 1..=3 {
            w.turn();
            let left = flood - wake * quantum;
            assert_eq!(queued(&w, flooded), left, "wake {wake} takes one quantum");
            assert_eq!(queued(&w, mate), 0, "the mate is served in the first wake");
        }
        w.turn();
        assert_eq!(queued(&w, flooded), 0);
        // Every datagram pulled reached the driver, which dropped it.
        let dropped = w.core.view(flooded, gen).expect("live").counters;
        assert_eq!(dropped.get(Counter::DroppedDecode), flood as u64);
    }

    #[test]
    fn a_departed_nodes_timer_entry_never_ticks_its_slots_next_owner() {
        let mut w = World::new(HOP, SimDuration::ZERO);
        let cfg = live_ring_config();
        // Nobody answers this bootstrap, so a node keeps retry timers.
        let boot = [TransportUri::udp(PhysAddr::new(
            PhysIp::new(10, 0, 0, 9),
            9,
        ))];
        let settle = |w: &mut World, until: SimTime| {
            while w.fabric.now < until {
                w.turn();
            }
        };
        let pending = |w: &World, gen: u32| {
            let now = w.fabric.now.as_micros();
            let entries = w
                .core
                .timers
                .iter()
                .filter(|Reverse((t, _, g))| *g == gen && *t > now);
            entries.map(|Reverse((t, _, _))| *t).min().expect("armed")
        };
        let (slot, gone) = w.spawn(&cfg, &boot, 5);
        settle(&mut w, SimTime::from_millis(100));
        let stale = pending(&w, gone);
        w.core.deregister(&mut w.fabric, slot, gone);
        let (reused, owner) = w.spawn(&cfg, &boot, 5);
        assert_eq!(reused, slot, "the free slot is reused");
        w.turn();
        let own = pending(&w, owner);
        assert!(
            stale < own,
            "the departed node's wake is due first: {stale} vs {own}"
        );
        w.fabric.opened.clear();
        settle(&mut w, SimTime::from_micros(own));
        let early = w
            .fabric
            .opened
            .iter()
            .find(|&&(t, s)| s == slot && t.as_micros() < own);
        assert_eq!(early, None, "the slot's next owner ran before its own wake");
    }

    /// FNV-1a over `s`.
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Turn until the ring passes `audit_ring`, checked every 25 ms of
    /// virtual time as `live-ring` does (routable comes before stabilized:
    /// trimming the last redundant links lags). The time it passed.
    fn audited(w: &mut World, seed: u64) -> SimTime {
        let passed = w.run_until(
            w.fabric.now + SimDuration::from_secs(30),
            SimDuration::from_millis(25),
            |w| {
                let snaps: Vec<_> = w.views().into_iter().map(|v| v.conns).collect();
                let mut rng = SmallRng::seed_from_u64(seed);
                audit_ring(SimTime::ZERO, &snaps, 64, &mut rng).passed()
            },
        );
        assert!(passed, "the formed ring never audited clean");
        w.fabric.now
    }

    const FORMATION_DIGEST: u64 = 0x1EBD_3C76_CC3F_71E2;

    /// A 64-node `live-ring`-shaped formation on the fabric. The digest
    /// covers the successor map, the merged counters and the number of
    /// driver cycles and receive batches the core ran, so a change to any
    /// scheduling decision (timer arming, the quantum, slot reuse) moves it.
    #[test]
    fn a_64_node_formation_audits_clean_and_replays_its_digest() {
        let (mut w, _) = form(World::new(HOP, SimDuration::ZERO), 7, 64, 32);
        audited(&mut w, 7);
        let views = w.views();
        let successors: BTreeMap<Address, Address> = views
            .iter()
            .map(|v| (v.conns.addr, v.conns.successor().expect("a ring")))
            .collect();
        let mut counters = TelemetryCounters::new();
        for v in &views {
            counters.merge(&v.counters);
        }
        let outcome = format!("{successors:?} {counters:?} {}", w.fabric.opened.len());
        assert_eq!(fnv1a(&outcome), FORMATION_DIGEST, "{outcome}");
    }

    /// `live-ring`'s set-up (256 nodes in waves of 32, then the audit wait)
    /// on the fabric, in 0.6 s stabilize rounds: 20 seeds with an idle and
    /// a busy shard, then the benchmark's seed under a sweep of hop
    /// latencies and per-cycle shard costs. EXPERIMENTS.md "Live-ring
    /// formation in rounds" quotes its output.
    #[test]
    #[ignore = "a measurement; run it with --ignored --nocapture"]
    fn formation_in_rounds() {
        let round = live_ring_config().stabilize_interval.as_secs_f64();
        let us = SimDuration::from_micros;
        let seeds = (0..20).flat_map(|i| [0, 10].map(|c| (379_422 + i, HOP, us(c))));
        let sweep =
            [25, 50, 100, 200].map(|h| [0, 2, 5, 10, 20, 40].map(|c| (379_422, us(h), us(c))));
        println!("seed hop_us cpu_us routable_s routable_rounds audited_s audited_rounds");
        for (seed, hop, cpu) in seeds.chain(sweep.into_iter().flatten()) {
            let (mut w, waves) = form(World::new(hop, cpu), seed, 256, 32);
            let routable = waves.last().expect("waves").as_secs_f64();
            let clean = audited(&mut w, seed ^ 0xa0d1).as_secs_f64();
            let (h, c) = (hop.as_secs_f64() * 1e6, cpu.as_secs_f64() * 1e6);
            println!(
                "{seed} {h:.0} {c:.0} {routable:.3} {:.2} {clean:.3} {:.2}",
                routable / round,
                clean / round
            );
        }
    }
}
