//! Simulator runtime: drive [`BrunetNode`]s as `wow-netsim` actors.
//!
//! [`OverlayHost`] is a thin adapter over the shared
//! [`wow_overlay::driver::NodeDriver`]: it translates simulator datagrams
//! and wakes into driver calls, hands outbound frames straight to the
//! simulated wire (no intermediate action buffer), and dispatches the
//! driver's buffered [`NodeEvent`]s to the attached application. The one
//! cost it adds — the cost the protocol code cannot know about — is
//! *forwarding compute*. The paper's overlay routers are user-level
//! processes on shared PlanetLab hosts; every packet they relay costs CPU,
//! and on a loaded host that queueing delay — not the WAN — dominates
//! multi-hop latency and caps multi-hop bandwidth (Table II's 84 KB/s).
//! Incoming datagrams are therefore run through the host's FIFO CPU queue
//! before the node sees them. (The node's decode-free transit fast path
//! rides through unchanged: a forwarded frame re-enters the wire as the
//! same `Bytes` allocation it arrived in, hop count patched in place.)
//!
//! Application logic (the IPOP/vnet stack, measurement probes) attaches via
//! [`OverlayApp`]; [`NodeHandle`] is its interface back to the node and the
//! simulator.

use std::collections::VecDeque;

use bytes::Bytes;

use wow_netsim::addr::PhysAddr;
use wow_netsim::prelude::*;
use wow_netsim::sim::Datagram;
use wow_overlay::addr::Address;
use wow_overlay::conn::ConnType;
use wow_overlay::driver::{FrameBatch, NodeDriver, NodeEvent, NodeSink, Transport};
use wow_overlay::node::BrunetNode;
use wow_overlay::telemetry::TelemetryCounters;
use wow_overlay::uri::TransportUri;

/// Wake-tag namespace: the node's protocol tick.
const TAG_TICK: u64 = 0;
/// Wake-tag namespace: a datagram finished its CPU service.
const TAG_PROC: u64 = 1;
/// Wake-tag namespace: application timers (user tag in the upper bits).
const TAG_APP_BASE: u64 = 2;

/// The raw wake tag that delivers [`OverlayApp::on_wake`] with `user`.
/// Application glue that arms wakes through the raw [`Ctx`] (rather than
/// [`NodeHandle::wake_after`]) must use this mapping.
pub fn app_wake_tag(user: u64) -> u64 {
    TAG_APP_BASE + (user << 2) + 2
}

/// [`Transport`] adapter: outbound frames become simulator datagrams from
/// this host's bound port.
struct CtxTransport<'a, 'c> {
    ctx: &'a mut Ctx<'c>,
    port: u16,
}

impl Transport for CtxTransport<'_, '_> {
    fn transmit(&mut self, to: PhysAddr, frame: Bytes) -> bool {
        self.ctx.send(self.port, to, frame);
        // The simulated wire models its own loss; handing a frame to the
        // world never fails as an emission.
        true
    }

    fn transmit_batch(&mut self, batch: &mut FrameBatch) -> u64 {
        // One context borrow and one timestamp read for the whole burst;
        // the world still routes and accounts each frame independently.
        self.ctx.send_batch(self.port, batch.drain());
        0
    }
}

/// Per-packet forwarding compute model.
#[derive(Clone, Copy, Debug)]
pub struct ForwardingCost {
    /// Fixed nominal CPU work per datagram (scheduling, user/kernel copies).
    pub per_packet: SimDuration,
    /// Nominal CPU work per payload byte.
    pub per_byte_ns: f64,
    /// Whether packet work occupies the CPU exclusively (FIFO behind every
    /// other `cpu_acquire`, as on a saturated PlanetLab host where the
    /// user-level router competes for whole cores) or is time-shared (a
    /// guest OS keeps servicing the IPOP process in small quanta while a
    /// batch job computes).
    pub exclusive: bool,
}

impl ForwardingCost {
    /// A workstation guest: 20 µs per packet plus 1 ns/byte, time-shared
    /// with whatever jobs the guest runs.
    pub fn end_node() -> Self {
        ForwardingCost {
            per_packet: SimDuration::from_micros(20),
            per_byte_ns: 1.0,
            exclusive: false,
        }
    }

    /// A user-level overlay router: 50 µs per packet plus 450 ns/byte of
    /// nominal work — about 2 MB/s of forwarding throughput on an unloaded
    /// baseline host, before the host's load factor divides it down. The
    /// work is exclusive: the router's forwarding queue is the bottleneck
    /// the paper measured on loaded PlanetLab hosts.
    pub fn router() -> Self {
        ForwardingCost {
            per_packet: SimDuration::from_micros(50),
            per_byte_ns: 450.0,
            exclusive: true,
        }
    }

    fn work(&self, bytes: usize) -> SimDuration {
        self.per_packet + SimDuration::from_micros((bytes as f64 * self.per_byte_ns / 1e3) as u64)
    }
}

/// Application attached to an overlay host (the vnet stack, probes, …).
///
/// `Send` because the hosting [`NodeDriver`] is a netsim [`Actor`], and
/// actors migrate between pool workers under windowed parallel execution
/// (never running concurrently with themselves; see `wow_netsim`).
pub trait OverlayApp: Send + 'static {
    /// The host started (node already joined/joining).
    fn on_start(&mut self, _h: &mut NodeHandle<'_, '_>) {}
    /// A tunnelled payload arrived for this node.
    fn on_deliver(
        &mut self,
        _h: &mut NodeHandle<'_, '_>,
        _src: Address,
        _proto: u8,
        _data: Bytes,
        _exact: bool,
    ) {
    }
    /// An application timer fired.
    fn on_wake(&mut self, _h: &mut NodeHandle<'_, '_>, _tag: u64) {}
    /// A connection gained a role.
    fn on_connected(&mut self, _h: &mut NodeHandle<'_, '_>, _peer: Address, _ctype: ConnType) {}
    /// A connection was lost.
    fn on_disconnected(&mut self, _h: &mut NodeHandle<'_, '_>, _peer: Address) {}
}

/// No-op application for pure router nodes.
pub struct NoApp;
impl OverlayApp for NoApp {}

/// The application's interface to its node and the simulator.
pub struct NodeHandle<'a, 'c> {
    driver: &'a mut NodeDriver,
    /// The simulator context (time, RNG, CPU, timers).
    pub ctx: &'a mut Ctx<'c>,
    port: u16,
}

impl NodeHandle<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// The overlay node (routing table, stats, …).
    pub fn node(&self) -> &BrunetNode {
        self.driver.node()
    }

    /// Telemetry accumulated by the node.
    pub fn counters(&self) -> &TelemetryCounters {
        self.driver.counters()
    }

    /// Route an application payload to an overlay address. Frames go
    /// straight onto the simulated wire.
    pub fn send(&mut self, dst: Address, proto: u8, data: Bytes) {
        let now = self.ctx.now;
        let mut t = CtxTransport {
            ctx: &mut *self.ctx,
            port: self.port,
        };
        self.driver.send_app(now, dst, proto, data, &mut t);
    }

    /// Run `f` with the node and a live sink — for glue (like the IPOP
    /// router) that drives node internals directly. Frames emitted through
    /// the sink go straight onto the simulated wire; events and counters
    /// land in the driver for the host's next dispatch.
    pub fn with_node<R>(&mut self, f: impl FnOnce(&mut BrunetNode, &mut dyn NodeSink) -> R) -> R {
        let mut t = CtxTransport {
            ctx: &mut *self.ctx,
            port: self.port,
        };
        self.driver.with_sink(&mut t, |node, sink| f(node, sink))
    }

    /// Schedule [`OverlayApp::on_wake`] with `tag` after `after`.
    pub fn wake_after(&mut self, after: SimDuration, tag: u64) {
        self.ctx.wake_after(after, app_wake_tag(tag));
    }

    /// Schedule [`OverlayApp::on_wake`] with `tag` at `at`.
    pub fn wake_at(&mut self, at: SimTime, tag: u64) {
        self.ctx.wake_at(at, app_wake_tag(tag));
    }

    /// Occupy this host's CPU for `nominal` work; returns completion time.
    pub fn cpu(&mut self, nominal: SimDuration) -> SimTime {
        self.ctx.cpu_acquire(nominal)
    }
}

/// A simulated host running one overlay node plus an application.
pub struct OverlayHost<A: OverlayApp> {
    driver: NodeDriver,
    app: A,
    port: u16,
    bootstrap: Vec<TransportUri>,
    cost: ForwardingCost,
    queue: VecDeque<Datagram>,
    #[cfg(test)]
    census: tests::TickCensus,
}

impl<A: OverlayApp> OverlayHost<A> {
    /// Build a host actor. `node` must be freshly constructed (not started);
    /// the actor starts it when the simulator starts the actor.
    pub fn new(
        node: BrunetNode,
        port: u16,
        bootstrap: Vec<TransportUri>,
        cost: ForwardingCost,
        app: A,
    ) -> Self {
        OverlayHost {
            driver: NodeDriver::new(node),
            app,
            port,
            bootstrap,
            cost,
            queue: VecDeque::new(),
            #[cfg(test)]
            census: Default::default(),
        }
    }

    /// The node (for assertions and measurements between sim steps).
    pub fn node(&self) -> &BrunetNode {
        self.driver.node()
    }

    /// Mutable node access (experiment orchestration via `with_actor`).
    /// Effects emitted by poked entry points are NOT captured — prefer
    /// [`OverlayHost::send_app`] or [`OverlayHost::handle_and_app`].
    pub fn node_mut(&mut self) -> &mut BrunetNode {
        self.driver.node_mut()
    }

    /// Telemetry accumulated over the node's lifetime.
    pub fn counters(&self) -> TelemetryCounters {
        *self.driver.counters()
    }

    /// The application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable application access.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// The UDP port this host binds.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Route an application payload from this node, flushing all resulting
    /// effects into the simulator (orchestration entry point for
    /// `Sim::with_actor` closures).
    pub fn send_app(&mut self, ctx: &mut Ctx<'_>, dst: Address, proto: u8, data: Bytes) {
        let now = ctx.now;
        {
            let mut t = CtxTransport {
                ctx: &mut *ctx,
                port: self.port,
            };
            self.driver.send_app(now, dst, proto, data, &mut t);
        }
        self.flush(ctx);
    }

    /// Restart the node on its current host (used after VM migration: the
    /// paper kills and restarts IPOP; physical connection state is void).
    ///
    /// The introducer cache is the one piece of state that survives: the
    /// runtime snapshots it before the clean-slate restart and re-seeds it
    /// after, so a node whose configured bootstrap is down can still rejoin
    /// through introducers it learned before dying.
    pub fn restart_node(&mut self, ctx: &mut Ctx<'_>) {
        let local = ctx.bind(self.port);
        self.queue.clear();
        let join_state = self.driver.node().join_state();
        let now = ctx.now;
        {
            let mut t = CtxTransport {
                ctx: &mut *ctx,
                port: self.port,
            };
            self.driver.restart(
                now,
                TransportUri::udp(local),
                self.bootstrap.clone(),
                &mut t,
            );
        }
        self.driver.node_mut().restore_join_state(&join_state);
        self.flush(ctx);
    }

    /// Disjoint mutable access to the node and the application together
    /// (orchestration helpers need both at once).
    pub fn node_and_app_mut(&mut self) -> (&mut BrunetNode, &mut A) {
        (self.driver.node_mut(), &mut self.app)
    }

    /// A [`NodeHandle`] plus the application, borrowed together — the
    /// orchestration seam for code that drives app glue by hand (tests,
    /// `control::resume`). Follow up with [`OverlayHost::flush_now`] from a
    /// fresh `with_actor` closure to dispatch any events the glue produced.
    pub fn handle_and_app<'a, 'c>(
        &'a mut self,
        ctx: &'a mut Ctx<'c>,
    ) -> (NodeHandle<'a, 'c>, &'a mut A) {
        (
            NodeHandle {
                driver: &mut self.driver,
                ctx,
                port: self.port,
            },
            &mut self.app,
        )
    }

    /// Dispatch pending node events and re-arm the protocol tick (for
    /// orchestration code that poked the node or app between sim steps).
    pub fn flush_now(&mut self, ctx: &mut Ctx<'_>) {
        self.flush(ctx);
    }

    /// Dispatch the driver's buffered events to app callbacks until
    /// quiescent, then re-arm the protocol tick.
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        while self.driver.has_events() {
            let mut events = self.driver.take_events();
            for ev in events.drain(..) {
                let mut h = NodeHandle {
                    driver: &mut self.driver,
                    ctx,
                    port: self.port,
                };
                match ev {
                    NodeEvent::Deliver {
                        src,
                        proto,
                        data,
                        exact,
                    } => self.app.on_deliver(&mut h, src, proto, data, exact),
                    NodeEvent::Connected { peer, ctype } => {
                        self.app.on_connected(&mut h, peer, ctype)
                    }
                    NodeEvent::Disconnected { peer } => self.app.on_disconnected(&mut h, peer),
                    NodeEvent::LinkFailed { .. } => {}
                }
            }
            self.driver.recycle_events(events);
        }
        if let Some(deadline) = self.driver.arm_hint(ctx.now) {
            #[cfg(test)]
            self.census.armed.insert(deadline);
            ctx.wake_at(deadline, TAG_TICK);
        }
    }
}

impl<A: OverlayApp> Actor for OverlayHost<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let local = ctx.bind(self.port);
        let now = ctx.now;
        {
            let mut t = CtxTransport {
                ctx: &mut *ctx,
                port: self.port,
            };
            self.driver.start(
                now,
                TransportUri::udp(local),
                self.bootstrap.clone(),
                &mut t,
            );
        }
        self.flush(ctx);
        let mut h = NodeHandle {
            driver: &mut self.driver,
            ctx,
            port: self.port,
        };
        self.app.on_start(&mut h);
        self.flush(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        // Every received datagram costs CPU before the protocol sees it;
        // on a loaded router host this (exclusive) queue is the bottleneck.
        let work = self.cost.work(dgram.payload.len());
        let done = if self.cost.exclusive {
            ctx.cpu_acquire(work)
        } else {
            ctx.cpu_timeshared(work)
        };
        self.queue.push_back(dgram);
        ctx.wake_at(done, TAG_PROC);
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            TAG_TICK => {
                let now = ctx.now;
                // A wake whose deadline a re-arm superseded stays queued;
                // the armed deadline has its own.
                if !self.driver.timer_fired(now) {
                    return;
                }
                #[cfg(test)]
                {
                    self.census.ticks += 1;
                }
                {
                    let mut t = CtxTransport {
                        ctx: &mut *ctx,
                        port: self.port,
                    };
                    self.driver.on_tick(now, &mut t);
                }
                self.flush(ctx);
            }
            TAG_PROC => {
                if let Some(dgram) = self.queue.pop_front() {
                    let now = ctx.now;
                    {
                        let mut t = CtxTransport {
                            ctx: &mut *ctx,
                            port: self.port,
                        };
                        self.driver
                            .on_datagram(now, dgram.src, dgram.payload, &mut t);
                    }
                    self.flush(ctx);
                }
            }
            app_tag => {
                let user = (app_tag - TAG_APP_BASE) >> 2;
                let mut h = NodeHandle {
                    driver: &mut self.driver,
                    ctx,
                    port: self.port,
                };
                self.app.on_wake(&mut h, user);
                self.flush(ctx);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;

    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use super::*;
    use crate::harness::{public_overlay, Overlay};

    /// What a host's protocol tick did: the wakes that reached
    /// [`NodeDriver::on_tick`], and every deadline a tick wake was armed
    /// for.
    #[derive(Default)]
    pub(crate) struct TickCensus {
        pub(crate) ticks: u64,
        pub(crate) armed: BTreeSet<SimTime>,
    }

    /// A small bootstrapped overlay run past its joins.
    fn joined_overlay() -> Overlay<NoApp> {
        let mut net = public_overlay(379_422, 24, 1);
        net.sim.run_until(SimTime::from_secs(120));
        net
    }

    #[test]
    fn a_simulated_node_wakes_once_per_deadline() {
        let mut net = joined_overlay();
        let (mut ticks, mut armed) = (0, 0);
        for i in 0..net.actors().len() {
            let (t, a) = net.with(i, |h, _| (h.census.ticks, h.census.armed.len() as u64));
            // A re-arm to an earlier deadline leaves the superseded wake
            // queued; it must not tick the node a second time.
            assert!(
                t <= a,
                "node {i} ticked {t} times for {a} distinct armed deadlines"
            );
            ticks += t;
            armed += a;
        }
        assert!(ticks > armed / 2, "{ticks} ticks for {armed} deadlines");
    }

    #[test]
    fn every_node_keeps_its_census_cadence() {
        let mut net = joined_overlay();
        // The ring audit alone passes over a ring whose upkeep stalled.
        let report = net.audit(64, &mut SmallRng::seed_from_u64(1));
        assert!(report.passed(), "{:?}", report.violations);
        let now = net.sim.now();
        for i in 0..net.actors().len() {
            let (cfg, (near, far)) = net.with(i, |h, _| {
                let n = h.node();
                (n.config().clone(), n.census_deadlines())
            });
            // Each census re-schedules itself one interval after it runs,
            // so one that ran within two intervals fell due no more than
            // one interval ago.
            for (what, next, every) in [
                ("near", near, cfg.stabilize_interval),
                ("far", far, cfg.far_check_interval),
            ] {
                assert!(
                    now.saturating_since(next) <= every,
                    "node {i}'s {what} census (every {every}) is due since {next}, {now} now"
                );
            }
        }
    }
}
