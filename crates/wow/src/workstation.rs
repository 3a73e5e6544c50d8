//! The virtual workstation: overlay node + IPOP router + user-level IP
//! stack + whatever middleware runs on it.
//!
//! In the paper a workstation is a VMware guest: a Debian image with a tap
//! device and the IPOP process, running PBS/NFS/PVM/SSH unmodified. Here it
//! is [`Workstation`]: an [`crate::simrt::OverlayHost`] whose application is the glue
//! between a [`NetStack`] and the overlay, with a [`Workload`] (the
//! middleware) on top. Workloads see only the virtual network — exactly the
//! paper's claim that everything above the tap device is unmodified.
//!
//! Suspension/resume is built in (the VM migration primitive): while
//! suspended the workstation drops datagrams and defers timers, preserving
//! all stack and workload state; on resume it rebinds on its (possibly
//! new) host, restarts the IPOP/overlay layer — the paper's "kill and
//! restart the user-level IPOP program" — and replays deferred timers.

use bytes::Bytes;

use wow_netsim::prelude::*;
use wow_netsim::time::Alarm;
use wow_overlay::addr::Address;
use wow_overlay::conn::ConnType;
use wow_overlay::node::BrunetNode;
use wow_vnet::ipop::{IpopRouter, PROTO_IPOP};
use wow_vnet::prelude::{NetStack, StackEvent, VirtIp};

use crate::simrt::{app_wake_tag, NodeHandle, OverlayApp};

/// Middleware running on a workstation's virtual network.
pub trait Workload: Send + 'static {
    /// The workstation booted.
    fn on_boot(&mut self, _w: &mut WsHandle<'_, '_, '_>) {}
    /// A stack event (ping reply, UDP datagram, TCP lifecycle).
    fn on_event(&mut self, _w: &mut WsHandle<'_, '_, '_>, _ev: StackEvent) {}
    /// A workload timer fired.
    fn on_wake(&mut self, _w: &mut WsHandle<'_, '_, '_>, _tag: u64) {}
    /// The workstation resumed from suspension (possibly on a new host).
    fn on_resumed(&mut self, _w: &mut WsHandle<'_, '_, '_>) {}
}

/// A no-op workload.
pub struct IdleWorkload;
impl Workload for IdleWorkload {}

/// The workload's interface to its workstation.
pub struct WsHandle<'a, 'b, 'c> {
    /// The virtual-network socket layer.
    pub stack: &'a mut NetStack,
    /// Lower-level node access (time, timers, CPU).
    pub h: &'a mut NodeHandle<'b, 'c>,
}

impl WsHandle<'_, '_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.h.now()
    }

    /// Schedule [`Workload::on_wake`] with `tag` after `after`.
    pub fn wake_after(&mut self, after: SimDuration, tag: u64) {
        self.h.wake_after(after, (tag << 1) | 1);
    }

    /// Occupy this workstation's host CPU for `nominal` work; returns the
    /// completion time (pair with [`WsHandle::wake_after`]).
    pub fn cpu(&mut self, nominal: SimDuration) -> SimTime {
        self.h.cpu(nominal)
    }

    /// Relative CPU speed of the underlying host.
    pub fn host_speed(&self) -> f64 {
        self.h.ctx.my_cpu_speed()
    }
}

/// The application glue: stack + IPOP router + workload.
pub struct WsApp<W: Workload> {
    stack: NetStack,
    ipop: IpopRouter,
    workload: W,
    suspended: bool,
    /// Wake tags deferred while suspended, replayed on resume.
    deferred_wakes: Vec<u64>,
    /// The stack tick's wake rule: a tick a re-arm superseded, or one
    /// replayed after a resume, stays queued and is skipped when it fires.
    stack_alarm: Alarm,
    /// The pump's event batch, kept between pumps for its allocation.
    events: Vec<StackEvent>,
    #[cfg(test)]
    census: crate::simrt::tests::TickCensus,
}

/// Stack-tick wake tag (workload tags are odd; see [`WsHandle::wake_after`]).
const TAG_STACK_TICK: u64 = 0;

impl<W: Workload> WsApp<W> {
    /// Build the glue for a workstation with the given virtual IP.
    pub fn new(
        ip: VirtIp,
        namespace: &str,
        tcp: wow_vnet::tcp::TcpConfig,
        seed: u64,
        workload: W,
    ) -> Self {
        WsApp {
            stack: NetStack::new(ip, tcp, seed),
            ipop: IpopRouter::new(namespace),
            workload,
            suspended: false,
            deferred_wakes: Vec::new(),
            stack_alarm: Alarm::default(),
            events: Vec::new(),
            #[cfg(test)]
            census: Default::default(),
        }
    }

    /// The virtual IP.
    pub fn ip(&self) -> VirtIp {
        self.stack.ip()
    }

    /// This workstation's overlay address (derived from its virtual IP).
    pub fn overlay_address(&self) -> Address {
        self.ipop.overlay_address(self.stack.ip())
    }

    /// The stack (for experiment orchestration between sim steps).
    pub fn stack(&self) -> &NetStack {
        &self.stack
    }

    /// Mutable stack access.
    pub fn stack_mut(&mut self) -> &mut NetStack {
        &mut self.stack
    }

    /// The workload.
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// Mutable workload access.
    pub fn workload_mut(&mut self) -> &mut W {
        &mut self.workload
    }

    /// Disjoint mutable access to the stack and the workload together
    /// (test/orchestration code driving workload callbacks by hand).
    pub fn stack_and_workload_mut(&mut self) -> (&mut NetStack, &mut W) {
        (&mut self.stack, &mut self.workload)
    }

    /// IPOP tunnel counters.
    pub fn ipop_stats(&self) -> wow_vnet::ipop::IpopStats {
        self.ipop.stats
    }

    /// Whether the workstation is currently suspended.
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    /// Suspend the VM: stop processing, preserve all state. The node is
    /// stopped too (its connections will be detected dead by peers).
    pub fn suspend(&mut self, node: &mut BrunetNode) {
        self.suspended = true;
        node.stop();
    }

    /// Resume the VM after migration: rebind, restart IPOP, replay timers.
    /// Call via [`control::resume`].
    pub(crate) fn resume(&mut self, h: &mut NodeHandle<'_, '_>) {
        self.suspended = false;
        // The pump below arms the stack's earliest deadline afresh; a
        // replayed stack tick runs only if it finds that deadline due.
        self.stack_alarm = Alarm::default();
        let deferred = std::mem::take(&mut self.deferred_wakes);
        for tag in deferred {
            // Replay immediately; the time that "passed" during suspension
            // is the migration outage the paper measures. The tags were
            // captured post-unwrapping, so re-wrap them for the host.
            h.ctx
                .wake_after(SimDuration::from_micros(1), app_wake_tag(tag));
        }
        let mut w = WsHandle {
            stack: &mut self.stack,
            h,
        };
        self.workload.on_resumed(&mut w);
        self.pump(h);
    }

    /// Public pump for orchestration code that poked the stack directly
    /// (e.g. experiment harnesses submitting jobs via `Sim::with_actor`).
    pub fn pump_external(&mut self, h: &mut NodeHandle<'_, '_>) {
        self.pump(h);
    }

    /// Move stack output into the tunnel, deliver stack events to the
    /// workload, and re-arm the stack timer. Loops until quiescent.
    fn pump(&mut self, h: &mut NodeHandle<'_, '_>) {
        loop {
            let now = h.now();
            let (stack, ipop) = (&mut self.stack, &mut self.ipop);
            h.with_node(|node, sink| ipop.pump_out(now, stack, node, sink));
            self.stack.drain_events_into(&mut self.events);
            if self.events.is_empty() {
                break;
            }
            for ev in self.events.drain(..) {
                let mut w = WsHandle {
                    stack: &mut self.stack,
                    h,
                };
                self.workload.on_event(&mut w, ev);
            }
        }
        // Arm the TCP timer wheel.
        let now = h.now();
        if let Some(deadline) = self
            .stack
            .next_deadline()
            .and_then(|next| self.stack_alarm.arm(next, now))
        {
            #[cfg(test)]
            self.census.armed.insert(deadline);
            h.ctx.wake_at(deadline, app_wake_tag(TAG_STACK_TICK));
        }
    }
}

impl<W: Workload> OverlayApp for WsApp<W> {
    fn on_start(&mut self, h: &mut NodeHandle<'_, '_>) {
        let mut w = WsHandle {
            stack: &mut self.stack,
            h,
        };
        self.workload.on_boot(&mut w);
        self.pump(h);
    }

    fn on_deliver(
        &mut self,
        h: &mut NodeHandle<'_, '_>,
        _src: Address,
        proto: u8,
        data: Bytes,
        exact: bool,
    ) {
        if self.suspended || proto != PROTO_IPOP {
            return;
        }
        let now = h.now();
        self.ipop.deliver_in(now, &mut self.stack, data, exact);
        self.pump(h);
    }

    fn on_wake(&mut self, h: &mut NodeHandle<'_, '_>, tag: u64) {
        if self.suspended {
            self.deferred_wakes.push(tag);
            return;
        }
        if tag == TAG_STACK_TICK {
            let now = h.now();
            if !self.stack_alarm.fire(now) {
                return;
            }
            #[cfg(test)]
            {
                self.census.ticks += 1;
            }
            self.stack.on_tick(now);
        } else if tag & 1 == 1 {
            let user = tag >> 1;
            let mut w = WsHandle {
                stack: &mut self.stack,
                h,
            };
            self.workload.on_wake(&mut w, user);
        }
        self.pump(h);
    }

    fn on_connected(&mut self, _h: &mut NodeHandle<'_, '_>, _peer: Address, _ctype: ConnType) {}
    fn on_disconnected(&mut self, _h: &mut NodeHandle<'_, '_>, _peer: Address) {}
}

/// Type alias for the full workstation actor.
pub type Workstation<W> = crate::simrt::OverlayHost<WsApp<W>>;

/// Orchestration helpers used by migration and experiments; these operate
/// through `Sim::with_actor`.
pub mod control {
    use super::*;
    use crate::simrt::{ForwardingCost, OverlayHost};
    use wow_overlay::config::OverlayConfig;
    use wow_overlay::uri::TransportUri;

    /// Build a workstation actor (not yet attached to the sim).
    #[allow(clippy::too_many_arguments)]
    pub fn workstation<W: Workload>(
        ip: VirtIp,
        namespace: &str,
        overlay_cfg: OverlayConfig,
        tcp_cfg: wow_vnet::tcp::TcpConfig,
        port: u16,
        bootstrap: Vec<TransportUri>,
        seed: u64,
        workload: W,
    ) -> Workstation<W> {
        let app = WsApp::new(ip, namespace, tcp_cfg, seed, workload);
        let node = BrunetNode::new(app.overlay_address(), overlay_cfg, seed ^ 0x57A7);
        OverlayHost::new(node, port, bootstrap, ForwardingCost::end_node(), app)
    }

    /// Suspend the workstation actor (preserves all guest state).
    pub fn suspend<W: Workload>(sim: &mut Sim, actor: ActorId) {
        sim.with_actor::<Workstation<W>, _>(actor, |ws, _ctx| {
            let (node, app) = ws.node_and_app_mut();
            app.suspend(node);
        });
    }

    /// Resume the workstation actor on its current host: rebind, restart
    /// the IPOP/overlay layer, notify the workload.
    pub fn resume<W: Workload>(sim: &mut Sim, actor: ActorId) {
        sim.with_actor::<Workstation<W>, _>(actor, |ws, ctx| {
            ws.restart_node(ctx);
            let (mut h, app) = ws.handle_and_app(ctx);
            app.resume(&mut h);
        });
        // Dispatch any events the restart/resume produced.
        sim.with_actor::<Workstation<W>, _>(actor, |ws, ctx| {
            ws.flush_now(ctx);
        });
    }
}

#[cfg(test)]
mod tests {
    use wow_overlay::config::OverlayConfig;
    use wow_vnet::tcp::TcpConfig;

    use super::*;

    /// A virtual IP no workstation holds: a SYN to it is never answered.
    const NOBODY: VirtIp = VirtIp::new(172, 31, 0, 99);

    /// Dials [`NOBODY`] at boot and, if `second` is set, again that long
    /// after boot. Each unanswered SYN keeps the stack's retransmit timer
    /// armed, its timeout doubling from 1 s on every retransmission.
    struct Dialer {
        second: Option<SimDuration>,
    }

    impl Workload for Dialer {
        fn on_boot(&mut self, w: &mut WsHandle<'_, '_, '_>) {
            w.stack.tcp_connect(w.now(), NOBODY, 80);
            if let Some(after) = self.second {
                w.wake_after(after, 1);
            }
        }

        fn on_wake(&mut self, w: &mut WsHandle<'_, '_, '_>, _tag: u64) {
            w.stack.tcp_connect(w.now(), NOBODY, 81);
        }
    }

    /// A lone workstation running `dialer`, booted at t = 0.
    fn lone_workstation(dialer: Dialer) -> (Sim, ActorId) {
        let mut sim = Sim::new(7);
        let wan = sim.add_domain(DomainSpec::public("wan"));
        let host = sim.add_host(wan, HostSpec::new("vm"));
        let ws = control::workstation(
            VirtIp::testbed(2),
            "alarm-test",
            OverlayConfig::default(),
            TcpConfig::default(),
            4000,
            Vec::new(),
            7,
            dialer,
        );
        let actor = sim.add_actor(host, ws);
        (sim, actor)
    }

    /// The stack ticks run so far, and the distinct deadlines a stack tick
    /// was armed for.
    fn census(sim: &mut Sim, actor: ActorId) -> (u64, usize) {
        sim.with_actor::<Workstation<Dialer>, _>(actor, |ws, _| {
            let c = &ws.app().census;
            (c.ticks, c.armed.len())
        })
    }

    #[test]
    fn a_superseded_stack_tick_does_not_run() {
        // Port 80's retransmits fall due at 1, 3, 7 and 15 s. Port 81,
        // dialled at 4 s, retransmits at 5 s: an earlier deadline than the
        // armed 7 s, whose wake stays queued.
        let (mut sim, ws) = lone_workstation(Dialer {
            second: Some(SimDuration::from_secs(4)),
        });
        sim.run_until(SimTime::from_secs(60));
        let (ticks, armed) = census(&mut sim, ws);
        assert!(ticks >= 5, "the retransmit timer ran {ticks} times");
        assert!(
            ticks <= armed as u64,
            "{ticks} stack ticks for {armed} distinct deadlines"
        );
    }

    #[test]
    fn a_stack_tick_replayed_on_resume_runs_once() {
        // Retransmits fall due at 1, 3, 7, 15 and 31 s; the 15 s wake comes
        // in while the workstation is suspended and is replayed on resume,
        // beside the wake the resume arms for the overdue deadline.
        let (mut sim, ws) = lone_workstation(Dialer { second: None });
        sim.run_until(SimTime::from_secs(10));
        control::suspend::<Dialer>(&mut sim, ws);
        sim.run_until(SimTime::from_secs(20));
        control::resume::<Dialer>(&mut sim, ws);
        sim.run_until(SimTime::from_secs(120));
        let (ticks, armed) = census(&mut sim, ws);
        assert!(ticks >= 5, "the retransmit timer ran {ticks} times");
        assert!(
            ticks <= armed as u64,
            "{ticks} stack ticks for {armed} distinct deadlines"
        );
    }
}
