//! The runtime-agnostic node driver: one event-in / action-out cycle shared
//! by every runtime.
//!
//! [`crate::node::BrunetNode`] is sans-IO: it emits its effects into a
//! [`NodeSink`] as they happen. On the hot path (routing, forwarding) the
//! sink hands frames straight to a [`Transport`] — no intermediate
//! action-buffer allocation. Cold-path notifications ([`NodeEvent`])
//! and [`Counter`] bumps are buffered inside the [`NodeDriver`] so the
//! runtime can dispatch them to its application layer *after* the node
//! borrow ends, with reusable storage (amortized zero-alloc ping-pong).
//!
//! The driver also owns the one timer contract both runtimes schedule
//! from: after any node activity [`NodeDriver::arm_hint`] says whether a
//! wake must be (re-)armed and for when; the wake calls
//! [`NodeDriver::timer_fired`] and then [`NodeDriver::on_tick`]. The
//! simulator arms simulated timers from it, the reactor a wall-clock
//! deadline heap. `crates/overlay/tests/driver_differential.rs` pins it to
//! a 1 ms `next_deadline() <= now` poll loop over one scripted trace.
//!
//! ## The flush boundary
//!
//! One input event can fan out into a burst of frames — a routed forward
//! plus CTM replies plus linking traffic. The driver coalesces
//! everything a node emits during **one event cycle** (one `start` /
//! `restart` / `on_datagram` / `on_tick` / `send_app` / `with_sink` call)
//! into a reusable [`FrameBatch`] and hands the whole burst to the
//! transport in a single [`Transport::transmit_batch`] call. Emission
//! order is preserved exactly — batching changes *when* the transport sees
//! the frames (end of cycle instead of mid-cycle), never their order or
//! bytes — so runtimes can amortize per-frame costs (syscalls on the UDP
//! path, context borrows in the simulator) without observable effect. The
//! differential test holds the driver's transcript to a bare
//! [`BrunetNode`] emitting frame-at-a-time into the test's own sink.

use bytes::Bytes;

use wow_netsim::addr::PhysAddr;
use wow_netsim::time::SimTime;

use crate::addr::Address;
use crate::conn::ConnType;
use crate::node::BrunetNode;
use crate::telemetry::{Counter, TelemetryCounters};
use crate::uri::TransportUri;

/// An ordered burst of outbound frames accumulated over one event cycle.
///
/// The buffer is owned by the [`NodeDriver`] and reused across cycles
/// (steady state allocates nothing). Frames are stored in emission order;
/// [`Transport::transmit_batch`] implementations must preserve that order
/// per destination (and in practice preserve it globally).
#[derive(Debug, Default)]
pub struct FrameBatch {
    frames: Vec<(PhysAddr, Bytes)>,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    /// Append a frame (kept in emission order).
    #[inline]
    pub fn push(&mut self, to: PhysAddr, frame: Bytes) {
        self.frames.push((to, frame));
    }

    /// Number of buffered frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The buffered frames in emission order (for vectored transmits that
    /// need slice access; pair with [`FrameBatch::clear`]).
    pub fn frames(&self) -> &[(PhysAddr, Bytes)] {
        &self.frames
    }

    /// Remove all frames, keeping the allocation.
    pub fn clear(&mut self) {
        self.frames.clear();
    }

    /// Drain the frames in emission order, keeping the allocation.
    pub fn drain(&mut self) -> impl Iterator<Item = (PhysAddr, Bytes)> + '_ {
        self.frames.drain(..)
    }
}

/// Where outbound frames go: the runtime's wire (simulator context, UDP
/// socket, in-memory pipe, ...).
pub trait Transport {
    /// Transmit one encoded frame to an underlay endpoint. Returns `false`
    /// when the transport failed to hand the frame to the wire (the driver
    /// counts it under [`Counter::SendFailed`]); lossy-by-design wires
    /// (the simulator's WAN) still return `true` — loss there is modelled,
    /// not an emission failure.
    fn transmit(&mut self, to: PhysAddr, frame: Bytes) -> bool;

    /// Transmit one event cycle's burst, leaving the batch empty. Returns
    /// the number of frames that could not be handed to the wire. The
    /// default forwards frame-by-frame, preserving every existing
    /// transport; runtimes override it to amortize per-frame costs
    /// (`sendmmsg` on the UDP path, one context borrow in the simulator).
    fn transmit_batch(&mut self, batch: &mut FrameBatch) -> u64 {
        let mut failed = 0;
        for (to, frame) in batch.drain() {
            if !self.transmit(to, frame) {
                failed += 1;
            }
        }
        failed
    }

    /// Take back the storage of a received datagram the node consumed
    /// rather than forwarded in place (a link frame, a CTM, a local
    /// delivery, a frame that failed to decode or ran out of hops). The
    /// default drops it; a runtime that pools its receive buffers returns
    /// it to the pool if nothing else (a delivered payload) still shares
    /// it.
    fn reclaim(&mut self, _frame: Bytes) {}
}

/// A cold-path notification for the embedding application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeEvent {
    /// A tunnelled application payload arrived.
    Deliver {
        /// Originating overlay address.
        src: Address,
        /// Application protocol discriminator.
        proto: u8,
        /// Payload.
        data: Bytes,
        /// True when this node was the packet's exact destination.
        exact: bool,
    },
    /// A connection gained a role (possibly a brand-new connection).
    Connected {
        /// Peer address.
        peer: Address,
        /// Role added.
        ctype: ConnType,
    },
    /// A connection was lost or fully shed.
    Disconnected {
        /// Peer address.
        peer: Address,
    },
    /// A linking attempt exhausted every URI.
    LinkFailed {
        /// Intended peer.
        peer: Address,
        /// Intended role.
        ctype: ConnType,
    },
}

/// The seam [`BrunetNode`] emits into: frames, events, telemetry.
///
/// Implementations decide what "emitting" means — buffer for the cycle's
/// flush ([`DriverSink`]), or record for inspection (test sinks).
pub trait NodeSink {
    /// Transmit this frame to an underlay endpoint (hot path).
    fn send(&mut self, to: PhysAddr, frame: Bytes);
    /// Report a cold-path notification.
    fn event(&mut self, event: NodeEvent);
    /// Bump a telemetry counter.
    fn count(&mut self, counter: Counter);
    /// Add `n` to a telemetry counter (byte counters on the transit path).
    /// Sinks backed by [`TelemetryCounters`] override this with one indexed
    /// add; the default preserves correctness for ad-hoc sinks.
    fn add_count(&mut self, counter: Counter, n: u64) {
        for _ in 0..n {
            self.count(counter);
        }
    }

    /// Hand back a received datagram's buffer the node is done with
    /// ([`Transport::reclaim`]). Sinks without a transport drop it.
    fn reclaim(&mut self, _frame: Bytes) {}
}

/// The sink a [`NodeDriver`] wires up per call: frames go into the cycle's
/// [`FrameBatch`], events and counters into the driver's buffers, and
/// consumed receive buffers straight back to the transport.
pub struct DriverSink<'a> {
    batch: &'a mut FrameBatch,
    events: &'a mut Vec<NodeEvent>,
    counters: &'a mut TelemetryCounters,
    reclaim: &'a mut dyn FnMut(Bytes),
}

impl NodeSink for DriverSink<'_> {
    #[inline]
    fn send(&mut self, to: PhysAddr, frame: Bytes) {
        self.batch.push(to, frame);
    }

    #[inline]
    fn event(&mut self, event: NodeEvent) {
        self.events.push(event);
    }

    #[inline]
    fn count(&mut self, counter: Counter) {
        self.counters.record(counter);
    }

    #[inline]
    fn add_count(&mut self, counter: Counter, n: u64) {
        self.counters.add(counter, n);
    }

    #[inline]
    fn reclaim(&mut self, frame: Bytes) {
        (self.reclaim)(frame);
    }
}

/// Owns a [`BrunetNode`] plus the event/telemetry buffers and timer
/// bookkeeping that every runtime needs. Runtimes stay thin: translate
/// their wire and clock into `on_datagram` / `on_tick` calls, and drain
/// [`NodeDriver::take_events`] into their application surface.
pub struct NodeDriver {
    node: BrunetNode,
    events: Vec<NodeEvent>,
    spare: Vec<NodeEvent>,
    counters: TelemetryCounters,
    armed: Option<SimTime>,
    batch: FrameBatch,
}

impl NodeDriver {
    /// Wrap a node.
    pub fn new(node: BrunetNode) -> Self {
        NodeDriver {
            node,
            events: Vec::new(),
            spare: Vec::new(),
            counters: TelemetryCounters::new(),
            armed: None,
            batch: FrameBatch::new(),
        }
    }

    /// The driven node (read-only).
    pub fn node(&self) -> &BrunetNode {
        &self.node
    }

    /// The driven node. Mutations that emit effects should go through the
    /// driver entry points instead, so events and telemetry are captured.
    pub fn node_mut(&mut self) -> &mut BrunetNode {
        &mut self.node
    }

    /// Telemetry accumulated over the node's lifetime.
    pub fn counters(&self) -> &TelemetryCounters {
        &self.counters
    }

    // -------------------------------------------------------- node entry --

    /// One event cycle: run `f` against the node with a live sink, then
    /// flush whatever the node emitted as a single batch.
    fn cycle<T: Transport + ?Sized, R>(
        &mut self,
        transport: &mut T,
        f: impl FnOnce(&mut BrunetNode, &mut DriverSink<'_>) -> R,
    ) -> R {
        let mut reclaim = |frame| transport.reclaim(frame);
        let mut sink = DriverSink {
            batch: &mut self.batch,
            events: &mut self.events,
            counters: &mut self.counters,
            reclaim: &mut reclaim,
        };
        let out = f(&mut self.node, &mut sink);
        self.flush_frames(transport);
        out
    }

    /// Flush any frames buffered for the current cycle as one batch.
    ///
    /// Called automatically at the end of every driver entry point; safe
    /// (and a no-op) on an empty batch, so calling it again is idempotent.
    /// Each non-empty flush bumps [`Counter::BatchFlushes`],
    /// [`Counter::BatchFrames`] and the batch-size histogram bucket;
    /// frames the transport reports as unsendable land in
    /// [`Counter::SendFailed`].
    pub fn flush_frames<T: Transport + ?Sized>(&mut self, transport: &mut T) {
        let n = self.batch.len();
        if n == 0 {
            return;
        }
        self.counters.record(Counter::BatchFlushes);
        self.counters.add(Counter::BatchFrames, n as u64);
        self.counters.record(Counter::batch_size_bucket(n));
        let failed = transport.transmit_batch(&mut self.batch);
        // The transport contract says "leave the batch empty"; enforce it
        // so a sloppy implementation cannot replay frames next cycle.
        self.batch.clear();
        if failed > 0 {
            self.counters.add(Counter::SendFailed, failed);
        }
    }

    /// Start the node (see [`BrunetNode::start`]).
    pub fn start<T: Transport + ?Sized>(
        &mut self,
        now: SimTime,
        local_uri: TransportUri,
        bootstrap: Vec<TransportUri>,
        transport: &mut T,
    ) {
        self.cycle(transport, |node, sink| {
            node.start(now, local_uri, bootstrap, sink)
        });
    }

    /// Restart after a migration (see [`BrunetNode::restart`]).
    pub fn restart<T: Transport + ?Sized>(
        &mut self,
        now: SimTime,
        local_uri: TransportUri,
        bootstrap: Vec<TransportUri>,
        transport: &mut T,
    ) {
        self.cycle(transport, |node, sink| {
            node.restart(now, local_uri, bootstrap, sink)
        });
    }

    /// Feed a received datagram.
    pub fn on_datagram<T: Transport + ?Sized>(
        &mut self,
        now: SimTime,
        src: PhysAddr,
        data: Bytes,
        transport: &mut T,
    ) {
        self.cycle(transport, |node, sink| {
            node.on_datagram(now, src, data, sink)
        });
    }

    /// Drive timers up to `now`.
    pub fn on_tick<T: Transport + ?Sized>(&mut self, now: SimTime, transport: &mut T) {
        self.cycle(transport, |node, sink| node.on_tick(now, sink));
    }

    /// Route an application payload.
    pub fn send_app<T: Transport + ?Sized>(
        &mut self,
        now: SimTime,
        dst: Address,
        proto: u8,
        data: Bytes,
        transport: &mut T,
    ) {
        self.cycle(transport, |node, sink| {
            node.send_app(now, dst, proto, data, sink)
        });
    }

    /// Run `f` with the node and a live sink — the escape hatch for callers
    /// that drive node internals not covered by the entry points above
    /// (e.g. the IPOP router pumping batched tunnel traffic). The closure
    /// is one event cycle: everything it emits flushes as one batch when it
    /// returns.
    pub fn with_sink<T: Transport + ?Sized, R>(
        &mut self,
        transport: &mut T,
        f: impl FnOnce(&mut BrunetNode, &mut DriverSink<'_>) -> R,
    ) -> R {
        self.cycle(transport, f)
    }

    // ------------------------------------------------------------ events --

    /// True if any events are waiting to be dispatched.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Take the pending events for dispatch. Pass the vector back through
    /// [`NodeDriver::recycle_events`] when done so its capacity is reused
    /// (the two vectors ping-pong; steady state allocates nothing).
    pub fn take_events(&mut self) -> Vec<NodeEvent> {
        std::mem::replace(&mut self.events, std::mem::take(&mut self.spare))
    }

    /// Return a vector obtained from [`NodeDriver::take_events`].
    pub fn recycle_events(&mut self, mut events: Vec<NodeEvent>) {
        events.clear();
        if events.capacity() > self.spare.capacity() {
            self.spare = events;
        }
    }

    // ------------------------------------------------------------ timers --

    /// The earliest time at which [`NodeDriver::on_tick`] has work to do.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.node.next_deadline()
    }

    /// After any node activity, returns `Some(deadline)` when a (re-)arm
    /// is needed — the caller schedules a timer wake at that instant.
    /// Returns `None` while the currently armed wake still covers the
    /// earliest deadline.
    pub fn arm_hint(&mut self, now: SimTime) -> Option<SimTime> {
        let deadline = self.next_deadline()?;
        let need = match self.armed {
            None => true,
            Some(armed) => deadline < armed || armed <= now,
        };
        if need {
            self.armed = Some(deadline);
            Some(deadline)
        } else {
            None
        }
    }

    /// The scheduled timer wake fired.
    pub fn timer_fired(&mut self) {
        self.armed = None;
    }
}
