//! Live runtime: the same overlay state machine over real UDP sockets.
//!
//! Proof that the protocol kernel is not simulator-bound: [`UdpNode`] runs
//! the shared [`NodeDriver`] over a `std::net` UDP socket, translating
//! wall-clock time to the state machine's timestamps. A [`UdpNode`] is a
//! handle onto one slot of a [`Reactor`]
//! ([`crate::reactor::Reactor::spawn_node`]): many drivers multiplexed per
//! shard thread, their timers and ingress scheduled by the shard core
//! ([`crate::shard`]) — one shard for a handful of nodes, several for
//! thousands.
//!
//! Every socket goes through [`SocketTransport`]. Egress is one `send_to`
//! per frame: a live flush carries about one frame, so there is no burst
//! to vectorise. Ingress is still batched, through `recvmmsg(2)` into the
//! fixed slots of the shard's receive arena, [`BufPool`] (its FFI is
//! [`crate::os`]'s). Each datagram leaves the arena as a right-sized,
//! uniquely owned `Bytes` the driver consumes, so the transit fast path
//! can still patch the hop count in place and forward the same
//! allocation, and a consumed or delivered frame frees its own storage.
//! Ingress allocates one frame per datagram and no receive buffer.
//!
//! The control surface is deliberately small: send an application payload,
//! observe deliveries/connections via a crossbeam channel, inspect
//! routability, and shut down.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use wow_netsim::addr::{PhysAddr, PhysIp};
use wow_overlay::addr::Address;
use wow_overlay::conn::{ConnSnapshot, ConnType};
use wow_overlay::driver::{NodeDriver, NodeEvent, Transport};
use wow_overlay::telemetry::TelemetryCounters;
use wow_overlay::uri::TransportUri;

use crate::reactor::{NodeId, Reactor};

/// Events surfaced to the embedding application.
#[derive(Clone, Debug)]
pub enum UdpEvent {
    /// A tunnelled payload arrived.
    Deliver {
        /// Originating overlay address.
        src: Address,
        /// Application protocol discriminator.
        proto: u8,
        /// Payload.
        data: Bytes,
        /// Exact-destination delivery.
        exact: bool,
    },
    /// A connection gained a role.
    Connected {
        /// Peer overlay address.
        peer: Address,
        /// Role.
        ctype: ConnType,
    },
    /// A connection was lost.
    Disconnected {
        /// Peer overlay address.
        peer: Address,
    },
}

/// Shared snapshot readable without disturbing the node's shard. Counters
/// and the connection table are [`UdpNode::view`]'s.
#[derive(Clone, Debug, Default)]
pub struct NodeSnapshot {
    /// Routable = at least one structured-near connection.
    pub routable: bool,
    /// Total connections.
    pub connections: usize,
}

/// An on-demand deep view of a live node, answered by its runtime thread
/// between event cycles (unlike [`NodeSnapshot`], which is a cheap shared
/// summary refreshed opportunistically).
#[derive(Clone, Debug)]
pub struct LiveView {
    /// Identity + full connection table, auditable by [`crate::audit`].
    pub conns: ConnSnapshot,
    /// The transport URIs the node currently advertises (newest observed
    /// address first — the live NAT-expiry test watches this relearn).
    pub uris: Vec<TransportUri>,
    /// The socket address the runtime is actually bound to.
    pub local: PhysAddr,
    /// Telemetry accumulated since the node started.
    pub counters: TelemetryCounters,
}

/// Dispatch the driver's buffered events into the handle's channel.
///
/// A delivered payload is a view into the right-sized frame it arrived in,
/// so an unread delivery pins its own datagram and nothing more.
pub(crate) fn dispatch_events(driver: &mut NodeDriver, ev_tx: &Sender<UdpEvent>) {
    if !driver.has_events() {
        return;
    }
    let mut events = driver.take_events();
    for ev in events.drain(..) {
        let _ = match ev {
            NodeEvent::Deliver {
                src,
                proto,
                data,
                exact,
            } => ev_tx.send(UdpEvent::Deliver {
                src,
                proto,
                data,
                exact,
            }),
            NodeEvent::Connected { peer, ctype } => ev_tx.send(UdpEvent::Connected { peer, ctype }),
            NodeEvent::Disconnected { peer } => ev_tx.send(UdpEvent::Disconnected { peer }),
            NodeEvent::LinkFailed { .. } => Ok(()),
        };
    }
    driver.recycle_events(events);
}

// ------------------------------------------------------------- buf pool --

/// Capacity of each receive slot: the largest payload a UDP/IPv4 datagram
/// can carry, so `recvmmsg` never truncates.
pub(crate) const RECV_BUF_CAP: usize = 65_536;

/// Most datagrams pulled from the kernel per `recvmmsg` call: the receive
/// arena's slot count (and the size of the stack scratch arrays in
/// [`crate::os::mmsg`]).
pub(crate) const RECV_BATCH: usize = 32;

/// A shard's receive arena: [`RECV_BATCH`] fixed [`RECV_BUF_CAP`]-byte
/// slots the kernel writes datagrams into.
///
/// The arena is allocated once, zeroed, on the first receive, so only the
/// pages datagrams are written to become resident. Each received datagram
/// leaves it as a right-sized, uniquely owned `Bytes` copy, which is what
/// keeps the decode-free transit path's in-place hop patch alive: the
/// forwarded frame goes back out in the allocation it arrived in. Nothing
/// is handed back — a consumed or delivered frame frees its own storage.
#[derive(Default)]
pub struct BufPool {
    arena: Vec<u8>,
}

impl BufPool {
    /// The arena's slots, in order.
    pub(crate) fn slots(&mut self) -> std::slice::ChunksExactMut<'_, u8> {
        if self.arena.is_empty() {
            self.arena = vec![0; RECV_BATCH * RECV_BUF_CAP];
        }
        self.arena.chunks_exact_mut(RECV_BUF_CAP)
    }

    /// A right-sized copy of the `len`-byte datagram in slot `i`.
    pub(crate) fn frame(&self, i: usize, len: usize) -> Bytes {
        Bytes::copy_from_slice(&self.arena[i * RECV_BUF_CAP..][..len])
    }

    /// Drop `frame`. Received frames are right-sized copies that free
    /// their own storage, so the arena takes nothing back.
    pub fn reclaim(&mut self, frame: Bytes) {
        drop(frame);
    }
}

thread_local! {
    /// The receive arena of unpooled transports on this thread.
    static UNPOOLED: std::cell::RefCell<BufPool> = std::cell::RefCell::default();
}

// ------------------------------------------------------------ transport --

/// [`Transport`] adapter over one UDP socket, receiving into a shard's
/// [`BufPool`] or, unpooled, into the calling thread's own arena.
///
/// Egress is one `std` `send_to` per frame on every platform: a flush goes
/// through [`Transport::transmit_batch`]'s default, frame by frame in
/// emission order, and each frame the socket refuses is reported to the
/// driver, which counts it under `Counter::SendFailed` instead of silently
/// swallowing it. Ingress is batched: [`SocketTransport::recv_batch`]
/// (`recvmmsg(2)` into the arena's slots, portable `recv_from` fallback),
/// each datagram copied out right-sized.
///
/// Public so the benchmark of record's `udprt` kernels (`wow-perf`) can
/// time the flush and the batched receive on a real socket;
/// embedders normally never touch it (the runtimes wire it up internally).
pub struct SocketTransport<'a> {
    socket: &'a UdpSocket,
    pool: Option<&'a mut BufPool>,
}

impl<'a> SocketTransport<'a> {
    /// Wrap a bound socket; received datagrams pass through the calling
    /// thread's receive arena.
    pub fn new(socket: &'a UdpSocket) -> Self {
        SocketTransport { socket, pool: None }
    }

    /// Wrap a bound socket whose datagrams pass through `pool`'s arena.
    pub fn pooled(socket: &'a UdpSocket, pool: &'a mut BufPool) -> Self {
        SocketTransport {
            socket,
            pool: Some(pool),
        }
    }

    /// Pull up to `max.min(RECV_BATCH)` datagrams from the socket into
    /// `out` as `(source, frame)` pairs, each frame a right-sized, uniquely
    /// owned `Bytes`. With `wait`, blocks for the first datagram under the
    /// socket's read timeout (`MSG_WAITFORONE`); otherwise never blocks.
    /// Returns the number received; would-block and read-timeout become
    /// `Ok(0)`, so an `Err` is always a real socket failure.
    pub fn recv_batch(
        &mut self,
        out: &mut Vec<(PhysAddr, Bytes)>,
        max: usize,
        wait: bool,
    ) -> std::io::Result<usize> {
        #[cfg(target_os = "linux")]
        {
            self.with_pool(|socket, pool| crate::os::mmsg::recv_batch(socket, pool, out, max, wait))
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.recv_batch_fallback(out, max, wait)
        }
    }

    /// Portable batched ingress: `recv_from` into the arena's first slot,
    /// copied out right-sized, looped until would-block or `max`. With
    /// `wait`, the first receive honours the socket's blocking mode / read
    /// timeout exactly like `MSG_WAITFORONE`; later receives must not
    /// block, so the fallback stops after the first when the socket is
    /// blocking.
    #[cfg(any(test, not(target_os = "linux")))]
    fn recv_batch_fallback(
        &mut self,
        out: &mut Vec<(PhysAddr, Bytes)>,
        max: usize,
        wait: bool,
    ) -> std::io::Result<usize> {
        self.with_pool(|socket, pool| {
            let mut got = 0usize;
            while got < max.min(RECV_BATCH) {
                let slot = pool.slots().next().expect("the arena has slots");
                match socket.recv_from(slot) {
                    Ok((n, src)) => {
                        out.push((from_sock(src), pool.frame(0, n)));
                        got += 1;
                        // A blocking socket would stall the next call: one
                        // datagram per wait-mode call is the contract here.
                        if wait {
                            break;
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        break
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(got)
        })
    }

    /// Run `f` over the socket and the arena this transport receives into.
    fn with_pool<R>(&mut self, f: impl FnOnce(&UdpSocket, &mut BufPool) -> R) -> R {
        match self.pool.as_deref_mut() {
            Some(pool) => f(self.socket, pool),
            None => UNPOOLED.with_borrow_mut(|pool| f(self.socket, pool)),
        }
    }
}

impl Transport for SocketTransport<'_> {
    fn transmit(&mut self, to: PhysAddr, frame: Bytes) -> bool {
        self.socket.send_to(&frame, to_sock(to)).is_ok()
    }
}

fn to_sock(addr: PhysAddr) -> SocketAddr {
    let [a, b, c, d] = addr.ip.octets();
    SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::new(a, b, c, d), addr.port))
}

pub(crate) fn from_sock(addr: SocketAddr) -> PhysAddr {
    match addr {
        SocketAddr::V4(v4) => {
            let o = v4.ip().octets();
            PhysAddr::new(PhysIp::new(o[0], o[1], o[2], o[3]), v4.port())
        }
        SocketAddr::V6(_) => PhysAddr::new(PhysIp::new(0, 0, 0, 0), addr.port()),
    }
}

// ------------------------------------------------------------ the node --

/// A Brunet node running over a real UDP socket, multiplexed onto a shared
/// [`Reactor`] ([`Reactor::spawn_node`]). The handle holds a reactor clone
/// so the loop (and its threads) outlive every node spawned onto it — the
/// last handle out joins the reactor threads.
pub struct UdpNode {
    pub(crate) addr: Address,
    pub(crate) local: PhysAddr,
    pub(crate) events: Receiver<UdpEvent>,
    pub(crate) snapshot: Arc<Mutex<NodeSnapshot>>,
    pub(crate) reactor: Reactor,
    pub(crate) id: NodeId,
}

impl UdpNode {
    /// The node's overlay address.
    pub fn address(&self) -> Address {
        self.addr
    }

    /// The originally bound socket address, as a bootstrap URI for other
    /// nodes. (A node that was [`UdpNode::rebind`]ed lives at the address
    /// that call returned instead — exactly the stale-URI situation the
    /// NAT-expiry resilience test exercises.)
    pub fn uri(&self) -> TransportUri {
        TransportUri::udp(self.local)
    }

    /// Route an application payload.
    pub fn send_app(&self, dst: Address, proto: u8, data: Bytes) {
        self.reactor.send_app(self.id, dst, proto, data);
    }

    /// The event channel.
    pub fn events(&self) -> &Receiver<UdpEvent> {
        &self.events
    }

    /// A point-in-time snapshot of the node's state.
    pub fn snapshot(&self) -> NodeSnapshot {
        self.snapshot.lock().clone()
    }

    /// A deep on-demand view (full connection table, advertised URIs,
    /// counters), answered by the node's runtime between event cycles.
    /// `None` once the runtime is gone.
    pub fn view(&self) -> Option<LiveView> {
        self.reactor.view(self.id)
    }

    /// Move the node's socket to a fresh ephemeral port *without telling
    /// the node* — the live analogue of a NAT mapping expiry: peers keep
    /// sending to the dead port while the node's advertised URI goes
    /// stale, until stabilization's observed-address echo re-teaches it.
    /// Returns the new underlay address.
    pub fn rebind(&self) -> std::io::Result<PhysAddr> {
        self.reactor.rebind(self.id)
    }

    /// Block until the node is routable or the timeout expires.
    pub fn wait_routable(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.snapshot().routable {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    /// Stop the node: deregisters its slot and socket from the shared loop,
    /// which keeps running for every other node (the reactor threads
    /// themselves are joined when the last handle onto the reactor drops).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for UdpNode {
    fn drop(&mut self) {
        self.reactor.deregister(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wow_netsim::addr::PhysIp;
    use wow_netsim::time::SimTime;
    use wow_overlay::config::OverlayConfig;
    use wow_overlay::driver::FrameBatch;
    use wow_overlay::node::BrunetNode;
    use wow_overlay::telemetry::Counter;
    use wow_overlay::wire::{Body, Frame, LinkMsg, Packet, RoutedHeader};

    /// A frame no UDP socket can send: over the 65,507-byte datagram
    /// maximum, so `send_to` fails deterministically with EMSGSIZE. (std
    /// cannot close a borrowed socket out from under the transport, so an
    /// unsendable frame is the portable stand-in for a dead socket.)
    fn unsendable() -> Bytes {
        Bytes::from(vec![0u8; 70_000])
    }

    fn pair() -> (UdpSocket, UdpSocket, PhysAddr) {
        let recv = UdpSocket::bind("127.0.0.1:0").expect("bind receiver");
        recv.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let dst = from_sock(recv.local_addr().expect("addr"));
        let send = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        (send, recv, dst)
    }

    #[test]
    fn batch_flush_skips_failed_frame_and_keeps_successors_in_order() {
        let (send, recv, dst) = pair();
        let mut transport = SocketTransport::new(&send);
        let mut batch = FrameBatch::new();
        batch.push(dst, Bytes::from_static(b"one"));
        batch.push(dst, unsendable());
        batch.push(dst, Bytes::from_static(b"three"));
        let failed = transport.transmit_batch(&mut batch);
        assert_eq!(failed, 1, "exactly the oversized frame fails");
        assert!(batch.is_empty(), "flush must drain the batch");
        let mut buf = [0u8; 2048];
        let (n, _) = recv.recv_from(&mut buf).expect("first survivor");
        assert_eq!(&buf[..n], b"one");
        let (n, _) = recv.recv_from(&mut buf).expect("second survivor");
        assert_eq!(
            &buf[..n],
            b"three",
            "a mid-batch failure must not reorder successors"
        );
    }

    #[test]
    fn long_uniform_burst_arrives_complete_and_in_order() {
        // 150 equal-size frames to one destination: the receiver must see
        // one datagram per frame, in emission order.
        let (send, recv, dst) = pair();
        let mut transport = SocketTransport::new(&send);
        let mut batch = FrameBatch::new();
        for i in 0..150u8 {
            batch.push(dst, Bytes::from(vec![i; 100]));
        }
        assert_eq!(transport.transmit_batch(&mut batch), 0);
        let mut buf = [0u8; 2048];
        for i in 0..150u8 {
            let (n, _) = recv.recv_from(&mut buf).expect("delivery");
            assert_eq!(n, 100, "frame {i} arrived with the wrong size");
            assert_eq!(buf[0], i, "frame {i} arrived out of order");
        }
    }

    #[test]
    fn send_failures_land_in_telemetry_through_the_batch_path() {
        let (send, _recv, dst) = pair();
        let mut driver = NodeDriver::new(BrunetNode::new(
            Address([0x11; 20]),
            OverlayConfig::default(),
            1,
        ));
        let mut transport = SocketTransport::new(&send);
        driver.with_sink(&mut transport, |_node, sink| {
            use wow_overlay::driver::NodeSink;
            sink.send(dst, Bytes::from_static(b"fits"));
            sink.send(dst, unsendable());
            sink.send(dst, Bytes::from_static(b"also fits"));
        });
        let counters = driver.counters();
        assert_eq!(counters.get(Counter::SendFailed), 1);
        assert_eq!(counters.get(Counter::BatchFlushes), 1);
        assert_eq!(counters.get(Counter::BatchFrames), 3);
        assert_eq!(counters.get(Counter::BatchSize3To4), 1);
    }

    #[test]
    fn batched_and_fallback_ingress_agree() {
        // The same burst through the recvmmsg path and the portable
        // recv_from fallback must produce identical (source, frame)
        // sequences.
        let payloads: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 50 + i as usize]).collect();
        let run = |batched: bool| -> Vec<(PhysAddr, Vec<u8>)> {
            let (send, recv, dst) = pair();
            recv.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            for p in &payloads {
                send.send_to(p, to_sock(dst)).expect("send");
            }
            // Give loopback a beat so every datagram is queued.
            std::thread::sleep(Duration::from_millis(50));
            let mut pool = BufPool::default();
            let mut t = SocketTransport::pooled(&recv, &mut pool);
            let mut out = Vec::new();
            while out.len() < payloads.len() {
                let got = if batched {
                    t.recv_batch(&mut out, 4, true).expect("recv")
                } else {
                    t.recv_batch_fallback(&mut out, 4, true).expect("recv")
                };
                assert!(got > 0, "queued datagrams must be received");
            }
            out.into_iter().map(|(src, b)| (src, b.to_vec())).collect()
        };
        let batched = run(true);
        let fallback = run(false);
        assert_eq!(batched.len(), payloads.len());
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(&batched[i].1, p, "datagram {i} must arrive in order");
        }
        assert_eq!(
            batched.iter().map(|(_, b)| b).collect::<Vec<_>>(),
            fallback.iter().map(|(_, b)| b).collect::<Vec<_>>(),
            "both ingress paths deliver the same frames in order"
        );
    }

    /// Every frame in `out` owns storage of exactly its datagram's length.
    fn assert_right_sized(out: &mut [(PhysAddr, Bytes)], lens: &[usize], path: &str) {
        let got: Vec<usize> = out
            .iter_mut()
            .map(|(_, frame)| {
                assert!(frame.try_reclaim(), "{path}: a frame owns its storage");
                frame.len()
            })
            .collect();
        assert_eq!(got, lens, "{path}: storage is exactly the datagram");
    }

    #[test]
    fn received_frames_own_exactly_their_datagram() {
        let lens = [1usize, 50, 1200, 9000];
        let (send, recv, dst) = pair();
        let mut pool = BufPool::default();
        let burst = |path: &str, t: &mut SocketTransport<'_>, fallback: bool| {
            for &n in &lens {
                send.send_to(&vec![7u8; n], to_sock(dst)).expect("send");
            }
            let mut out = Vec::new();
            while out.len() < lens.len() {
                let got = match fallback {
                    true => t.recv_batch_fallback(&mut out, RECV_BATCH, true),
                    false => t.recv_batch(&mut out, RECV_BATCH, true),
                };
                assert!(got.expect("recv") > 0, "{path}: queued datagrams arrive");
            }
            assert_right_sized(&mut out, &lens, path);
        };
        burst(
            "recvmmsg",
            &mut SocketTransport::pooled(&recv, &mut pool),
            false,
        );
        burst(
            "fallback",
            &mut SocketTransport::pooled(&recv, &mut pool),
            true,
        );
        // Unpooled transports share their thread's arena, allocated once.
        let arena = || UNPOOLED.with_borrow(|p| (p.arena.as_ptr(), p.arena.len()));
        burst("unpooled", &mut SocketTransport::new(&recv), false);
        let first = arena();
        assert_eq!(first.1, RECV_BATCH * RECV_BUF_CAP, "the thread's arena");
        burst("unpooled again", &mut SocketTransport::new(&recv), false);
        assert_eq!(arena(), first, "an unpooled receive reuses the arena");
        // A delivered payload pins its own datagram and nothing more.
        let me = Address([0x22; 20]);
        let mut driver = started(me, OverlayConfig::default(), &recv);
        let app = app_frame(Address([0x33; 20]), me, b"right-sized");
        send.send_to(&app, to_sock(dst)).expect("send");
        let mut out = Vec::new();
        let mut t = SocketTransport::pooled(&recv, &mut pool);
        assert_eq!(t.recv_batch(&mut out, 1, true).expect("recv"), 1);
        let (src, frame) = out.pop().expect("one datagram");
        driver.on_datagram(SimTime::ZERO, src, frame, &mut t);
        let (ev_tx, ev_rx) = crossbeam::channel::unbounded();
        dispatch_events(&mut driver, &ev_tx);
        let Ok(UdpEvent::Deliver { mut data, .. }) = ev_rx.try_recv() else {
            panic!("the App frame must be delivered");
        };
        assert_eq!(&data[..], b"right-sized");
        assert!(data.try_reclaim(), "the delivery is the frame's last owner");
        assert_eq!(data.len(), app.len(), "a delivery pins only its frame");
    }

    /// An encoded App frame from `src` to `dst`, one hop in.
    fn app_frame(src: Address, dst: Address, payload: &'static [u8]) -> Bytes {
        Frame::Routed(Packet {
            src,
            dst,
            hops: 1,
            ttl: 16,
            edge_forwarded: false,
            body: Body::App {
                proto: 7,
                data: Bytes::from_static(payload),
            },
        })
        .encode()
    }

    /// A transport that keeps what it is handed.
    #[derive(Default)]
    struct Recorder(Vec<(PhysAddr, Bytes)>);

    impl Transport for Recorder {
        fn transmit(&mut self, to: PhysAddr, frame: Bytes) -> bool {
            self.0.push((to, frame));
            true
        }
    }

    #[test]
    fn a_transit_frame_leaves_in_the_allocation_it_arrived_in() {
        let (send, recv, dst) = pair();
        let (me, next) = (Address([0x22; 20]), Address([0x44; 20]));
        let next_phys = PhysAddr::new(PhysIp::new(127, 0, 0, 1), 9);
        let mut driver = started(me, OverlayConfig::default(), &recv);
        let node = driver.node_mut();
        node.seed_connection(SimTime::ZERO, next, ConnType::StructuredNear, next_phys);
        let frame = app_frame(Address([0x33; 20]), next, b"in transit");
        send.send_to(&frame, to_sock(dst)).expect("send");
        let mut pool = BufPool::default();
        let mut out = Vec::new();
        let mut t = SocketTransport::pooled(&recv, &mut pool);
        assert_eq!(t.recv_batch(&mut out, 1, true).expect("recv"), 1);
        let (src, arrived) = out.pop().expect("one datagram");
        let storage = arrived.as_ptr();
        let mut sent = Recorder::default();
        driver.on_datagram(SimTime::ZERO, src, arrived, &mut sent);
        let [(to, forwarded)] = &sent.0[..] else {
            panic!("one forward expected, got {}", sent.0.len());
        };
        assert_eq!(*to, next_phys);
        assert_eq!(RoutedHeader::peek(forwarded).expect("routed").hops, 2);
        assert_eq!(forwarded.as_ptr(), storage, "forwarded in place");
        assert_eq!(driver.counters().get(Counter::TransitFastPath), 1);
    }

    /// A started node on `socket`, bootstrapping from nobody.
    fn started(addr: Address, cfg: OverlayConfig, socket: &UdpSocket) -> NodeDriver {
        let mut driver = NodeDriver::new(BrunetNode::new(addr, cfg, 1));
        let uri = TransportUri::udp(from_sock(socket.local_addr().expect("addr")));
        let mut transport = SocketTransport::new(socket);
        driver.start(SimTime::ZERO, uri, Vec::new(), &mut transport);
        driver
    }

    #[test]
    fn steady_ping_and_app_exchange_allocates_the_arena_once() {
        let socks = [0, 1].map(|_| {
            let s = UdpSocket::bind("127.0.0.1:0").expect("bind");
            s.set_nonblocking(true).expect("nonblocking");
            s
        });
        let addrs = [Address([0x44; 20]), Address([0xcc; 20])];
        let locals = socks
            .each_ref()
            .map(|s| from_sock(s.local_addr().expect("addr")));
        // Stabilization slowed down so it does not stand in for the
        // keepalives: a node pings a peer it has not heard from lately.
        let cfg = OverlayConfig {
            stabilize_interval: wow_netsim::time::SimDuration::from_secs(60),
            ..OverlayConfig::default()
        };
        let mut drivers = [0, 1].map(|i| started(addrs[i], cfg.clone(), &socks[i]));
        for i in 0..2 {
            let peer = (addrs[1 - i], locals[1 - i]);
            drivers[i].node_mut().seed_connection(
                SimTime::ZERO,
                peer.0,
                ConnType::StructuredNear,
                peer.1,
            );
        }
        let mut pool = BufPool::default();
        let (ev_tx, ev_rx) = crossbeam::channel::unbounded();
        let (mut pings, mut apps) = (0u64, 0u64);
        let mut arena = None;
        for round in 0..40u64 {
            // Simulated time: 5 s a round, so keepalives fall due every
            // few rounds; app traffic every other round.
            let now = SimTime::from_secs(5 * round);
            for i in 0..2 {
                let mut t = SocketTransport::new(&socks[i]);
                drivers[i].on_tick(now, &mut t);
                if round % 2 == 0 {
                    let data = Bytes::from_static(b"steady");
                    drivers[i].send_app(now, addrs[1 - i], 7, data, &mut t);
                }
            }
            // Pump both sockets until neither has anything queued, the
            // way a shard drains a ready node: a batch in, then its events.
            // Quiet twice, a moment apart, ends the round, so a datagram
            // still in the loopback path is not left for the next one.
            let mut out = Vec::new();
            let mut quiet_once = false;
            loop {
                let mut quiet = true;
                for i in 0..2 {
                    let mut t = SocketTransport::pooled(&socks[i], &mut pool);
                    t.recv_batch(&mut out, RECV_BATCH, false).expect("recv");
                    for (src, frame) in out.drain(..) {
                        quiet = false;
                        if RoutedHeader::peek(&frame).is_ok() {
                            apps += 1;
                        } else if matches!(
                            Frame::decode(frame.clone()),
                            Ok(Frame::Link(LinkMsg::Ping { .. }))
                        ) {
                            pings += 1;
                        }
                        drivers[i].on_datagram(now, src, frame, &mut t);
                    }
                    dispatch_events(&mut drivers[i], &ev_tx);
                }
                if quiet && quiet_once {
                    break;
                }
                quiet_once = quiet;
                if quiet {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            let first = *arena.get_or_insert(pool.arena.as_ptr());
            assert_eq!(pool.arena.as_ptr(), first, "round {round} moved the arena");
            assert_eq!(pool.arena.len(), RECV_BATCH * RECV_BUF_CAP);
        }
        let delivered = std::iter::from_fn(|| ev_rx.try_recv().ok())
            .filter(|ev| matches!(ev, UdpEvent::Deliver { data, .. } if &data[..] == b"steady"))
            .count();
        assert_eq!(delivered, 40, "every app message is delivered");
        assert!(apps >= 40 && pings > 0, "{apps} app frames, {pings} pings");
    }

    /// A fast-converging config for wall-clock tests.
    fn quick() -> OverlayConfig {
        OverlayConfig {
            link_rto: wow_netsim::time::SimDuration::from_millis(200),
            stabilize_interval: wow_netsim::time::SimDuration::from_millis(300),
            far_check_interval: wow_netsim::time::SimDuration::from_millis(500),
            join_retry: wow_netsim::time::SimDuration::from_millis(800),
            ..OverlayConfig::default()
        }
    }

    #[test]
    fn loopback_ring_forms_and_routes() {
        let mut rng = SmallRng::seed_from_u64(42);
        let reactor = Reactor::new(1).expect("start reactor");
        let first = reactor
            .spawn_node(Address::random(&mut rng), quick(), 0, Vec::new(), 1)
            .expect("bind first node");
        let bootstrap = vec![first.uri()];
        let mut others = Vec::new();
        for i in 0..3 {
            others.push(
                reactor
                    .spawn_node(
                        Address::random(&mut rng),
                        quick(),
                        0,
                        bootstrap.clone(),
                        2 + i,
                    )
                    .expect("bind node"),
            );
        }
        for (i, n) in others.iter().enumerate() {
            assert!(
                n.wait_routable(Duration::from_secs(10)),
                "node {i} did not become routable over real UDP"
            );
        }
        // The deep view is answered by the shard between event cycles.
        let last = others.last().expect("nonempty");
        let view = last.view().expect("live node answers");
        assert_eq!(view.conns.addr, last.address());
        assert!(!view.conns.table.is_empty(), "routable implies connections");
        assert!(view.uris.contains(&last.uri()));
        // Route a payload from the last node to the first.
        last.send_app(first.address(), 9, Bytes::from_static(b"over real sockets"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while Instant::now() < deadline {
            if let Ok(UdpEvent::Deliver { data, exact, .. }) =
                first.events().recv_timeout(Duration::from_millis(200))
            {
                assert_eq!(&data[..], b"over real sockets");
                assert!(exact);
                delivered = true;
                break;
            }
        }
        assert!(delivered, "payload must arrive over loopback UDP");
        for n in others {
            n.shutdown();
        }
        first.shutdown();
    }
}
