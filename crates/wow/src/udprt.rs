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
//! Every socket goes through [`SocketTransport`]: batched egress through
//! the Linux `UDP_SEGMENT` GSO / `sendmmsg(2)` fast paths, and batched
//! ingress through `recvmmsg(2)` into a recycling [`BufPool`] (their FFI is
//! [`crate::os`]'s) — the kernel writes each datagram straight into the
//! uniquely-owned `Bytes` the driver will consume, so the transit fast path
//! can still patch the hop count in place and forward the same allocation.
//! Every buffer goes back to the pool: a forwarded frame's at the egress
//! flush, a consumed one's (link frame, CTM) through [`Transport::reclaim`]
//! once the node has decoded it, and a delivered payload's once the
//! application has been handed a right-sized copy. The steady state
//! allocates no receive buffer at all.
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
use wow_overlay::driver::{FrameBatch, NodeDriver, NodeEvent, Transport};
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
/// A delivered payload is a view into the 64 KiB receive buffer it arrived
/// in. The application gets a copy of exactly the payload's length and the
/// receive buffer goes back to `pool`, so an unread delivery pins its own
/// bytes and nothing more.
pub(crate) fn dispatch_events(
    driver: &mut NodeDriver,
    ev_tx: &Sender<UdpEvent>,
    pool: &mut BufPool,
) {
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
            } => {
                let payload = Bytes::copy_from_slice(&data);
                pool.reclaim(data);
                ev_tx.send(UdpEvent::Deliver {
                    src,
                    proto,
                    data: payload,
                    exact,
                })
            }
            NodeEvent::Connected { peer, ctype } => ev_tx.send(UdpEvent::Connected { peer, ctype }),
            NodeEvent::Disconnected { peer } => ev_tx.send(UdpEvent::Disconnected { peer }),
            NodeEvent::LinkFailed { .. } => Ok(()),
        };
    }
    driver.recycle_events(events);
}

// ------------------------------------------------------------- buf pool --

/// Capacity of each pooled ingress buffer: the largest payload a UDP/IPv4
/// datagram can carry, so `recvmmsg` never truncates.
pub(crate) const RECV_BUF_CAP: usize = 65_536;

/// Most datagrams pulled from the kernel per `recvmmsg` call (sized to the
/// stack scratch arrays in [`crate::os::mmsg`]).
pub(crate) const RECV_BATCH: usize = 32;

/// A small recycling pool of ingress buffers.
///
/// Each buffer is a uniquely-owned `Bytes` backed by [`RECV_BUF_CAP`]
/// bytes of storage. The receive path pops one, lets the kernel write a
/// datagram into it, narrows the view to the datagram length and hands it
/// to the driver — sole ownership included, which is what keeps the
/// decode-free transit path's in-place hop patch alive. Every buffer comes
/// back, and [`bytes::Bytes::try_reclaim`] restores its full view:
///
/// * a forwarded frame's after `transmit_batch` hands it to the kernel;
/// * a consumed datagram's (link frame, CTM, decode error, TTL drop) once
///   the node has decoded or dropped it, through [`Transport::reclaim`];
/// * a locally delivered payload's when the reactor hands the application
///   a right-sized copy (`dispatch_events`).
///
/// So the steady state mints nothing: [`BufPool::minted`] counts the
/// buffers that had to be allocated because none was free.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<Bytes>,
    cap: usize,
    max: usize,
    minted: u64,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::with_shape(RECV_BUF_CAP, 64)
    }
}

impl BufPool {
    /// A pool handing out `cap`-byte buffers, retaining at most `max`.
    pub fn with_shape(cap: usize, max: usize) -> Self {
        BufPool {
            free: Vec::new(),
            cap,
            max,
            minted: 0,
        }
    }

    /// Buffer capacity in bytes.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Buffers currently retained (free), for tests and telemetry.
    pub fn retained(&self) -> usize {
        self.free.len()
    }

    /// Buffers minted (allocated because none was free) since creation.
    pub fn minted(&self) -> u64 {
        self.minted
    }

    /// A uniquely-owned full-capacity buffer, recycled when possible.
    pub fn pop(&mut self) -> Bytes {
        self.free.pop().unwrap_or_else(|| {
            self.minted += 1;
            Bytes::from(vec![0u8; self.cap])
        })
    }

    /// Offer a buffer back. Accepted only when this handle is the sole
    /// owner of a full-capacity storage — anything else (shared, static,
    /// or a node-built frame of another size) is simply dropped.
    pub fn reclaim(&mut self, mut b: Bytes) {
        if self.free.len() < self.max && b.try_reclaim() && b.len() == self.cap {
            self.free.push(b);
        }
    }

    /// A pooled copy of `data`, narrowed to its length (the portable
    /// ingress path; oversized data falls back to a plain allocation).
    pub fn take_copy(&mut self, data: &[u8]) -> Bytes {
        if data.len() > self.cap {
            return Bytes::copy_from_slice(data);
        }
        let mut b = self.pop();
        let storage = b.try_mut().expect("pooled buffer is uniquely owned");
        storage[..data.len()].copy_from_slice(data);
        narrow(&mut b, data.len());
        b
    }
}

/// Narrow a buffer's view to its first `n` bytes (storage untouched).
pub(crate) fn narrow(b: &mut Bytes, n: usize) {
    drop(b.split_off(n));
}

// ------------------------------------------------------------ transport --

/// [`Transport`] adapter over one UDP socket, with an optional shared
/// [`BufPool`] for zero-allocation ingress/egress recycling.
///
/// Outbound bursts flush through the vectored Linux fast paths
/// (`UDP_SEGMENT` GSO for same-destination same-size runs, `sendmmsg(2)`
/// for the rest — see [`crate::os::mmsg`]) with a portable per-frame
/// fallback; send failures are reported to the driver, which counts them
/// under `Counter::SendFailed` instead of silently swallowing them.
/// Inbound bursts arrive through [`SocketTransport::recv_batch`]
/// (`recvmmsg(2)` straight into pooled buffers, portable `recv_from`
/// fallback).
///
/// Public so the benchmark of record's `udprt` kernels (`wow-perf`) can
/// time the batched flush and the batched receive on a real socket;
/// embedders normally never touch it (the runtimes wire it up internally).
pub struct SocketTransport<'a> {
    socket: &'a UdpSocket,
    pool: Option<&'a mut BufPool>,
}

impl<'a> SocketTransport<'a> {
    /// Wrap a bound socket without buffer recycling.
    pub fn new(socket: &'a UdpSocket) -> Self {
        SocketTransport { socket, pool: None }
    }

    /// Wrap a bound socket with a recycling buffer pool: ingress buffers
    /// come from (and forwarded frames return to) `pool`.
    pub fn pooled(socket: &'a UdpSocket, pool: &'a mut BufPool) -> Self {
        SocketTransport {
            socket,
            pool: Some(pool),
        }
    }

    /// Pull up to `max.min(RECV_BATCH)` datagrams from the socket into
    /// `out` as `(source, frame)` pairs, each frame a uniquely-owned
    /// `Bytes`. With `wait`, blocks for the first datagram under the
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
            crate::os::mmsg::recv_batch(self.socket, self.pool.as_deref_mut(), out, max, wait)
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.recv_batch_fallback(out, max, wait)
        }
    }

    /// Portable batched ingress: `recv_from` straight into a pooled
    /// buffer, looped until would-block or `max`. With `wait`, the first
    /// receive honours the socket's blocking mode / read timeout exactly
    /// like `MSG_WAITFORONE`; later receives must not block, so the
    /// fallback stops after the first when the socket is blocking.
    #[cfg(any(test, not(target_os = "linux")))]
    fn recv_batch_fallback(
        &mut self,
        out: &mut Vec<(PhysAddr, Bytes)>,
        max: usize,
        wait: bool,
    ) -> std::io::Result<usize> {
        let mut local = BufPool::with_shape(RECV_BUF_CAP, 0);
        let pool = match self.pool.as_deref_mut() {
            Some(p) => p,
            None => &mut local,
        };
        let mut got = 0usize;
        while got < max.min(RECV_BATCH) {
            let mut b = pool.pop();
            let storage = b.try_mut().expect("pooled buffer is uniquely owned");
            match self.socket.recv_from(storage) {
                Ok((n, src)) => {
                    narrow(&mut b, n);
                    out.push((from_sock(src), b));
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
                    pool.reclaim(b);
                    break;
                }
                Err(e) => {
                    pool.reclaim(b);
                    return Err(e);
                }
            }
        }
        Ok(got)
    }

    /// Portable batch flush: per-frame `send_to` with error counting.
    /// (On Linux the vectored path below is used; tests still exercise
    /// this one to pin the two paths' accounting together.)
    #[cfg(any(test, not(target_os = "linux")))]
    fn transmit_batch_fallback(&mut self, batch: &mut FrameBatch) -> u64 {
        let mut failed = 0;
        for (to, frame) in batch.frames() {
            if self.socket.send_to(frame, to_sock(*to)).is_err() {
                failed += 1;
            }
        }
        self.recycle_batch(batch);
        failed
    }

    /// Drain a flushed batch, returning pooled storage to the pool.
    fn recycle_batch(&mut self, batch: &mut FrameBatch) {
        for (_to, frame) in batch.drain() {
            self.reclaim(frame);
        }
    }
}

impl Transport for SocketTransport<'_> {
    fn transmit(&mut self, to: PhysAddr, frame: Bytes) -> bool {
        let ok = self.socket.send_to(&frame, to_sock(to)).is_ok();
        self.reclaim(frame);
        ok
    }

    fn transmit_batch(&mut self, batch: &mut FrameBatch) -> u64 {
        #[cfg(target_os = "linux")]
        {
            let failed = crate::os::mmsg::transmit_frames(self.socket, batch.frames());
            self.recycle_batch(batch);
            failed
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.transmit_batch_fallback(batch)
        }
    }

    fn reclaim(&mut self, frame: Bytes) {
        if let Some(pool) = self.pool.as_deref_mut() {
            pool.reclaim(frame);
        }
    }
}

pub(crate) fn to_sock(addr: PhysAddr) -> SocketAddr {
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
    use wow_netsim::time::SimTime;
    use wow_overlay::config::OverlayConfig;
    use wow_overlay::node::BrunetNode;
    use wow_overlay::telemetry::Counter;
    use wow_overlay::wire::{Body, Frame, LinkMsg, Packet, RoutedHeader};

    /// A frame no UDP socket can send: over the 65,507-byte datagram
    /// maximum, so `send_to`/`sendmmsg` fail deterministically with
    /// EMSGSIZE. (std cannot close a borrowed socket out from under the
    /// transport, so an unsendable frame is the portable stand-in for a
    /// dead socket.)
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
    fn vectored_and_fallback_flushes_agree() {
        let mk = |dst: PhysAddr| {
            let mut b = FrameBatch::new();
            for i in 0..5u8 {
                b.push(dst, Bytes::from(vec![i; 64]));
            }
            b.push(dst, unsendable());
            b.push(dst, Bytes::from_static(b"tail"));
            b
        };
        let drain = |recv: &UdpSocket, n: usize| -> Vec<Vec<u8>> {
            let mut buf = [0u8; 2048];
            (0..n)
                .map(|_| {
                    let (len, _) = recv.recv_from(&mut buf).expect("delivery");
                    buf[..len].to_vec()
                })
                .collect()
        };
        let (send_a, recv_a, dst_a) = pair();
        let mut ta = SocketTransport::new(&send_a);
        let failed_vectored = ta.transmit_batch(&mut mk(dst_a));
        let got_vectored = drain(&recv_a, 6);

        let (send_b, recv_b, dst_b) = pair();
        let mut tb = SocketTransport::new(&send_b);
        let failed_fallback = tb.transmit_batch_fallback(&mut mk(dst_b));
        let got_fallback = drain(&recv_b, 6);

        assert_eq!(failed_vectored, failed_fallback);
        assert_eq!(
            got_vectored, got_fallback,
            "both flush paths deliver the same frames in order"
        );
    }

    #[test]
    fn long_uniform_burst_arrives_complete_and_in_order() {
        // 150 equal-size frames to one destination: on Linux this exercises
        // the GSO path including chunking past the kernel's 64-segment cap;
        // elsewhere it exercises the fallback. Either way the receiver must
        // see one datagram per frame, in emission order.
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
        // sequences — the ingress mirror of the egress-path pin above.
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

    #[test]
    fn ingress_buffers_recycle_through_the_pool() {
        let (send, recv, dst) = pair();
        let mut pool = BufPool::default();
        // Receive a datagram into a pooled buffer...
        send.send_to(b"ping", to_sock(dst)).expect("send");
        let mut out = Vec::new();
        {
            let mut t = SocketTransport::pooled(&recv, &mut pool);
            assert_eq!(t.recv_batch(&mut out, 1, true).expect("recv"), 1);
        }
        let (_, frame) = out.pop().expect("one datagram");
        assert_eq!(&frame[..], b"ping");
        assert_eq!(pool.retained(), 0, "the buffer is owned by the frame");
        // ...forward it: the egress flush returns the storage to the pool.
        {
            let mut t = SocketTransport::pooled(&send, &mut pool);
            let mut batch = FrameBatch::new();
            batch.push(dst, frame);
            assert_eq!(t.transmit_batch(&mut batch), 0);
        }
        assert_eq!(pool.retained(), 1, "forwarded buffer must be reclaimed");
        // The reclaimed buffer is full-capacity and uniquely owned again.
        let b = pool.pop();
        assert_eq!(b.len(), pool.cap());
        assert_eq!(pool.retained(), 0);
        pool.reclaim(b);
        // Foreign frames (node-built, wrong storage size) are not pooled.
        let mut t = SocketTransport::pooled(&send, &mut pool);
        let mut batch = FrameBatch::new();
        batch.push(dst, Bytes::from(vec![7u8; 64]));
        t.transmit_batch(&mut batch);
        assert_eq!(
            pool.retained(),
            1,
            "foreign storage must not enter the pool"
        );
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
    fn no_consumed_datagram_keeps_pooled_storage() {
        let (send, recv, dst) = pair();
        let me = Address([0x22; 20]);
        let stranger = Address([0x33; 20]);
        let mut driver = started(me, OverlayConfig::default(), &recv);
        let (ev_tx, ev_rx) = crossbeam::channel::unbounded();
        let mut pool = BufPool::default();
        let payload = b"right-sized";
        let app = Frame::Routed(Packet {
            src: stranger,
            dst: me,
            hops: 1,
            ttl: 16,
            edge_forwarded: false,
            body: Body::App {
                proto: 7,
                data: Bytes::from_static(payload),
            },
        });
        let ping = Frame::Link(LinkMsg::Ping {
            from: stranger,
            nonce: 4,
        });
        for (frame, what) in [(app, "delivered App frame"), (ping, "consumed Ping")] {
            send.send_to(&frame.encode(), to_sock(dst)).expect("send");
            let mut out = Vec::new();
            let mut t = SocketTransport::pooled(&recv, &mut pool);
            assert_eq!(t.recv_batch(&mut out, 1, true).expect("recv"), 1);
            let (src, frame) = out.pop().expect("one datagram");
            let before = pool.retained();
            let mut t = SocketTransport::pooled(&recv, &mut pool);
            driver.on_datagram(SimTime::ZERO, src, frame, &mut t);
            dispatch_events(&mut driver, &ev_tx, &mut pool);
            assert_eq!(
                pool.retained(),
                before + 1,
                "the {what}'s receive buffer must go back to the pool"
            );
        }
        let Ok(UdpEvent::Deliver { mut data, .. }) = ev_rx.try_recv() else {
            panic!("the App frame must be delivered");
        };
        assert_eq!(&data[..], payload);
        assert!(data.try_reclaim(), "the delivered payload is its own");
        assert_eq!(
            data.len(),
            payload.len(),
            "a delivery owns storage of its payload's length, not a receive buffer"
        );
    }

    #[test]
    fn steady_ping_and_app_exchange_mints_no_buffers() {
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
        let mut minted_after_first = None;
        for round in 0..40u64 {
            // Simulated time: 5 s a round, so keepalives fall due every
            // few rounds; app traffic every other round.
            let now = SimTime::from_secs(5 * round);
            for i in 0..2 {
                let mut t = SocketTransport::pooled(&socks[i], &mut pool);
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
                    {
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
                    }
                    dispatch_events(&mut drivers[i], &ev_tx, &mut pool);
                }
                if quiet && quiet_once {
                    break;
                }
                quiet_once = quiet;
                if quiet {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            let first = *minted_after_first.get_or_insert(pool.minted());
            assert_eq!(
                pool.minted(),
                first,
                "round {round} minted a receive buffer after the first batch"
            );
        }
        let delivered = std::iter::from_fn(|| ev_rx.try_recv().ok())
            .filter(|ev| matches!(ev, UdpEvent::Deliver { data, .. } if &data[..] == b"steady"))
            .count();
        assert_eq!(delivered, 40, "every app message is delivered");
        assert!(apps >= 40 && pings > 0, "{apps} app frames, {pings} pings");
        assert!(minted_after_first.is_some_and(|m| m > 0));
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
