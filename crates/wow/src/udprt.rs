//! Live runtime: the same overlay state machine over real UDP sockets.
//!
//! Proof that the protocol kernel is not simulator-bound: [`UdpNode`] runs
//! the shared [`NodeDriver`] over a `std::net` UDP socket, translating
//! wall-clock time to the state machine's timestamps. A [`UdpNode`] is a
//! handle onto one slot of a [`Reactor`]
//! ([`crate::reactor::Reactor::spawn_node`]): many drivers multiplexed per
//! shard thread over an epoll loop with deadline-armed timers and
//! `recvmmsg(2)` batched ingress — one shard for a handful of nodes,
//! several for thousands.
//!
//! Every socket goes through [`SocketTransport`]: batched egress through
//! the Linux `UDP_SEGMENT` GSO / `sendmmsg(2)` fast paths (PR 3), and batched
//! ingress through `recvmmsg(2)` into a recycling [`BufPool`] — the kernel
//! writes each datagram straight into the uniquely-owned `Bytes` the
//! driver will consume, so the transit fast path can still patch the hop
//! count in place and forward the same allocation. Buffers whose frames
//! are forwarded come back to the pool at the egress flush; steady-state
//! forwarding allocates nothing on the receive path.
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

/// Shared snapshot readable without disturbing the node's shard.
#[derive(Clone, Debug, Default)]
pub struct NodeSnapshot {
    /// Routable = at least one structured-near connection.
    pub routable: bool,
    /// Total connections.
    pub connections: usize,
    /// Direct-link peers.
    pub peers: Vec<Address>,
    /// Telemetry accumulated since the node started.
    pub counters: TelemetryCounters,
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

pub(crate) fn live_view(driver: &NodeDriver, local: PhysAddr) -> LiveView {
    LiveView {
        conns: driver.node().conn_snapshot(),
        uris: driver.node().advertised_uris(),
        local,
        counters: *driver.counters(),
    }
}

/// Dispatch the driver's buffered events into the handle's channel.
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

/// Refresh the shared [`NodeSnapshot`] from the driver.
pub(crate) fn publish_snapshot(driver: &NodeDriver, snap: &Mutex<NodeSnapshot>) {
    let node = driver.node();
    let mut s = snap.lock();
    s.routable = node.is_routable();
    s.connections = node.conns().len();
    s.peers.clear();
    s.peers.extend(node.conns().iter().map(|c| c.peer));
    s.counters = *driver.counters();
}

// ------------------------------------------------------------- buf pool --

/// Capacity of each pooled ingress buffer: the largest payload a UDP/IPv4
/// datagram can carry, so `recvmmsg` never truncates.
const RECV_BUF_CAP: usize = 65_536;

/// Most datagrams pulled from the kernel per `recvmmsg` call (sized to the
/// stack scratch arrays in [`mmsg`]).
pub(crate) const RECV_BATCH: usize = 32;

/// A small recycling pool of ingress buffers.
///
/// Each buffer is a uniquely-owned `Bytes` backed by [`RECV_BUF_CAP`]
/// bytes of storage. The receive path pops one, lets the kernel write a
/// datagram into it, narrows the view to the datagram length and hands it
/// to the driver — sole ownership included, which is what keeps the
/// decode-free transit path's in-place hop patch alive. Buffers return at
/// the egress flush: after `transmit_batch` hands a forwarded frame to the
/// kernel, the frame's storage is unique again and
/// [`bytes::Bytes::try_reclaim`] restores the full view for reuse. A
/// datagram the node consumes (ping, local delivery) dies inside the
/// cycle instead; its buffer is replaced lazily by [`BufPool::pop`] — so
/// the *forwarding* steady state allocates nothing, while consumed
/// traffic costs one pool refill each.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<Bytes>,
    cap: usize,
    max: usize,
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

    /// A uniquely-owned full-capacity buffer, recycled when possible.
    pub fn pop(&mut self) -> Bytes {
        self.free
            .pop()
            .unwrap_or_else(|| Bytes::from(vec![0u8; self.cap]))
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
fn narrow(b: &mut Bytes, n: usize) {
    drop(b.split_off(n));
}

// ------------------------------------------------------------ transport --

/// [`Transport`] adapter over one UDP socket, with an optional shared
/// [`BufPool`] for zero-allocation ingress/egress recycling.
///
/// Outbound bursts flush through the vectored Linux fast paths
/// (`UDP_SEGMENT` GSO for same-destination same-size runs, `sendmmsg(2)`
/// for the rest — see [`mmsg`]) with a portable per-frame fallback; send
/// failures are reported to the driver, which counts them under
/// `Counter::SendFailed` instead of silently swallowing them. Inbound
/// bursts arrive through [`SocketTransport::recv_batch`] (`recvmmsg(2)`
/// straight into pooled buffers, portable `recv_from` fallback).
///
/// Public so the `batch` benchmark can measure the vectored flush against
/// the per-frame loop on a real socket; embedders normally never touch it
/// (the runtimes wire it up internally).
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
            mmsg::recv_batch(self.socket, self.pool.as_deref_mut(), out, max, wait)
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
        match self.pool.as_deref_mut() {
            Some(pool) => {
                for (_to, frame) in batch.drain() {
                    pool.reclaim(frame);
                }
            }
            None => batch.clear(),
        }
    }
}

impl Transport for SocketTransport<'_> {
    fn transmit(&mut self, to: PhysAddr, frame: Bytes) -> bool {
        let ok = self.socket.send_to(&frame, to_sock(to)).is_ok();
        if let Some(pool) = self.pool.as_deref_mut() {
            pool.reclaim(frame);
        }
        ok
    }

    fn transmit_batch(&mut self, batch: &mut FrameBatch) -> u64 {
        #[cfg(target_os = "linux")]
        {
            let failed = mmsg::transmit_frames(self.socket, batch.frames());
            self.recycle_batch(batch);
            failed
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.transmit_batch_fallback(batch)
        }
    }
}

/// Vectored UDP transmit and receive. On egress, two kernel fast paths are
/// picked per run of the batch while preserving global emission order:
///
/// * **GSO** — a run of ≥ 2 consecutive frames to the same destination
///   with the same length goes out as one `sendmsg(2)` carrying a
///   `UDP_SEGMENT` control message: the kernel traverses the stack once
///   and segments into per-frame datagrams at the bottom (the relay-burst
///   and keepalive-sweep regime — this is where the batch wins big);
/// * **`sendmmsg(2)`** — everything else is coalesced into multi-message
///   syscalls, one message per frame (mixed sizes/destinations).
///
/// On ingress, `recvmmsg(2)` fills up to [`RECV_BATCH`] pooled buffers per
/// syscall, the kernel writing each datagram directly into the `Bytes`
/// storage the driver will own.
///
/// The declarations are raw FFI against the C library std already links
/// (this workspace vendors no `libc` crate). Any frame or run the kernel
/// rejects is retried frame-by-frame through the portable path, so errors
/// stay attributed per frame and never stall the frames behind them.
#[cfg(target_os = "linux")]
mod mmsg {
    use std::ffi::c_void;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    use bytes::Bytes;

    use wow_netsim::addr::{PhysAddr, PhysIp};

    use super::{narrow, to_sock, BufPool, RECV_BATCH};

    const AF_INET: u16 = 2;
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_WAITFORONE: i32 = 0x10000;
    const MSG_TRUNC: i32 = 0x20;
    /// Kernel cap on segments per GSO send (UDP_MAX_SEGMENTS).
    const MAX_GSO_SEGS: usize = 64;
    /// Largest UDP payload one sendmsg can carry (IPv4 datagram limit).
    const MAX_UDP_PAYLOAD: usize = 65_507;

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        /// Network byte order.
        sin_port: u16,
        /// Network byte order (stored via native-endian `from_ne_bytes` of
        /// the dotted octets, which *is* the wire layout).
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    #[repr(C)]
    struct IoVec {
        iov_base: *mut c_void,
        iov_len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut c_void,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut c_void,
        msg_controllen: usize,
        msg_flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: u32,
    }

    /// A `cmsghdr` followed by its (padded) payload — exactly the layout
    /// `CMSG_SPACE(sizeof(u16))` describes on 64-bit Linux.
    #[repr(C, align(8))]
    struct CmsgU16 {
        cmsg_len: usize,
        cmsg_level: i32,
        cmsg_type: i32,
        data: [u8; 8],
    }

    extern "C" {
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut c_void,
        ) -> i32;
    }

    fn sockaddr(to: PhysAddr) -> SockaddrIn {
        SockaddrIn {
            sin_family: AF_INET,
            sin_port: to.port.to_be(),
            sin_addr: u32::from_ne_bytes(to.ip.octets()),
            sin_zero: [0; 8],
        }
    }

    /// Pull up to `max.min(RECV_BATCH)` datagrams in one `recvmmsg(2)`,
    /// the kernel writing each straight into a pooled buffer. All scratch
    /// is on the stack; the only storage touched is the pool's.
    pub fn recv_batch(
        socket: &UdpSocket,
        pool: Option<&mut BufPool>,
        out: &mut Vec<(PhysAddr, Bytes)>,
        max: usize,
        wait: bool,
    ) -> std::io::Result<usize> {
        let want = max.min(RECV_BATCH);
        if want == 0 {
            return Ok(0);
        }
        let mut local = BufPool::with_shape(super::RECV_BUF_CAP, 0);
        let pool = pool.unwrap_or(&mut local);

        let mut bufs: [Option<Bytes>; RECV_BATCH] = std::array::from_fn(|_| None);
        // SAFETY: SockaddrIn, IoVec and MMsgHdr are plain-old-data repr(C)
        // structs for which all-zero bytes are a valid value.
        let mut addrs: [SockaddrIn; RECV_BATCH] = unsafe { std::mem::zeroed() };
        let mut iovs: [IoVec; RECV_BATCH] = unsafe { std::mem::zeroed() };
        let mut msgs: [MMsgHdr; RECV_BATCH] = unsafe { std::mem::zeroed() };
        for i in 0..want {
            let mut b = pool.pop();
            let storage = b.try_mut().expect("pooled buffer is uniquely owned");
            iovs[i] = IoVec {
                iov_base: storage.as_mut_ptr() as *mut c_void,
                iov_len: storage.len(),
            };
            bufs[i] = Some(b);
            msgs[i].msg_hdr = MsgHdr {
                msg_name: &mut addrs[i] as *mut SockaddrIn as *mut c_void,
                msg_namelen: std::mem::size_of::<SockaddrIn>() as u32,
                msg_iov: &mut iovs[i],
                msg_iovlen: 1,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            };
        }
        let flags = if wait { MSG_WAITFORONE } else { MSG_DONTWAIT };
        // SAFETY: msgs[..want] point at live stack scratch (addrs, iovs)
        // and pool-owned buffer storage, all outliving the call; the Arc
        // storage behind each `Bytes` is heap-pinned, so moving the
        // handles around `bufs` never moves the bytes the iovecs target.
        let ret = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                msgs.as_mut_ptr(),
                want as u32,
                flags,
                std::ptr::null_mut(),
            )
        };
        if ret < 0 {
            let err = std::io::Error::last_os_error();
            for b in bufs.iter_mut().take(want) {
                pool.reclaim(b.take().expect("primed above"));
            }
            return match err.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Ok(0),
                _ => Err(err),
            };
        }
        let got = ret as usize;
        let mut pushed = 0usize;
        for (i, b) in bufs.iter_mut().enumerate().take(want) {
            let b = b.take().expect("primed above");
            if i >= got {
                pool.reclaim(b);
                continue;
            }
            // A truncated datagram exceeded RECV_BUF_CAP — impossible for
            // real UDP/IPv4 payloads, so drop the mangled bytes.
            if msgs[i].msg_hdr.msg_flags & MSG_TRUNC != 0 {
                pool.reclaim(b);
                continue;
            }
            let mut frame = b;
            narrow(&mut frame, msgs[i].msg_len as usize);
            let a = &addrs[i];
            let o = a.sin_addr.to_ne_bytes();
            let src = PhysAddr::new(
                PhysIp::new(o[0], o[1], o[2], o[3]),
                u16::from_be(a.sin_port),
            );
            out.push((src, frame));
            pushed += 1;
        }
        Ok(pushed)
    }

    /// Flush the whole batch, returning the number of frames the kernel
    /// refused. The caller drains/recycles the slice afterwards.
    pub fn transmit_frames(socket: &UdpSocket, frames: &[(PhysAddr, Bytes)]) -> u64 {
        let n = frames.len();
        if n == 0 {
            return 0;
        }
        let fd = socket.as_raw_fd();
        let mut failed = 0u64;
        // Walk the batch in emission order, splitting it into maximal
        // GSO-eligible runs and the stretches between them. Sending each
        // piece as it is found keeps the global order intact.
        let mut i = 0usize;
        let mut plain_from = 0usize; // start of the pending non-GSO stretch
        while i < n {
            let (to, first) = &frames[i];
            let seg = first.len();
            let mut j = i + 1;
            if seg > 0 {
                while j < n
                    && j - i < MAX_GSO_SEGS
                    && (j - i + 1) * seg <= MAX_UDP_PAYLOAD
                    && frames[j].0 == *to
                    && frames[j].1.len() == seg
                {
                    j += 1;
                }
            }
            if j - i >= 2 {
                failed += send_plain(fd, socket, &frames[plain_from..i]);
                failed += send_gso(fd, socket, &frames[i..j], *to, seg);
                plain_from = j;
            }
            i = j;
        }
        failed += send_plain(fd, socket, &frames[plain_from..n]);
        failed
    }

    /// One `sendmsg` for a same-destination, same-length run: the iovec
    /// carries the frames back to back and `UDP_SEGMENT` tells the kernel
    /// to cut the stream into `seg`-byte datagrams — one wire datagram per
    /// frame, identical to sending them individually.
    fn send_gso(
        fd: i32,
        socket: &UdpSocket,
        run: &[(PhysAddr, Bytes)],
        to: PhysAddr,
        seg: usize,
    ) -> u64 {
        let mut addr = sockaddr(to);
        let mut iovs: Vec<IoVec> = run
            .iter()
            .map(|(_, frame)| IoVec {
                // sendmsg never writes through the iovec; the cast is the
                // C API's signature, not a mutation.
                iov_base: frame.as_ptr() as *mut c_void,
                iov_len: frame.len(),
            })
            .collect();
        let mut cmsg = CmsgU16 {
            // CMSG_LEN(sizeof(u16)): header (16 bytes on 64-bit) + payload.
            cmsg_len: 16 + 2,
            cmsg_level: SOL_UDP,
            cmsg_type: UDP_SEGMENT,
            data: [0; 8],
        };
        cmsg.data[..2].copy_from_slice(&(seg as u16).to_ne_bytes());
        let msg = MsgHdr {
            msg_name: &mut addr as *mut SockaddrIn as *mut c_void,
            msg_namelen: std::mem::size_of::<SockaddrIn>() as u32,
            msg_iov: iovs.as_mut_ptr(),
            msg_iovlen: iovs.len(),
            msg_control: &mut cmsg as *mut CmsgU16 as *mut c_void,
            msg_controllen: std::mem::size_of::<CmsgU16>(),
            msg_flags: 0,
        };
        // SAFETY: every pointer in `msg` references a live local (addr,
        // iovs, cmsg) or the borrowed frames, all outliving the call.
        let ret = unsafe { sendmsg(fd, &msg, 0) };
        if ret >= 0 {
            return 0;
        }
        // The kernel refused the run (no GSO support, oversized, ...):
        // retry frame by frame so failures are attributed individually.
        let mut failed = 0;
        for (to, frame) in run {
            if socket.send_to(frame, to_sock(*to)).is_err() {
                failed += 1;
            }
        }
        failed
    }

    /// `sendmmsg` for a stretch of mixed frames, one message per frame.
    fn send_plain(fd: i32, socket: &UdpSocket, frames: &[(PhysAddr, Bytes)]) -> u64 {
        let n = frames.len();
        if n == 0 {
            return 0;
        }
        let mut addrs: Vec<SockaddrIn> = frames.iter().map(|(to, _)| sockaddr(*to)).collect();
        let mut iovs: Vec<IoVec> = frames
            .iter()
            .map(|(_, frame)| IoVec {
                iov_base: frame.as_ptr() as *mut c_void,
                iov_len: frame.len(),
            })
            .collect();
        let addrs_ptr = addrs.as_mut_ptr();
        let iovs_ptr = iovs.as_mut_ptr();
        let mut msgs: Vec<MMsgHdr> = (0..n)
            .map(|i| MMsgHdr {
                msg_hdr: MsgHdr {
                    // SAFETY: i < n == addrs.len() == iovs.len(); the Vecs
                    // outlive every use of these pointers below.
                    msg_name: unsafe { addrs_ptr.add(i) } as *mut c_void,
                    msg_namelen: std::mem::size_of::<SockaddrIn>() as u32,
                    msg_iov: unsafe { iovs_ptr.add(i) },
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            })
            .collect();

        let mut failed = 0u64;
        let mut i = 0usize;
        while i < n {
            // SAFETY: msgs[i..] points at n-i valid headers whose name/iov
            // pointers reference live allocations (addrs, iovs, frames).
            let ret = unsafe { sendmmsg(fd, msgs.as_mut_ptr().add(i), (n - i) as u32, 0) };
            if ret > 0 {
                i += ret as usize;
            } else {
                // The i-th message failed outright. Retry it alone through
                // std so the error is observed per frame, then move on to
                // its successors — a mid-batch failure must never stall or
                // reorder the frames behind it.
                let (to, frame) = &frames[i];
                if socket.send_to(frame, to_sock(*to)).is_err() {
                    failed += 1;
                }
                i += 1;
            }
        }
        failed
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
    use wow_overlay::config::OverlayConfig;
    use wow_overlay::node::BrunetNode;
    use wow_overlay::telemetry::Counter;

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
