//! The user-level TCP/IP endpoint of a virtual workstation.
//!
//! [`NetStack`] is the part of a WOW node that, in the paper's deployment,
//! was the guest kernel's network stack: it owns the node's virtual IP,
//! answers pings, and exposes UDP and TCP sockets to the middleware that
//! runs on the workstation (PBS, NFS, PVM, SCP analogues). Like every
//! protocol component in this workspace it is sans-IO: IP packets go in via
//! [`NetStack::on_ip`], come out via [`NetStack::take_packets`], and
//! everything observable surfaces as [`StackEvent`]s.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wow_netsim::time::SimTime;

use crate::icmp::IcmpMessage;
use crate::ip::{put_ipv4_header, IpProto, Ipv4Packet, VirtIp, DEFAULT_TTL, IPV4_HEADER_LEN};
#[allow(unused_imports)]
use crate::tcp::MSS;
use crate::tcp::{TcpConfig, TcpConn, TcpEvent, TcpSegment, TcpState};
use crate::udp::UdpDatagram;

/// Identifier for a TCP socket within one stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub u64);

/// Something the stack wants the application layer to know.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StackEvent {
    /// An ICMP echo reply arrived.
    PingReply {
        /// Replying host.
        from: VirtIp,
        /// Echoed identifier.
        ident: u16,
        /// Echoed sequence number.
        seq: u16,
    },
    /// A UDP datagram arrived on a bound port.
    UdpIn {
        /// Sender address.
        from: VirtIp,
        /// Sender port.
        src_port: u16,
        /// Local (bound) port.
        dst_port: u16,
        /// Payload.
        data: Bytes,
    },
    /// A listener accepted a new connection.
    TcpAccepted {
        /// The listening port.
        listener: u16,
        /// The new socket.
        sock: SocketId,
        /// Peer address and port.
        from: (VirtIp, u16),
    },
    /// An active open completed.
    TcpConnected {
        /// The socket.
        sock: SocketId,
    },
    /// In-order data is available to read.
    TcpReadable {
        /// The socket.
        sock: SocketId,
    },
    /// Send-buffer space re-opened after a full condition.
    TcpWritable {
        /// The socket.
        sock: SocketId,
    },
    /// The peer finished sending.
    TcpPeerClosed {
        /// The socket.
        sock: SocketId,
    },
    /// Fully closed (graceful).
    TcpClosed {
        /// The socket.
        sock: SocketId,
    },
    /// Reset, timed out, or otherwise dead.
    TcpAborted {
        /// The socket.
        sock: SocketId,
    },
}

struct ConnEntry {
    conn: TcpConn,
    remote: (VirtIp, u16),
    local_port: u16,
    /// Set once Closed/Aborted has been emitted; entry is then reaped.
    finished: bool,
}

/// Stack-level counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackStats {
    /// Packets that arrived for an address other than ours (nearest-
    /// delivery strays; the virtual NIC drops them, as the paper's tap
    /// device would).
    pub wrong_destination: u64,
    /// Packets dropped for having no matching socket/listener.
    pub no_socket: u64,
    /// Malformed packets.
    pub parse_errors: u64,
}

/// A user-level TCP/IP endpoint bound to one virtual IP.
pub struct NetStack {
    ip: VirtIp,
    tcp_cfg: TcpConfig,
    udp_bound: Vec<u16>,
    tcp_listeners: Vec<u16>,
    /// Ordered by socket id: timers fire, and emit their segments, in
    /// socket order — that order is simulation input.
    conns: BTreeMap<SocketId, ConnEntry>,
    by_tuple: HashMap<(u16, VirtIp, u16), SocketId>,
    next_sock: u64,
    next_ephemeral: u16,
    next_ident: u16,
    rng: SmallRng,
    /// Outbound packets, wire-encoded as they are emitted, each with the
    /// destination the tunnel resolves.
    out: Vec<(VirtIp, Bytes)>,
    events: Vec<StackEvent>,
    /// Counters.
    pub stats: StackStats,
}

impl NetStack {
    /// A stack bound to `ip`.
    pub fn new(ip: VirtIp, tcp_cfg: TcpConfig, seed: u64) -> Self {
        NetStack {
            ip,
            tcp_cfg,
            udp_bound: Vec::new(),
            tcp_listeners: Vec::new(),
            conns: BTreeMap::new(),
            by_tuple: HashMap::new(),
            next_sock: 1,
            next_ephemeral: 32_768,
            next_ident: 1,
            rng: SmallRng::seed_from_u64(seed),
            out: Vec::new(),
            events: Vec::new(),
            stats: StackStats::default(),
        }
    }

    /// This stack's virtual IP.
    pub fn ip(&self) -> VirtIp {
        self.ip
    }

    /// Drain outbound IP packets, decoded (for code that shuttles packets
    /// between stacks by hand; the tunnel takes [`NetStack::drain_wire`]).
    pub fn take_packets(&mut self) -> Vec<Ipv4Packet> {
        self.out
            .drain(..)
            .map(|(_, wire)| Ipv4Packet::decode(wire).expect("the stack's own encoding"))
            .collect()
    }

    /// Drain outbound IP packets as (destination, wire bytes), ready to be
    /// tunnelled. The queue keeps its allocation.
    pub fn drain_wire(&mut self) -> std::vec::Drain<'_, (VirtIp, Bytes)> {
        self.out.drain(..)
    }

    /// Drain application events.
    pub fn take_events(&mut self) -> Vec<StackEvent> {
        std::mem::take(&mut self.events)
    }

    /// Move pending application events onto the end of `into`; both
    /// vectors keep their allocations (the per-packet form of
    /// [`NetStack::take_events`]).
    pub fn drain_events_into(&mut self, into: &mut Vec<StackEvent>) {
        into.append(&mut self.events);
    }

    /// The earliest pending timer among all connections.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.conns
            .values()
            .filter_map(|e| e.conn.next_deadline())
            .min()
    }

    /// Drive connection timers.
    pub fn on_tick(&mut self, now: SimTime) {
        // In socket order, resuming after the last socket visited, since
        // draining needs the whole stack.
        let mut after = Bound::Unbounded;
        while let Some((&sock, e)) = self.conns.range_mut((after, Bound::Unbounded)).next() {
            e.conn.on_tick(now);
            self.drain_conn(sock);
            after = Bound::Excluded(sock);
        }
        self.reap();
    }

    // ------------------------------------------------------------- ICMP --

    /// Send an ICMP echo request.
    pub fn ping(&mut self, dst: VirtIp, ident: u16, seq: u16, payload: Bytes) {
        let msg = IcmpMessage::EchoRequest {
            ident,
            seq,
            payload,
        };
        self.emit_ip(dst, IpProto::Icmp, msg.encode());
    }

    // -------------------------------------------------------------- UDP --

    /// Bind a UDP port (idempotent).
    pub fn udp_bind(&mut self, port: u16) {
        if !self.udp_bound.contains(&port) {
            self.udp_bound.push(port);
        }
    }

    /// Release a UDP port.
    pub fn udp_unbind(&mut self, port: u16) {
        self.udp_bound.retain(|&p| p != port);
    }

    /// Send a UDP datagram.
    pub fn udp_send(&mut self, dst: VirtIp, dst_port: u16, src_port: u16, data: Bytes) {
        let d = UdpDatagram {
            src_port,
            dst_port,
            payload: data,
        };
        self.emit_ip(dst, IpProto::Udp, d.encode());
    }

    // -------------------------------------------------------------- TCP --

    /// Listen on a TCP port (idempotent).
    pub fn tcp_listen(&mut self, port: u16) {
        if !self.tcp_listeners.contains(&port) {
            self.tcp_listeners.push(port);
        }
    }

    /// Stop listening.
    pub fn tcp_unlisten(&mut self, port: u16) {
        self.tcp_listeners.retain(|&p| p != port);
    }

    /// Open a connection to `dst:port`; returns the socket id. The
    /// [`StackEvent::TcpConnected`] event signals completion.
    pub fn tcp_connect(&mut self, now: SimTime, dst: VirtIp, port: u16) -> SocketId {
        let local_port = self.alloc_ephemeral(dst, port);
        let iss: u32 = self.rng.gen();
        let conn = TcpConn::connect(now, local_port, port, iss, self.tcp_cfg.clone());
        let sock = SocketId(self.next_sock);
        self.next_sock += 1;
        self.by_tuple.insert((local_port, dst, port), sock);
        self.conns.insert(
            sock,
            ConnEntry {
                conn,
                remote: (dst, port),
                local_port,
                finished: false,
            },
        );
        self.drain_conn(sock);
        sock
    }

    /// Write data; returns bytes accepted (0 when the buffer is full or the
    /// socket is closed — wait for [`StackEvent::TcpWritable`]).
    pub fn tcp_write(&mut self, now: SimTime, sock: SocketId, data: &[u8]) -> usize {
        let n = match self.conns.get_mut(&sock) {
            Some(e) => e.conn.write(now, data),
            None => 0,
        };
        self.drain_conn(sock);
        n
    }

    /// Read up to `max` bytes.
    pub fn tcp_read(&mut self, now: SimTime, sock: SocketId, max: usize) -> Bytes {
        let data = match self.conns.get_mut(&sock) {
            Some(e) => e.conn.read(now, max),
            None => Bytes::new(),
        };
        self.drain_conn(sock);
        data
    }

    /// Bytes currently readable.
    pub fn tcp_readable(&self, sock: SocketId) -> usize {
        self.conns.get(&sock).map_or(0, |e| e.conn.readable())
    }

    /// Send-buffer space available.
    pub fn tcp_send_space(&self, sock: SocketId) -> usize {
        self.conns.get(&sock).map_or(0, |e| e.conn.send_space())
    }

    /// Peer closed and everything has been read.
    pub fn tcp_at_eof(&self, sock: SocketId) -> bool {
        self.conns.get(&sock).is_some_and(|e| e.conn.at_eof())
    }

    /// Congestion diagnostics for a socket (see [`TcpConn::diag`]).
    pub fn tcp_diag(
        &self,
        sock: SocketId,
    ) -> Option<(f64, f64, wow_netsim::time::SimDuration, Option<f64>, usize)> {
        self.conns.get(&sock).map(|e| e.conn.diag())
    }

    /// Connection state (Closed for unknown sockets).
    pub fn tcp_state(&self, sock: SocketId) -> TcpState {
        self.conns
            .get(&sock)
            .map_or(TcpState::Closed, |e| e.conn.state())
    }

    /// Graceful close.
    pub fn tcp_close(&mut self, now: SimTime, sock: SocketId) {
        if let Some(e) = self.conns.get_mut(&sock) {
            e.conn.close(now);
        }
        self.drain_conn(sock);
    }

    /// Hard abort (RST).
    pub fn tcp_abort(&mut self, sock: SocketId) {
        if let Some(e) = self.conns.get_mut(&sock) {
            e.conn.abort();
        }
        self.drain_conn(sock);
        self.reap();
    }

    // --------------------------------------------------------- ingress --

    /// Feed one IP packet from the tunnel.
    pub fn on_ip(&mut self, now: SimTime, pkt: Ipv4Packet) {
        if pkt.dst != self.ip {
            self.stats.wrong_destination += 1;
            return;
        }
        match pkt.proto {
            IpProto::Icmp => match IcmpMessage::decode(pkt.payload.clone()) {
                Ok(IcmpMessage::EchoRequest {
                    ident,
                    seq,
                    payload,
                }) => {
                    let reply = IcmpMessage::EchoReply {
                        ident,
                        seq,
                        payload,
                    };
                    self.emit_ip(pkt.src, IpProto::Icmp, reply.encode());
                }
                Ok(IcmpMessage::EchoReply { ident, seq, .. }) => {
                    self.events.push(StackEvent::PingReply {
                        from: pkt.src,
                        ident,
                        seq,
                    });
                }
                Err(_) => self.stats.parse_errors += 1,
            },
            IpProto::Udp => match UdpDatagram::decode(pkt.payload.clone()) {
                Ok(d) => {
                    if self.udp_bound.contains(&d.dst_port) {
                        self.events.push(StackEvent::UdpIn {
                            from: pkt.src,
                            src_port: d.src_port,
                            dst_port: d.dst_port,
                            data: d.payload,
                        });
                    } else {
                        self.stats.no_socket += 1;
                    }
                }
                Err(_) => self.stats.parse_errors += 1,
            },
            IpProto::Tcp => match TcpSegment::decode(pkt.payload.clone()) {
                Ok(seg) => self.on_tcp_segment(now, pkt.src, seg),
                Err(_) => self.stats.parse_errors += 1,
            },
        }
    }

    fn on_tcp_segment(&mut self, now: SimTime, from: VirtIp, seg: TcpSegment) {
        let tuple = (seg.dst_port, from, seg.src_port);
        if let Some(&sock) = self.by_tuple.get(&tuple) {
            if let Some(e) = self.conns.get_mut(&sock) {
                e.conn.on_segment(now, seg);
            }
            self.drain_conn(sock);
            self.reap();
            return;
        }
        if seg.flags.syn && !seg.flags.ack && self.tcp_listeners.contains(&seg.dst_port) {
            let iss: u32 = self.rng.gen();
            let conn = TcpConn::accept(
                now,
                seg.dst_port,
                seg.src_port,
                iss,
                &seg,
                self.tcp_cfg.clone(),
            );
            let sock = SocketId(self.next_sock);
            self.next_sock += 1;
            self.by_tuple.insert(tuple, sock);
            self.conns.insert(
                sock,
                ConnEntry {
                    conn,
                    remote: (from, seg.src_port),
                    local_port: seg.dst_port,
                    finished: false,
                },
            );
            self.events.push(StackEvent::TcpAccepted {
                listener: seg.dst_port,
                sock,
                from: (from, seg.src_port),
            });
            self.drain_conn(sock);
            return;
        }
        // No socket: answer non-RST segments with RST.
        self.stats.no_socket += 1;
        if !seg.flags.rst {
            let rst = TcpSegment {
                src_port: seg.dst_port,
                dst_port: seg.src_port,
                seq: seg.ack,
                ack: seg
                    .seq
                    .wrapping_add(seg.payload.len() as u32 + seg.flags.syn as u32),
                flags: crate::tcp::TcpFlags {
                    rst: true,
                    ack: true,
                    ..Default::default()
                },
                window: 0,
                payload: Bytes::new(),
            };
            self.emit_ip(from, IpProto::Tcp, rst.encode());
        }
    }

    // --------------------------------------------------------- internal --

    fn alloc_ephemeral(&mut self, dst: VirtIp, port: u16) -> u16 {
        loop {
            let p = self.next_ephemeral;
            self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(32_768);
            if !self.by_tuple.contains_key(&(p, dst, port)) && !self.tcp_listeners.contains(&p) {
                return p;
            }
        }
    }

    fn emit_ip(&mut self, dst: VirtIp, proto: IpProto, payload: Bytes) {
        let mut pkt = Ipv4Packet::new(self.ip, dst, proto, payload);
        pkt.ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1);
        self.out.push((dst, pkt.encode()));
    }

    /// Move a connection's queued segments into IP output and translate its
    /// events. Each segment is encoded once, IP header and all, into the
    /// buffer the tunnel will send.
    fn drain_conn(&mut self, sock: SocketId) {
        let Some(e) = self.conns.get_mut(&sock) else {
            return;
        };
        let (dst, _) = e.remote;
        for seg in e.conn.drain_output() {
            let mut buf = BytesMut::with_capacity(IPV4_HEADER_LEN + seg.wire_len());
            put_ipv4_header(
                &mut buf,
                self.ip,
                dst,
                IpProto::Tcp,
                DEFAULT_TTL,
                self.next_ident,
                seg.wire_len(),
            );
            self.next_ident = self.next_ident.wrapping_add(1);
            seg.put(&mut buf);
            self.out.push((dst, buf.freeze()));
        }
        for ev in e.conn.drain_events() {
            let mapped = match ev {
                TcpEvent::Connected => StackEvent::TcpConnected { sock },
                TcpEvent::DataReadable => StackEvent::TcpReadable { sock },
                TcpEvent::Writable => StackEvent::TcpWritable { sock },
                TcpEvent::PeerClosed => StackEvent::TcpPeerClosed { sock },
                TcpEvent::Closed => {
                    e.finished = true;
                    StackEvent::TcpClosed { sock }
                }
                TcpEvent::Aborted => {
                    e.finished = true;
                    StackEvent::TcpAborted { sock }
                }
            };
            self.events.push(mapped);
        }
    }

    /// Remove finished connections whose buffers have been drained.
    fn reap(&mut self) {
        let by_tuple = &mut self.by_tuple;
        self.conns.retain(|_, e| {
            let dead = e.finished && e.conn.readable() == 0;
            if dead {
                by_tuple.remove(&(e.local_port, e.remote.0, e.remote.1));
            }
            !dead
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn pair() -> (NetStack, NetStack) {
        (
            NetStack::new(VirtIp::testbed(2), TcpConfig::default(), 1),
            NetStack::new(VirtIp::testbed(3), TcpConfig::default(), 2),
        )
    }

    /// Shuttle IP packets between two stacks until quiescent.
    fn pump(now: SimTime, a: &mut NetStack, b: &mut NetStack) {
        loop {
            let a_out = a.take_packets();
            let b_out = b.take_packets();
            if a_out.is_empty() && b_out.is_empty() {
                break;
            }
            for p in a_out {
                b.on_ip(now, p);
            }
            for p in b_out {
                a.on_ip(now, p);
            }
        }
    }

    #[test]
    fn timer_retransmits_leave_in_socket_order() {
        let (mut a, b) = pair();
        for _ in 0..16 {
            a.tcp_connect(T0, b.ip(), 80);
        }
        assert_eq!(a.take_packets().len(), 16, "first SYNs, all lost");
        a.on_tick(SimTime::from_secs(2));
        let src_ports: Vec<u16> = a
            .take_packets()
            .iter()
            .map(|p| u16::from_be_bytes([p.payload[0], p.payload[1]]))
            .collect();
        assert_eq!(src_ports, (32_768..32_784).collect::<Vec<u16>>());
    }

    #[test]
    fn ping_echo() {
        let (mut a, mut b) = pair();
        a.ping(b.ip(), 7, 1, Bytes::from_static(b"payload"));
        pump(T0, &mut a, &mut b);
        assert_eq!(
            a.take_events(),
            vec![StackEvent::PingReply {
                from: VirtIp::testbed(3),
                ident: 7,
                seq: 1,
            }]
        );
    }

    #[test]
    fn udp_delivery_and_unbound_drop() {
        let (mut a, mut b) = pair();
        b.udp_bind(2049);
        a.udp_send(b.ip(), 2049, 999, Bytes::from_static(b"rpc"));
        a.udp_send(b.ip(), 53, 999, Bytes::from_static(b"dropped"));
        pump(T0, &mut a, &mut b);
        let evs = b.take_events();
        assert_eq!(evs.len(), 1);
        assert!(
            matches!(&evs[0], StackEvent::UdpIn { dst_port: 2049, data, .. }
            if &data[..] == b"rpc")
        );
        assert_eq!(b.stats.no_socket, 1);
    }

    #[test]
    fn tcp_connect_accept_exchange_close() {
        let (mut a, mut b) = pair();
        b.tcp_listen(80);
        let client = a.tcp_connect(T0, b.ip(), 80);
        pump(T0, &mut a, &mut b);
        let b_evs = b.take_events();
        let server = b_evs
            .iter()
            .find_map(|e| match e {
                StackEvent::TcpAccepted { sock, .. } => Some(*sock),
                _ => None,
            })
            .expect("accept event");
        assert!(a
            .take_events()
            .contains(&StackEvent::TcpConnected { sock: client }));
        // Request/response.
        assert!(a.tcp_write(T0, client, b"GET /") > 0);
        pump(T0, &mut a, &mut b);
        assert_eq!(&b.tcp_read(T0, server, 64)[..], b"GET /");
        assert!(b.tcp_write(T0, server, b"200 OK") > 0);
        pump(T0, &mut a, &mut b);
        assert_eq!(&a.tcp_read(T0, client, 64)[..], b"200 OK");
        // Close both ways.
        a.tcp_close(T0, client);
        pump(T0, &mut a, &mut b);
        assert!(b
            .take_events()
            .contains(&StackEvent::TcpPeerClosed { sock: server }));
        b.tcp_close(T0, server);
        pump(T0, &mut a, &mut b);
        assert_eq!(b.tcp_state(server), TcpState::Closed);
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let (mut a, mut b) = pair();
        let client = a.tcp_connect(T0, b.ip(), 81); // nobody listening
        pump(T0, &mut a, &mut b);
        assert!(a
            .take_events()
            .contains(&StackEvent::TcpAborted { sock: client }));
        assert_eq!(a.tcp_state(client), TcpState::Closed);
    }

    #[test]
    fn wire_and_decoded_output_agree() {
        // Same traffic out of two identical stacks: one drained as wire
        // bytes (what the tunnel sends), one as decoded packets.
        let (mut a, _) = pair();
        let (mut b, peer) = pair();
        for s in [&mut a, &mut b] {
            s.ping(peer.ip(), 7, 1, Bytes::from_static(b"payload"));
            s.udp_send(peer.ip(), 2049, 999, Bytes::from_static(b"rpc"));
            s.tcp_connect(T0, peer.ip(), 80);
        }
        let wire: Vec<(VirtIp, Bytes)> = a.drain_wire().collect();
        let decoded = b.take_packets();
        assert_eq!(wire.len(), 3);
        for ((dst, bytes), pkt) in wire.iter().zip(&decoded) {
            assert_eq!(*dst, pkt.dst);
            assert_eq!(*bytes, pkt.encode());
        }
        // The TCP SYN, encoded in one pass, is what the two-step encoding
        // of the same segment gives.
        let syn = TcpSegment::decode(decoded[2].payload.clone()).unwrap();
        assert!(syn.flags.syn);
        assert_eq!(decoded[2].payload, syn.encode());
    }

    #[test]
    fn wrong_destination_dropped() {
        let (mut a, mut b) = pair();
        a.ping(VirtIp::testbed(99), 1, 1, Bytes::new());
        for p in a.take_packets() {
            b.on_ip(T0, p); // b is .3, packet is for .99
        }
        assert_eq!(b.stats.wrong_destination, 1);
        assert!(b.take_events().is_empty());
    }

    #[test]
    fn bulk_transfer_through_stacks() {
        let (mut a, mut b) = pair();
        b.tcp_listen(5001);
        let client = a.tcp_connect(T0, b.ip(), 5001);
        pump(T0, &mut a, &mut b);
        let server = b
            .take_events()
            .iter()
            .find_map(|e| match e {
                StackEvent::TcpAccepted { sock, .. } => Some(*sock),
                _ => None,
            })
            .expect("accepted");
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        let mut t = T0;
        let mut rounds = 0;
        while got.len() < data.len() {
            rounds += 1;
            assert!(rounds < 10_000, "transfer stalled at {} bytes", got.len());
            t += wow_netsim::time::SimDuration::from_millis(5);
            if sent < data.len() {
                sent += a.tcp_write(t, client, &data[sent..]);
            }
            pump(t, &mut a, &mut b);
            let chunk = b.tcp_read(t, server, usize::MAX);
            got.extend_from_slice(&chunk[..]);
            a.on_tick(t);
            b.on_tick(t);
        }
        assert_eq!(got, data);
    }

    #[test]
    fn two_connections_demux_independently() {
        let (mut a, mut b) = pair();
        b.tcp_listen(80);
        let c1 = a.tcp_connect(T0, b.ip(), 80);
        let c2 = a.tcp_connect(T0, b.ip(), 80);
        pump(T0, &mut a, &mut b);
        let socks: Vec<SocketId> = b
            .take_events()
            .iter()
            .filter_map(|e| match e {
                StackEvent::TcpAccepted { sock, .. } => Some(*sock),
                _ => None,
            })
            .collect();
        assert_eq!(socks.len(), 2);
        a.tcp_write(T0, c1, b"one");
        a.tcp_write(T0, c2, b"two");
        pump(T0, &mut a, &mut b);
        let r1 = b.tcp_read(T0, socks[0], 16);
        let r2 = b.tcp_read(T0, socks[1], 16);
        let mut got = [r1, r2];
        got.sort();
        assert_eq!(&got[0][..], b"one");
        assert_eq!(&got[1][..], b"two");
    }
}
