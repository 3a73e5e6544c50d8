//! IPOP glue: tunnel virtual IP packets over the overlay.
//!
//! The IPOP router is the piece that made the paper's VMs believe they were
//! on a LAN: it picks IPv4 packets off the virtual NIC, resolves the
//! destination virtual IP to a P2P address, and ships the packet as overlay
//! application data; inbound, it injects tunnelled packets back into the
//! stack. Resolution is *stateless* — the overlay address is derived
//! deterministically from (namespace, virtual IP) — which is exactly what
//! lets a migrated VM keep its ring position: same virtual IP, same
//! address, wherever its packets now enter the physical network.

use bytes::Bytes;

use wow_netsim::time::SimTime;
use wow_overlay::addr::Address;
use wow_overlay::driver::NodeSink;
use wow_overlay::node::BrunetNode;

use crate::ip::{IpProto, Ipv4Packet, VirtIp};
use crate::stack::NetStack;

/// Overlay application-protocol discriminator for tunnelled IPv4.
pub const PROTO_IPOP: u8 = 4;

/// Counters for one IPOP router.
#[derive(Clone, Copy, Debug, Default)]
pub struct IpopStats {
    /// IP packets sent into the tunnel.
    pub tunnelled_out: u64,
    /// IP packets received from the tunnel and handed to the stack.
    pub tunnelled_in: u64,
    /// Tunnelled payloads that failed to parse as IPv4.
    pub parse_errors: u64,
    /// Packets that arrived via nearest-delivery for an address we do not
    /// own (their true owner is absent from the ring); dropped.
    pub stray: u64,
}

/// Stateless virtual-IP → overlay-address resolution.
pub fn address_for(namespace: &str, ip: VirtIp) -> Address {
    let mut key = Vec::with_capacity(namespace.len() + 1 + 15);
    key.extend_from_slice(namespace.as_bytes());
    key.push(b'|');
    key.extend_from_slice(ip.to_string().as_bytes());
    Address::from_seed_bytes(&key)
}

/// Slots in a router's resolution memo: a direct-mapped table keyed by the
/// low bits of the destination IP, so a /24's hosts spread evenly and a
/// colliding destination simply overwrites. This is the memo's hard cap:
/// 16 entries (about 400 bytes) per router, however many destinations it
/// talks to.
pub const MEMO_SLOTS: usize = 16;

/// The IPOP router of one virtual workstation.
#[derive(Debug)]
pub struct IpopRouter {
    namespace: String,
    /// Recently resolved destinations. Resolution is a pure function of
    /// (namespace, IP), so an entry never goes stale; the memo only spares
    /// a flow re-hashing the same destination for every packet.
    memo: [Option<(VirtIp, Address)>; MEMO_SLOTS],
    /// Counters.
    pub stats: IpopStats,
}

impl IpopRouter {
    /// A router for the given IPOP namespace (one namespace = one virtual
    /// network).
    pub fn new(namespace: impl Into<String>) -> Self {
        IpopRouter {
            namespace: namespace.into(),
            memo: [None; MEMO_SLOTS],
            stats: IpopStats::default(),
        }
    }

    /// The namespace string.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// The overlay address a node with virtual IP `ip` must use.
    pub fn overlay_address(&self, ip: VirtIp) -> Address {
        address_for(&self.namespace, ip)
    }

    /// [`IpopRouter::overlay_address`] through the memo.
    fn resolve(&mut self, ip: VirtIp) -> Address {
        let slot = ip.to_u32() as usize % MEMO_SLOTS;
        match self.memo[slot] {
            Some((cached, addr)) if cached == ip => addr,
            _ => {
                let addr = self.overlay_address(ip);
                self.memo[slot] = Some((ip, addr));
                addr
            }
        }
    }

    /// Move every packet the stack has queued into the overlay. Outbound
    /// frames, events and telemetry go through `sink`.
    pub fn pump_out<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        stack: &mut NetStack,
        node: &mut BrunetNode,
        sink: &mut S,
    ) {
        for (dst_ip, wire) in stack.drain_wire() {
            let dst = self.resolve(dst_ip);
            self.stats.tunnelled_out += 1;
            node.send_app(now, dst, PROTO_IPOP, wire, sink);
        }
    }

    /// Handle a tunnelled payload delivered by the overlay. `exact` is the
    /// overlay's delivery mode: nearest-delivery strays (their owner is
    /// down or migrating) never match our stack's IP and are dropped, as
    /// the paper's tap device drops packets for foreign IPs.
    ///
    /// `data` is a zero-copy slice of the received overlay frame: the
    /// wire decoder hands the app payload out as a `Bytes` view of the
    /// datagram buffer, so a tunnelled IP packet crosses the whole
    /// overlay → vnet hand-off without being copied (and transit nodes
    /// never looked inside it at all).
    pub fn deliver_in(&mut self, now: SimTime, stack: &mut NetStack, data: Bytes, exact: bool) {
        let pkt = match Ipv4Packet::decode(data) {
            Ok(p) => p,
            Err(_) => {
                self.stats.parse_errors += 1;
                return;
            }
        };
        if !exact || pkt.dst != stack.ip() {
            self.stats.stray += 1;
            return;
        }
        self.stats.tunnelled_in += 1;
        stack.on_ip(now, pkt);
    }
}

/// Convenience: the payload sizes the shortcut overlord's score sees are
/// whole tunnelled IP packets; expose the encoded size for traffic models.
pub fn tunnelled_size(pkt: &Ipv4Packet) -> usize {
    crate::ip::IPV4_HEADER_LEN + pkt.payload.len()
}

/// Build a ping probe packet without a stack (used by measurement actors).
pub fn raw_ping(src: VirtIp, dst: VirtIp, ident: u16, seq: u16) -> Ipv4Packet {
    let msg = crate::icmp::IcmpMessage::EchoRequest {
        ident,
        seq,
        payload: Bytes::from_static(b"wow-probe"),
    };
    Ipv4Packet::new(src, dst, IpProto::Icmp, msg.encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_is_stable_and_namespace_scoped() {
        let a1 = address_for("wow", VirtIp::testbed(2));
        let a2 = address_for("wow", VirtIp::testbed(2));
        let b = address_for("wow", VirtIp::testbed(3));
        let other_ns = address_for("lab", VirtIp::testbed(2));
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_ne!(a1, other_ns);
    }

    #[test]
    fn router_address_matches_free_function() {
        let r = IpopRouter::new("wow");
        assert_eq!(
            r.overlay_address(VirtIp::testbed(9)),
            address_for("wow", VirtIp::testbed(9))
        );
    }

    #[test]
    fn memo_is_capped_and_never_changes_an_answer() {
        let mut r = IpopRouter::new("wow");
        assert_eq!(r.memo.len(), MEMO_SLOTS);
        // Four destinations per slot, visited so that every lookup after
        // the first round evicts a colliding entry, then a flow's repeats.
        let hosts: Vec<VirtIp> = (0..4 * MEMO_SLOTS as u32)
            .map(|i| VirtIp::new(172, 16, (i / 200) as u8, (i % 200) as u8))
            .collect();
        for _ in 0..3 {
            for &ip in &hosts {
                assert_eq!(r.resolve(ip), address_for("wow", ip));
                assert_eq!(r.resolve(ip), address_for("wow", ip));
            }
        }
        assert!(r.memo.iter().all(|slot| slot.is_some()));
    }

    #[test]
    fn stray_and_malformed_are_dropped() {
        use crate::tcp::TcpConfig;
        let mut r = IpopRouter::new("wow");
        let mut stack = NetStack::new(VirtIp::testbed(2), TcpConfig::default(), 1);
        // Wrong destination.
        let stray = raw_ping(VirtIp::testbed(9), VirtIp::testbed(8), 1, 1);
        r.deliver_in(SimTime::ZERO, &mut stack, stray.encode(), true);
        assert_eq!(r.stats.stray, 1);
        // Nearest-delivery for someone else.
        let for_us_but_nearest = raw_ping(VirtIp::testbed(9), VirtIp::testbed(2), 1, 1);
        r.deliver_in(
            SimTime::ZERO,
            &mut stack,
            for_us_but_nearest.encode(),
            false,
        );
        assert_eq!(r.stats.stray, 2);
        // Garbage.
        r.deliver_in(SimTime::ZERO, &mut stack, Bytes::from_static(b"junk"), true);
        assert_eq!(r.stats.parse_errors, 1);
        assert_eq!(r.stats.tunnelled_in, 0);
    }

    #[test]
    fn exact_delivery_reaches_stack() {
        use crate::tcp::TcpConfig;
        let mut r = IpopRouter::new("wow");
        let mut stack = NetStack::new(VirtIp::testbed(2), TcpConfig::default(), 1);
        let ping = raw_ping(VirtIp::testbed(9), VirtIp::testbed(2), 5, 6);
        r.deliver_in(SimTime::ZERO, &mut stack, ping.encode(), true);
        assert_eq!(r.stats.tunnelled_in, 1);
        // The stack auto-replies to the echo request.
        let out = stack.take_packets();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, VirtIp::testbed(9));
    }
}
