//! # wow-vnet — the IPOP virtual IP layer
//!
//! The virtual network that makes a WOW look like a LAN: a user-level
//! IPv4/ICMP/UDP/TCP stack ([`stack::NetStack`]) bound to a virtual IP, and
//! the IPOP router ([`ipop::IpopRouter`]) that tunnels its packets over the
//! Brunet overlay. Traffic through the tunnel is what feeds the overlay's
//! shortcut overlord; the mini TCP's persistence through long outages is
//! what lets transfers survive WAN VM migration (Fig. 6 of the paper).
//!
//! * [`ip`] — virtual IPv4 addresses and the packet codec (real checksums)
//! * [`icmp`] — echo request/reply (the Fig. 4 probe traffic)
//! * [`udp`] — datagram transport
//! * [`buf`] — the byte queues under a TCP connection
//! * [`tcp`] — a mini TCP: handshake, reassembly, windows, Reno-style
//!   congestion control, adaptive RTO with long persistence
//! * [`stack`] — the per-workstation socket layer
//! * [`ipop`] — virtual IP ↔ overlay address resolution and tunnelling

//! ## Two stacks talking
//!
//! ```
//! use wow_vnet::prelude::*;
//! use wow_netsim::time::SimTime;
//! use bytes::Bytes;
//!
//! let mut a = NetStack::new(VirtIp::testbed(2), TcpConfig::default(), 1);
//! let mut b = NetStack::new(VirtIp::testbed(3), TcpConfig::default(), 2);
//! a.ping(b.ip(), 7, 0, Bytes::from_static(b"hi"));
//! for pkt in a.take_packets() {
//!     b.on_ip(SimTime::ZERO, pkt); // "the tunnel"
//! }
//! for pkt in b.take_packets() {
//!     a.on_ip(SimTime::ZERO, pkt);
//! }
//! assert!(matches!(a.take_events()[0], StackEvent::PingReply { .. }));
//! ```

#![warn(missing_docs)]

pub mod buf;
pub mod icmp;
pub mod ip;
pub mod ipop;
pub mod stack;
pub mod tcp;
pub mod udp;

/// Commonly-used names, for glob import.
pub mod prelude {
    pub use crate::icmp::IcmpMessage;
    pub use crate::ip::{IpProto, Ipv4Packet, VirtIp};
    pub use crate::ipop::{address_for, IpopRouter, PROTO_IPOP};
    pub use crate::stack::{NetStack, SocketId, StackEvent};
    pub use crate::tcp::{TcpConfig, TcpState};
    pub use crate::udp::UdpDatagram;
}
