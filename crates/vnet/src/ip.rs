//! Virtual IPv4: addresses and packet codec.
//!
//! WOW nodes live on a private virtual network (the testbed used
//! 172.16.1.0/24). The virtual NIC carries real IPv4 framing — 20-byte
//! header with a genuine ones'-complement checksum — because the point of
//! IPOP is that *unmodified* IP software runs over it; our user-level stack
//! plays that role here.

use std::fmt;
use std::str::FromStr;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A virtual IPv4 address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtIp(pub [u8; 4]);

impl VirtIp {
    /// Build from octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        VirtIp([a, b, c, d])
    }

    /// The WOW testbed's subnet: 172.16.1.`host`.
    pub const fn testbed(host: u8) -> Self {
        VirtIp([172, 16, 1, host])
    }

    /// As a big-endian u32.
    pub const fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }
}

impl fmt::Display for VirtIp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl fmt::Debug for VirtIp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for VirtIp {
    type Err = IpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            *slot = parts
                .next()
                .ok_or(IpError::Malformed)?
                .parse()
                .map_err(|_| IpError::Malformed)?;
        }
        if parts.next().is_some() {
            return Err(IpError::Malformed);
        }
        Ok(VirtIp(octets))
    }
}

/// Transport protocol numbers (the real IANA values).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
}

impl IpProto {
    /// The protocol number.
    pub fn number(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
        }
    }

    /// From a protocol number.
    pub fn from_number(n: u8) -> Option<IpProto> {
        Some(match n {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            _ => return None,
        })
    }
}

/// Errors from the IP codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpError {
    /// Too short / bad field encoding.
    Malformed,
    /// Header checksum mismatch.
    BadChecksum,
    /// Unsupported IP version or header length.
    Unsupported,
    /// Unknown transport protocol.
    UnknownProto,
}

impl fmt::Display for IpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpError::Malformed => write!(f, "malformed packet"),
            IpError::BadChecksum => write!(f, "bad header checksum"),
            IpError::Unsupported => write!(f, "unsupported version or header length"),
            IpError::UnknownProto => write!(f, "unknown transport protocol"),
        }
    }
}

impl std::error::Error for IpError {}

/// A virtual IPv4 packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: VirtIp,
    /// Destination address.
    pub dst: VirtIp,
    /// Transport protocol.
    pub proto: IpProto,
    /// Remaining hop budget.
    pub ttl: u8,
    /// Identification field (used for tracing; no fragmentation support).
    pub ident: u16,
    /// Transport payload.
    pub payload: Bytes,
}

/// Default TTL for locally-originated packets.
pub const DEFAULT_TTL: u8 = 64;
/// Header length (no options).
pub const IPV4_HEADER_LEN: usize = 20;
/// The virtual network MTU (IPOP tunnels over UDP; keep room for headers).
pub const VNET_MTU: usize = 1280;

/// RFC 1071 ones'-complement checksum.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Append the checksummed 20-byte header of a packet that will carry
/// `payload_len` bytes; the caller appends the payload to the same buffer.
pub fn put_ipv4_header(
    buf: &mut BytesMut,
    src: VirtIp,
    dst: VirtIp,
    proto: IpProto,
    ttl: u8,
    ident: u16,
    payload_len: usize,
) {
    let start = buf.len();
    buf.put_u8(0x45); // version 4, IHL 5
    buf.put_u8(0); // DSCP/ECN
    buf.put_u16((IPV4_HEADER_LEN + payload_len) as u16);
    buf.put_u16(ident);
    buf.put_u16(0x4000); // flags: DF, no fragment offset
    buf.put_u8(ttl);
    buf.put_u8(proto.number());
    buf.put_u16(0); // checksum placeholder
    buf.put_slice(&src.0);
    buf.put_slice(&dst.0);
    let csum = internet_checksum(&buf[start..start + IPV4_HEADER_LEN]);
    buf[start + 10..start + 12].copy_from_slice(&csum.to_be_bytes());
}

impl Ipv4Packet {
    /// Build a packet with default TTL.
    pub fn new(src: VirtIp, dst: VirtIp, proto: IpProto, payload: Bytes) -> Self {
        Ipv4Packet {
            src,
            dst,
            proto,
            ttl: DEFAULT_TTL,
            ident: 0,
            payload,
        }
    }

    /// Encode to wire bytes (20-byte header + payload), checksummed.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(IPV4_HEADER_LEN + self.payload.len());
        put_ipv4_header(
            &mut buf,
            self.src,
            self.dst,
            self.proto,
            self.ttl,
            self.ident,
            self.payload.len(),
        );
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Decode from wire bytes, verifying version, length and checksum.
    pub fn decode(mut bytes: Bytes) -> Result<Ipv4Packet, IpError> {
        let full_len = bytes.len();
        if full_len < IPV4_HEADER_LEN {
            return Err(IpError::Malformed);
        }
        if internet_checksum(&bytes[..IPV4_HEADER_LEN]) != 0 {
            return Err(IpError::BadChecksum);
        }
        let version_ihl = bytes.get_u8();
        if version_ihl != 0x45 {
            return Err(IpError::Unsupported);
        }
        let _tos = bytes.get_u8();
        let total_len = bytes.get_u16() as usize;
        if total_len < IPV4_HEADER_LEN || total_len > full_len {
            return Err(IpError::Malformed);
        }
        let ident = bytes.get_u16();
        let _flags = bytes.get_u16();
        let ttl = bytes.get_u8();
        let proto = IpProto::from_number(bytes.get_u8()).ok_or(IpError::UnknownProto)?;
        let _csum = bytes.get_u16();
        let mut src = [0u8; 4];
        bytes.copy_to_slice(&mut src);
        let mut dst = [0u8; 4];
        bytes.copy_to_slice(&mut dst);
        let payload_len = total_len - IPV4_HEADER_LEN;
        if bytes.remaining() < payload_len {
            return Err(IpError::Malformed);
        }
        let payload = bytes.split_to(payload_len);
        Ok(Ipv4Packet {
            src: VirtIp(src),
            dst: VirtIp(dst),
            proto,
            ttl,
            ident,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_ip_display_parse() {
        let ip = VirtIp::testbed(2);
        assert_eq!(ip.to_string(), "172.16.1.2");
        assert_eq!("172.16.1.2".parse::<VirtIp>().unwrap(), ip);
        assert!("172.16.1".parse::<VirtIp>().is_err());
        assert!("172.16.1.300".parse::<VirtIp>().is_err());
    }

    #[test]
    fn checksum_known_vector() {
        // Classic RFC 1071 example.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_of_checksummed_header_is_zero() {
        let pkt = Ipv4Packet::new(
            VirtIp::testbed(2),
            VirtIp::testbed(3),
            IpProto::Icmp,
            Bytes::from_static(b"payload"),
        );
        let enc = pkt.encode();
        assert_eq!(internet_checksum(&enc[..IPV4_HEADER_LEN]), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut pkt = Ipv4Packet::new(
            VirtIp::testbed(2),
            VirtIp::testbed(34),
            IpProto::Tcp,
            Bytes::from_static(b"segment bytes"),
        );
        pkt.ttl = 7;
        pkt.ident = 0xBEEF;
        let decoded = Ipv4Packet::decode(pkt.encode()).unwrap();
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let pkt = Ipv4Packet::new(
            VirtIp::testbed(2),
            VirtIp::testbed(3),
            IpProto::Udp,
            Bytes::from_static(b"x"),
        );
        let enc = pkt.encode();
        for byte in 0..IPV4_HEADER_LEN {
            let mut corrupt = enc.to_vec();
            corrupt[byte] ^= 0xFF;
            let out = Ipv4Packet::decode(Bytes::from(corrupt));
            assert!(out.is_err(), "flipping header byte {byte} went unnoticed");
        }
    }

    #[test]
    fn truncated_packets_are_rejected() {
        let pkt = Ipv4Packet::new(
            VirtIp::testbed(2),
            VirtIp::testbed(3),
            IpProto::Udp,
            Bytes::from_static(b"0123456789"),
        );
        let enc = pkt.encode();
        for cut in 0..enc.len() {
            assert!(Ipv4Packet::decode(enc.slice(..cut)).is_err());
        }
    }

    #[test]
    fn unknown_protocol_rejected() {
        let pkt = Ipv4Packet::new(
            VirtIp::testbed(2),
            VirtIp::testbed(3),
            IpProto::Udp,
            Bytes::new(),
        );
        let mut raw = pkt.encode().to_vec();
        raw[9] = 99; // protocol
                     // Fix the checksum for the altered byte.
        raw[10] = 0;
        raw[11] = 0;
        let csum = internet_checksum(&raw[..IPV4_HEADER_LEN]);
        raw[10..12].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(
            Ipv4Packet::decode(Bytes::from(raw)),
            Err(IpError::UnknownProto)
        );
    }
}
