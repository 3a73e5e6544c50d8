//! Binary wire format for overlay frames.
//!
//! Every datagram on the underlay carries exactly one [`Frame`]: either a
//! link-layer message exchanged between direct neighbours (linking
//! handshake, keepalives, neighbour stabilization) or a [`Packet`] routed
//! across the overlay (connection-protocol messages and tunnelled
//! application data).
//!
//! The codec is hand-rolled over [`bytes`]: length-prefixed vectors, fixed
//! tags, no self-description. Decoding is total — any byte string either
//! yields a frame or a [`WireError`]; malformed input can never panic.

use bytes::{Buf, BufMut, Bytes};
use wow_netsim::addr::{PhysAddr, PhysIp};

use crate::addr::Address;
use crate::conn::ConnType;
use crate::uri::{Scheme, TransportUri};

/// Upper bound on URIs per message — a decoding guard, far above anything
/// the protocol generates.
pub const MAX_URIS: usize = 16;
/// Upper bound on neighbour entries per stabilization reply.
pub const MAX_NEIGHBORS: usize = 32;
/// Upper bound on a tunnelled payload (generous; IPOP MTU is much smaller).
pub const MAX_APP_DATA: usize = 64 * 1024;

/// A decoded datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Link-layer message between direct neighbours.
    Link(LinkMsg),
    /// Overlay-routed packet.
    Routed(Packet),
}

/// Link-layer messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkMsg {
    /// Start/continue a linking handshake with a peer believed to be
    /// `target`, reachable at the URI this datagram was sent to.
    LinkRequest {
        /// Sender's overlay address.
        from: Address,
        /// Who the sender believes it is talking to. A receiver with a
        /// different address answers [`LinkErrorReason::WrongNode`] — this
        /// happens in real deployments when overlapping private address
        /// ranges make a private URI reach the wrong machine.
        target: Address,
        /// Role the new connection should carry.
        ctype: ConnType,
        /// Identifier of this linking attempt (for idempotence).
        attempt: u64,
    },
    /// Positive linking response; also tells the requester the source
    /// address its request arrived with (STUN-style NAT discovery).
    LinkReply {
        /// Sender's overlay address.
        from: Address,
        /// Echo of the request's attempt id.
        attempt: u64,
        /// The requester's address as observed by the replier.
        observed: PhysAddr,
    },
    /// Negative linking response.
    LinkError {
        /// Sender's overlay address.
        from: Address,
        /// Echo of the request's attempt id.
        attempt: u64,
        /// Why the link was refused.
        reason: LinkErrorReason,
    },
    /// Keepalive probe on an established connection.
    Ping {
        /// Sender's overlay address.
        from: Address,
        /// Correlates the eventual pong.
        nonce: u64,
    },
    /// Keepalive response, echoing the observed source address.
    Pong {
        /// Sender's overlay address.
        from: Address,
        /// Echo of the ping nonce.
        nonce: u64,
        /// The pinger's address as observed by the ponger.
        observed: PhysAddr,
    },
    /// Ask a neighbour for its ring neighbours (stabilization).
    NeighborQuery {
        /// Sender's overlay address.
        from: Address,
    },
    /// Stabilization answer: the sender's current near peers.
    NeighborReply {
        /// Sender's overlay address.
        from: Address,
        /// The sender's known ring neighbours (both directions).
        neighbors: Vec<Address>,
        /// The querier's address as observed by the replier. Stabilization
        /// runs every few seconds, so this is the only STUN-style echo a
        /// busy node keeps receiving (keepalive pongs are suppressed while
        /// traffic flows) — without it a node behind a NAT would advertise
        /// a stale mapping forever after the NAT forgets its state.
        observed: PhysAddr,
    },
}

/// Reasons a linking request is refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkErrorReason {
    /// The receiver has its own active attempt to the requester; per the
    /// paper's race-breaking rule the requester should stand down.
    InRace,
    /// The receiver is not the overlay node the requester wanted.
    WrongNode,
    /// A keepalive arrived for a connection the receiver does not have —
    /// tells a stale side to drop its half-open state.
    NotConnected,
}

impl LinkErrorReason {
    fn wire_id(self) -> u8 {
        match self {
            LinkErrorReason::InRace => 0,
            LinkErrorReason::WrongNode => 1,
            LinkErrorReason::NotConnected => 2,
        }
    }

    fn from_wire_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => LinkErrorReason::InRace,
            1 => LinkErrorReason::WrongNode,
            2 => LinkErrorReason::NotConnected,
            _ => return None,
        })
    }
}

/// An overlay-routed packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Originating overlay address.
    pub src: Address,
    /// Destination overlay address.
    pub dst: Address,
    /// Hops taken so far.
    pub hops: u8,
    /// Remaining hop budget; packets with `hops == ttl` are dropped.
    pub ttl: u8,
    /// Set when a nearest-delivery packet has already been forwarded once
    /// across the destination's gap, so the copy does not bounce forever.
    pub edge_forwarded: bool,
    /// The payload.
    pub body: Body,
}

/// Payloads of routed packets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Body {
    /// Connection protocol: "connect to me" (§IV-B of the paper).
    CtmRequest {
        /// Correlates request and reply.
        token: u64,
        /// Desired connection role.
        ctype: ConnType,
        /// The initiator's advertised URI list.
        uris: Vec<TransportUri>,
        /// For joining nodes: the leaf target that relays replies back.
        reply_relay: Option<Address>,
    },
    /// Connection protocol response.
    CtmReply {
        /// Echo of the request token.
        token: u64,
        /// The responder's overlay address (may differ from the requested
        /// destination when the request was delivered to a nearest node).
        responder: Address,
        /// The responder's advertised URI list.
        uris: Vec<TransportUri>,
        /// The node this reply is ultimately for (relay unwrapping).
        for_node: Address,
    },
    /// Tunnelled application data (e.g. an IPOP-encapsulated IPv4 packet).
    App {
        /// Application protocol discriminator (see `wow-vnet`).
        proto: u8,
        /// Opaque payload.
        data: Bytes,
    },
}

/// Decoding failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// Unknown tag value.
    BadTag,
    /// A length prefix exceeded its bound.
    TooLong,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadTag => write!(f, "unknown tag"),
            WireError::TooLong => write!(f, "length out of bounds"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------- encoding ----------

/// Encoded sizes of the fixed-width fields.
const ADDRESS_LEN: usize = 20;
const PHYS_ADDR_LEN: usize = 4 + 2;
const URI_LEN: usize = 1 + PHYS_ADDR_LEN;

fn uris_len(uris: &[TransportUri]) -> usize {
    1 + uris.len() * URI_LEN
}

fn put_address(buf: &mut impl BufMut, a: Address) {
    buf.put_slice(&a.0);
}

fn put_phys_addr(buf: &mut impl BufMut, a: PhysAddr) {
    buf.put_u32(a.ip.0);
    buf.put_u16(a.port);
}

fn put_uri(buf: &mut impl BufMut, u: TransportUri) {
    buf.put_u8(match u.scheme {
        Scheme::Udp => 0,
        Scheme::Tcp => 1,
    });
    put_phys_addr(buf, u.addr);
}

fn put_uris(buf: &mut impl BufMut, uris: &[TransportUri]) {
    debug_assert!(uris.len() <= MAX_URIS);
    buf.put_u8(uris.len() as u8);
    for &u in uris {
        put_uri(buf, u);
    }
}

impl Frame {
    /// Encode to bytes: one exact-size allocation, written in place.
    pub fn encode(&self) -> Bytes {
        Bytes::from_fill(self.encoded_len(), |mut buf| {
            match self {
                Frame::Link(m) => {
                    buf.put_u8(0);
                    m.encode_into(&mut buf);
                }
                Frame::Routed(p) => {
                    buf.put_u8(1);
                    p.encode_into(&mut buf);
                }
            }
            debug_assert!(buf.is_empty(), "encoded_len overcounts");
        })
    }

    /// The exact length of [`Frame::encode`]'s output.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Frame::Link(m) => m.encoded_len(),
            Frame::Routed(p) => p.encoded_len(),
        }
    }

    /// Decode from bytes.
    pub fn decode(mut bytes: Bytes) -> Result<Frame, WireError> {
        let frame = match get_u8(&mut bytes)? {
            0 => Frame::Link(LinkMsg::decode_from(&mut bytes)?),
            1 => Frame::Routed(Packet::decode_from(&mut bytes)?),
            _ => return Err(WireError::BadTag),
        };
        if bytes.has_remaining() {
            return Err(WireError::BadTag); // trailing garbage
        }
        Ok(frame)
    }
}

impl LinkMsg {
    fn encoded_len(&self) -> usize {
        1 + match self {
            LinkMsg::LinkRequest { .. } => 2 * ADDRESS_LEN + 1 + 8,
            LinkMsg::LinkReply { .. } | LinkMsg::Pong { .. } => ADDRESS_LEN + 8 + PHYS_ADDR_LEN,
            LinkMsg::LinkError { .. } => ADDRESS_LEN + 8 + 1,
            LinkMsg::Ping { .. } => ADDRESS_LEN + 8,
            LinkMsg::NeighborQuery { .. } => ADDRESS_LEN,
            LinkMsg::NeighborReply { neighbors, .. } => {
                ADDRESS_LEN + PHYS_ADDR_LEN + 1 + neighbors.len() * ADDRESS_LEN
            }
        }
    }

    fn encode_into(&self, buf: &mut impl BufMut) {
        match self {
            LinkMsg::LinkRequest {
                from,
                target,
                ctype,
                attempt,
            } => {
                buf.put_u8(0);
                put_address(buf, *from);
                put_address(buf, *target);
                buf.put_u8(ctype.wire_id());
                buf.put_u64(*attempt);
            }
            LinkMsg::LinkReply {
                from,
                attempt,
                observed,
            } => {
                buf.put_u8(1);
                put_address(buf, *from);
                buf.put_u64(*attempt);
                put_phys_addr(buf, *observed);
            }
            LinkMsg::LinkError {
                from,
                attempt,
                reason,
            } => {
                buf.put_u8(2);
                put_address(buf, *from);
                buf.put_u64(*attempt);
                buf.put_u8(reason.wire_id());
            }
            LinkMsg::Ping { from, nonce } => {
                buf.put_u8(3);
                put_address(buf, *from);
                buf.put_u64(*nonce);
            }
            LinkMsg::Pong {
                from,
                nonce,
                observed,
            } => {
                buf.put_u8(4);
                put_address(buf, *from);
                buf.put_u64(*nonce);
                put_phys_addr(buf, *observed);
            }
            LinkMsg::NeighborQuery { from } => {
                buf.put_u8(5);
                put_address(buf, *from);
            }
            LinkMsg::NeighborReply {
                from,
                neighbors,
                observed,
            } => {
                debug_assert!(neighbors.len() <= MAX_NEIGHBORS);
                buf.put_u8(6);
                put_address(buf, *from);
                put_phys_addr(buf, *observed);
                buf.put_u8(neighbors.len() as u8);
                for &n in neighbors {
                    put_address(buf, n);
                }
            }
        }
    }

    fn decode_from(bytes: &mut Bytes) -> Result<LinkMsg, WireError> {
        Ok(match get_u8(bytes)? {
            0 => LinkMsg::LinkRequest {
                from: get_address(bytes)?,
                target: get_address(bytes)?,
                ctype: ConnType::from_wire_id(get_u8(bytes)?).ok_or(WireError::BadTag)?,
                attempt: get_u64(bytes)?,
            },
            1 => LinkMsg::LinkReply {
                from: get_address(bytes)?,
                attempt: get_u64(bytes)?,
                observed: get_phys_addr(bytes)?,
            },
            2 => LinkMsg::LinkError {
                from: get_address(bytes)?,
                attempt: get_u64(bytes)?,
                reason: LinkErrorReason::from_wire_id(get_u8(bytes)?).ok_or(WireError::BadTag)?,
            },
            3 => LinkMsg::Ping {
                from: get_address(bytes)?,
                nonce: get_u64(bytes)?,
            },
            4 => LinkMsg::Pong {
                from: get_address(bytes)?,
                nonce: get_u64(bytes)?,
                observed: get_phys_addr(bytes)?,
            },
            5 => LinkMsg::NeighborQuery {
                from: get_address(bytes)?,
            },
            6 => {
                let from = get_address(bytes)?;
                let observed = get_phys_addr(bytes)?;
                let n = get_u8(bytes)? as usize;
                if n > MAX_NEIGHBORS {
                    return Err(WireError::TooLong);
                }
                let mut neighbors = Vec::with_capacity(n);
                for _ in 0..n {
                    neighbors.push(get_address(bytes)?);
                }
                LinkMsg::NeighborReply {
                    from,
                    neighbors,
                    observed,
                }
            }
            _ => return Err(WireError::BadTag),
        })
    }
}

impl Packet {
    fn encoded_len(&self) -> usize {
        let header = 2 * ADDRESS_LEN + 3 + 1;
        header
            + match &self.body {
                Body::CtmRequest {
                    uris, reply_relay, ..
                } => 8 + 1 + uris_len(uris) + 1 + reply_relay.map_or(0, |_| ADDRESS_LEN),
                Body::CtmReply { uris, .. } => 8 + ADDRESS_LEN + uris_len(uris) + ADDRESS_LEN,
                Body::App { data, .. } => 1 + 4 + data.len(),
            }
    }

    fn encode_into(&self, buf: &mut impl BufMut) {
        put_address(buf, self.src);
        put_address(buf, self.dst);
        buf.put_u8(self.hops);
        buf.put_u8(self.ttl);
        buf.put_u8(self.edge_forwarded as u8);
        match &self.body {
            Body::CtmRequest {
                token,
                ctype,
                uris,
                reply_relay,
            } => {
                buf.put_u8(0);
                buf.put_u64(*token);
                buf.put_u8(ctype.wire_id());
                put_uris(buf, uris);
                match reply_relay {
                    Some(a) => {
                        buf.put_u8(1);
                        put_address(buf, *a);
                    }
                    None => buf.put_u8(0),
                }
            }
            Body::CtmReply {
                token,
                responder,
                uris,
                for_node,
            } => {
                buf.put_u8(1);
                buf.put_u64(*token);
                put_address(buf, *responder);
                put_uris(buf, uris);
                put_address(buf, *for_node);
            }
            Body::App { proto, data } => {
                debug_assert!(data.len() <= MAX_APP_DATA);
                buf.put_u8(2);
                buf.put_u8(*proto);
                buf.put_u32(data.len() as u32);
                buf.put_slice(data);
            }
        }
    }

    fn decode_from(bytes: &mut Bytes) -> Result<Packet, WireError> {
        let src = get_address(bytes)?;
        let dst = get_address(bytes)?;
        let hops = get_u8(bytes)?;
        let ttl = get_u8(bytes)?;
        let edge_forwarded = get_u8(bytes)? != 0;
        let body = match get_u8(bytes)? {
            0 => {
                let token = get_u64(bytes)?;
                let ctype = ConnType::from_wire_id(get_u8(bytes)?).ok_or(WireError::BadTag)?;
                let uris = get_uris(bytes)?;
                let reply_relay = match get_u8(bytes)? {
                    0 => None,
                    1 => Some(get_address(bytes)?),
                    _ => return Err(WireError::BadTag),
                };
                Body::CtmRequest {
                    token,
                    ctype,
                    uris,
                    reply_relay,
                }
            }
            1 => Body::CtmReply {
                token: get_u64(bytes)?,
                responder: get_address(bytes)?,
                uris: get_uris(bytes)?,
                for_node: get_address(bytes)?,
            },
            2 => {
                let proto = get_u8(bytes)?;
                let len = get_u32(bytes)? as usize;
                if len > MAX_APP_DATA {
                    return Err(WireError::TooLong);
                }
                if bytes.remaining() < len {
                    return Err(WireError::Truncated);
                }
                let data = bytes.split_to(len);
                Body::App { proto, data }
            }
            _ => return Err(WireError::BadTag),
        };
        Ok(Packet {
            src,
            dst,
            hops,
            ttl,
            edge_forwarded,
            body,
        })
    }
}

// ---------- borrowed transit view ----------

/// Byte offsets of the routed-frame header prefix. Every routed frame
/// starts `tag(1) src(20) dst(20) hops(1) ttl(1) edge(1) body_tag(1)`;
/// App bodies continue `proto(1) len(4) payload(len)`. This layout is
/// wire-stable: [`RoutedHeader::peek`] depends on it, and DESIGN.md
/// documents it as a compatibility contract.
mod routed_layout {
    /// Frame tag byte (1 = routed).
    pub const TAG: usize = 0;
    /// Source overlay address (20 bytes).
    pub const SRC: usize = 1;
    /// Destination overlay address (20 bytes).
    pub const DST: usize = 21;
    /// Hop count taken so far.
    pub const HOPS: usize = 41;
    /// Hop budget.
    pub const TTL: usize = 42;
    /// Edge-forwarded flag (canonical encoding: 0 or 1).
    pub const EDGE: usize = 43;
    /// Body discriminator (0 = CtmRequest, 1 = CtmReply, 2 = App).
    pub const BODY_TAG: usize = 44;
    /// App body: protocol discriminator.
    pub const APP_PROTO: usize = 45;
    /// App body: big-endian u32 payload length.
    pub const APP_LEN: usize = 46;
    /// App body: payload start.
    pub const APP_DATA: usize = 50;
}

/// A borrowed view of a routed **App** frame's header, decoded without
/// allocating or touching the payload.
///
/// [`RoutedHeader::peek`] succeeds only when the buffer is a *canonically
/// encoded* application frame — the exact byte string [`Frame::encode`]
/// would produce for some `Frame::Routed(Packet { body: Body::App { .. },
/// .. })`. That guarantee is what lets a transit node skip the full decode:
/// patching the hop byte in the original buffer is then byte-for-byte
/// identical to decode → `hops += 1` → re-encode. Anything else — link
/// frames, CTM bodies (which need protocol handling), truncation, trailing
/// garbage, a non-canonical edge flag — returns an error and the caller
/// falls back to [`Frame::decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutedHeader {
    /// Originating overlay address.
    pub src: Address,
    /// Destination overlay address.
    pub dst: Address,
    /// Hops taken so far.
    pub hops: u8,
    /// Remaining hop budget; packets with `hops == ttl` are dropped.
    pub ttl: u8,
    /// Edge-forwarded flag.
    pub edge_forwarded: bool,
    /// Application protocol discriminator.
    pub proto: u8,
}

impl RoutedHeader {
    /// Validate `frame` as a canonical routed App frame and expose its
    /// header fields. Cost: a few bounds checks and two 20-byte copies —
    /// no allocation, payload untouched.
    pub fn peek(frame: &Bytes) -> Result<RoutedHeader, WireError> {
        use routed_layout as L;
        let buf: &[u8] = frame;
        if buf.len() < L::APP_DATA {
            return Err(WireError::Truncated);
        }
        if buf[L::TAG] != 1 {
            return Err(WireError::BadTag);
        }
        if buf[L::BODY_TAG] != 2 {
            return Err(WireError::BadTag);
        }
        // Decode normalizes any nonzero edge byte to `true` and re-encode
        // writes 1 — a non-canonical byte would break transit byte-identity,
        // so it is not fast-path eligible.
        if buf[L::EDGE] > 1 {
            return Err(WireError::BadTag);
        }
        let len = u32::from_be_bytes([
            buf[L::APP_LEN],
            buf[L::APP_LEN + 1],
            buf[L::APP_LEN + 2],
            buf[L::APP_LEN + 3],
        ]) as usize;
        if len > MAX_APP_DATA {
            return Err(WireError::TooLong);
        }
        if buf.len() < L::APP_DATA + len {
            return Err(WireError::Truncated);
        }
        if buf.len() > L::APP_DATA + len {
            return Err(WireError::BadTag); // trailing garbage
        }
        let mut src = [0u8; 20];
        src.copy_from_slice(&buf[L::SRC..L::SRC + 20]);
        let mut dst = [0u8; 20];
        dst.copy_from_slice(&buf[L::DST..L::DST + 20]);
        Ok(RoutedHeader {
            src: Address(src),
            dst: Address(dst),
            hops: buf[L::HOPS],
            ttl: buf[L::TTL],
            edge_forwarded: buf[L::EDGE] != 0,
            proto: buf[L::APP_PROTO],
        })
    }

    /// The zero-copy payload view of a frame [`RoutedHeader::peek`]
    /// accepted: a slice of the same backing storage, no copy.
    pub fn payload(frame: &Bytes) -> Bytes {
        frame.slice(routed_layout::APP_DATA..)
    }

    /// Overwrite the hop count of a frame [`RoutedHeader::peek`] accepted,
    /// in place when this handle uniquely owns the buffer (the usual case
    /// for a freshly received datagram), otherwise via one copy. Either
    /// way the result is byte-identical to decode → set hops → re-encode.
    pub fn patch_hops(mut frame: Bytes, hops: u8) -> Bytes {
        debug_assert!(RoutedHeader::peek(&frame).is_ok());
        match frame.try_mut() {
            Some(buf) => {
                buf[routed_layout::HOPS] = hops;
                frame
            }
            None => Bytes::from_fill(frame.len(), |copy| {
                copy.copy_from_slice(&frame);
                copy[routed_layout::HOPS] = hops;
            }),
        }
    }
}

// ---------- decoding primitives ----------

fn get_u8(b: &mut Bytes) -> Result<u8, WireError> {
    if b.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    Ok(b.get_u8())
}

fn get_u32(b: &mut Bytes) -> Result<u32, WireError> {
    if b.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(b.get_u32())
}

fn get_u64(b: &mut Bytes) -> Result<u64, WireError> {
    if b.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(b.get_u64())
}

fn get_address(b: &mut Bytes) -> Result<Address, WireError> {
    if b.remaining() < 20 {
        return Err(WireError::Truncated);
    }
    let mut out = [0u8; 20];
    b.copy_to_slice(&mut out);
    Ok(Address(out))
}

fn get_phys_addr(b: &mut Bytes) -> Result<PhysAddr, WireError> {
    if b.remaining() < 6 {
        return Err(WireError::Truncated);
    }
    let ip = PhysIp(b.get_u32());
    let port = b.get_u16();
    Ok(PhysAddr { ip, port })
}

fn get_uri(b: &mut Bytes) -> Result<TransportUri, WireError> {
    let scheme = match get_u8(b)? {
        0 => Scheme::Udp,
        1 => Scheme::Tcp,
        _ => return Err(WireError::BadTag),
    };
    Ok(TransportUri {
        scheme,
        addr: get_phys_addr(b)?,
    })
}

fn get_uris(b: &mut Bytes) -> Result<Vec<TransportUri>, WireError> {
    let n = get_u8(b)? as usize;
    if n > MAX_URIS {
        return Err(WireError::TooLong);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_uri(b)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::U160;
    use bytes::BytesMut;

    fn a(v: u64) -> Address {
        Address::from(U160::from(v))
    }

    fn pa(last: u8, port: u16) -> PhysAddr {
        PhysAddr::new(PhysIp::new(10, 0, 0, last), port)
    }

    fn roundtrip(f: Frame) {
        let enc = f.encode();
        let dec = Frame::decode(enc).expect("decode");
        assert_eq!(dec, f);
    }

    #[test]
    fn roundtrip_all_link_messages() {
        roundtrip(Frame::Link(LinkMsg::LinkRequest {
            from: a(1),
            target: a(2),
            ctype: ConnType::Shortcut,
            attempt: 42,
        }));
        roundtrip(Frame::Link(LinkMsg::LinkReply {
            from: a(2),
            attempt: 42,
            observed: pa(7, 40_001),
        }));
        for reason in [
            LinkErrorReason::InRace,
            LinkErrorReason::WrongNode,
            LinkErrorReason::NotConnected,
        ] {
            roundtrip(Frame::Link(LinkMsg::LinkError {
                from: a(2),
                attempt: 42,
                reason,
            }));
        }
        roundtrip(Frame::Link(LinkMsg::Ping {
            from: a(3),
            nonce: 77,
        }));
        roundtrip(Frame::Link(LinkMsg::Pong {
            from: a(4),
            nonce: 77,
            observed: pa(9, 50_000),
        }));
        roundtrip(Frame::Link(LinkMsg::NeighborQuery { from: a(5) }));
        roundtrip(Frame::Link(LinkMsg::NeighborReply {
            from: a(5),
            neighbors: vec![a(6), a(7), a(8)],
            observed: pa(10, 40_001),
        }));
    }

    #[test]
    fn roundtrip_routed_packets() {
        let uris = vec![
            TransportUri::udp(pa(2, 4000)),
            TransportUri {
                scheme: Scheme::Tcp,
                addr: pa(3, 4001),
            },
        ];
        roundtrip(Frame::Routed(Packet {
            src: a(1),
            dst: a(2),
            hops: 3,
            ttl: 64,
            edge_forwarded: true,
            body: Body::CtmRequest {
                token: 9,
                ctype: ConnType::StructuredNear,
                uris: uris.clone(),
                reply_relay: Some(a(5)),
            },
        }));
        roundtrip(Frame::Routed(Packet {
            src: a(1),
            dst: a(2),
            hops: 0,
            ttl: 64,
            edge_forwarded: false,
            body: Body::CtmRequest {
                token: 9,
                ctype: ConnType::StructuredFar,
                uris: Vec::new(),
                reply_relay: None,
            },
        }));
        roundtrip(Frame::Routed(Packet {
            src: a(3),
            dst: a(4),
            hops: 1,
            ttl: 8,
            edge_forwarded: false,
            body: Body::CtmReply {
                token: 9,
                responder: a(4),
                uris,
                for_node: a(3),
            },
        }));
        roundtrip(Frame::Routed(Packet {
            src: a(3),
            dst: a(4),
            hops: 0,
            ttl: 2,
            edge_forwarded: false,
            body: Body::App {
                proto: 4,
                data: Bytes::from_static(b"an ipv4 packet would be here"),
            },
        }));
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let f = Frame::Routed(Packet {
            src: a(1),
            dst: a(2),
            hops: 3,
            ttl: 64,
            edge_forwarded: false,
            body: Body::App {
                proto: 4,
                data: Bytes::from_static(b"payload"),
            },
        });
        let enc = f.encode();
        for cut in 0..enc.len() {
            let out = Frame::decode(enc.slice(..cut));
            assert!(out.is_err(), "decoding a {cut}-byte prefix succeeded");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let enc = Frame::Link(LinkMsg::Ping {
            from: a(1),
            nonce: 1,
        })
        .encode();
        let mut with_extra = BytesMut::from(&enc[..]);
        with_extra.put_u8(0xFF);
        assert!(Frame::decode(with_extra.freeze()).is_err());
    }

    #[test]
    fn decode_rejects_bad_tags() {
        assert_eq!(
            Frame::decode(Bytes::from_static(&[9])),
            Err(WireError::BadTag)
        );
        assert_eq!(
            Frame::decode(Bytes::from_static(&[])),
            Err(WireError::Truncated)
        );
        // Link frame with unknown inner tag.
        assert_eq!(
            Frame::decode(Bytes::from_static(&[0, 200])),
            Err(WireError::BadTag)
        );
    }

    #[test]
    fn uri_count_guard() {
        // Hand-build a CtmRequest claiming 200 URIs.
        let mut buf = BytesMut::new();
        buf.put_u8(1); // routed
        buf.put_slice(&[0u8; 40]); // src+dst
        buf.put_u8(0); // hops
        buf.put_u8(64); // ttl
        buf.put_u8(0); // edge
        buf.put_u8(0); // CtmRequest
        buf.put_u64(1); // token
        buf.put_u8(1); // ctype near
        buf.put_u8(200); // uri count — over MAX_URIS
        assert_eq!(Frame::decode(buf.freeze()), Err(WireError::TooLong));
    }

    fn app_frame() -> (Packet, Bytes) {
        let pkt = Packet {
            src: a(7),
            dst: a(9),
            hops: 3,
            ttl: 64,
            edge_forwarded: true,
            body: Body::App {
                proto: 4,
                data: Bytes::from_static(b"tunnelled ip packet"),
            },
        };
        let enc = Frame::Routed(pkt.clone()).encode();
        (pkt, enc)
    }

    #[test]
    fn peek_matches_decode_on_app_frames() {
        let (pkt, enc) = app_frame();
        let h = RoutedHeader::peek(&enc).expect("canonical app frame");
        assert_eq!(h.src, pkt.src);
        assert_eq!(h.dst, pkt.dst);
        assert_eq!(h.hops, pkt.hops);
        assert_eq!(h.ttl, pkt.ttl);
        assert_eq!(h.edge_forwarded, pkt.edge_forwarded);
        assert_eq!(h.proto, 4);
        assert_eq!(&RoutedHeader::payload(&enc)[..], b"tunnelled ip packet");
    }

    #[test]
    fn peek_rejects_non_app_and_malformed() {
        // Link frame.
        let link = Frame::Link(LinkMsg::Ping {
            from: a(1),
            nonce: 1,
        })
        .encode();
        assert!(RoutedHeader::peek(&link).is_err());
        // CTM body.
        let ctm = Frame::Routed(Packet {
            src: a(1),
            dst: a(2),
            hops: 0,
            ttl: 64,
            edge_forwarded: false,
            body: Body::CtmRequest {
                token: 1,
                ctype: ConnType::StructuredNear,
                uris: Vec::new(),
                reply_relay: None,
            },
        })
        .encode();
        assert!(RoutedHeader::peek(&ctm).is_err());
        // Every truncation of a valid app frame.
        let (_, enc) = app_frame();
        for cut in 0..enc.len() {
            assert!(RoutedHeader::peek(&enc.slice(..cut)).is_err());
        }
        // Trailing garbage.
        let mut extra = BytesMut::from(&enc[..]);
        extra.put_u8(0);
        assert!(RoutedHeader::peek(&extra.freeze()).is_err());
        // Non-canonical edge byte: decodes fine, but re-encode would
        // normalize it — not fast-path eligible.
        let mut noncanon = BytesMut::from(&enc[..]);
        noncanon[43] = 2;
        let noncanon = noncanon.freeze();
        assert!(Frame::decode(noncanon.clone()).is_ok());
        assert!(RoutedHeader::peek(&noncanon).is_err());
    }

    #[test]
    fn patch_hops_identical_to_reencode() {
        let (mut pkt, enc) = app_frame();
        // Shared handle: patch must copy, original must stay intact.
        let patched = RoutedHeader::patch_hops(enc.clone(), 42);
        pkt.hops = 42;
        assert_eq!(patched, Frame::Routed(pkt.clone()).encode());
        assert_eq!(RoutedHeader::peek(&enc).unwrap().hops, 3, "original kept");
        // Unique handle: patch in place, same bytes.
        let unique = Bytes::copy_from_slice(&enc[..]);
        let patched = RoutedHeader::patch_hops(unique, 42);
        assert_eq!(patched, Frame::Routed(pkt).encode());
    }
}
