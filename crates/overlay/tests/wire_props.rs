//! Property tests for the wire codec and ring arithmetic.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wow_netsim::addr::{PhysAddr, PhysIp};
use wow_overlay::addr::{Address, U160};
use wow_overlay::conn::ConnType;
use wow_overlay::uri::{Scheme, TransportUri};
use wow_overlay::wire::{Body, Frame, LinkErrorReason, LinkMsg, Packet, RoutedHeader};

fn arb_address() -> impl Strategy<Value = Address> {
    any::<[u8; 20]>().prop_map(Address)
}

fn arb_phys() -> impl Strategy<Value = PhysAddr> {
    (any::<u32>(), any::<u16>()).prop_map(|(ip, port)| PhysAddr::new(PhysIp(ip), port))
}

fn arb_uri() -> impl Strategy<Value = TransportUri> {
    (
        prop_oneof![Just(Scheme::Udp), Just(Scheme::Tcp)],
        arb_phys(),
    )
        .prop_map(|(scheme, addr)| TransportUri { scheme, addr })
}

fn arb_ctype() -> impl Strategy<Value = ConnType> {
    prop_oneof![
        Just(ConnType::Leaf),
        Just(ConnType::StructuredNear),
        Just(ConnType::StructuredFar),
        Just(ConnType::Shortcut),
    ]
}

fn arb_link_msg() -> impl Strategy<Value = LinkMsg> {
    prop_oneof![
        (arb_address(), arb_address(), arb_ctype(), any::<u64>()).prop_map(
            |(from, target, ctype, attempt)| LinkMsg::LinkRequest {
                from,
                target,
                ctype,
                attempt
            }
        ),
        (arb_address(), any::<u64>(), arb_phys()).prop_map(|(from, attempt, observed)| {
            LinkMsg::LinkReply {
                from,
                attempt,
                observed,
            }
        }),
        (
            arb_address(),
            any::<u64>(),
            prop_oneof![
                Just(LinkErrorReason::InRace),
                Just(LinkErrorReason::WrongNode),
                Just(LinkErrorReason::NotConnected)
            ]
        )
            .prop_map(|(from, attempt, reason)| LinkMsg::LinkError {
                from,
                attempt,
                reason
            }),
        (arb_address(), any::<u64>()).prop_map(|(from, nonce)| LinkMsg::Ping { from, nonce }),
        (arb_address(), any::<u64>(), arb_phys()).prop_map(|(from, nonce, observed)| {
            LinkMsg::Pong {
                from,
                nonce,
                observed,
            }
        }),
        arb_address().prop_map(|from| LinkMsg::NeighborQuery { from }),
        (
            arb_address(),
            prop::collection::vec(arb_address(), 0..8),
            arb_phys()
        )
            .prop_map(|(from, neighbors, observed)| LinkMsg::NeighborReply {
                from,
                neighbors,
                observed,
            }),
    ]
}

fn arb_body() -> impl Strategy<Value = Body> {
    prop_oneof![
        (
            any::<u64>(),
            arb_ctype(),
            prop::collection::vec(arb_uri(), 0..6),
            prop::option::of(arb_address())
        )
            .prop_map(|(token, ctype, uris, reply_relay)| Body::CtmRequest {
                token,
                ctype,
                uris,
                reply_relay
            }),
        (
            any::<u64>(),
            arb_address(),
            prop::collection::vec(arb_uri(), 0..6),
            arb_address()
        )
            .prop_map(|(token, responder, uris, for_node)| Body::CtmReply {
                token,
                responder,
                uris,
                for_node
            }),
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..256)).prop_map(|(proto, data)| {
            Body::App {
                proto,
                data: Bytes::from(data),
            }
        }),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        arb_address(),
        arb_address(),
        any::<u8>(),
        any::<u8>(),
        any::<bool>(),
        arb_body(),
    )
        .prop_map(|(src, dst, hops, ttl, edge_forwarded, body)| Packet {
            src,
            dst,
            hops,
            ttl,
            edge_forwarded,
            body,
        })
}

/// Routed packets with an application body — the set the transit fast path
/// is allowed to peek at.
fn arb_app_packet() -> impl Strategy<Value = Packet> {
    (
        arb_address(),
        arb_address(),
        any::<u8>(),
        any::<u8>(),
        any::<bool>(),
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(
            |(src, dst, hops, ttl, edge_forwarded, proto, data)| Packet {
                src,
                dst,
                hops,
                ttl,
                edge_forwarded,
                body: Body::App {
                    proto,
                    data: Bytes::from(data),
                },
            },
        )
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_link_msg().prop_map(Frame::Link),
        arb_packet().prop_map(Frame::Routed),
    ]
}

/// One frame of every shape, `i` choosing the shape, `rng` the fields —
/// the seeded corpus whose encoded bytes `frame_corpus_bytes_are_pinned`
/// hashes.
fn corpus_frame(rng: &mut SmallRng, i: usize) -> Frame {
    let addr = |rng: &mut SmallRng| Address::random(rng);
    let phys = |rng: &mut SmallRng| PhysAddr::new(PhysIp(rng.gen()), rng.gen());
    let ctype = |rng: &mut SmallRng| ConnType::from_wire_id(rng.gen_range(0..4u8)).unwrap();
    let uris = |rng: &mut SmallRng| -> Vec<TransportUri> {
        (0..rng.gen_range(0..6usize))
            .map(|_| TransportUri {
                scheme: if rng.gen_bool(0.5) {
                    Scheme::Udp
                } else {
                    Scheme::Tcp
                },
                addr: phys(rng),
            })
            .collect()
    };
    let link = |m: LinkMsg| Frame::Link(m);
    match i % 10 {
        0 => link(LinkMsg::LinkRequest {
            from: addr(rng),
            target: addr(rng),
            ctype: ctype(rng),
            attempt: rng.gen(),
        }),
        1 => link(LinkMsg::LinkReply {
            from: addr(rng),
            attempt: rng.gen(),
            observed: phys(rng),
        }),
        2 => link(LinkMsg::LinkError {
            from: addr(rng),
            attempt: rng.gen(),
            reason: [
                LinkErrorReason::InRace,
                LinkErrorReason::WrongNode,
                LinkErrorReason::NotConnected,
            ][rng.gen_range(0..3usize)],
        }),
        3 => link(LinkMsg::Ping {
            from: addr(rng),
            nonce: rng.gen(),
        }),
        4 => link(LinkMsg::Pong {
            from: addr(rng),
            nonce: rng.gen(),
            observed: phys(rng),
        }),
        5 => link(LinkMsg::NeighborQuery { from: addr(rng) }),
        6 => link(LinkMsg::NeighborReply {
            from: addr(rng),
            neighbors: (0..rng.gen_range(0..9usize)).map(|_| addr(rng)).collect(),
            observed: phys(rng),
        }),
        shape => {
            let body = match shape {
                7 => Body::CtmRequest {
                    token: rng.gen(),
                    ctype: ctype(rng),
                    uris: uris(rng),
                    reply_relay: if rng.gen_bool(0.5) {
                        Some(addr(rng))
                    } else {
                        None
                    },
                },
                8 => Body::CtmReply {
                    token: rng.gen(),
                    responder: addr(rng),
                    uris: uris(rng),
                    for_node: addr(rng),
                },
                _ => {
                    let mut data = vec![0u8; rng.gen_range(0..1500usize)];
                    rng.fill(&mut data[..]);
                    Body::App {
                        proto: rng.gen(),
                        data: Bytes::from(data),
                    }
                }
            };
            Frame::Routed(Packet {
                src: addr(rng),
                dst: addr(rng),
                hops: rng.gen(),
                ttl: rng.gen(),
                edge_forwarded: rng.gen_bool(0.5),
                body,
            })
        }
    }
}

/// The bytes on the wire are a compatibility contract: a seeded corpus of
/// every frame shape must keep encoding to exactly the bytes it always has.
/// FNV-1a over each frame's length and bytes, pinned.
#[test]
fn frame_corpus_bytes_are_pinned() {
    let mut rng = SmallRng::seed_from_u64(0x00F1_A3E5);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut total = 0usize;
    for i in 0..2000 {
        let wire = corpus_frame(&mut rng, i).encode();
        total += wire.len();
        for &b in (wire.len() as u32).to_be_bytes().iter().chain(wire.iter()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    assert_eq!(total, 275_698, "corpus size");
    assert_eq!(h, 0x14A5_9F1B_0B08_DAE9, "corpus bytes changed");
}

/// Addresses order as 160-bit big-endian integers, which is exactly the
/// order of their bytes — at the edges: all-zero, all-`FF`, and every
/// single-byte difference from each.
#[test]
fn address_order_edges_match_byte_order() {
    let zero = Address([0; 20]);
    let ones = Address([0xFF; 20]);
    let mut cases = vec![(zero, ones), (ones, zero), (zero, zero), (ones, ones)];
    for i in 0..20 {
        for (base, byte) in [(zero, 1u8), (zero, 0x80), (ones, 0xFE), (ones, 0x7F)] {
            let mut b = base;
            b.0[i] = byte;
            cases.push((base, b));
            cases.push((b, base));
        }
    }
    for (a, b) in cases {
        assert_eq!(a.cmp(&b), a.0.cmp(&b.0), "{a} vs {b}");
        assert_eq!(a.partial_cmp(&b), Some(a.0.cmp(&b.0)), "{a} vs {b}");
    }
}

proptest! {
    /// encode → decode is the identity for every representable frame.
    #[test]
    fn codec_roundtrip(frame in arb_frame()) {
        let encoded = frame.encode();
        let decoded = Frame::decode(encoded).expect("well-formed frame must decode");
        prop_assert_eq!(decoded, frame);
    }

    /// The length `encode` allocates up front is exactly what it writes.
    #[test]
    fn encoded_len_is_exact(frame in arb_frame()) {
        prop_assert_eq!(frame.encoded_len(), frame.encode().len());
    }

    /// `Address`'s integer order is its byte order, on random pairs and on
    /// pairs that differ in one byte.
    #[test]
    fn address_order_is_byte_order(
        a in arb_address(),
        b in arb_address(),
        at in 0..20usize,
        byte in any::<u8>(),
    ) {
        prop_assert_eq!(a.cmp(&b), a.0.cmp(&b.0));
        let mut near = a;
        near.0[at] = byte;
        prop_assert_eq!(a.cmp(&near), a.0.cmp(&near.0));
        prop_assert_eq!(near.cmp(&a), near.0.cmp(&a.0));
    }

    /// Decoding arbitrary bytes never panics (it may or may not succeed).
    #[test]
    fn decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Frame::decode(Bytes::from(bytes));
    }

    /// Any strict prefix of a valid encoding fails to decode (no frame is a
    /// prefix of another).
    #[test]
    fn no_frame_is_a_prefix(frame in arb_frame()) {
        let encoded = frame.encode();
        for cut in 0..encoded.len() {
            prop_assert!(Frame::decode(encoded.slice(..cut)).is_err());
        }
    }

    /// Ring distance is symmetric, bounded by half the ring, and zero only
    /// for identical addresses.
    #[test]
    fn ring_distance_metric(a in arb_address(), b in arb_address()) {
        let d_ab = a.ring_dist(b);
        let d_ba = b.ring_dist(a);
        prop_assert_eq!(d_ab, d_ba);
        prop_assert!(d_ab <= U160::pow2(159));
        prop_assert_eq!(d_ab == U160::ZERO, a == b);
    }

    /// Clockwise distances around a triangle close the loop: cw(a→b) +
    /// cw(b→c) + cw(c→a) is a whole number of ring turns (0 mod 2^160).
    #[test]
    fn cw_distances_close_the_ring(a in arb_address(), b in arb_address(), c in arb_address()) {
        let total = a
            .dist_cw(b)
            .wrapping_add(b.dist_cw(c))
            .wrapping_add(c.dist_cw(a));
        // Each leg is < 2^160, so the sum mod 2^160 is 0 (whole turns).
        prop_assert_eq!(total, U160::ZERO);
    }

    /// wrapping_add distributes over dist_cw: shifting both endpoints by
    /// the same delta preserves clockwise distance.
    #[test]
    fn translation_invariance(a in arb_address(), b in arb_address(), delta in any::<u64>()) {
        let d = U160::from(delta);
        let shifted = a.wrapping_add(d).dist_cw(b.wrapping_add(d));
        prop_assert_eq!(shifted, a.dist_cw(b));
    }

    /// The borrowed header view agrees with the full decode on every
    /// canonically-encoded routed application frame, payload included.
    #[test]
    fn peek_agrees_with_decode_on_app_frames(pkt in arb_app_packet()) {
        let encoded = Frame::Routed(pkt.clone()).encode();
        let h = RoutedHeader::peek(&encoded).expect("canonical app frame must peek");
        prop_assert_eq!(h.src, pkt.src);
        prop_assert_eq!(h.dst, pkt.dst);
        prop_assert_eq!(h.hops, pkt.hops);
        prop_assert_eq!(h.ttl, pkt.ttl);
        prop_assert_eq!(h.edge_forwarded, pkt.edge_forwarded);
        let Body::App { proto, data } = &pkt.body else { unreachable!() };
        prop_assert_eq!(h.proto, *proto);
        prop_assert_eq!(RoutedHeader::payload(&encoded), data.clone());
    }

    /// Patching the hop count in the received buffer is byte-for-byte the
    /// same frame the slow path produces by decode → mutate → re-encode.
    #[test]
    fn patch_hops_identical_to_reencode(pkt in arb_app_packet(), new_hops in any::<u8>()) {
        let encoded = Frame::Routed(pkt).encode();
        // Reference: the decode → mutate → re-encode slow path.
        let mut reference = match Frame::decode(encoded.clone()).expect("app frame decodes") {
            Frame::Routed(p) => p,
            other => panic!("app frame decoded as {other:?}"),
        };
        reference.hops = new_hops;
        let reencoded = Frame::Routed(reference).encode();
        // `encoded.clone()` above keeps a second handle alive, so this also
        // exercises the shared-storage copy fallback inside patch_hops.
        let patched = RoutedHeader::patch_hops(encoded, new_hops);
        prop_assert_eq!(patched, reencoded);
    }

    /// Peeking arbitrary bytes never panics, and wherever it succeeds the
    /// full decoder agrees — so the fast path can never forward a frame the
    /// slow path would have rejected or read differently.
    #[test]
    fn peek_on_arbitrary_bytes_is_sound(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let buf = Bytes::from(bytes);
        if let Ok(h) = RoutedHeader::peek(&buf) {
            match Frame::decode(buf.clone()) {
                Ok(Frame::Routed(p)) => {
                    prop_assert_eq!(h.src, p.src);
                    prop_assert_eq!(h.dst, p.dst);
                    prop_assert_eq!(h.hops, p.hops);
                    prop_assert_eq!(h.ttl, p.ttl);
                    prop_assert!(matches!(p.body, Body::App { .. }));
                }
                other => prop_assert!(false, "peek accepted what decode rejects: {other:?}"),
            }
        }
    }

    /// Every strict prefix of an app frame is rejected by peek (truncation
    /// falls back cleanly), as is the frame with trailing garbage.
    #[test]
    fn peek_rejects_truncations_and_trailing_garbage(pkt in arb_app_packet(), extra in any::<u8>()) {
        let encoded = Frame::Routed(pkt).encode();
        for cut in 0..encoded.len() {
            prop_assert!(RoutedHeader::peek(&encoded.slice(..cut)).is_err());
        }
        let mut longer = encoded.to_vec();
        longer.push(extra);
        prop_assert!(RoutedHeader::peek(&Bytes::from(longer)).is_err());
    }
}
