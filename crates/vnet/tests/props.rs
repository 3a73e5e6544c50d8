//! Property tests: the stack must deliver an intact, in-order byte stream
//! through arbitrary segment loss, reordering and duplication, and every
//! codec must be total. Below them, model-based differentials hold the
//! connection's byte queues to a byte-at-a-time oracle, and one scripted
//! chaos run pins the exact bytes a connection pair puts on the wire.

use std::collections::VecDeque;

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wow_netsim::time::{SimDuration, SimTime};
use wow_vnet::buf::{copy_range, RecvQueue};
use wow_vnet::ip::{IpProto, Ipv4Packet, VirtIp};
use wow_vnet::tcp::{TcpConfig, TcpConn, TcpFlags, TcpSegment, MSS};
use wow_vnet::udp::UdpDatagram;

proptest! {
    /// IPv4 codec roundtrip over arbitrary payloads and fields.
    #[test]
    fn ipv4_roundtrip(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        proto in prop_oneof![Just(IpProto::Icmp), Just(IpProto::Tcp), Just(IpProto::Udp)],
        ttl in 1u8..255,
        ident in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..2000),
    ) {
        let mut pkt = Ipv4Packet::new(VirtIp(src), VirtIp(dst), proto, Bytes::from(payload));
        pkt.ttl = ttl;
        pkt.ident = ident;
        prop_assert_eq!(Ipv4Packet::decode(pkt.encode()).unwrap(), pkt);
    }

    /// IPv4 decode never panics on arbitrary bytes.
    #[test]
    fn ipv4_decode_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Ipv4Packet::decode(Bytes::from(bytes));
    }

    /// UDP decode never panics on arbitrary bytes.
    #[test]
    fn udp_decode_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = UdpDatagram::decode(Bytes::from(bytes));
    }

    /// TCP segment decode never panics on arbitrary bytes.
    #[test]
    fn tcp_decode_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = TcpSegment::decode(Bytes::from(bytes));
    }

    /// TCP delivers the exact byte stream through a lossy, reordering,
    /// duplicating network.
    #[test]
    fn tcp_chaos_delivers_intact_stream(
        seed in any::<u64>(),
        len in 1usize..40_000,
        loss in 0.0f64..0.3,
        dup in 0.0f64..0.1,
        reorder in 0.0f64..0.3,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        let got = chaos_transfer(seed, &data, loss, dup, reorder, |_| {});
        prop_assert_eq!(got, Ok(data));
    }
}

/// Push `data` from a client to a server connection through a network that
/// loses, duplicates and reorders segments as `seed` dictates; `on_wire`
/// sees every segment either side emits, in order. Returns what the server
/// read.
fn chaos_transfer(
    seed: u64,
    data: &[u8],
    loss: f64,
    dup: f64,
    reorder: f64,
    mut on_wire: impl FnMut(&TcpSegment),
) -> Result<Vec<u8>, String> {
    let mut rng = SmallRng::seed_from_u64(seed);

    let t0 = SimTime::ZERO;
    let mut c = TcpConn::connect(t0, 5000, 80, 1000, TcpConfig::default());
    let syn = c.take_output().remove(0);
    let mut s = TcpConn::accept(t0, 80, 5000, 9000, &syn, TcpConfig::default());

    // In-flight segments with arrival times; the "network".
    let mut wire_cs: Vec<(SimTime, TcpSegment)> = Vec::new();
    let mut wire_sc: Vec<(SimTime, TcpSegment)> = Vec::new();
    // Deliver the SYN-ACK directly to finish the handshake cleanly.
    for seg in s.take_output() {
        c.on_segment(t0, seg);
    }
    for seg in c.take_output() {
        s.on_segment(t0, seg);
    }

    let mut t = t0;
    let mut sent = 0usize;
    let mut got: Vec<u8> = Vec::new();
    let step = SimDuration::from_millis(20);
    let mut idle_rounds = 0u32;
    while got.len() < data.len() {
        t += step;
        if sent < data.len() {
            sent += c.write(t, &data[sent..]);
        }
        c.on_tick(t);
        s.on_tick(t);
        // Client→server direction through chaos.
        for seg in c.take_output() {
            on_wire(&seg);
            if rng.gen::<f64>() < loss {
                continue;
            }
            let delay_ms = if rng.gen::<f64>() < reorder {
                rng.gen_range(1..200)
            } else {
                10
            };
            let at = t + SimDuration::from_millis(delay_ms);
            wire_cs.push((at, seg.clone()));
            if rng.gen::<f64>() < dup {
                wire_cs.push((at + SimDuration::from_millis(5), seg));
            }
        }
        // Server→client (ACKs) through the same chaos.
        for seg in s.take_output() {
            on_wire(&seg);
            if rng.gen::<f64>() < loss {
                continue;
            }
            let delay_ms = if rng.gen::<f64>() < reorder {
                rng.gen_range(1..200)
            } else {
                10
            };
            wire_sc.push((t + SimDuration::from_millis(delay_ms), seg));
        }
        // Deliver everything due.
        wire_cs.sort_by_key(|(at, _)| *at);
        wire_sc.sort_by_key(|(at, _)| *at);
        while wire_cs.first().is_some_and(|(at, _)| *at <= t) {
            let (_, seg) = wire_cs.remove(0);
            s.on_segment(t, seg);
        }
        while wire_sc.first().is_some_and(|(at, _)| *at <= t) {
            let (_, seg) = wire_sc.remove(0);
            c.on_segment(t, seg);
        }
        let chunk = s.read(t, usize::MAX);
        if chunk.is_empty() {
            idle_rounds += 1;
            // Generous guard: RTO backoff can stall for a while, but
            // 100k idle steps (~33 sim-minutes) means a real deadlock.
            if idle_rounds >= 100_000 {
                return Err(format!(
                    "transfer deadlocked at {} / {} bytes",
                    got.len(),
                    data.len()
                ));
            }
        } else {
            idle_rounds = 0;
            got.extend_from_slice(&chunk);
        }
    }
    Ok(got)
}

/// "Speed only", checked below the benchmark's digests: one scripted
/// loss/duplication/reorder run, and every byte either connection puts on
/// the wire, in order, hashes to what the byte-at-a-time buffers emitted.
#[test]
fn chaos_wire_bytes_are_pinned() {
    let data = stream(0..300_000);
    let (mut hash, mut segments) = (0xcbf2_9ce4_8422_2325u64, 0u32);
    let got = chaos_transfer(0x5CA1E, &data, 0.08, 0.05, 0.2, |seg| {
        segments += 1;
        for &b in seg.encode().iter() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3); // FNV-1a
        }
    });
    assert_eq!(got.as_deref(), Ok(&data[..]));
    assert_eq!((segments, hash), (704, 2_433_489_375_620_480_610));
}

// ---------------------------------------------------------------------------
// Byte queues against a byte-at-a-time oracle.

/// What a connection's buffers are, one byte at a time: `TcpConn` moved
/// data exactly like this before `wow_vnet::buf`. The oracle lives only
/// here.
#[derive(Default)]
struct Oracle {
    send: VecDeque<u8>,
    recv: VecDeque<u8>,
}

impl Oracle {
    fn write(&mut self, data: &[u8], cap: usize) -> usize {
        let room = cap.saturating_sub(self.send.len());
        data.iter().take(room).for_each(|&b| self.send.push_back(b));
        data.len().min(room)
    }
    fn segment(&self, off: usize, n: usize) -> Vec<u8> {
        self.send.iter().skip(off).take(n).copied().collect()
    }
    fn consume(&mut self, n: usize) {
        for _ in 0..n {
            self.send.pop_front();
        }
    }
    fn ingest(&mut self, chunk: &[u8], cap: usize) -> usize {
        let room = cap.saturating_sub(self.recv.len());
        chunk
            .iter()
            .take(room)
            .for_each(|&b| self.recv.push_back(b));
        chunk.len().min(room)
    }
    fn read(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.recv.len());
        (0..n)
            .map(|_| self.recv.pop_front().expect("n <= len"))
            .collect()
    }
}

/// The transfer's content: byte `i` of the stream.
fn stream(range: std::ops::Range<usize>) -> Vec<u8> {
    range.map(|i| (i * 31 + i / 251) as u8).collect()
}

/// A `read(max)` argument: zero, tiny, around a segment, or everything.
fn pick_max(rng: &mut SmallRng) -> usize {
    match rng.gen_range(0..6) {
        0 => 0,
        1 => rng.gen_range(1..8),
        2 => rng.gen_range(MSS - 2..MSS + 3),
        3 => rng.gen_range(1..4 * MSS),
        _ => usize::MAX,
    }
}

/// `copy_range` and `RecvQueue` directly: every offset, the ring's seam,
/// the capacity clamp, reads of zero and of more than is queued.
#[test]
fn byte_queues_match_bytewise_oracle() {
    const CAP: usize = 4096;
    for seed in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut oracle = Oracle::default();
        let mut send: VecDeque<u8> = VecDeque::new();
        let mut recv = RecvQueue::new();
        let (mut wrote, mut got) = (0usize, 0usize);
        let mut saw_seam = false;
        for _ in 0..4_000 {
            match rng.gen_range(0..5) {
                0 => {
                    let data = stream(wrote..wrote + rng.gen_range(0..2 * MSS));
                    let n = data.len().min(CAP - send.len());
                    send.extend(&data[..n]);
                    assert_eq!(oracle.write(&data, CAP), n);
                    wrote += n;
                }
                1 if !send.is_empty() => {
                    let off = rng.gen_range(0..send.len());
                    let n = rng.gen_range(0..=(send.len() - off).min(MSS));
                    saw_seam |=
                        off < send.as_slices().0.len() && off + n > send.as_slices().0.len();
                    assert_eq!(copy_range(&send, off, n), oracle.segment(off, n));
                }
                2 => {
                    let n = rng.gen_range(0..=send.len().min(3 * MSS));
                    send.drain(..n);
                    oracle.consume(n);
                }
                3 => {
                    let chunk = Bytes::from(stream(got..got + rng.gen_range(0..MSS + 1)));
                    let take = chunk.len().min(CAP - recv.len());
                    recv.push(chunk.slice(..take));
                    assert_eq!(oracle.ingest(&chunk, CAP), take);
                    got += take;
                }
                _ => {
                    let max = pick_max(&mut rng);
                    assert_eq!(recv.pop(max), oracle.read(max));
                }
            }
            assert_eq!(send.len(), oracle.send.len());
            assert_eq!(recv.len(), oracle.recv.len());
            assert_eq!(recv.is_empty(), oracle.recv.is_empty());
        }
        assert!(saw_seam, "seed {seed} never read across the ring's seam");
    }
}

fn seg(seq: u32, ack: u32, syn: bool, payload: Vec<u8>) -> TcpSegment {
    TcpSegment {
        src_port: 5000,
        dst_port: 80,
        seq,
        ack,
        flags: TcpFlags {
            syn,
            ack: !syn,
            ..Default::default()
        },
        window: 1 << 20,
        payload: Bytes::from(payload),
    }
}

/// The send side through `TcpConn`: what `write` accepts, every segment
/// `pump_send` and `retransmit_head` cut at whatever offset, and what an
/// ACK consumes, against the oracle.
#[test]
fn conn_send_side_matches_bytewise_oracle() {
    let cfg = TcpConfig {
        send_capacity: 8 * 1024,
        ..TcpConfig::default()
    };
    for seed in 0..20u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut oracle = Oracle::default();
        let mut now = SimTime::ZERO;
        let (iss, peer) = (1000u32, 7000u32);
        let mut c = TcpConn::connect(now, 80, 5000, iss, cfg.clone());
        c.take_output();
        let mut syn_ack = seg(peer, iss.wrapping_add(1), true, Vec::new());
        syn_ack.flags.ack = true;
        c.on_segment(now, syn_ack);
        let base = iss.wrapping_add(1);
        // Stream offsets: written so far, acknowledged so far, highest sent.
        let (mut wrote, mut acked, mut sent) = (0usize, 0usize, 0usize);
        for _ in 0..3_000 {
            now += SimDuration::from_millis(1);
            match rng.gen_range(0..4) {
                0 | 1 => {
                    let data = stream(wrote..wrote + rng.gen_range(0..6 * MSS));
                    let n = c.write(now, &data);
                    assert_eq!(n, oracle.write(&data, cfg.send_capacity));
                    wrote += n;
                }
                2 if sent > acked => {
                    let upto = rng.gen_range(acked + 1..=sent);
                    let ack = seg(
                        peer.wrapping_add(1),
                        base.wrapping_add(upto as u32),
                        false,
                        Vec::new(),
                    );
                    c.on_segment(now, ack);
                    oracle.consume(upto - acked);
                    acked = upto;
                }
                _ => {
                    if let Some(deadline) = c.next_deadline() {
                        now = now.max(deadline);
                        c.on_tick(now);
                    }
                }
            }
            for out in c.take_output() {
                if out.payload.is_empty() {
                    continue;
                }
                let at = out.seq.wrapping_sub(base) as usize;
                assert!(at >= acked && at + out.payload.len() <= wrote);
                assert_eq!(out.payload, oracle.segment(at - acked, out.payload.len()));
                assert_eq!(out.payload, stream(at..at + out.payload.len()));
                sent = sent.max(at + out.payload.len());
            }
            assert_eq!(c.send_space(), cfg.send_capacity - oracle.send.len());
        }
        assert!(
            acked > 20 * cfg.send_capacity,
            "seed {seed} moved only {acked} bytes"
        );
    }
}

/// The receive side through `TcpConn`: segments in order, ahead of a gap
/// that the next one fills, overlapping what was already received, against
/// the capacity clamp; `read(max)` for every kind of `max`.
#[test]
fn conn_recv_side_matches_bytewise_oracle() {
    let cfg = TcpConfig {
        recv_capacity: 8 * 1024,
        ..TcpConfig::default()
    };
    for seed in 0..20u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut oracle = Oracle::default();
        let now = SimTime::ZERO;
        let (iss, peer) = (9000u32, 4000u32);
        let mut c = TcpConn::accept(
            now,
            80,
            5000,
            iss,
            &seg(peer, 0, true, Vec::new()),
            cfg.clone(),
        );
        let base = peer.wrapping_add(1);
        let our = iss.wrapping_add(1);
        c.on_segment(now, seg(base, our, false, Vec::new()));
        c.take_output();
        // Stream bytes the connection has accepted in order so far.
        let mut got = 0usize;
        let data = |from: usize, len: usize| {
            seg(
                base.wrapping_add(from as u32),
                our,
                false,
                stream(from..from + len),
            )
        };
        for _ in 0..3_000 {
            let len = rng.gen_range(1..=MSS);
            match rng.gen_range(0..5) {
                0 | 1 => {
                    c.on_segment(now, data(got, len));
                    got += oracle.ingest(&stream(got..got + len), cfg.recv_capacity);
                }
                2 if c.readable() + 2 * MSS <= cfg.recv_capacity => {
                    // The later segment first; the earlier one fills the gap.
                    let len2 = rng.gen_range(1..=MSS);
                    c.on_segment(now, data(got + len, len2));
                    assert_eq!(c.readable(), oracle.recv.len(), "held back behind the gap");
                    c.on_segment(now, data(got, len));
                    got += oracle.ingest(&stream(got..got + len + len2), cfg.recv_capacity);
                }
                3 => {
                    // A retransmission that starts before the in-order point.
                    let back = rng.gen_range(0..=got.min(MSS));
                    c.on_segment(now, data(got - back, len));
                    if len > back {
                        got += oracle.ingest(&stream(got..got - back + len), cfg.recv_capacity);
                    }
                }
                _ => {
                    let max = pick_max(&mut rng);
                    assert_eq!(c.read(now, max), oracle.read(max));
                }
            }
            assert_eq!(c.readable(), oracle.recv.len());
            assert!(c.readable() <= cfg.recv_capacity);
            if let Some(last) = c.take_output().last() {
                assert_eq!(last.ack, base.wrapping_add(got as u32));
                assert_eq!(last.window as usize, cfg.recv_capacity - oracle.recv.len());
            }
        }
        assert!(
            got > 20 * cfg.recv_capacity,
            "seed {seed} moved only {got} bytes"
        );
    }
}
