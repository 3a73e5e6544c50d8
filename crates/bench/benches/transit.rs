//! Criterion benchmarks for the decode-free transit path and the ordered
//! connection index.
//!
//! Three groups:
//!
//! * wire level — peek + patch-hops against the decode → re-encode
//!   reference on a 1200-byte frame (the fast path's raison d'être);
//! * node level — a full `on_datagram` transit forward through a router
//!   node;
//! * `next_hop` n-sweep — the ordered ring index at table sizes bracketing
//!   the paper's 151-node testbed.
//!
//! This target is also the CI smoke: `cargo bench -p wow-bench --bench
//! transit` runs in seconds and prints every number EXPERIMENTS.md quotes.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use wow_netsim::addr::{PhysAddr, PhysIp};
use wow_netsim::time::SimTime;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::{ConnTable, ConnType};
use wow_overlay::driver::{NodeEvent, NodeSink};
use wow_overlay::node::BrunetNode;
use wow_overlay::telemetry::{Counter, TelemetryCounters};
use wow_overlay::uri::TransportUri;
use wow_overlay::wire::{Body, Frame, LinkMsg, Packet, RoutedHeader};

const T0: SimTime = SimTime::ZERO;

fn phys(host: u8) -> PhysAddr {
    PhysAddr::new(PhysIp::new(10, 0, 0, host), 14000)
}

/// A routed 1200-byte application frame — the IPOP tunnel MTU regime.
fn app_frame(dst: Address, hops: u8) -> Bytes {
    Frame::Routed(Packet {
        src: Address([0x05; 20]),
        dst,
        hops,
        ttl: 64,
        edge_forwarded: false,
        body: Body::App {
            proto: 4,
            data: Bytes::from(vec![0u8; 1200]),
        },
    })
    .encode()
}

fn bench_wire_transit(c: &mut Criterion) {
    let frame = app_frame(Address([0x40; 20]), 3);

    // The fast path's wire work: borrow the header, patch the hop count in
    // the received (uniquely-owned) buffer.
    c.bench_function("transit_peek_patch_1200B", |b| {
        b.iter_batched(
            || Bytes::copy_from_slice(&frame),
            |buf| {
                let h = RoutedHeader::peek(&buf).expect("app frame peeks");
                RoutedHeader::patch_hops(buf, h.hops + 1)
            },
            BatchSize::SmallInput,
        )
    });

    // The slow path's wire work: full decode, mutate, full re-encode.
    c.bench_function("transit_decode_reencode_1200B", |b| {
        b.iter_batched(
            || Bytes::copy_from_slice(&frame),
            |buf| {
                let mut pkt = match Frame::decode(buf).expect("app frame decodes") {
                    Frame::Routed(p) => p,
                    other => panic!("unexpected frame {other:?}"),
                };
                pkt.hops += 1;
                Frame::Routed(pkt).encode()
            },
            BatchSize::SmallInput,
        )
    });
}

/// Counter-only sink: frames are dropped after a black_box, so the bench
/// measures the node's forwarding work, not transcript bookkeeping.
struct BenchSink {
    counters: TelemetryCounters,
}

impl NodeSink for BenchSink {
    fn send(&mut self, _to: PhysAddr, frame: Bytes) {
        black_box(frame);
    }
    fn event(&mut self, _event: NodeEvent) {}
    fn count(&mut self, counter: Counter) {
        self.counters.record(counter);
    }
    fn add_count(&mut self, counter: Counter, n: u64) {
        self.counters.add(counter, n);
    }
}

/// A started router node with two structured neighbours, built through the
/// real passive-accept path.
fn router_node() -> BrunetNode {
    let mut node = BrunetNode::new(Address([0x18; 20]), OverlayConfig::default(), 1);
    let mut sink = BenchSink {
        counters: TelemetryCounters::new(),
    };
    node.start(T0, TransportUri::udp(phys(1)), vec![], &mut sink);
    for (peer, host) in [(Address([0x10; 20]), 2u8), (Address([0x20; 20]), 3u8)] {
        let req = Frame::Link(LinkMsg::LinkRequest {
            from: peer,
            target: Address([0x18; 20]),
            ctype: ConnType::StructuredNear,
            attempt: 1,
        })
        .encode();
        node.on_datagram(T0, phys(host), req, &mut sink);
    }
    node
}

fn bench_node_transit(c: &mut Criterion) {
    // Destination just past the 0x20.. neighbour: every datagram is a
    // single transit forward to that peer.
    let frame = app_frame(Address([0x21; 20]), 3);
    let mut node = router_node();
    let mut sink = BenchSink {
        counters: TelemetryCounters::new(),
    };
    c.bench_function("node_transit_forward_fast", |b| {
        b.iter_batched(
            || Bytes::copy_from_slice(&frame),
            |buf| node.on_datagram(T0, phys(9), buf, &mut sink),
            BatchSize::SmallInput,
        )
    });
    assert!(
        sink.counters.get(Counter::TransitFastPath) > 0
            && sink.counters.get(Counter::Forwarded) > 0,
        "the bench must actually forward on the decode-free path"
    );
}

fn bench_next_hop_sweep(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(7);
    // 151 is the paper's testbed size; the rest brackets it to expose the
    // index's O(log n).
    for n in [16usize, 64, 151, 512, 2048] {
        let me = Address::random(&mut rng);
        let mut table = ConnTable::new();
        for i in 0..n {
            table.upsert(
                Address::random(&mut rng),
                if i % 4 == 0 {
                    ConnType::StructuredNear
                } else {
                    ConnType::StructuredFar
                },
                PhysAddr::new(PhysIp::new(10, 1, (i >> 8) as u8, i as u8), 4000),
                T0,
            );
        }
        let dst = Address::random(&mut rng);
        let exclude = [Address::random(&mut rng), Address::random(&mut rng)];
        c.bench_function(&format!("next_hop_index_n{n}"), |b| {
            b.iter(|| black_box(table.next_hop(black_box(me), black_box(dst), &exclude)))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wire_transit, bench_node_transit, bench_next_hop_sweep
}
criterion_main!(benches);
