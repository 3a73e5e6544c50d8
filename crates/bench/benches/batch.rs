//! Criterion benchmarks for the batched frame-emission path.
//!
//! Two groups:
//!
//! * socket level — flushing a multi-frame burst through
//!   [`SocketTransport::transmit_batch`] (one `UDP_SEGMENT` GSO send for a
//!   same-destination run, `sendmmsg(2)` for mixed destinations) against
//!   the per-frame `send_to` loop it replaced, at burst sizes bracketing
//!   what one event cycle actually emits;
//! * driver level — a full `with_sink` event cycle emitting a burst over a
//!   real socket, measuring the seam end to end.
//!
//! Frames are 1200 bytes (the IPOP tunnel MTU regime) aimed at bound
//! loopback sockets that are never read: the kernel does the complete
//! send-path work and the receive buffer absorbs or drops on delivery —
//! no ICMP generation and no receiver draining mid-measurement.
//!
//! Like `transit`, this target doubles as a CI smoke: `cargo bench -p
//! wow-bench --bench batch` runs in seconds and prints the numbers
//! EXPERIMENTS.md quotes for the flush-boundary claim.

use std::net::UdpSocket;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bytes::Bytes;

use wow::udprt::SocketTransport;
use wow_netsim::addr::{PhysAddr, PhysIp};
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::driver::{FrameBatch, NodeDriver, NodeSink, Transport};
use wow_overlay::node::BrunetNode;

/// Bind loopback sockets nobody ever reads — blackhole destinations.
fn blackholes(n: usize) -> (Vec<UdpSocket>, Vec<PhysAddr>) {
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind blackhole"))
        .collect();
    let addrs = sockets
        .iter()
        .map(|s| {
            PhysAddr::new(
                PhysIp::new(127, 0, 0, 1),
                s.local_addr().expect("addr").port(),
            )
        })
        .collect();
    (sockets, addrs)
}

/// A burst of `k` 1200-byte frames round-robined over `dsts`.
fn burst(dsts: &[PhysAddr], k: usize) -> FrameBatch {
    let payload = Bytes::from(vec![0u8; 1200]);
    let mut batch = FrameBatch::new();
    for i in 0..k {
        batch.push(dsts[i % dsts.len()], payload.clone());
    }
    batch
}

fn bench_socket_flush(c: &mut Criterion) {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind bench socket");
    // One destination: the relay-burst regime, where the whole flush is a
    // single GSO send. Eight interleaved destinations: the worst case for
    // run detection — every run has length 1, so the flush degrades to
    // sendmmsg.
    let (_bh1, one) = blackholes(1);
    let (_bh8, eight) = blackholes(8);
    for (regime, dsts) in [("1dst", &one), ("8dst", &eight)] {
        for k in [4usize, 16, 64] {
            // The pre-batching behaviour: one send_to syscall per frame.
            c.bench_function(&format!("udp_flush_per_frame_{k}x1200B_{regime}"), |b| {
                let mut t = SocketTransport::new(&socket);
                b.iter_batched(
                    || burst(dsts, k),
                    |mut batch| {
                        let mut failed = 0u64;
                        for (to, frame) in batch.drain() {
                            if !t.transmit(to, frame) {
                                failed += 1;
                            }
                        }
                        failed
                    },
                    BatchSize::SmallInput,
                )
            });
            // The batched flush: GSO / sendmmsg picked per run.
            c.bench_function(&format!("udp_flush_batched_{k}x1200B_{regime}"), |b| {
                let mut t = SocketTransport::new(&socket);
                b.iter_batched(
                    || burst(dsts, k),
                    |mut batch| t.transmit_batch(&mut batch),
                    BatchSize::SmallInput,
                )
            });
        }
    }
}

fn bench_driver_cycle(c: &mut Criterion) {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind bench socket");
    let (_bh, dsts) = blackholes(1);
    let payload = Bytes::from(vec![0u8; 1200]);
    let mut driver = NodeDriver::new(BrunetNode::new(
        Address([0x18; 20]),
        OverlayConfig::default(),
        1,
    ));
    let mut transport = SocketTransport::new(&socket);
    c.bench_function("driver_cycle_batched_16x1200B", |b| {
        b.iter(|| {
            driver.with_sink(&mut transport, |_node, sink| {
                for _ in 0..16 {
                    sink.send(dsts[0], payload.clone());
                }
            })
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_socket_flush, bench_driver_cycle
}
criterion_main!(benches);
