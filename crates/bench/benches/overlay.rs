//! Criterion micro/meso benchmarks over the overlay and substrate:
//! wire codec, greedy routing, the keepalive and linking timers, ring
//! convergence, simulator event throughput, TCP stack throughput, and the
//! shortcut score update.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use wow::simrt::{ForwardingCost, NoApp, OverlayHost};
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::{ConnTable, ConnType};
use wow_overlay::linking::LinkingManager;
use wow_overlay::node::BrunetNode;
use wow_overlay::overlord::ShortcutOverlord;
use wow_overlay::ping::PingManager;
use wow_overlay::uri::TransportUri;
use wow_overlay::wire::{Body, Frame, Packet};
use wow_vnet::tcp::{TcpConfig, TcpConn};

fn bench_wire(c: &mut Criterion) {
    let pkt = Frame::Routed(Packet {
        src: Address([1; 20]),
        dst: Address([2; 20]),
        hops: 3,
        ttl: 64,
        edge_forwarded: false,
        body: Body::App {
            proto: 4,
            data: Bytes::from(vec![0u8; 1200]),
        },
    });
    let encoded = pkt.encode();
    c.bench_function("wire_encode_1200B", |b| b.iter(|| pkt.encode()));
    c.bench_function("wire_decode_1200B", |b| {
        b.iter(|| Frame::decode(encoded.clone()).expect("decodes"))
    });
}

fn bench_routing(c: &mut Criterion) {
    // Greedy next-hop over a 64-connection table (a busy router node).
    let mut rng = SmallRng::seed_from_u64(7);
    let me = Address::random(&mut rng);
    let mut table = ConnTable::new();
    for i in 0..64u16 {
        table.upsert(
            Address::random(&mut rng),
            if i % 4 == 0 {
                ConnType::StructuredNear
            } else {
                ConnType::StructuredFar
            },
            PhysAddr::new(PhysIp::new(10, 0, (i >> 8) as u8, i as u8), 4000),
            SimTime::ZERO,
        );
    }
    let dst = Address::random(&mut rng);
    c.bench_function("greedy_next_hop_64conns", |b| {
        b.iter(|| table.next_hop(me, dst, &[]))
    });
}

fn bench_shortcut_score(c: &mut Criterion) {
    let cfg = OverlayConfig::default();
    let mut rng = SmallRng::seed_from_u64(9);
    let peers: Vec<Address> = (0..64).map(|_| Address::random(&mut rng)).collect();
    c.bench_function("shortcut_score_update", |b| {
        b.iter_batched(
            ShortcutOverlord::new,
            |mut sc| {
                for (i, &p) in peers.iter().enumerate() {
                    sc.on_traffic(SimTime::from_millis(i as u64), p, &cfg);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

/// What a node's timers cost per driver cycle, against how many entries the
/// managers hold: an ordinary node (8), a join-storm introducer (512), a
/// 100k-storm introducer (8 192). One entry is due, the rest are parked a
/// ping interval / retransmit timeout out — the usual tick. The point is
/// that the curve is flat in n: a tick costs what is due, not what is
/// tracked.
fn bench_timers(c: &mut Criterion) {
    let cfg = OverlayConfig::default();
    let hot = Address([0x80; 20]);
    for n in [8usize, 512, 8192] {
        let mut rng = SmallRng::seed_from_u64(11);
        let parked: Vec<Address> = (1..n).map(|_| Address::random(&mut rng)).collect();
        let earlier = SimTime::from_secs(100);
        let now = earlier + cfg.ping_interval;

        let mut pinger = PingManager::new();
        for &p in &parked {
            pinger.track(p, now, &cfg);
        }
        pinger.track(hot, now, &cfg);
        let mut cmds = Vec::new();
        c.bench_function(&format!("ping_poll_1due_n{n}"), |b| {
            b.iter(|| {
                // Heard one interval ago: due exactly now.
                pinger.heard(hot, earlier, &cfg);
                cmds.clear();
                pinger.poll(now, &cfg, &mut cmds);
                cmds.len()
            })
        });
        c.bench_function(&format!("ping_next_deadline_n{n}"), |b| {
            b.iter(|| pinger.next_deadline())
        });
        let mut t = now;
        let mut i = 0;
        c.bench_function(&format!("ping_heard_n{n}"), |b| {
            b.iter(|| {
                t += SimDuration::from_micros(1);
                i = (i + 1) % parked.len();
                pinger.heard(parked[i], t, &cfg);
            })
        });

        let uris = vec![TransportUri::udp(PhysAddr::new(
            PhysIp::new(10, 0, 0, 1),
            4000,
        ))];
        let mut linking = LinkingManager::new();
        let mut cmds = Vec::new();
        for &p in &parked {
            linking.start(now, p, ConnType::StructuredNear, uris.clone());
        }
        // First transmission out; every parked attempt now waits one RTO.
        linking.poll(now, &cfg, &mut cmds);
        c.bench_function(&format!("linking_poll_1due_n{n}"), |b| {
            b.iter(|| {
                // A fresh attempt is due immediately.
                linking.cancel(hot);
                linking.start(now, hot, ConnType::Shortcut, uris.clone());
                cmds.clear();
                linking.poll(now, &cfg, &mut cmds);
                cmds.len()
            })
        });
        c.bench_function(&format!("linking_next_deadline_n{n}"), |b| {
            b.iter(|| linking.next_deadline())
        });
    }
}

fn bench_ring_convergence(c: &mut Criterion) {
    // Time to simulate a 24-node public overlay converging for 60 s.
    c.bench_function("sim_ring24_convergence_60s", |b| {
        b.iter(|| {
            let mut sim = Sim::new(3);
            let wan = sim.add_domain(DomainSpec::public("wan"));
            let seeds = SeedSplitter::new(3);
            let mut rng = seeds.rng("addr");
            let mut bootstrap: Vec<TransportUri> = Vec::new();
            for i in 0..24 {
                let host = sim.add_host(wan, HostSpec::new(format!("h{i}")));
                let node = BrunetNode::new(
                    Address::random(&mut rng),
                    OverlayConfig::default(),
                    seeds.seed_for_indexed("n", i),
                );
                sim.add_actor_at(
                    host,
                    SimTime::from_millis(i * 100),
                    OverlayHost::new(
                        node,
                        4000,
                        bootstrap.clone(),
                        ForwardingCost::end_node(),
                        NoApp,
                    ),
                );
                if i == 0 {
                    bootstrap.push(TransportUri::udp(PhysAddr::new(
                        sim.world().host_ip(host),
                        4000,
                    )));
                }
            }
            sim.run_until(SimTime::from_secs(60));
            sim.world_ref().stats.delivered
        })
    });
}

fn bench_tcp(c: &mut Criterion) {
    // In-memory mini-TCP bulk transfer: 1 MB through back-to-back conns.
    c.bench_function("tcp_bulk_1MB_in_memory", |b| {
        b.iter(|| {
            let t0 = SimTime::ZERO;
            let mut cl = TcpConn::connect(t0, 1, 2, 1000, TcpConfig::default());
            let syn = cl.take_output().remove(0);
            let mut sv = TcpConn::accept(t0, 2, 1, 9000, &syn, TcpConfig::default());
            for seg in sv.take_output() {
                cl.on_segment(t0, seg);
            }
            for seg in cl.take_output() {
                sv.on_segment(t0, seg);
            }
            let total = 1_000_000usize;
            let mut sent = 0;
            let mut got = 0;
            let mut t = t0;
            while got < total {
                t += SimDuration::from_millis(1);
                if sent < total {
                    sent += cl.write(t, &[0u8; 32 * 1024][..(total - sent).min(32 * 1024)]);
                }
                cl.on_tick(t);
                sv.on_tick(t);
                for seg in cl.take_output() {
                    sv.on_segment(t, seg);
                }
                for seg in sv.take_output() {
                    cl.on_segment(t, seg);
                }
                got += sv.read(t, usize::MAX).len();
            }
            got
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_wire, bench_routing, bench_shortcut_score, bench_timers, bench_ring_convergence,
        bench_tcp
}
criterion_main!(benches);
