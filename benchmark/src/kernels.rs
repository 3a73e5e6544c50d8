//! Layer kernels: each layer's public entry points timed over the traced
//! workload's own inputs — the datagrams its actors received and the
//! connection tables they ended with — so every ns/op is for this
//! workload's input mix, not a synthetic one.
//!
//! The kernels run outside the simulation, after the measured window, and
//! never feed back into it.

use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wow::udprt::{BufPool, SocketTransport};
use wow_netsim::addr::{PhysAddr, PhysIp};
use wow_netsim::nat::{Inbound, Nat, NatConfig};
use wow_netsim::time::{SimDuration, SimTime};
use wow_netsim::wheel::TimerWheel;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::{ConnSnapshot, ConnType};
use wow_overlay::driver::{FrameBatch, NodeDriver, NodeEvent, NodeSink, Transport};
use wow_overlay::node::BrunetNode;
use wow_overlay::telemetry::Counter;
use wow_overlay::uri::TransportUri;
use wow_overlay::wire::{Frame, RoutedHeader};
use wow_vnet::ip::VirtIp;
use wow_vnet::ipop::IpopRouter;
use wow_vnet::stack::NetStack;
use wow_vnet::tcp::{TcpConfig, TcpConn};

use crate::spanned::{Sampled, SpanKind};
use crate::sys;
use crate::workloads::{Layer, TraceData};

/// How long each kernel measures.
const BUDGET: Duration = Duration::from_millis(60);

/// Repeat `pass` — which does its own untimed preparation and returns
/// `(operations, time they took)` — until the budget is spent; ns per
/// operation over all passes, 0 if the kernel had no input.
fn ns_per_op(mut pass: impl FnMut() -> (usize, Duration)) -> f64 {
    let (mut ops, mut spent) = (0usize, Duration::ZERO);
    let started = Instant::now();
    while started.elapsed() < BUDGET * 4 && spent < BUDGET {
        let (n, t) = pass();
        if n == 0 {
            return 0.0;
        }
        ops += n;
        spent += t;
    }
    spent.as_nanos() as f64 / ops as f64
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Swallows everything a node emits.
struct NullSink;

impl NodeSink for NullSink {
    fn send(&mut self, _to: PhysAddr, frame: Bytes) {
        black_box(frame);
    }
    fn event(&mut self, event: NodeEvent) {
        black_box(event);
    }
    fn count(&mut self, _counter: Counter) {}
    fn add_count(&mut self, _counter: Counter, _n: u64) {}
}

/// Swallows every batch a driver flushes.
struct NullTransport;

impl Transport for NullTransport {
    fn transmit(&mut self, _to: PhysAddr, frame: Bytes) -> bool {
        black_box(frame);
        true
    }
    fn transmit_batch(&mut self, batch: &mut FrameBatch) -> u64 {
        black_box(batch.frames());
        batch.clear();
        0
    }
}

const T0: SimTime = SimTime::ZERO;

/// A started node holding the connections of `snap`.
fn node_from(snap: &ConnSnapshot, overlay: &OverlayConfig) -> BrunetNode {
    let mut node = BrunetNode::new(snap.addr, overlay.clone(), 1);
    let local = PhysAddr::new(PhysIp::new(10, 9, 9, 9), 4000);
    node.start(T0, TransportUri::udp(local), Vec::new(), &mut NullSink);
    for c in snap.table.iter() {
        for t in [
            ConnType::Leaf,
            ConnType::StructuredNear,
            ConnType::StructuredFar,
            ConnType::Shortcut,
        ] {
            if c.types.contains(t) {
                node.seed_connection(T0, c.peer, t, c.remote);
            }
        }
    }
    node
}

/// Fresh, uniquely-owned copies: what a node sees from the wire.
fn unique(frames: &[(PhysAddr, Bytes)]) -> Vec<(PhysAddr, Bytes)> {
    frames
        .iter()
        .map(|(src, f)| (*src, Bytes::copy_from_slice(f)))
        .collect()
}

/// Run the overlay and netsim kernels over a traced repetition's corpus
/// and snapshots, writing their metrics into `layer`.
pub fn overlay_kernels(layer: &mut Layer, trace: &TraceData, overlay: &OverlayConfig, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b65_726e);
    let corpus: &[Sampled] = &trace.corpus;
    layer.set("trace.corpus_frames", corpus.len() as f64);

    // ---- wire ----
    let frames: Vec<(PhysAddr, Bytes)> =
        corpus.iter().map(|s| (s.src, s.payload.clone())).collect();
    let (routed, control): (Vec<_>, Vec<_>) = frames
        .iter()
        .cloned()
        .partition(|(_, f)| RoutedHeader::peek(f).is_ok());
    if !frames.is_empty() {
        let bytes: usize = frames.iter().map(|(_, f)| f.len()).sum();
        layer.set(
            "overlay.wire.frame_bytes_mean",
            bytes as f64 / frames.len() as f64,
        );
        layer.set(
            "overlay.wire.routed_app_share",
            routed.len() as f64 / frames.len() as f64,
        );
    }
    layer.set(
        "overlay.wire.decode_ns",
        ns_per_op(|| {
            let (_, t) = timed(|| {
                for (_, f) in &frames {
                    let _ = black_box(Frame::decode(f.clone()));
                }
            });
            (frames.len(), t)
        }),
    );
    let decoded: Vec<Frame> = frames
        .iter()
        .filter_map(|(_, f)| Frame::decode(f.clone()).ok())
        .collect();
    layer.set(
        "overlay.wire.encode_ns",
        ns_per_op(|| {
            let (_, t) = timed(|| {
                for f in &decoded {
                    black_box(f.encode());
                }
            });
            (decoded.len(), t)
        }),
    );
    layer.set(
        "overlay.wire.peek_patch_ns",
        ns_per_op(|| {
            let fresh = unique(&routed);
            let n = fresh.len();
            let (_, t) = timed(|| {
                for (_, buf) in fresh {
                    let h = RoutedHeader::peek(&buf).expect("partitioned on peek");
                    black_box(RoutedHeader::patch_hops(buf, h.hops.wrapping_add(1)));
                }
            });
            (n, t)
        }),
    );

    // ---- conn ----
    let snaps: &[ConnSnapshot] = &trace.snapshots;
    if !snaps.is_empty() {
        let sizes: Vec<usize> = snaps.iter().map(|s| s.table.len()).collect();
        let total: usize = sizes.iter().sum();
        layer.set(
            "overlay.conn.conns_per_node_mean",
            total as f64 / snaps.len() as f64,
        );
        layer.set(
            "overlay.conn.conns_per_node_max",
            sizes.iter().copied().max().unwrap_or(0) as f64,
        );
        // Destinations: where this workload's routed frames were going,
        // or (no routed frames sampled) the ring's own members.
        let mut dsts: Vec<Address> = routed
            .iter()
            .map(|(_, f)| RoutedHeader::peek(f).expect("partitioned on peek").dst)
            .collect();
        if dsts.is_empty() {
            dsts = snaps.iter().map(|s| s.addr).collect();
        }
        dsts.truncate(4096);
        let tables: Vec<&ConnSnapshot> = snaps.iter().take(1024).collect();
        layer.set(
            "overlay.conn.next_hop_ns",
            ns_per_op(|| {
                let (_, t) = timed(|| {
                    for (i, &dst) in dsts.iter().enumerate() {
                        // Offset, so that a destination taken from the
                        // snapshots is not looked up in its own table.
                        let s = tables[(i + tables.len() / 2) % tables.len()];
                        black_box(s.table.next_hop(s.addr, black_box(dst), &[]));
                    }
                });
                (dsts.len(), t)
            }),
        );
        let strangers: Vec<Address> = (0..256).map(|_| Address::random(&mut rng)).collect();
        let ep = PhysAddr::new(PhysIp::new(10, 7, 7, 7), 4000);
        layer.set(
            "overlay.conn.upsert_remove_ns",
            ns_per_op(|| {
                let mut scratch: Vec<_> =
                    tables.iter().take(256).map(|s| s.table.clone()).collect();
                let (_, t) = timed(|| {
                    for (table, &peer) in scratch.iter_mut().zip(strangers.iter().cycle()) {
                        black_box(table.upsert(peer, ConnType::Shortcut, ep, T0));
                        black_box(table.remove_role(peer, ConnType::Shortcut));
                    }
                });
                (scratch.len(), t)
            }),
        );
        let (copy, live) = sys::live_bytes_of(|| snaps.to_vec());
        layer.set(
            "overlay.conn.bytes_per_conn",
            live.max(0) as f64 / total.max(1) as f64,
        );
        drop(copy);

        // ---- node and driver, on one representative node: the one of
        // median degree (an introducer holding hundreds of leaf links is
        // not what a typical event runs on) ----
        let mut by_degree: Vec<&ConnSnapshot> = snaps.iter().collect();
        by_degree.sort_by_key(|s| s.table.len());
        let rep = by_degree[by_degree.len() / 2];
        let transit: Vec<(PhysAddr, Bytes)> = routed
            .iter()
            .filter(|(_, f)| RoutedHeader::peek(f).is_ok_and(|h| h.dst != rep.addr))
            .cloned()
            .collect();
        // A fresh node per pass, fed the frames as the wire would deliver
        // them.
        let node_ns = |frames: &[(PhysAddr, Bytes)]| {
            ns_per_op(|| {
                let mut node = node_from(rep, overlay);
                let fresh = unique(frames);
                let n = fresh.len();
                let (_, t) = timed(|| {
                    for (src, buf) in fresh {
                        node.on_datagram(T0, src, buf, &mut NullSink);
                    }
                });
                (n, t)
            })
        };
        layer.set("overlay.node.transit_ns", node_ns(&transit));
        layer.set("overlay.node.control_ns", node_ns(&control));
        layer.set(
            "overlay.node.tick_ns",
            ns_per_op(|| {
                // 20 simulated seconds of ticks: short of the ~23 s after
                // which unanswered keepalives would empty the table.
                let mut node = node_from(rep, overlay);
                let (_, t) = timed(|| {
                    for k in 1..=200u64 {
                        node.on_tick(T0 + SimDuration::from_millis(100 * k), &mut NullSink);
                    }
                });
                (200, t)
            }),
        );
        layer.set(
            "overlay.driver.cycle_ns",
            ns_per_op(|| {
                let mut driver = NodeDriver::new(node_from(rep, overlay));
                let fresh = unique(&transit);
                let n = fresh.len();
                let (_, t) = timed(|| {
                    for (src, buf) in fresh {
                        driver.on_datagram(T0, src, buf, &mut NullTransport);
                    }
                });
                (n, t)
            }),
        );
    }

    // ---- timer wheel: two parked timers per host (keepalive, stabilize),
    // hot events pushed and popped through them ----
    let parked = 2 * trace.hosts;
    let mut seq = 0u64;
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    for _ in 0..parked {
        wheel.push(1_000_000 + rng.gen_range(0..30_000_000u64), seq, 0);
        seq += 1;
    }
    let mut now = 0u64;
    layer.set(
        "netsim.wheel.ns_per_op",
        ns_per_op(|| {
            let hot: Vec<u64> = (0..10_000)
                .map(|_| {
                    now += rng.gen_range(0..50u64);
                    now + rng.gen_range(1..50_000u64)
                })
                .collect();
            let (_, t) = timed(|| {
                for &at in &hot {
                    wheel.push(at, seq, 1);
                    seq += 1;
                    black_box(wheel.pop());
                }
            });
            (hot.len(), t)
        }),
    );
}

/// What the actor seams say about the window: the simulator's own share
/// and the actors' cost per event.
pub fn seam_layers(layer: &mut Layer, trace: &TraceData) {
    let window_ns = (trace.window_ns.1 - trace.window_ns.0).max(1) as f64;
    let actor_ns = trace.totals.total_ns();
    layer.set("netsim.sim.core_share", 1.0 - actor_ns / window_ns);
    layer.set(
        "wow.simrt.actor_ns_per_event",
        actor_ns / trace.window.events.max(1) as f64,
    );
    layer.set("trace.spans", trace.totals.total_count() as f64);
}

/// Σ(ops × kernel ns/op) ÷ window: how much of the window the kernels
/// explain. Far from 1 is a finding about outside-in tracing, not a bug.
pub fn accounted_share(layer: &Layer, trace: &TraceData) -> f64 {
    let window_ns = (trace.window_ns.1 - trace.window_ns.0).max(1) as f64;
    let transit = trace.window.transit_forwards() as f64;
    let processed = trace.totals.count[SpanKind::Process as usize] as f64;
    let ticks = trace.totals.count[SpanKind::Tick as usize] as f64;
    let ns = trace.window.events as f64 * layer.get("netsim.wheel.ns_per_op")
        + transit * layer.get("overlay.driver.cycle_ns")
        + (processed - transit).max(0.0) * layer.get("overlay.node.control_ns")
        + ticks * layer.get("overlay.node.tick_ns");
    ns / window_ns
}

/// `Nat::outbound` + `inbound` over a flow mix: (internal endpoint,
/// remote endpoint) pairs as a NAT'd host's connections present them.
pub fn nat_kernel(layer: &mut Layer, flows: &[(PhysAddr, PhysAddr)]) {
    let mut nat = Nat::new(PhysIp::new(128, 10, 0, 1), NatConfig::typical());
    layer.set(
        "netsim.nat.ns_per_translate",
        ns_per_op(|| {
            let (_, t) = timed(|| {
                for &(internal, remote) in flows {
                    let public = nat.outbound(internal, remote, T0);
                    if let Inbound::Accept(to) = nat.inbound(public.port, remote, T0) {
                        black_box(to);
                    }
                }
            });
            // Two translations per flow: one out, one back in.
            (2 * flows.len(), t)
        }),
    );
}

/// Loopback `SocketTransport` kernels: batched flush at two frame sizes
/// and batched receive.
pub fn udprt_kernels(layer: &mut Layer) -> std::io::Result<()> {
    let tx = UdpSocket::bind("127.0.0.1:0")?;
    let rx = UdpSocket::bind("127.0.0.1:0")?;
    rx.set_nonblocking(true)?;
    let port = rx.local_addr()?.port();
    let to = PhysAddr::new(PhysIp::new(127, 0, 0, 1), port);
    let mut sink = Vec::with_capacity(64);
    let mut drain = |rx: &UdpSocket| {
        let mut t = SocketTransport::new(rx);
        loop {
            sink.clear();
            match t.recv_batch(&mut sink, 32, false) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    };
    for (name, size) in [
        ("wow.udprt.flush_ns_per_frame_32", 32usize),
        ("wow.udprt.flush_ns_per_frame_1200", 1200),
    ] {
        let payload = Bytes::from(vec![0u8; size]);
        let v = ns_per_op(|| {
            let mut batch = FrameBatch::new();
            for _ in 0..16 {
                batch.push(to, payload.clone());
            }
            let mut t = SocketTransport::new(&tx);
            let (_, took) = timed(|| black_box(t.transmit_batch(&mut batch)));
            drain(&rx);
            (16, took)
        });
        layer.set(name, v);
    }
    // Receive as the reactor does: into a recycling pool, so a call costs
    // the syscall and the hand-off, not thirty-two fresh 64 KiB buffers.
    let payload = Bytes::from(vec![0u8; 32]);
    let mut pool = BufPool::default();
    let mut out = Vec::with_capacity(32);
    let v = ns_per_op(|| {
        let mut batch = FrameBatch::new();
        for _ in 0..32 {
            batch.push(to, payload.clone());
        }
        SocketTransport::new(&tx).transmit_batch(&mut batch);
        let (got, took) = timed(|| {
            SocketTransport::pooled(&rx, &mut pool)
                .recv_batch(&mut out, 32, false)
                .unwrap_or(0)
        });
        for (_, frame) in out.drain(..) {
            pool.reclaim(frame);
        }
        (got, took)
    });
    layer.set("wow.udprt.recv_batch_ns_per_frame", v);
    Ok(())
}

/// vnet kernels: two TCP connections back to back in memory, and the IPOP
/// router's tunnel entry and exit through a null sink.
pub fn vnet_kernels(layer: &mut Layer) {
    layer.set(
        "vnet.tcp.ns_per_segment",
        ns_per_op(|| {
            let cfg = TcpConfig::default();
            let mut now = T0;
            let mut a = TcpConn::connect(now, 40_000, 5001, 1000, cfg.clone());
            let syn = a.take_output().remove(0);
            let mut b = TcpConn::accept(now, 5001, 40_000, 9000, &syn, cfg);
            let chunk = vec![0x54u8; 16 * 1024];
            let mut segments = 0usize;
            let mut moved = 0usize;
            let (_, t) = timed(|| {
                // Shuttle segments both ways until 1 MiB has crossed.
                while moved < (1 << 20) {
                    now += SimDuration::from_micros(100);
                    a.write(now, &chunk);
                    for seg in a.take_output() {
                        segments += 1;
                        b.on_segment(now, seg);
                    }
                    moved += b.read(now, usize::MAX).len();
                    for seg in b.take_output() {
                        segments += 1;
                        a.on_segment(now, seg);
                    }
                    a.take_events();
                    b.take_events();
                }
            });
            (segments, t)
        }),
    );

    let me = VirtIp::testbed(9);
    let peer = VirtIp::testbed(24);
    let ipop_snapshot = {
        // One connection is enough for the router to have a next hop.
        let mut table = wow_overlay::conn::ConnTable::new();
        table.upsert(
            wow_vnet::ipop::address_for("kernel", peer),
            ConnType::StructuredNear,
            PhysAddr::new(PhysIp::new(10, 7, 7, 8), 4000),
            T0,
        );
        ConnSnapshot {
            addr: wow_vnet::ipop::address_for("kernel", me),
            table,
        }
    };
    layer.set(
        "vnet.ipop.ns_per_packet",
        ns_per_op(|| {
            let mut node = node_from(&ipop_snapshot, &OverlayConfig::default());
            let mut router = IpopRouter::new("kernel");
            let mut out_stack = NetStack::new(me, TcpConfig::default(), 1);
            let mut in_stack = NetStack::new(peer, TcpConfig::default(), 2);
            in_stack.udp_bind(7);
            let payload = Bytes::from(vec![0u8; 1200]);
            for _ in 0..512 {
                out_stack.udp_send(peer, 7, 7, payload.clone());
            }
            // Capture what the router tunnels, to feed the way back in.
            struct Capture(Vec<Bytes>);
            impl NodeSink for Capture {
                fn send(&mut self, _to: PhysAddr, frame: Bytes) {
                    self.0.push(frame);
                }
                fn event(&mut self, _event: NodeEvent) {}
                fn count(&mut self, _counter: Counter) {}
            }
            let mut cap = Capture(Vec::with_capacity(512));
            let (_, t_out) = timed(|| router.pump_out(T0, &mut out_stack, &mut node, &mut cap));
            let tunnelled: Vec<Bytes> = cap
                .0
                .iter()
                .filter(|f| RoutedHeader::peek(f).is_ok())
                .map(RoutedHeader::payload)
                .collect();
            let mut in_router = IpopRouter::new("kernel");
            let n = tunnelled.len();
            let (_, t_in) = timed(|| {
                for data in tunnelled {
                    in_router.deliver_in(T0, &mut in_stack, data, true);
                }
            });
            black_box(in_stack.take_events());
            (512 + n, t_out + t_in)
        }),
    );
}
