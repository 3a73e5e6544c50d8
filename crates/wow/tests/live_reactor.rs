//! §VI-style resilience scenarios promoted to the live reactor runtime.
//!
//! The simulator suites prove the protocol heals under churn and NAT
//! expiry; these tests prove the *reactor* — epoll multiplexing, batched
//! ingress, deadline-armed timers, per-node shutdown — preserves that
//! behaviour over real UDP sockets on loopback, with the structural ring
//! auditor as the oracle. A differential test holds a scripted scenario's
//! outcome independent of how many shards the nodes are spread over.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use wow::audit::audit_ring;
use wow::reactor::Reactor;
use wow::udprt::{UdpEvent, UdpNode};
use wow_netsim::time::{SimDuration, SimTime};
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::ConnSnapshot;
use wow_overlay::uri::TransportUri;

/// A fast-converging config for wall-clock tests. The keepalive knobs
/// matter as much as the join/stabilize ones: dead peers are detected by
/// missed pings, and the defaults (15 s interval, 4 × 2 s retries) are
/// tuned for simulated time, not a test's wall-clock budget.
fn quick() -> OverlayConfig {
    OverlayConfig {
        link_rto: SimDuration::from_millis(200),
        stabilize_interval: SimDuration::from_millis(300),
        far_check_interval: SimDuration::from_millis(500),
        join_retry: SimDuration::from_millis(800),
        ping_interval: SimDuration::from_millis(1000),
        ping_rto: SimDuration::from_millis(400),
        ping_retries: 2,
        ..OverlayConfig::default()
    }
}

fn snapshots(nodes: &[UdpNode]) -> Vec<ConnSnapshot> {
    nodes
        .iter()
        .filter_map(|n| n.view())
        .map(|v| v.conns)
        .collect()
}

/// Poll until the structural auditor passes over every node's live
/// connection table, or fail with the last violations.
fn wait_audited(nodes: &[UdpNode], deadline: Duration, what: &str) {
    let end = Instant::now() + deadline;
    let mut last = Vec::new();
    loop {
        let snaps = snapshots(nodes);
        if snaps.len() == nodes.len() {
            let mut rng = SmallRng::seed_from_u64(7);
            let report = audit_ring(SimTime::ZERO, &snaps, 32, &mut rng);
            if report.passed() {
                return;
            }
            last = report.violations;
        }
        assert!(
            Instant::now() < end,
            "{what}: ring did not become audit-clean in {deadline:?}; last violations: {last:?}"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// Wait for an exact delivery of `payload` on `node`, skipping the
/// connection-lifecycle events that share the channel.
fn wait_deliver(node: &UdpNode, payload: &[u8], deadline: Duration) {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if let Ok(UdpEvent::Deliver { data, exact, .. }) =
            node.events().recv_timeout(Duration::from_millis(200))
        {
            assert_eq!(&data[..], payload);
            assert!(exact, "payload must be an exact delivery");
            return;
        }
    }
    panic!("no delivery of {payload:?} within {deadline:?}");
}

/// Grow a ring organically: first node alone, the rest bootstrapping off
/// it, each waiting until routable.
fn grow_ring<F>(n: usize, mut spawn: F) -> Vec<UdpNode>
where
    F: FnMut(Address, Vec<TransportUri>, u64) -> UdpNode,
{
    let mut rng = SmallRng::seed_from_u64(42);
    let mut nodes = vec![spawn(Address::random(&mut rng), Vec::new(), 1)];
    let bootstrap = vec![nodes[0].uri()];
    for i in 1..n {
        let node = spawn(Address::random(&mut rng), bootstrap.clone(), 1 + i as u64);
        assert!(
            node.wait_routable(Duration::from_secs(20)),
            "node {i} did not become routable on the reactor"
        );
        nodes.push(node);
    }
    nodes
}

#[test]
fn reactor_ring_forms_and_audits_clean() {
    let reactor = Reactor::new(2).expect("start reactor");
    let nodes = grow_ring(8, |addr, boot, seed| {
        reactor
            .spawn_node(addr, quick(), 0, boot, seed)
            .expect("spawn")
    });
    wait_audited(&nodes, Duration::from_secs(30), "formation");

    // Route a payload across the ring, reactor to reactor.
    let (src, dst) = (&nodes[3], &nodes[6]);
    src.send_app(dst.address(), 9, Bytes::from_static(b"via the reactor"));
    wait_deliver(dst, b"via the reactor", Duration::from_secs(10));
}

#[test]
fn reactor_ring_heals_after_killing_nodes() {
    let reactor = Reactor::new(2).expect("start reactor");
    let mut nodes = grow_ring(8, |addr, boot, seed| {
        reactor
            .spawn_node(addr, quick(), 0, boot, seed)
            .expect("spawn")
    });
    wait_audited(&nodes, Duration::from_secs(30), "formation");

    // Kill two non-adjacent nodes: dropping the handle deregisters the
    // slot and closes the socket mid-run — a live crash.
    nodes.remove(5).shutdown();
    nodes.remove(2).shutdown();

    // The survivors must re-close the ring: successor repair, mutual near
    // links, no dangling references to the dead, full routability.
    wait_audited(&nodes, Duration::from_secs(40), "post-churn heal");
}

#[test]
fn reactor_node_survives_nat_style_rebind() {
    let reactor = Reactor::new(1).expect("start reactor");
    let nodes = grow_ring(5, |addr, boot, seed| {
        reactor
            .spawn_node(addr, quick(), 0, boot, seed)
            .expect("spawn")
    });
    wait_audited(&nodes, Duration::from_secs(30), "formation");

    // Move one node's socket out from under it — the live analogue of its
    // NAT mapping expiring: peers keep retrying the dead port, the node
    // keeps advertising a stale URI until stabilization's observed-address
    // echo teaches it the new mapping.
    let victim = &nodes[2];
    let old = victim.uri();
    let fresh = victim.rebind().expect("rebind");
    assert_ne!(TransportUri::udp(fresh), old, "rebind must change the port");

    // The overlay must re-heal across the moved endpoint...
    wait_audited(&nodes, Duration::from_secs(40), "post-rebind heal");

    // ...and the victim must have relearned an advertised URI matching its
    // new socket (the PR-4 observed-address echo, now live).
    let end = Instant::now() + Duration::from_secs(20);
    loop {
        let uris = victim.view().expect("victim alive").uris;
        if uris.contains(&TransportUri::udp(fresh)) {
            break;
        }
        assert!(
            Instant::now() < end,
            "victim never relearned its post-rebind URI; still advertising {uris:?}"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}

#[test]
fn flooded_socket_does_not_starve_shard_mates() {
    // One shard, so the flooded node and the pair under test share an
    // event loop — the per-wake ingress quantum is the only thing keeping
    // the pair alive.
    let reactor = Reactor::new(1).expect("start reactor");
    let nodes = grow_ring(3, |addr, boot, seed| {
        reactor
            .spawn_node(addr, quick(), 0, boot, seed)
            .expect("spawn")
    });
    wait_audited(&nodes, Duration::from_secs(30), "formation");

    // Blast garbage at node 0 from outside the overlay, saturating its
    // socket queue for the whole observation window.
    let local = nodes[0].view().expect("node alive").local;
    let [a, b, c, d] = local.ip.octets();
    let target = std::net::SocketAddr::from(([a, b, c, d], local.port));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flooder = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind flooder");
            let junk = [0xA5u8; 512];
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for _ in 0..64 {
                    let _ = sock.send_to(&junk, target);
                }
                std::thread::yield_now();
            }
        })
    };

    // Node 1 keeps sending to node 2 through the flood; the quantum must
    // keep those deliveries flowing.
    let mut delivered = 0;
    let end = Instant::now() + Duration::from_secs(5);
    while Instant::now() < end {
        nodes[1].send_app(
            nodes[2].address(),
            7,
            Bytes::from_static(b"through the storm"),
        );
        if let Ok(UdpEvent::Deliver { data, .. }) =
            nodes[2].events().recv_timeout(Duration::from_millis(500))
        {
            assert_eq!(&data[..], b"through the storm");
            delivered += 1;
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    flooder.join().expect("flooder");
    assert!(
        delivered >= 3,
        "shard-mates starved during the flood: only {delivered} deliveries in 5 s"
    );
    // The flooded node itself must still answer (its driver kept running
    // between quanta).
    assert!(nodes[0].view().is_some(), "flooded node died");
}

#[test]
fn deregistering_one_node_leaves_the_shared_loop_running() {
    let reactor = Reactor::new(1).expect("start reactor");
    let mut nodes = grow_ring(3, |addr, boot, seed| {
        reactor
            .spawn_node(addr, quick(), 0, boot, seed)
            .expect("spawn")
    });
    wait_audited(&nodes, Duration::from_secs(30), "formation");

    // Tear down one node; the shard, its epoll loop and the other two
    // nodes' sockets must be untouched.
    nodes.remove(0).shutdown();
    wait_audited(&nodes, Duration::from_secs(40), "after deregister");
    let (a, b) = (&nodes[0], &nodes[1]);
    a.send_app(b.address(), 3, Bytes::from_static(b"still here"));
    wait_deliver(b, b"still here", Duration::from_secs(10));

    // Last ones out: dropping the remaining handles (each holds a reactor
    // clone) joins the shard threads — the test completing without a hang
    // *is* the assertion that no detached thread lingers.
    drop(nodes);
    drop(reactor);
}

#[test]
fn reactor_join_storm_through_introducers_survives_seed_loss() {
    // The decentralized-bootstrap claim, live: a flash crowd joins through
    // a handful of ordinary routable nodes, none of which is the original
    // seed — and the seed itself deregisters mid-storm. If any join path
    // still depended on the seed, the back half of the storm would stall.
    //
    // Keepalive is deliberately more lenient than `quick()`: at 68 nodes
    // on one loopback box a debug build saturates the CPU, and quick()'s
    // ~1.2 s ping-death window then declares live peers dead during
    // scheduler stalls, churning the ring it is trying to settle. A ~10 s
    // window rides out the stalls while still detecting the departed seed
    // well inside the audit budget.
    let storm_cfg = || OverlayConfig {
        ping_interval: SimDuration::from_millis(3000),
        ping_rto: SimDuration::from_millis(1000),
        ping_retries: 4,
        ..quick()
    };
    let mut rng = SmallRng::seed_from_u64(0xB007);
    let reactor = Reactor::new(2).expect("start reactor");

    // Seed plus four introducers form the initial ring.
    let seed = reactor
        .spawn_node(Address::random(&mut rng), storm_cfg(), 0, Vec::new(), 1)
        .expect("spawn seed");
    let seed_boot = vec![seed.uri()];
    let mut nodes = Vec::new();
    for i in 0..4 {
        let node = reactor
            .spawn_node(
                Address::random(&mut rng),
                storm_cfg(),
                0,
                seed_boot.clone(),
                2 + i as u64,
            )
            .expect("spawn introducer");
        assert!(
            node.wait_routable(Duration::from_secs(20)),
            "introducer {i} did not become routable"
        );
        nodes.push(node);
    }
    let intro_uris: Vec<TransportUri> = nodes.iter().map(|n| n.uri()).collect();

    // 64 joiners storm in, each knowing only the four introducers. They
    // arrive in concurrent waves of eight — back-to-back inside a wave,
    // each wave held until routable before the next hits, the way a flash
    // crowd ramps rather than materializing in one instant. (The raw
    // all-at-once concurrency leg lives in the simulated joinstorm
    // harness, where 10k arrivals share one minute.) Halfway through, the
    // original seed node shuts down and deregisters from its shard.
    let mut seed = Some(seed);
    for wave in 0..8 {
        if wave == 4 {
            seed.take().expect("seed still held").shutdown();
        }
        let first = nodes.len();
        for i in 0..8 {
            let node = reactor
                .spawn_node(
                    Address::random(&mut rng),
                    storm_cfg(),
                    0,
                    intro_uris.clone(),
                    100 + (wave * 8 + i) as u64,
                )
                .expect("spawn storm joiner");
            nodes.push(node);
        }
        // Every joiner — including all spawned after the seed vanished —
        // must reach routability through the introducers alone.
        for (i, n) in nodes[first..].iter().enumerate() {
            assert!(
                n.wait_routable(Duration::from_secs(60)),
                "storm node {i} of wave {wave} never became routable"
            );
        }
    }

    // The survivor ring must audit clean with no dangling references to
    // the departed seed. This is also the regression gate for the
    // interleaved-ring merge: concurrent joins can briefly split the
    // membership into two complete rings, and only the leaf-entry ring
    // probes (see `send_ring_probe`) seed the merge back.
    wait_audited(&nodes, Duration::from_secs(120), "post-storm ring");
}

// ------------------------------------------------ differential harness --

/// What a scripted scenario run observed, normalized for comparison.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// Sorted successor relation of the converged ring.
    successors: BTreeMap<Address, Address>,
    /// Payload each node received, sorted per receiver.
    delivered: BTreeMap<Address, Vec<Vec<u8>>>,
}

/// Run the fixed scenario — grow a 4-ring, then every node sends one
/// tagged payload to its clockwise neighbour in address order — and
/// report the converged structure plus who received what.
fn run_scenario<F>(spawn: F) -> Observed
where
    F: FnMut(Address, Vec<TransportUri>, u64) -> UdpNode,
{
    let nodes = grow_ring(4, spawn);
    wait_audited(&nodes, Duration::from_secs(30), "differential formation");

    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by_key(|&i| nodes[i].address());
    for (rank, &i) in order.iter().enumerate() {
        let dst = nodes[order[(rank + 1) % order.len()]].address();
        let tag = format!("ring-msg-{rank}");
        nodes[i].send_app(dst, 11, Bytes::from(tag.into_bytes()));
    }

    let mut delivered: BTreeMap<Address, Vec<Vec<u8>>> = BTreeMap::new();
    let end = Instant::now() + Duration::from_secs(15);
    while delivered.values().map(|v| v.len()).sum::<usize>() < nodes.len() && Instant::now() < end {
        for n in &nodes {
            while let Ok(ev) = n.events().try_recv() {
                if let UdpEvent::Deliver { data, .. } = ev {
                    delivered
                        .entry(n.address())
                        .or_default()
                        .push(data.to_vec());
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    for v in delivered.values_mut() {
        v.sort();
    }

    let successors = snapshots(&nodes)
        .into_iter()
        .map(|s| {
            (
                s.addr,
                s.successor().expect("converged ring has successors"),
            )
        })
        .collect();
    Observed {
        successors,
        delivered,
    }
}

#[test]
fn shard_count_does_not_change_a_scripted_ring() {
    // Same addresses (seeded rng inside grow_ring), same config, same
    // script; only the sharding differs — every node on one event loop, or
    // spread over two with cross-thread traffic between neighbours.
    // Wall-clock scheduling is free to differ, so the comparison is over
    // what converged and what was delivered — not over packet
    // interleavings.
    let [one, two] = [1, 2].map(|shards| {
        let reactor = Reactor::new(shards).expect("start reactor");
        run_scenario(|addr, boot, seed| {
            reactor
                .spawn_node(addr, quick(), 0, boot, seed)
                .expect("spawn reactor node")
        })
    });
    assert_eq!(
        one.delivered.len(),
        4,
        "every node must receive its message"
    );
    assert_eq!(
        one, two,
        "one-shard and two-shard reactors converged to different rings or deliveries"
    );
}
