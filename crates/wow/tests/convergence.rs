//! Whole-overlay convergence tests: rings self-organize, joins are fast,
//! routing delivers, NATs are traversed, shortcuts form under traffic.

use bytes::Bytes;
use std::sync::{Arc, Mutex};

use wow::harness::{public_overlay, Overlay};
use wow::simrt::{ForwardingCost, NoApp, NodeHandle, OverlayApp, OverlayHost};
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::conn::ConnType;
use wow_overlay::node::BrunetNode;
use wow_overlay::prelude::{Counter, OverlayConfig};
use wow_overlay::uri::TransportUri;

const PORT: u16 = 4000;

/// Assert the structured-near graph is a consistent ring: every node's
/// closest clockwise structured peer is exactly the next node in address
/// order.
fn assert_ring_consistent(net: &mut Overlay<NoApp>) {
    let mut order: Vec<(Address, usize)> = net.addrs().iter().copied().zip(0..).collect();
    order.sort();
    let n = order.len();
    for i in 0..n {
        let (addr, idx) = order[i];
        let (succ_addr, _) = order[(i + 1) % n];
        let nearest = net.with(idx, |h, _| h.node().conns().nearest_cw(addr, 1).next());
        assert_eq!(
            nearest,
            Some(succ_addr),
            "node {i} ({addr:?}) should see {succ_addr:?} as its clockwise successor"
        );
    }
}

#[test]
fn ring_of_two_forms() {
    let mut net = public_overlay(1, 2, 0);
    net.sim.run_until(SimTime::from_secs(30));
    for i in 0..net.actors().len() {
        assert!(net.with(i, |h, _| h.node().is_routable()));
    }
    assert_ring_consistent(&mut net);
}

#[test]
fn ring_of_sixteen_converges_and_is_consistent() {
    let mut net = public_overlay(2, 16, 0);
    net.sim.run_until(SimTime::from_secs(120));
    for i in 0..net.actors().len() {
        let (routable, nears) = net.with(i, |h, _| {
            (
                h.node().is_routable(),
                h.node().conns().with_type(ConnType::StructuredNear).count(),
            )
        });
        assert!(routable, "node {i} not routable");
        assert!(nears >= 2, "node {i} has only {nears} near connections");
    }
    assert_ring_consistent(&mut net);
}

/// The scenario seed, overridable so CI's churn matrix gates back-off and
/// healing on the same seeds.
fn churn_seed() -> u64 {
    std::env::var("WOW_CHURN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A0)
}

/// Ring probes sent so far, summed over the overlay.
fn ring_probes(net: &mut Overlay<NoApp>) -> u64 {
    net.live_counters().get(Counter::CtmRingProbe)
}

/// A settled ring pays keepalives and neighbour queries, not a routed
/// probe per node every stabilize round: over the last three of five
/// sim-minutes, ring probes run at most 2.4 per node-minute (every round
/// would be 12) and the ring stays consistent.
#[test]
fn settled_ring_backs_its_probes_off() {
    const NODES: usize = 32;
    let mut net = public_overlay(churn_seed(), NODES, 0);
    let from = SimTime::from_secs(120);
    let until = SimTime::from_secs(300);
    net.sim.run_until(from);
    assert_ring_consistent(&mut net);
    let before = ring_probes(&mut net);
    net.sim.run_until(until);
    let probes = ring_probes(&mut net) - before;
    let minutes = until.saturating_since(from).as_secs_f64() / 60.0;
    let per_node_minute = probes as f64 / (NODES as f64 * minutes);
    assert!(
        per_node_minute <= 2.4,
        "{per_node_minute:.2} ring probes per node-minute on a settled ring ({probes} in {minutes} min)"
    );
    assert_ring_consistent(&mut net);
}

#[test]
fn far_connections_reach_target_count() {
    let mut net = public_overlay(3, 24, 0);
    net.sim.run_until(SimTime::from_secs(300));
    let mut counts = Vec::new();
    for i in 0..net.actors().len() {
        counts.push(net.with(i, |h, _| {
            h.node().conns().with_type(ConnType::StructuredFar).count()
        }));
    }
    // Each node targets k=4 far roles; the trim keeps the equilibrium just
    // under 4 per node (role sheds are asymmetric), so check every node is
    // close to target and the population average is near k.
    let total: usize = counts.iter().sum();
    let avg = total as f64 / counts.len() as f64;
    assert!(
        counts.iter().all(|&c| c >= 2),
        "some node is far-starved: {counts:?}"
    );
    assert!(
        (3.0..=6.0).contains(&avg),
        "average far degree {avg} outside [3, 6]: {counts:?}"
    );
}

/// Measurement app: records exact deliveries.
struct Recorder {
    seen: Arc<Mutex<Vec<(Address, Bytes)>>>,
}
impl OverlayApp for Recorder {
    fn on_deliver(
        &mut self,
        _h: &mut NodeHandle<'_, '_>,
        src: Address,
        _proto: u8,
        data: Bytes,
        exact: bool,
    ) {
        if exact {
            self.seen.lock().unwrap().push((src, data));
        }
    }
}

#[test]
fn app_payloads_route_across_the_ring() {
    // 12 public nodes; after convergence, every node sends to every other.
    let seed = 4;
    let n = 12;
    let mut sim = Sim::new(seed);
    let wan = sim.add_domain(DomainSpec::public("wan"));
    let seeds = SeedSplitter::new(seed);
    let mut rng = seeds.rng("addresses");
    let mut bootstrap: Vec<TransportUri> = Vec::new();
    let mut actors = Vec::new();
    let mut addrs = Vec::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    for i in 0..n {
        let host = sim.add_host(wan, HostSpec::new(format!("h{i}")));
        let addr = Address::random(&mut rng);
        let node = BrunetNode::new(
            addr,
            OverlayConfig::default(),
            seeds.seed_for_indexed("node", i as u64),
        );
        let actor = sim.add_actor_at(
            host,
            SimTime::from_millis(i as u64 * 100),
            OverlayHost::new(
                node,
                PORT,
                bootstrap.clone(),
                ForwardingCost::end_node(),
                Recorder { seen: seen.clone() },
            ),
        );
        if i == 0 {
            bootstrap.push(TransportUri::udp(PhysAddr::new(
                sim.world().host_ip(host),
                PORT,
            )));
        }
        actors.push(actor);
        addrs.push(addr);
    }
    sim.run_until(SimTime::from_secs(120));
    // Every node sends one payload to every other node.
    for (i, &actor) in actors.iter().enumerate() {
        for (j, &dst) in addrs.iter().enumerate() {
            if i == j {
                continue;
            }
            sim.with_actor::<OverlayHost<Recorder>, _>(actor, |host, ctx| {
                host.send_app(ctx, dst, 9, Bytes::from(vec![i as u8, j as u8]));
            });
        }
    }
    sim.run_until(SimTime::from_secs(180));
    let delivered = seen.lock().unwrap().len();
    assert_eq!(
        delivered,
        n * (n - 1),
        "all-pairs delivery should be complete"
    );
}

#[test]
fn natted_nodes_join_via_public_bootstrap_and_form_shortcuts() {
    // One public bootstrap + two routers; two NATted domains with one node
    // each. After joining, sustained traffic between the two NATted nodes
    // must produce a direct (hole-punched) connection.
    let seed = 5;
    let mut sim = Sim::new(seed);
    let wan = sim.add_domain(DomainSpec::public("wan"));
    let dom_a = sim.add_domain(DomainSpec::natted("a.edu", NatConfig::typical()));
    let dom_b = sim.add_domain(DomainSpec::natted("b.edu", NatConfig::hairpinning()));
    let seeds = SeedSplitter::new(seed);
    let mut rng = seeds.rng("addresses");

    let mut bootstrap: Vec<TransportUri> = Vec::new();
    let mut public_actors = Vec::new();
    for i in 0..3 {
        let host = sim.add_host(wan, HostSpec::new(format!("pl{i}")));
        let addr = Address::random(&mut rng);
        let node = BrunetNode::new(
            addr,
            OverlayConfig::default(),
            seeds.seed_for_indexed("pl", i),
        );
        let actor = sim.add_actor_at(
            host,
            SimTime::from_millis(i * 100),
            OverlayHost::new(
                node,
                PORT,
                bootstrap.clone(),
                ForwardingCost::router(),
                NoApp,
            ),
        );
        if i == 0 {
            bootstrap.push(TransportUri::udp(PhysAddr::new(
                sim.world().host_ip(host),
                PORT,
            )));
        }
        public_actors.push(actor);
    }
    let mut nat_actors = Vec::new();
    let mut nat_addrs = Vec::new();
    for (i, dom) in [dom_a, dom_b].into_iter().enumerate() {
        let host = sim.add_host(dom, HostSpec::new(format!("vm{i}")));
        let addr = Address::random(&mut rng);
        let node = BrunetNode::new(
            addr,
            OverlayConfig::default(),
            seeds.seed_for_indexed("vm", i as u64),
        );
        let actor = sim.add_actor_at(
            host,
            SimTime::from_secs(2),
            OverlayHost::new(
                node,
                PORT,
                bootstrap.clone(),
                ForwardingCost::end_node(),
                NoApp,
            ),
        );
        nat_actors.push(actor);
        nat_addrs.push(addr);
    }
    sim.run_until(SimTime::from_secs(60));
    for (i, &actor) in nat_actors.iter().enumerate() {
        let routable =
            sim.with_actor::<OverlayHost<NoApp>, _>(actor, |h, _| h.node().is_routable());
        assert!(routable, "NATted node {i} failed to join");
    }
    // Drive sustained traffic A→B (2 packets per second, like the ping
    // experiment) by scheduling sends.
    let a_actor = nat_actors[0];
    let b_addr = nat_addrs[1];
    for k in 0..240u64 {
        let t = SimTime::from_secs(60) + SimDuration::from_millis(k * 500);
        sim.schedule(t, move |sim| {
            sim.with_actor::<OverlayHost<NoApp>, _>(a_actor, |host, ctx| {
                host.send_app(ctx, b_addr, 9, Bytes::from_static(b"traffic"));
            });
        });
    }
    sim.run_until(SimTime::from_secs(240));
    let direct =
        sim.with_actor::<OverlayHost<NoApp>, _>(a_actor, |h, _| h.node().has_direct(b_addr));
    assert!(
        direct,
        "sustained traffic across two NATs must produce a hole-punched shortcut"
    );
}
