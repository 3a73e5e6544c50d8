//! The paper's testbed: Figure 1 and Table I reconstructed.
//!
//! 33 compute nodes (virtual IPs 172.16.1.2 – 172.16.1.34) across six
//! domains — five university networks and one home network — all behind
//! NAT and/or firewall devices, plus 118 overlay router nodes on 20 public
//! PlanetLab-class hosts that form the bootstrap overlay.
//!
//! Middlebox behaviours follow §V-B's observations: the UFL NAT does *not*
//! hairpin (which is why UFL–UFL shortcut setup takes ~200 s), the NWU
//! VMware NAT does, and the home node sits behind a symmetric NAT whose
//! port translations change — the overlay re-links through them. The
//! ncgrid firewall, which admitted IPOP through a single pre-opened UDP
//! port, is modelled with a static port-forward.
//!
//! Host speeds mirror Table I: 2.4 GHz Xeons are the 1.0 baseline; the NWU
//! machines (2.0 GHz) are slower; the LSU/VIMS 3.2 GHz machines faster; the
//! ncgrid P-III and the home P4 noticeably slower — the spread behind
//! Fig. 8's job-time histogram.

use rand::Rng;

use wow_netsim::link::PathModel;
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::node::BrunetNode;
use wow_overlay::uri::TransportUri;
use wow_vnet::ip::VirtIp;
use wow_vnet::tcp::TcpConfig;

use crate::simrt::{ForwardingCost, NoApp, OverlayHost};
use crate::workstation::{control, Workload, Workstation};

/// UDP port every IPOP node binds.
pub const IPOP_PORT: u16 = 14_000;
/// The IPOP namespace of the WOW virtual network.
pub const NAMESPACE: &str = "wow-testbed";

/// Which domain a compute node lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// University of Florida (16 nodes; non-hairpin NAT).
    Ufl,
    /// Northwestern University (13 nodes; hairpinning VMware NAT).
    Nwu,
    /// Louisiana State University (2 nodes).
    Lsu,
    /// North Carolina grid (1 node; firewall with one open UDP port).
    Ncgrid,
    /// Virginia Institute of Marine Science (1 node).
    Vims,
    /// Home broadband network (1 node; symmetric NAT).
    Gru,
}

impl Site {
    /// Site name as in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Site::Ufl => "ufl.edu",
            Site::Nwu => "northwestern.edu",
            Site::Lsu => "lsu.edu",
            Site::Ncgrid => "ncgrid.org",
            Site::Vims => "vims.edu",
            Site::Gru => "gru.net",
        }
    }
}

/// Static description of one compute node (a Table I row).
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Node number (2–34, naming follows the paper's node002–node034).
    pub number: u8,
    /// Site.
    pub site: Site,
    /// Relative host CPU speed (1.0 = 2.4 GHz Xeon).
    pub speed: f64,
}

/// Table I: the 33 compute nodes.
pub fn table1() -> Vec<NodeSpec> {
    let mut rows = Vec::with_capacity(33);
    // node002–node016: UFL, 2.4 GHz Xeons.
    for number in 2..=16 {
        rows.push(NodeSpec {
            number,
            site: Site::Ufl,
            speed: 1.0,
        });
    }
    // node017–node029: NWU, 2.0 GHz Xeons.
    for number in 17..=29 {
        rows.push(NodeSpec {
            number,
            site: Site::Nwu,
            speed: 2.0 / 2.4,
        });
    }
    // node030–node031: LSU, 3.2 GHz Xeons.
    for number in 30..=31 {
        rows.push(NodeSpec {
            number,
            site: Site::Lsu,
            speed: 3.2 / 2.4,
        });
    }
    // node032: ncgrid, P-III 1.3 GHz.
    rows.push(NodeSpec {
        number: 32,
        site: Site::Ncgrid,
        speed: 1.3 / 2.4,
    });
    // node033: VIMS, 3.2 GHz Xeon.
    rows.push(NodeSpec {
        number: 33,
        site: Site::Vims,
        speed: 3.2 / 2.4,
    });
    // node034: home network, P4 1.7 GHz with VMPlayer on Windows XP. Its
    // effective speed is calibrated from Table III's measured sequential
    // times (22272 s on node002 vs 45191 s here): the P4's architecture and
    // the hosted-VM-on-Windows overhead cost far more than the clock ratio.
    rows.push(NodeSpec {
        number: 34,
        site: Site::Gru,
        speed: 22_272.0 / 45_191.0,
    });
    rows
}

/// Knobs for testbed construction.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Root seed.
    pub seed: u64,
    /// Overlay parameters for every node.
    pub overlay: OverlayConfig,
    /// TCP parameters for every workstation.
    pub tcp: TcpConfig,
    /// Number of PlanetLab router processes.
    pub routers: usize,
    /// Number of public hosts carrying them.
    pub router_hosts: usize,
    /// PlanetLab host background-load range (multiplies router CPU work).
    pub planetlab_load: (f64, f64),
    /// Gap between consecutive router starts (staged bootstrap).
    pub router_start_gap: SimDuration,
    /// When compute nodes start joining (after the router overlay settles).
    pub nodes_start: SimTime,
    /// Gap between consecutive compute-node starts.
    pub node_start_gap: SimDuration,
    /// Event-execution workers for the simulator. `0` leaves the count to
    /// the simulator; any value yields byte-identical results (see the
    /// parallel differential suite).
    pub workers: usize,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 0x2006_0611, // HPDC'06
            overlay: OverlayConfig::default(),
            tcp: TcpConfig::default(),
            routers: 118,
            router_hosts: 20,
            planetlab_load: (10.0, 24.0),
            router_start_gap: SimDuration::from_millis(500),
            nodes_start: SimTime::from_secs(120),
            node_start_gap: SimDuration::from_secs(2),
            workers: 0,
        }
    }
}

/// A deployed compute node.
#[derive(Clone, Debug)]
pub struct DeployedNode {
    /// Table I row.
    pub spec: NodeSpec,
    /// Simulator actor.
    pub actor: ActorId,
    /// Host the VM runs on.
    pub host: HostId,
    /// Virtual IP (172.16.1.`number`).
    pub ip: VirtIp,
    /// Overlay address (derived from the virtual IP).
    pub addr: Address,
}

/// The running testbed.
pub struct Testbed {
    /// The simulator.
    pub sim: Sim,
    /// PlanetLab router actors.
    pub routers: Vec<ActorId>,
    /// Compute nodes, in Table I order (index 0 = node002).
    pub nodes: Vec<DeployedNode>,
    /// Bootstrap URIs handed to every joining node.
    pub bootstrap: Vec<TransportUri>,
    /// Domain ids by site.
    pub domains: Vec<(Site, DomainId)>,
    /// The public (PlanetLab) domain.
    pub planetlab: DomainId,
}

impl Testbed {
    /// Look up a node by its paper number (2–34).
    pub fn node(&self, number: u8) -> &DeployedNode {
        self.nodes
            .iter()
            .find(|n| n.spec.number == number)
            .expect("node number out of range")
    }

    /// The domain id of a site.
    pub fn domain(&self, site: Site) -> DomainId {
        self.domains
            .iter()
            .find(|(s, _)| *s == site)
            .map(|(_, d)| *d)
            .expect("site present")
    }
}

/// Build the Figure-1 testbed. `make_workload(i, spec)` supplies the
/// middleware for compute node `i` (0-based Table I order) — e.g. the PBS
/// head on node 2 and workers elsewhere.
pub fn build<W: Workload>(
    cfg: TestbedConfig,
    mut make_workload: impl FnMut(usize, &NodeSpec) -> W,
) -> Testbed {
    let mut sim = Sim::new(cfg.seed);
    sim.set_workers(cfg.workers);
    let seeds = SeedSplitter::new(cfg.seed).child("testbed");

    // ---- domains ----
    let planetlab = sim.add_domain(DomainSpec::public("planetlab"));
    let sites = [
        (
            Site::Ufl,
            DomainSpec::natted("ufl.edu", NatConfig::typical()),
        ),
        (
            Site::Nwu,
            DomainSpec::natted("northwestern.edu", NatConfig::hairpinning()),
        ),
        (
            Site::Lsu,
            DomainSpec::natted("lsu.edu", NatConfig::typical()),
        ),
        (
            Site::Ncgrid,
            DomainSpec::natted("ncgrid.org", NatConfig::typical()),
        ),
        (
            Site::Vims,
            DomainSpec::natted("vims.edu", NatConfig::typical()),
        ),
        (
            Site::Gru,
            DomainSpec::natted("gru.net", NatConfig::symmetric()),
        ),
    ];
    let mut domains = Vec::new();
    for (site, spec) in sites {
        domains.push((site, sim.add_domain(spec)));
    }
    let domain_of = |domains: &[(Site, DomainId)], site: Site| -> DomainId {
        domains
            .iter()
            .find(|(s, _)| *s == site)
            .map(|(_, d)| *d)
            .expect("site registered")
    };

    // ---- inter-domain latency (one-way) ----
    // Rough US geography: UFL↔NWU ~19 ms (the paper's 38 ms shortcut RTT),
    // campuses ↔ PlanetLab 12–25 ms, PlanetLab internal 12 ms.
    {
        let links = &mut sim.world().links;
        let ms = |m: u64| PathModel {
            base: SimDuration::from_millis(m),
            jitter_mean: SimDuration::from_micros(m * 60),
            loss: 0.0005,
        };
        let ufl = domain_of(&domains, Site::Ufl);
        let nwu = domain_of(&domains, Site::Nwu);
        let lsu = domain_of(&domains, Site::Lsu);
        let ncg = domain_of(&domains, Site::Ncgrid);
        let vims = domain_of(&domains, Site::Vims);
        let gru = domain_of(&domains, Site::Gru);
        links.set_inter(ufl, nwu, ms(19));
        links.set_inter(ufl, lsu, ms(12));
        links.set_inter(ufl, ncg, ms(10));
        links.set_inter(ufl, vims, ms(11));
        links.set_inter(ufl, gru, ms(8));
        links.set_inter(nwu, lsu, ms(16));
        links.set_inter(nwu, ncg, ms(14));
        links.set_inter(nwu, vims, ms(13));
        links.set_inter(nwu, gru, ms(18));
        links.set_inter(ufl, planetlab, ms(15));
        links.set_inter(nwu, planetlab, ms(18));
        links.set_inter(lsu, planetlab, ms(17));
        links.set_inter(ncg, planetlab, ms(14));
        links.set_inter(vims, planetlab, ms(13));
        links.set_inter(gru, planetlab, ms(16));
        links.set_intra(planetlab, ms(22)); // PlanetLab hosts are WAN-spread
        links.default_wan = ms(20);
    }

    // ---- PlanetLab routers: 118 processes on 20 loaded hosts ----
    let mut load_rng = seeds.rng("planetlab-load");
    let mut pl_hosts = Vec::with_capacity(cfg.router_hosts);
    for i in 0..cfg.router_hosts {
        let host = sim.add_host(
            planetlab,
            HostSpec::new(format!("planetlab{i:02}")).link_bps(4e6),
        );
        let load = load_rng.gen_range(cfg.planetlab_load.0..cfg.planetlab_load.1);
        sim.world().set_host_load(host, load);
        pl_hosts.push(host);
    }
    let mut addr_rng = seeds.rng("router-addresses");
    let mut bootstrap: Vec<TransportUri> = Vec::new();
    let mut routers = Vec::new();
    for r in 0..cfg.routers {
        let host = pl_hosts[r % pl_hosts.len()];
        let port = IPOP_PORT + (r / pl_hosts.len()) as u16;
        let addr = Address::random(&mut addr_rng);
        let node = BrunetNode::new(
            addr,
            cfg.overlay.clone(),
            seeds.seed_for_indexed("router", r as u64),
        );
        let start = SimTime::ZERO + cfg.router_start_gap.mul_f64(r as f64);
        let actor = sim.add_actor_at(
            host,
            start,
            OverlayHost::new(
                node,
                port,
                bootstrap.clone(),
                ForwardingCost::router(),
                NoApp,
            ),
        );
        if bootstrap.len() < 4 {
            bootstrap.push(TransportUri::udp(PhysAddr::new(
                sim.world().host_ip(host),
                port,
            )));
        }
        routers.push(actor);
    }

    // ---- the 33 compute nodes ----
    let mut nodes = Vec::new();
    for (i, spec) in table1().into_iter().enumerate() {
        let domain = domain_of(&domains, spec.site);
        let host = sim.add_host(
            domain,
            HostSpec::new(format!("node{:03}", spec.number))
                .cpu_speed(spec.speed)
                .link_bps(2.0e6),
        );
        let ip = VirtIp::testbed(spec.number);
        let workload = make_workload(i, &spec);
        let ws = control::workstation(
            ip,
            NAMESPACE,
            cfg.overlay.clone(),
            cfg.tcp.clone(),
            IPOP_PORT,
            bootstrap.clone(),
            seeds.seed_for_indexed("node", spec.number as u64),
            workload,
        );
        let addr = wow_vnet::ipop::address_for(NAMESPACE, ip);
        let start = cfg.nodes_start + cfg.node_start_gap.mul_f64(i as f64);
        let actor = sim.add_actor_at(host, start, ws);
        nodes.push(DeployedNode {
            spec,
            actor,
            host,
            ip,
            addr,
        });
    }

    Testbed {
        sim,
        routers,
        nodes,
        bootstrap,
        domains,
        planetlab,
    }
}

/// Convenience for experiments: a `Workstation<W>` downcast target.
pub type Node<W> = Workstation<W>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_composition() {
        let rows = table1();
        assert_eq!(rows.len(), 33);
        let count = |site: Site| rows.iter().filter(|r| r.site == site).count();
        assert_eq!(count(Site::Ufl), 15, "node002 + node003–node016");
        assert_eq!(count(Site::Nwu), 13);
        assert_eq!(count(Site::Lsu), 2);
        assert_eq!(count(Site::Ncgrid), 1);
        assert_eq!(count(Site::Vims), 1);
        assert_eq!(count(Site::Gru), 1);
        // Slow and fast outliers the paper calls out.
        let speed_of = |n: u8| rows.iter().find(|r| r.number == n).unwrap().speed;
        assert!(speed_of(32) < 0.6);
        assert!(speed_of(34) < 0.75);
        assert!(speed_of(30) > 1.3);
        assert!(speed_of(33) > 1.3);
    }

    #[test]
    fn node_numbers_are_2_to_34() {
        let rows = table1();
        let numbers: Vec<u8> = rows.iter().map(|r| r.number).collect();
        assert_eq!(numbers, (2..=34).collect::<Vec<u8>>());
    }
}
