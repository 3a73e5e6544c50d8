//! Byte-identity differential suite for the windowed parallel event engine.
//!
//! The contract under test: for ANY worker count, a simulation produces
//! output byte-identical to the sequential core — delivery transcripts,
//! traffic stats (including per-reason drop counts), the fault transcript,
//! the final clock and the processed-event count. The scenarios here are
//! deliberately hostile to that contract: NAT hairpins, in-window wake
//! chains, downlink queue chaining, crash/restart controls splitting
//! windows, partitions healing mid-run, chaos duplication/reordering, and
//! ephemeral-port scans racing across shards.
//!
//! CI sweeps the seed via `WOW_DIFF_SEED` (same convention as the churn
//! suite's `WOW_CHURN_SEED`) and runs every scenario at workers
//! {1, 2, 4, 8}.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use wow_netsim::fault::FaultKind;
use wow_netsim::nat::NatConfig;
use wow_netsim::prelude::*;

/// Seeds swept by default; CI overrides/extends via `WOW_DIFF_SEED`.
fn seeds() -> Vec<u64> {
    match std::env::var("WOW_DIFF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(s) => vec![s],
        None => vec![0xD1FF, 7, 1984],
    }
}

const WORKER_MATRIX: [usize; 4] = [1, 2, 4, 8];

type Log = Arc<Mutex<Vec<String>>>;

/// Deterministic per-actor pseudo-random stream (actors must not touch the
/// world RNG under parallel execution; this is the documented alternative).
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Echoes datagrams back until the hop counter in byte 0 runs out, logging
/// every arrival. Exercises reply paths through NATs and FIFO clamps.
struct Echo {
    name: &'static str,
    port: u16,
    log: Log,
}

impl Actor for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(self.port);
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
        self.log.lock().unwrap().push(format!(
            "{} echo {} <- {}:{} [{}] hops={}",
            ctx.now.as_micros(),
            self.name,
            d.src.ip,
            d.src.port,
            d.payload.len(),
            d.payload[0],
        ));
        if d.payload[0] > 0 {
            let mut p = d.payload.to_vec();
            p[0] -= 1;
            ctx.send(self.port, d.src, Bytes::from(p));
        }
    }
}

/// A port each chatter binds, releases and binds again mid-run.
const FIXED_PORT: u16 = 7000;

/// The workhorse: short in-window wake chains, batch sends to a target
/// list, hairpin/private probes, CPU occupancy, host queries, ephemeral
/// binds, a fixed-port rebind and eventual self-stop. All decisions derive
/// from a private LCG stream.
struct Chatter {
    name: &'static str,
    rng: Lcg,
    targets: Vec<PhysAddr>,
    /// Own NAT public IP if behind one (hairpin probe target).
    hairpin: Option<PhysAddr>,
    /// A same-domain private address (cross-domain twins drop).
    private_peer: Option<PhysAddr>,
    rounds: u32,
    port: u16,
    log: Log,
}

impl Actor for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let addr = ctx.bind_ephemeral();
        self.port = addr.port;
        ctx.wake_after(SimDuration::from_micros(self.rng.next() % 5000), 0);
    }
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.log.lock().unwrap().push(format!(
            "{} wake {} tag={} round={}",
            ctx.now.as_micros(),
            self.name,
            tag,
            self.rounds,
        ));
        match tag {
            // Main round: traffic + a sub-window wake chain.
            0 => {
                self.rounds += 1;
                let frames: Vec<(PhysAddr, Bytes)> = (0..1 + self.rng.pick(3))
                    .map(|_| {
                        let dst = self.targets[self.rng.pick(self.targets.len())];
                        let hops = (self.rng.next() % 3) as u8;
                        let size = 1 + self.rng.pick(900);
                        let mut p = vec![0u8; size];
                        p[0] = hops;
                        (dst, Bytes::from(p))
                    })
                    .collect();
                ctx.send_batch(self.port, frames);
                if let Some(h) = self.hairpin {
                    if self.rng.pick(3) == 0 {
                        ctx.send(self.port, h, Bytes::from_static(b"\x00hairpin"));
                    }
                }
                if let Some(p) = self.private_peer {
                    if self.rng.pick(4) == 0 {
                        ctx.send(self.port, p, Bytes::from_static(b"\x01private"));
                    }
                }
                if self.rng.pick(4) == 0 {
                    let done =
                        ctx.cpu_acquire(SimDuration::from_micros(200 + self.rng.next() % 3000));
                    ctx.wake_at(done, 2);
                }
                // The host queries and port rules an actor can observe.
                let spec = ctx.my_host_spec();
                let shared = ctx.cpu_timeshared(SimDuration::from_micros(500));
                let mut line = format!(
                    "{} host {} ip={} spec={}/{}/{}/{} speed={} timeshared={}",
                    ctx.now.as_micros(),
                    self.name,
                    ctx.my_ip(),
                    spec.name,
                    spec.cpu_speed,
                    spec.uplink_bps,
                    spec.downlink_bps,
                    ctx.my_cpu_speed(),
                    shared.as_micros(),
                );
                if self.rounds == 3 {
                    // Re-bind a fixed port after releasing it; it stays
                    // bound until the actor stops.
                    let first = ctx.bind(FIXED_PORT);
                    ctx.unbind(FIXED_PORT);
                    let again = ctx.bind(FIXED_PORT);
                    line.push_str(&format!(" rebind={first}->{again}"));
                }
                self.log.lock().unwrap().push(line);
                // Sub-window chain: a couple of micro-delay wakes that land
                // inside the current lookahead window (lane-chained).
                ctx.wake_after(SimDuration::from_micros(self.rng.next() % 40), 1);
                if self.rounds < 12 {
                    ctx.wake_after(SimDuration::from_millis(20 + self.rng.next() % 400), 0);
                } else {
                    ctx.unbind(self.port);
                    ctx.stop_self();
                }
            }
            // In-window child: immediate re-chain once, tiny delay.
            1 if self.rng.pick(2) == 0 => {
                ctx.wake_after(SimDuration::from_micros(self.rng.next() % 15), 3);
            }
            // CPU completion and chain tail: log only.
            _ => {}
        }
    }
}

/// Build and run the full scenario at one worker count; return the complete
/// observable fingerprint.
fn run_scenario(seed: u64, workers: usize) -> String {
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Sim::new(seed);
    sim.set_workers(workers);
    // Force every multi-lane window across the thread pool — the scenario
    // is small, and the default threshold would keep it on the inline path.
    sim.set_parallel_inline_threshold(0);

    // Three public campuses + two natted home domains; one fast intra link
    // to shrink the lookahead bound and force multi-event windows.
    let wan_a = sim.add_domain(DomainSpec::public("wan-a"));
    let wan_b = sim.add_domain(DomainSpec::public("wan-b"));
    let wan_c = sim.add_domain(DomainSpec::public("wan-c"));
    let home1 = sim.add_domain(DomainSpec::natted("home1", NatConfig::typical()));
    let home2 = sim.add_domain(DomainSpec::natted("home2", NatConfig::typical()));
    {
        let links = &mut sim.world().links;
        links.set_inter(
            wan_a,
            wan_b,
            PathModel::with_base(SimDuration::from_millis(10)),
        );
        links.set_inter(
            wan_a,
            wan_c,
            PathModel::with_base(SimDuration::from_millis(35)),
        );
        links.set_intra(wan_a, PathModel::with_base(SimDuration::from_micros(60)));
        let mut lossy = PathModel::with_base(SimDuration::from_millis(25));
        lossy.loss = 0.01;
        links.set_inter(wan_b, wan_c, lossy);
    }

    let names: [&'static str; 12] = [
        "a0", "a1", "a2", "a3", "b0", "b1", "b2", "c0", "c1", "n0", "n1", "n2",
    ];
    let mut hosts = Vec::new();
    for (i, n) in names.iter().enumerate() {
        let d = match i {
            0..=3 => wan_a,
            4..=6 => wan_b,
            7..=8 => wan_c,
            9..=10 => home1,
            _ => home2,
        };
        let spec = HostSpec::new(*n)
            .cpu_speed(0.5 + (i as f64) * 0.2)
            .links_bps(8e5 + (i as f64) * 1e5, 1.0e6 + (i as f64) * 2e5);
        hosts.push(sim.add_host(d, spec));
    }
    // Background load on two of every three hosts, so every scaled CPU
    // completion the chatters log depends on it.
    for (i, &h) in hosts.iter().enumerate() {
        sim.world().set_host_load(h, 1.0 + (i % 3) as f64 * 0.5);
    }

    // Echo servers everywhere on port 100.
    for (i, &h) in hosts.iter().enumerate() {
        sim.add_actor(
            h,
            Echo {
                name: names[i],
                port: 100,
                log: log.clone(),
            },
        );
    }
    // Chatters on a subset, staggered starts.
    let echo_addrs: Vec<PhysAddr> = hosts
        .iter()
        .map(|&h| PhysAddr::new(sim.world().host_ip(h), 100))
        .collect();
    let nat1_ip = sim
        .world_ref()
        .domain(home1)
        .nat
        .as_ref()
        .unwrap()
        .public_ip;
    let nat2_ip = sim
        .world_ref()
        .domain(home2)
        .nat
        .as_ref()
        .unwrap()
        .public_ip;
    for (i, &h) in hosts.iter().enumerate() {
        if i % 2 == 1 {
            continue;
        }
        // Natted chatters probe their own NAT (hairpin) and a same-domain
        // private twin; public ones only use the target list.
        let (hairpin, private_peer) = match i {
            9 | 10 => (
                Some(PhysAddr::new(nat1_ip, 100)),
                Some(PhysAddr::new(sim.world().host_ip(hosts[10]), 100)),
            ),
            11 => (Some(PhysAddr::new(nat2_ip, 100)), None),
            _ => (None, None),
        };
        // Public targets only (private URIs cross-domain are exercised via
        // private_peer above).
        let targets: Vec<PhysAddr> = echo_addrs[..9].to_vec();
        sim.add_actor_at(
            h,
            SimTime::from_millis(i as u64 * 3),
            Chatter {
                name: names[i],
                rng: Lcg(seed ^ (i as u64) << 17),
                targets,
                hairpin,
                private_peer,
                rounds: 0,
                port: 0,
                log: log.clone(),
            },
        );
    }

    // Controls: every faultlab primitive lands mid-run, splitting windows.
    let victim = hosts[5];
    sim.schedule(SimTime::from_millis(300), move |sim| {
        sim.world().crash_host(victim);
    });
    sim.schedule(SimTime::from_millis(700), move |sim| {
        sim.world().restart_host(victim);
    });
    sim.schedule(SimTime::from_millis(450), move |sim| {
        sim.world()
            .apply_fault(FaultKind::Partition { domain: wan_c });
    });
    sim.schedule(SimTime::from_millis(900), move |sim| {
        sim.world()
            .apply_fault(FaultKind::HealPartition { domain: wan_c });
    });
    sim.schedule(SimTime::from_millis(500), move |sim| {
        sim.world().apply_fault(FaultKind::ChaosOpen {
            dup_per_mille: 80,
            reorder_per_mille: 60,
            extra: SimDuration::from_millis(4),
        });
    });
    sim.schedule(SimTime::from_millis(1400), move |sim| {
        sim.world().apply_fault(FaultKind::ChaosClose);
    });
    sim.schedule(SimTime::from_millis(1100), move |sim| {
        sim.world()
            .apply_fault(FaultKind::NatExpiry { domain: home1 });
    });
    let blk_a = wan_a;
    let blk_b = wan_b;
    sim.schedule(SimTime::from_millis(600), move |sim| {
        sim.world()
            .apply_fault(FaultKind::Blackhole { a: blk_a, b: blk_b });
    });
    sim.schedule(SimTime::from_millis(1000), move |sim| {
        sim.world()
            .apply_fault(FaultKind::HealBlackhole { a: blk_a, b: blk_b });
    });

    // Segmented run (controls interleave), then drain.
    sim.run_until(SimTime::from_millis(800));
    sim.run_until(SimTime::from_secs(2));
    sim.run_to_quiescence();

    fingerprint(&mut sim, &log)
}

/// Everything observable, serialized deterministically.
///
/// The actor log is sorted before comparison: within a lookahead window,
/// actors on different shards execute concurrently, so the *interleaving*
/// of their log appends is scheduling-dependent — only each actor's own
/// line order, the line multiset, and all committed simulator state are
/// covered by the determinism contract. Every line starts with its
/// timestamp and actor name, so the sorted transcript is a canonical form
/// that still pins every delivery, wake, payload size and hop count.
fn fingerprint(sim: &mut Sim, log: &Log) -> String {
    let mut out = String::new();
    let mut lines = log.lock().unwrap().clone();
    lines.sort();
    for line in &lines {
        out.push_str(line);
        out.push('\n');
    }
    let w = sim.world_ref();
    let s = &w.stats;
    out.push_str(&format!(
        "stats sent={} delivered={} dup={} reord={} ulq={}/{} dlq={}/{} cpuq={}/{}\n",
        s.sent,
        s.delivered,
        s.duplicated,
        s.reordered,
        s.uplink_queued,
        s.uplink_queue_wait_us,
        s.downlink_queued,
        s.downlink_queue_wait_us,
        s.cpu_queued,
        s.cpu_queue_wait_us,
    ));
    let mut drops: Vec<(String, u64)> = s.drops().map(|(r, c)| (format!("{r:?}"), c)).collect();
    drops.sort();
    out.push_str(&format!("drops {drops:?}\n"));
    for rec in w.fault_transcript() {
        out.push_str(&format!("fault {} {:?}\n", rec.at.as_micros(), rec.kind));
    }
    out.push_str(&format!(
        "now={} events={}\n",
        sim.now().as_micros(),
        sim.events_processed(),
    ));
    out
}

#[test]
fn parallel_execution_is_byte_identical_across_worker_counts() {
    for seed in seeds() {
        let reference = run_scenario(seed, 1);
        assert!(
            reference.contains("echo"),
            "scenario produced no traffic (seed {seed})"
        );
        for &workers in &WORKER_MATRIX[1..] {
            let got = run_scenario(seed, workers);
            assert!(
                got == reference,
                "seed {seed}: workers={workers} diverged from sequential\n\
                 --- first differing line ---\n{}",
                first_diff(&reference, &got),
            );
        }
    }
}

/// Repeated runs at the same worker count are self-identical too (the pool
/// introduces no scheduling nondeterminism into observable output).
#[test]
fn parallel_execution_is_self_deterministic() {
    for seed in seeds().into_iter().take(1) {
        let a = run_scenario(seed, 4);
        let b = run_scenario(seed, 4);
        assert!(a == b, "workers=4 self-divergence at seed {seed}");
    }
}

/// Window-safety property sweep: randomized topologies (including
/// sub-100 µs lookahead bounds and partition/heal edges mid-run) must stay
/// byte-identical between sequential and parallel execution. Randomization
/// derives from the case index, so failures replay exactly.
#[test]
fn random_topologies_stay_identical_under_parallelism() {
    for case in 0..12u64 {
        let base = 0xBEEF ^ (case << 32);
        let reference = run_random_case(base, 1);
        let got = run_random_case(base, 3);
        assert!(
            got == reference,
            "random case {case}: workers=3 diverged\n--- first differing line ---\n{}",
            first_diff(&reference, &got),
        );
    }
}

fn run_random_case(seed: u64, workers: usize) -> String {
    let mut cfg = Lcg(seed);
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Sim::new(seed);
    sim.set_workers(workers);
    sim.set_parallel_inline_threshold(0);

    let n_domains = 1 + cfg.pick(3);
    let mut domains = Vec::new();
    for d in 0..n_domains {
        let dom = if cfg.pick(3) == 0 {
            sim.add_domain(DomainSpec::natted(format!("d{d}"), NatConfig::typical()))
        } else {
            sim.add_domain(DomainSpec::public(format!("d{d}")))
        };
        // Random intra base from 20 µs to ~5 ms: small L values force many
        // short windows and stress the barrier machinery.
        let base = SimDuration::from_micros(20 + cfg.next() % 5000);
        sim.world().links.set_intra(dom, PathModel::with_base(base));
        domains.push(dom);
    }
    for i in 0..domains.len() {
        for j in (i + 1)..domains.len() {
            let base = SimDuration::from_micros(500 + cfg.next() % 30_000);
            sim.world()
                .links
                .set_inter(domains[i], domains[j], PathModel::with_base(base));
        }
    }

    let n_hosts = 2 + cfg.pick(9);
    let mut hosts = Vec::new();
    for h in 0..n_hosts {
        let d = domains[cfg.pick(domains.len())];
        hosts.push(sim.add_host(d, HostSpec::new(format!("h{h}"))));
    }
    let leaked: Vec<&'static str> = (0..n_hosts)
        .map(|h| Box::leak(format!("h{h}").into_boxed_str()) as &'static str)
        .collect();
    for (i, &h) in hosts.iter().enumerate() {
        sim.add_actor(
            h,
            Echo {
                name: leaked[i],
                port: 100,
                log: log.clone(),
            },
        );
    }
    // Only publicly-addressed echoes are valid cross-domain targets.
    let ips: Vec<_> = hosts.iter().map(|&h| sim.world().host_ip(h)).collect();
    let targets: Vec<PhysAddr> = ips
        .iter()
        .filter(|ip| !ip.is_private())
        .map(|&ip| PhysAddr::new(ip, 100))
        .collect();
    if targets.is_empty() {
        // Degenerate all-natted draw: nothing addressable; trivially equal.
        return String::new();
    }
    for (i, &h) in hosts.iter().enumerate() {
        sim.add_actor_at(
            h,
            SimTime::from_micros(cfg.next() % 10_000),
            Chatter {
                name: leaked[i],
                rng: Lcg(seed ^ (i as u64) << 9),
                targets: targets.clone(),
                hairpin: None,
                private_peer: None,
                rounds: 6, // fewer rounds than the big scenario
                port: 0,
                log: log.clone(),
            },
        );
    }
    // A random partition that heals mid-run.
    let pd = domains[cfg.pick(domains.len())];
    let t0 = 50_000 + cfg.next() % 200_000;
    sim.schedule(SimTime::from_micros(t0), move |sim| {
        sim.world().apply_fault(FaultKind::Partition { domain: pd });
    });
    sim.schedule(SimTime::from_micros(t0 + 150_000), move |sim| {
        sim.world()
            .apply_fault(FaultKind::HealPartition { domain: pd });
    });

    sim.run_until(SimTime::from_millis(600));
    sim.run_to_quiescence();
    fingerprint(&mut sim, &log)
}

fn first_diff(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("seq: {la}\npar: {lb}");
        }
    }
    format!(
        "line-count mismatch: seq {} vs par {}",
        a.lines().count(),
        b.lines().count()
    )
}

/// The lookahead bound must also survive drops: a scenario built entirely
/// of drop paths (down hosts, unbound ports, NAT rejections) diverges in
/// stats, not transcripts, if anything is off.
#[test]
fn drop_accounting_is_identical_under_parallelism() {
    for seed in seeds().into_iter().take(1) {
        let mut fps = Vec::new();
        for &workers in &WORKER_MATRIX {
            let log: Log = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Sim::new(seed);
            sim.set_workers(workers);
            let wan = sim.add_domain(DomainSpec::public("wan"));
            let home = sim.add_domain(DomainSpec::natted("home", NatConfig::typical()));
            let p = sim.add_host(wan, HostSpec::new("p"));
            let q = sim.add_host(wan, HostSpec::new("q"));
            let _n = sim.add_host(home, HostSpec::new("n"));
            let nat_ip = sim.world_ref().domain(home).nat.as_ref().unwrap().public_ip;
            let q_ip = sim.world().host_ip(q);
            sim.add_actor(
                p,
                Chatter {
                    name: "p",
                    rng: Lcg(seed),
                    // Unbound port on q + blind NAT probe: pure drop traffic.
                    targets: vec![PhysAddr::new(q_ip, 9999), PhysAddr::new(nat_ip, 40_000)],
                    hairpin: None,
                    private_peer: None,
                    rounds: 0,
                    port: 0,
                    log: log.clone(),
                },
            );
            sim.schedule(SimTime::from_millis(100), move |sim| {
                sim.world().set_host_up(q, false);
            });
            sim.run_to_quiescence();
            let fp = fingerprint(&mut sim, &log);
            assert!(
                fp.contains("PortUnbound") || fp.contains("HostDown"),
                "drop scenario produced no drops"
            );
            fps.push(fp);
        }
        for w in 1..fps.len() {
            assert!(
                fps[w] == fps[0],
                "drop accounting diverged at workers={}",
                WORKER_MATRIX[w]
            );
        }
    }
}
