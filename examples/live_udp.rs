//! The same overlay over REAL UDP sockets on loopback — no simulator, no
//! privileges, no tun device. Forms a ring, routes a payload, prints what
//! every node sees.
//!
//! Run with: `cargo run --release -p wow-bench --example live_udp`

use std::time::Duration;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use wow::reactor::Reactor;
use wow::udprt::UdpEvent;
use wow_netsim::time::SimDuration;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;

fn main() {
    let quick = OverlayConfig {
        link_rto: SimDuration::from_millis(200),
        stabilize_interval: SimDuration::from_millis(300),
        far_check_interval: SimDuration::from_millis(500),
        join_retry: SimDuration::from_millis(800),
        ..OverlayConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(0xCAFE);
    let reactor = Reactor::new(1).expect("start reactor");
    let first = reactor
        .spawn_node(Address::random(&mut rng), quick.clone(), 0, Vec::new(), 1)
        .expect("bind first node");
    println!(
        "bootstrap node {} at {}",
        first.address().short(),
        first.uri()
    );
    let bootstrap = vec![first.uri()];
    let mut nodes = Vec::new();
    for i in 0..5u64 {
        let n = reactor
            .spawn_node(
                Address::random(&mut rng),
                quick.clone(),
                0,
                bootstrap.clone(),
                2 + i,
            )
            .expect("bind node");
        println!("node {} joining from {}", n.address().short(), n.uri());
        nodes.push(n);
    }
    for n in &nodes {
        assert!(
            n.wait_routable(Duration::from_secs(15)),
            "node failed to join over real UDP"
        );
    }
    println!("\nall nodes routable; ring snapshot:");
    for n in &nodes {
        let s = n.snapshot();
        println!(
            "  {}: {} connections, routable = {}",
            n.address().short(),
            s.connections,
            s.routable
        );
    }
    // Route a payload from the last joiner to the bootstrap node.
    let last = nodes.last().expect("nonempty");
    last.send_app(
        first.address(),
        9,
        Bytes::from_static(b"hello from real sockets"),
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match first.events().recv_timeout(Duration::from_millis(200)) {
            Ok(UdpEvent::Deliver { src, data, .. }) => {
                println!(
                    "\nbootstrap received {:?} from {} — routed over the loopback ring",
                    String::from_utf8_lossy(&data),
                    src.short()
                );
                break;
            }
            _ if std::time::Instant::now() > deadline => {
                panic!("payload did not arrive in time");
            }
            _ => {}
        }
    }
    for n in nodes {
        n.shutdown();
    }
    first.shutdown();
    println!("done.");
}
