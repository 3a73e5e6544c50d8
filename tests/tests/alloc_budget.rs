//! Allocation budget of the simulated event path.
//!
//! A settled overlay — every node joined; stabilization, keepalives, far
//! links and shortcuts running; every node sending a small message to a
//! peer across the ring five times a second — should not pay the allocator
//! for every event. This binary installs its own counting global
//! allocator, counts what the simulating thread allocates over a steady
//! window, and fails when allocations per simulated event exceed
//! [`BUDGET`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use wow::simrt::{ForwardingCost, NodeHandle, OverlayApp, OverlayHost};
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::node::BrunetNode;
use wow_overlay::uri::TransportUri;

/// Allocations per simulated event this world may make in its steady
/// window: 0.478 measured with wheel slots that keep their buffers,
/// index-walked ring-neighbour queries, a stack-array exclude list,
/// single-allocation frame encoding, backed-off ring probes, ring
/// horizons walked as iterators and timer due lists borrowed from the
/// thread (0.486 with a fresh due list per poll, 0.58 with horizons
/// collected into a `Vec`, 0.62 with a probe every stabilize round); 2.27
/// before the first four. The bound keeps the same headroom over the
/// measured figure as before (×1.47), low enough that undoing either of
/// the two largest savings fails it: wheel slots that free every drained
/// buffer add 0.80 per event, and frames built in a growable buffer and
/// then copied 0.45. Since a stale timer wake stopped being a wasted
/// event the window has 8 % fewer events and 4 % fewer allocations, so
/// the ratio reads 0.502 (697 allocations per simulated second, 723
/// before) against an unchanged budget.
const BUDGET: f64 = 0.70;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation call if this thread is measuring. Thread-local, so
/// the test harness's own threads never land in the figure.
fn note_alloc() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

/// The system allocator, counting `alloc` and `realloc` calls.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialized thread-locals
// that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are exactly `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's obligations are exactly `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PORT: u16 = 4000;
const NODES: usize = 48;
const PROTO: u8 = 0x42;
/// A static payload, so sending it allocates nothing of the test's own.
static PAYLOAD: [u8; 256] = [0x5A; 256];

/// Sends [`PAYLOAD`] to one fixed peer every 200 ms.
struct Sender {
    to: Address,
}

impl OverlayApp for Sender {
    fn on_start(&mut self, h: &mut NodeHandle<'_, '_>) {
        h.wake_after(SimDuration::from_secs(5), 0);
    }

    fn on_wake(&mut self, h: &mut NodeHandle<'_, '_>, tag: u64) {
        h.send(self.to, PROTO, Bytes::from_static(&PAYLOAD));
        h.wake_after(SimDuration::from_millis(200), tag);
    }
}

#[test]
fn steady_overlay_stays_under_the_allocation_budget() {
    let seed = 7;
    let mut sim = Sim::new(seed);
    let wan = sim.add_domain(DomainSpec::public("wan"));
    let seeds = SeedSplitter::new(seed);
    let mut rng = seeds.rng("addresses");
    let addrs: Vec<Address> = (0..NODES).map(|_| Address::random(&mut rng)).collect();
    let mut bootstrap: Vec<TransportUri> = Vec::new();
    for (i, &addr) in addrs.iter().enumerate() {
        let host = sim.add_host(wan, HostSpec::new(format!("h{i}")));
        let node = BrunetNode::new(
            addr,
            OverlayConfig::default(),
            seeds.seed_for_indexed("node", i as u64),
        );
        let app = Sender {
            to: addrs[(i + NODES / 2) % NODES],
        };
        sim.add_actor_at(
            host,
            SimTime::from_millis(i as u64 * 100),
            OverlayHost::new(
                node,
                PORT,
                bootstrap.clone(),
                ForwardingCost::end_node(),
                app,
            ),
        );
        if i == 0 {
            bootstrap.push(TransportUri::udp(PhysAddr::new(
                sim.world().host_ip(host),
                PORT,
            )));
        }
    }
    // Join, link and form shortcuts first; then measure a steady window.
    sim.run_until(SimTime::from_secs(40));
    let events0 = sim.events_processed();
    ARMED.with(|a| a.set(true));
    sim.run_until(SimTime::from_secs(60));
    ARMED.with(|a| a.set(false));
    let events = sim.events_processed() - events0;
    let allocs = ALLOCS.with(Cell::get);

    assert!(events > 10_000, "the window is not busy: {events} events");
    let per_event = allocs as f64 / events as f64;
    // Per simulated second too: a change that deletes events (a stale
    // timer wake) raises the per-event ratio while allocating less.
    let per_sim_s = allocs as f64 / 20.0;
    println!(
        "{allocs} allocations over {events} events and 20 simulated s: \
         {per_event:.3} per event, {per_sim_s:.0} per simulated second"
    );
    assert!(
        per_event <= BUDGET,
        "{per_event:.3} allocations per simulated event, budget {BUDGET}"
    );
}
