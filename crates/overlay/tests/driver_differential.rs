//! Differential tests for the unified driver.
//!
//! [`NodeDriver`] has one timer contract ([`NodeDriver::arm_hint`] /
//! [`NodeDriver::timer_fired`]) and one emission path (one batch flush per
//! event cycle). Each used to ship beside the path it replaced — a
//! due-gated poll, a frame-at-a-time transmit, a forced decode → re-encode
//! transit path, a single-introducer bootstrap funnel — and each twin is
//! gone; what it proved is still checked here, against references this
//! file owns: a 1 ms `next_deadline() <= t` poll loop, a bare
//! [`BrunetNode`] emitting into the test's own sink, decode → `hops + 1` →
//! encode computed per forwarded frame, and a digest of the funnel's
//! transcript recorded before it was deleted.
//!
//! The join-plus-traffic trace is millisecond-aligned and race-free (a
//! single joiner), so every node deadline lands on a poll boundary — the
//! one precondition for the poll loop and the armed wakes to coincide
//! exactly.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use bytes::Bytes;

use wow_netsim::addr::{PhysAddr, PhysIp};
use wow_netsim::time::{SimDuration, SimTime};
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::ConnType;
use wow_overlay::driver::{NodeDriver, NodeEvent, NodeSink, Transport};
use wow_overlay::node::BrunetNode;
use wow_overlay::telemetry::{Counter, TelemetryCounters};
use wow_overlay::uri::TransportUri;
use wow_overlay::wire::{Body, Frame, LinkMsg, Packet};

const A_SEED: u64 = 7;
const HORIZON_SECS: u64 = 30;

fn a_addr() -> Address {
    Address([0xAA; 20])
}
fn b_addr() -> Address {
    Address([0x22; 20])
}
fn absent_addr() -> Address {
    Address([0x55; 20])
}
fn a_phys() -> PhysAddr {
    PhysAddr::new(PhysIp::new(10, 0, 0, 1), 14001)
}
fn b_phys() -> PhysAddr {
    PhysAddr::new(PhysIp::new(10, 0, 0, 2), 14001)
}
fn step() -> SimDuration {
    SimDuration::from_millis(1)
}

fn fresh_a(cfg: OverlayConfig) -> BrunetNode {
    BrunetNode::new(a_addr(), cfg, A_SEED)
}

/// Sub-second timers, so that inputs create deadlines *earlier* than the
/// armed wake (a pong re-schedules the next ping inside the pending
/// retransmit timeout) — with the defaults the 1 s housekeeping wake is
/// always the earliest and `arm_hint`'s re-arm branch never runs.
fn brisk() -> OverlayConfig {
    OverlayConfig {
        link_rto: SimDuration::from_millis(200),
        stabilize_interval: SimDuration::from_millis(350),
        ping_interval: SimDuration::from_millis(300),
        ping_rto: SimDuration::from_millis(400),
        ..OverlayConfig::default()
    }
}

type Frames = Vec<(PhysAddr, Bytes)>;

/// One input to a node.
#[derive(Clone)]
enum Input {
    Start(TransportUri, Vec<TransportUri>),
    Datagram(PhysAddr, Bytes),
    AppSend(Address, u8, Bytes),
    Tick,
}

/// The two shapes a node is driven in: the shipping [`NodeDriver`], and the
/// [`Bare`] node that is its frame-at-a-time reference.
trait Endpoint {
    /// One event cycle; what the node transmits lands in `out`.
    fn feed(&mut self, now: SimTime, input: Input, out: &mut Frames);
    fn next_deadline(&self) -> Option<SimTime>;
    fn drain_events(&mut self, into: &mut Vec<NodeEvent>);
    fn counters(&self) -> TelemetryCounters;
}

impl Endpoint for NodeDriver {
    fn feed(&mut self, now: SimTime, input: Input, out: &mut Frames) {
        let t = &mut CapTransport { out };
        match input {
            Input::Start(uri, boot) => self.start(now, uri, boot, t),
            Input::Datagram(src, data) => self.on_datagram(now, src, data, t),
            Input::AppSend(dst, proto, data) => self.send_app(now, dst, proto, data, t),
            Input::Tick => self.on_tick(now, t),
        }
    }
    fn next_deadline(&self) -> Option<SimTime> {
        NodeDriver::next_deadline(self)
    }
    fn drain_events(&mut self, into: &mut Vec<NodeEvent>) {
        drain_events(self, into);
    }
    fn counters(&self) -> TelemetryCounters {
        *NodeDriver::counters(self)
    }
}

/// The unbatched reference: a [`BrunetNode`] with no driver around it,
/// whose sink hands every frame to the transcript the instant the node
/// emits it, mid-cycle.
struct Bare {
    node: BrunetNode,
    events: Vec<NodeEvent>,
    counters: TelemetryCounters,
}

impl Bare {
    fn new(node: BrunetNode) -> Self {
        Bare {
            node,
            events: Vec::new(),
            counters: TelemetryCounters::new(),
        }
    }
}

struct BareSink<'a> {
    out: &'a mut Frames,
    events: &'a mut Vec<NodeEvent>,
    counters: &'a mut TelemetryCounters,
}

impl NodeSink for BareSink<'_> {
    fn send(&mut self, to: PhysAddr, frame: Bytes) {
        self.out.push((to, frame));
    }
    fn event(&mut self, event: NodeEvent) {
        self.events.push(event);
    }
    fn count(&mut self, counter: Counter) {
        self.counters.record(counter);
    }
    fn add_count(&mut self, counter: Counter, n: u64) {
        self.counters.add(counter, n);
    }
}

impl Endpoint for Bare {
    fn feed(&mut self, now: SimTime, input: Input, out: &mut Frames) {
        let sink = &mut BareSink {
            out,
            events: &mut self.events,
            counters: &mut self.counters,
        };
        match input {
            Input::Start(uri, boot) => self.node.start(now, uri, boot, sink),
            Input::Datagram(src, data) => self.node.on_datagram(now, src, data, sink),
            Input::AppSend(dst, proto, data) => self.node.send_app(now, dst, proto, data, sink),
            Input::Tick => self.node.on_tick(now, sink),
        }
    }
    fn next_deadline(&self) -> Option<SimTime> {
        self.node.next_deadline()
    }
    fn drain_events(&mut self, into: &mut Vec<NodeEvent>) {
        into.append(&mut self.events);
    }
    fn counters(&self) -> TelemetryCounters {
        self.counters
    }
}

/// The wall-clock reference discipline: poll every step, tick once the
/// node's next deadline has passed.
fn due(next_deadline: Option<SimTime>, t: SimTime) -> bool {
    next_deadline.is_some_and(|d| d <= t)
}

/// Everything node A did, in order, and when it transmitted each frame.
#[derive(Debug, Default, PartialEq, Eq)]
struct Transcript {
    frames: Frames,
    sent_at: Vec<SimTime>,
    events: Vec<NodeEvent>,
}

impl Transcript {
    /// Stamp the frames transmitted since the last call with `t`.
    fn stamp(&mut self, t: SimTime) {
        self.sent_at.resize(self.frames.len(), t);
    }
}

/// One input to node A, at a millisecond-aligned instant.
struct ScriptItem {
    at: SimTime,
    input: Input,
}

fn start_a() -> Input {
    Input::Start(
        TransportUri::udp(a_phys()),
        vec![TransportUri::udp(b_phys())],
    )
}

/// Capture-only transport for the replay passes.
struct CapTransport<'a> {
    out: &'a mut Frames,
}

impl Transport for CapTransport<'_> {
    fn transmit(&mut self, to: PhysAddr, frame: Bytes) -> bool {
        self.out.push((to, frame));
        true
    }
}

fn drain_events(driver: &mut NodeDriver, into: &mut Vec<NodeEvent>) {
    if driver.has_events() {
        let mut evs = driver.take_events();
        into.append(&mut evs);
        driver.recycle_events(evs);
    }
}

/// The scripted application sends: two routed payloads to B plus one to an
/// absent address (exercising nearest-delivery on the far side).
fn app_sends() -> Vec<(SimTime, Address, Bytes)> {
    vec![
        (
            SimTime::from_secs(10),
            b_addr(),
            Bytes::from_static(b"first payload"),
        ),
        (
            SimTime::from_secs(12),
            b_addr(),
            Bytes::from_static(b"second payload"),
        ),
        (
            SimTime::from_secs(14),
            absent_addr(),
            Bytes::from_static(b"to nobody"),
        ),
    ]
}

/// Run the live two-node session (both nodes polled every 1 ms), recording
/// node A's inputs as a script and its outputs as the reference transcript.
fn record() -> (Vec<ScriptItem>, Transcript, TelemetryCounters) {
    record_session(OverlayConfig::default(), vec![TransportUri::udp(b_phys())])
}

/// Frames in flight to one node on the fixed 1 ms wire: `(arrival, frame)`.
type Inbox = Vec<(SimTime, Bytes)>;

/// Remove and return the frames that have arrived by `t`, oldest first.
fn arrived(inbox: &mut Inbox, t: SimTime) -> Vec<Bytes> {
    let (due, later) = std::mem::take(inbox)
        .into_iter()
        .partition(|(at, _)| *at <= t);
    *inbox = later;
    due.into_iter().map(|(_, frame)| frame).collect()
}

/// Put what a node sent at `t` to `peer` on the wire; anything addressed
/// elsewhere is never delivered.
fn wire(sent: &[(PhysAddr, Bytes)], peer: PhysAddr, inbox: &mut Inbox, t: SimTime) {
    let to_peer = sent.iter().filter(|(to, _)| *to == peer);
    inbox.extend(to_peer.map(|(_, frame)| (t + step(), frame.clone())));
}

/// [`record`] generalized over node A's config and bootstrap list. Frames
/// to any endpoint other than B's are captured in the transcript but never
/// delivered — extra bootstrap URIs are deterministically dead.
fn record_session(
    cfg: OverlayConfig,
    bootstrap: Vec<TransportUri>,
) -> (Vec<ScriptItem>, Transcript, TelemetryCounters) {
    let mut da = NodeDriver::new(fresh_a(cfg));
    let mut db = NodeDriver::new(BrunetNode::new(b_addr(), OverlayConfig::default(), 8));
    let mut script: Vec<ScriptItem> = Vec::new();
    let mut transcript = Transcript::default();
    let (mut to_a, mut to_b) = (Inbox::new(), Inbox::new());
    let mut sends = app_sends();
    sends.reverse(); // pop from the back in time order

    let t0 = SimTime::ZERO;
    let mut b_sent = Frames::new();
    db.feed(
        t0,
        Input::Start(TransportUri::udp(b_phys()), vec![]),
        &mut b_sent,
    );
    wire(&b_sent, a_phys(), &mut to_a, t0);
    let start = Input::Start(TransportUri::udp(a_phys()), bootstrap);
    da.feed(t0, start, &mut transcript.frames);
    transcript.stamp(t0);
    wire(&transcript.frames, b_phys(), &mut to_b, t0);

    let horizon = SimTime::from_secs(HORIZON_SECS);
    let mut t = t0;
    while t <= horizon {
        // Node A: inbound frames, scripted sends, then a due-gated tick —
        // the same per-step order the poll replay uses. This loop *is* the
        // poll discipline the armed replay is held to.
        let sent = transcript.frames.len();
        let mut inputs: Vec<Input> = arrived(&mut to_a, t)
            .into_iter()
            .map(|frame| Input::Datagram(b_phys(), frame))
            .collect();
        while sends.last().is_some_and(|s| s.0 <= t) {
            let (_, dst, data) = sends.pop().expect("nonempty");
            inputs.push(Input::AppSend(dst, 9, data));
        }
        for input in inputs {
            script.push(ScriptItem {
                at: t,
                input: input.clone(),
            });
            da.feed(t, input, &mut transcript.frames);
        }
        if due(da.next_deadline(), t) {
            da.feed(t, Input::Tick, &mut transcript.frames);
        }
        drain_events(&mut da, &mut transcript.events);
        transcript.stamp(t);
        wire(&transcript.frames[sent..], b_phys(), &mut to_b, t);

        // Node B: same shape, unrecorded.
        b_sent.clear();
        for frame in arrived(&mut to_b, t) {
            db.feed(t, Input::Datagram(a_phys(), frame), &mut b_sent);
        }
        if due(db.next_deadline(), t) {
            db.feed(t, Input::Tick, &mut b_sent);
        }
        drain_events(&mut db, &mut Vec::new());
        wire(&b_sent, a_phys(), &mut to_a, t);

        t += step();
    }
    (script, transcript, *da.counters())
}

/// Replay the script into `e` under the poll discipline: every 1 ms step
/// feeds what is due, then ticks if the next deadline has passed.
fn replay_poll<E: Endpoint>(mut e: E, script: &[ScriptItem]) -> (Transcript, TelemetryCounters) {
    let mut transcript = Transcript::default();
    e.feed(SimTime::ZERO, start_a(), &mut transcript.frames);
    let horizon = SimTime::from_secs(HORIZON_SECS);
    let mut idx = 0;
    let mut t = SimTime::ZERO;
    while t <= horizon {
        while idx < script.len() && script[idx].at <= t {
            e.feed(t, script[idx].input.clone(), &mut transcript.frames);
            idx += 1;
        }
        if due(e.next_deadline(), t) {
            e.feed(t, Input::Tick, &mut transcript.frames);
        }
        transcript.stamp(t);
        t += step();
    }
    e.drain_events(&mut transcript.events);
    (transcript, e.counters())
}

/// Replay the script under the shipping timer contract: wakes armed at
/// exact deadlines via `arm_hint`, never cancelled, and fired through
/// `timer_fired` + `on_tick` — a wake a re-arm superseded is dropped when
/// `timer_fired` says so. Asserts that no deadline ticks twice.
fn replay_armed(cfg: OverlayConfig, script: &[ScriptItem]) -> (Transcript, TelemetryCounters) {
    let mut d = NodeDriver::new(fresh_a(cfg));
    let mut transcript = Transcript::default();
    let mut wakes: BinaryHeap<Reverse<SimTime>> = BinaryHeap::new();
    let mut fired: BTreeSet<SimTime> = BTreeSet::new();

    fn rearm(d: &mut NodeDriver, now: SimTime, wakes: &mut BinaryHeap<Reverse<SimTime>>) {
        if let Some(deadline) = d.arm_hint(now) {
            wakes.push(Reverse(deadline));
        }
    }
    fn fire(
        d: &mut NodeDriver,
        at: SimTime,
        transcript: &mut Transcript,
        wakes: &mut BinaryHeap<Reverse<SimTime>>,
        fired: &mut BTreeSet<SimTime>,
    ) {
        if !d.timer_fired(at) {
            return;
        }
        // Wakes come in at their exact deadlines here, so `at` names the
        // deadline this tick serves: once per armed deadline.
        assert!(fired.insert(at), "the deadline {at:?} ticked twice");
        d.feed(at, Input::Tick, &mut transcript.frames);
        transcript.stamp(at);
        rearm(d, at, wakes);
    }

    d.feed(SimTime::ZERO, start_a(), &mut transcript.frames);
    transcript.stamp(SimTime::ZERO);
    rearm(&mut d, SimTime::ZERO, &mut wakes);

    let horizon = SimTime::from_secs(HORIZON_SECS);
    for item in script {
        let t = item.at;
        // Wakes strictly before this input fire at their exact deadline.
        while wakes.peek().is_some_and(|Reverse(w)| *w < t) {
            let Reverse(w) = wakes.pop().expect("nonempty");
            fire(&mut d, w, &mut transcript, &mut wakes, &mut fired);
        }
        d.feed(t, item.input.clone(), &mut transcript.frames);
        transcript.stamp(t);
        rearm(&mut d, t, &mut wakes);
        // Wakes due exactly now fire after the input, matching the poll
        // loop's feed-then-tick order within one step.
        while wakes.peek().is_some_and(|Reverse(w)| *w <= t) {
            wakes.pop();
            fire(&mut d, t, &mut transcript, &mut wakes, &mut fired);
        }
    }
    while wakes.peek().is_some_and(|Reverse(w)| *w <= horizon) {
        let Reverse(w) = wakes.pop().expect("nonempty");
        fire(&mut d, w, &mut transcript, &mut wakes, &mut fired);
    }
    drain_events(&mut d, &mut transcript.events);
    (transcript, *d.counters())
}

// ---------------------------------------------------------------------------
// The relay chain: decode-free transit, batched emission
// ---------------------------------------------------------------------------

fn chain_addr(b: u8) -> Address {
    Address([b; 20])
}

fn chain_phys(i: usize) -> PhysAddr {
    PhysAddr::new(PhysIp::new(10, 0, 1, i as u8 + 1), 15000)
}

fn stranger_phys() -> PhysAddr {
    PhysAddr::new(PhysIp::new(10, 0, 9, 9), 15000)
}

/// One datagram a chain node took off the decode-free transit path: what
/// decode → `hops + 1` → encode makes of the input (computed here, before
/// the node saw it), and everything the node did with it.
struct FastForward {
    reencoded: Bytes,
    out: Frames,
    events: Vec<NodeEvent>,
}

/// Everything the chain did, in arrival order: per-node frame transcripts,
/// per-node event transcripts, per-node counters.
struct ChainRun {
    frames: Vec<(usize, PhysAddr, Bytes)>,
    events: Vec<(usize, NodeEvent)>,
    counters: Vec<TelemetryCounters>,
    fast_forwards: Vec<FastForward>,
}

/// What the decode path would forward for `frame`, if it is a routed packet.
fn reencode_one_hop_on(frame: &Bytes) -> Option<Bytes> {
    match Frame::decode(frame.clone()) {
        Ok(Frame::Routed(mut pkt)) => {
            pkt.hops = pkt.hops.checked_add(1)?;
            Some(Frame::Routed(pkt).encode())
        }
        _ => None,
    }
}

/// Run the scripted relay-chain session, a three-node chain driven purely
/// by datagram injection (no timers fire). Nodes 0–2 sit on a short ring
/// arc (0x10.., 0x18.., 0x20..) so greedy forwarding genuinely relays
/// along the chain, each structured-connected to its neighbours; every
/// frame a node emits toward another chain node is delivered, everything
/// else (replies to synthetic endpoints) is captured but dropped.
fn run_relay_chain<E: Endpoint>(wrap: impl Fn(BrunetNode) -> E) -> ChainRun {
    let addrs = [chain_addr(0x10), chain_addr(0x18), chain_addr(0x20)];
    let mut nodes: Vec<E> = addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| wrap(BrunetNode::new(a, OverlayConfig::default(), 100 + i as u64)))
        .collect();
    let mut run = ChainRun {
        frames: Vec::new(),
        events: Vec::new(),
        counters: Vec::new(),
        fast_forwards: Vec::new(),
    };
    let t0 = SimTime::ZERO;
    let node_at = |phys: PhysAddr| (0..3).find(|&i| chain_phys(i) == phys);

    // Start all nodes (no bootstrap: nothing emitted), then establish the
    // chain links via passive accepts. Setup frames (link replies) are
    // logged but not delivered — a deterministic lossy wire.
    for (i, n) in nodes.iter_mut().enumerate() {
        let mut scratch = Vec::new();
        let start = Input::Start(TransportUri::udp(chain_phys(i)), vec![]);
        n.feed(t0, start, &mut scratch);
        assert!(scratch.is_empty(), "bootstrap-less start emits nothing");
    }
    for (i, j) in [(0usize, 1usize), (1, 0), (1, 2), (2, 1)] {
        let req = Frame::Link(LinkMsg::LinkRequest {
            from: addrs[j],
            target: addrs[i],
            ctype: ConnType::StructuredNear,
            attempt: 1,
        })
        .encode();
        let mut out = Vec::new();
        nodes[i].feed(t0, Input::Datagram(chain_phys(j), req), &mut out);
        run.frames.extend(out.into_iter().map(|(to, f)| (i, to, f)));
        let mut evs = Vec::new();
        nodes[i].drain_events(&mut evs);
        run.events.extend(evs.into_iter().map(|e| (i, e)));
    }

    // The scripted injections, all entering the chain as received
    // datagrams. `(entry node, from, frame)`.
    let app = |dst: Address, hops: u8, payload: &'static [u8]| {
        Frame::Routed(Packet {
            src: chain_addr(0x95),
            dst,
            hops,
            ttl: 64,
            edge_forwarded: false,
            body: Body::App {
                proto: 9,
                data: Bytes::from_static(payload),
            },
        })
        .encode()
    };
    let injections: Vec<(usize, PhysAddr, Bytes)> = vec![
        // Two transit hops, then exact delivery at node 2.
        (0, stranger_phys(), app(addrs[2], 0, b"relay me end to end")),
        // Transit to node 2, nearest-delivery there (no node at 0x22..).
        (0, stranger_phys(), app(chain_addr(0x22), 0, b"to nobody")),
        // Forwarded once, then dropped at node 1 with the budget exhausted.
        (0, stranger_phys(), app(addrs[2], 63, b"nearly dead")),
        // Arrives at node 1 *from node 0's endpoint*: the bounce-back
        // exclude forces the routing decision away from the closest peer.
        (
            1,
            chain_phys(0),
            app(chain_addr(0x08), 1, b"no bounce back"),
        ),
        // A routed CTM: transit at node 0 must take the decode path (only
        // app frames are peekable).
        (
            0,
            stranger_phys(),
            Frame::Routed(Packet {
                src: chain_addr(0x95),
                dst: addrs[1],
                hops: 0,
                ttl: 64,
                edge_forwarded: false,
                body: Body::CtmRequest {
                    token: 77,
                    ctype: ConnType::Shortcut,
                    uris: vec![TransportUri::udp(stranger_phys())],
                    reply_relay: None,
                },
            })
            .encode(),
        ),
        // Garbage: decode failure, counted.
        (0, stranger_phys(), Bytes::from_static(&[0xde, 0xad, 0xbe])),
    ];

    let mut queue: VecDeque<(usize, PhysAddr, Bytes)> = injections.into();
    while let Some((node, from, frame)) = queue.pop_front() {
        let reencoded = reencode_one_hop_on(&frame);
        let fast_before = nodes[node].counters().get(Counter::TransitFastPath);
        let mut out = Vec::new();
        nodes[node].feed(t0, Input::Datagram(from, frame), &mut out);
        let mut evs = Vec::new();
        nodes[node].drain_events(&mut evs);
        if nodes[node].counters().get(Counter::TransitFastPath) > fast_before {
            run.fast_forwards.push(FastForward {
                reencoded: reencoded.expect("the fast path only takes routed frames"),
                out: out.clone(),
                events: evs.clone(),
            });
        }
        run.events.extend(evs.into_iter().map(|e| (node, e)));
        for (to, f) in out {
            run.frames.push((node, to, f.clone()));
            if let Some(next) = node_at(to) {
                queue.push_back((next, chain_phys(node), f));
            }
        }
    }

    run.counters = nodes.iter().map(|n| n.counters()).collect();
    run
}

/// The decode-free transit path (header peek, hop byte patched in the
/// received buffer) against the slow path it shadows: every frame it
/// forwards is byte-for-byte what decode → `hops + 1` → encode produces,
/// it goes out alone, and it raises no event.
#[test]
fn transit_fast_and_slow_paths_are_byte_identical() {
    let run = run_relay_chain(NodeDriver::new);

    assert!(
        run.fast_forwards.len() >= 3,
        "the app relays must take the fast path"
    );
    for (i, ff) in run.fast_forwards.iter().enumerate() {
        assert_eq!(ff.out.len(), 1, "fast forward #{i} must emit one frame");
        assert_eq!(
            ff.out[0].1, ff.reencoded,
            "fast forward #{i} differs from decode → hops + 1 → encode"
        );
        assert!(ff.events.is_empty(), "fast forward #{i} raised events");
    }

    // The trace must actually exercise what it claims to.
    let sum = |c: Counter| -> u64 { run.counters.iter().map(|t| t.get(c)).sum() };
    assert!(
        sum(Counter::TransitSlowPath) >= 1,
        "the routed CTM must take the decode path"
    );
    assert!(sum(Counter::DroppedTtl) >= 1, "TTL drop must occur");
    assert!(
        sum(Counter::DeliveredExact) >= 1 && sum(Counter::DeliveredNearest) >= 1,
        "both delivery modes must occur"
    );
}

#[test]
fn timer_disciplines_are_byte_identical() {
    for cfg in [OverlayConfig::default(), brisk()] {
        let boot = vec![TransportUri::udp(b_phys())];
        let (script, recorded, recorded_counters) = record_session(cfg.clone(), boot);
        assert!(
            script
                .iter()
                .any(|s| matches!(s.input, Input::Datagram(..))),
            "the session must actually exchange frames"
        );
        assert!(
            recorded
                .events
                .iter()
                .any(|e| matches!(e, NodeEvent::Connected { .. })),
            "node A must link up during the session"
        );

        // The poll replay reproduces the live session exactly (determinism
        // of the driver given identical inputs).
        let (poll, poll_counters) = replay_poll(NodeDriver::new(fresh_a(cfg.clone())), &script);
        assert_eq!(poll, recorded, "poll replay diverged from the recording");
        assert_eq!(poll_counters, recorded_counters);

        // And the deadline-armed contract is byte-identical to polling,
        // down to the instant each frame leaves.
        let (armed, armed_counters) = replay_armed(cfg, &script);
        assert_eq!(
            armed.frames.len(),
            poll.frames.len(),
            "frame transcript lengths differ between disciplines"
        );
        assert_eq!(armed, poll, "disciplines diverged");
        assert_eq!(armed_counters, poll_counters, "telemetry diverged");
    }
}

// ---------------------------------------------------------------------------
// Bootstrap: the single-introducer funnel and the introducer cache
// ---------------------------------------------------------------------------

fn dead_phys() -> PhysAddr {
    PhysAddr::new(PhysIp::new(10, 0, 0, 9), 14001)
}

/// FNV-1a over everything node A did: each frame's destination and bytes,
/// each event, every counter.
fn session_digest(t: &Transcript, counters: &TelemetryCounters) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (to, frame) in &t.frames {
        eat(format!("{to:?}").as_bytes());
        eat(frame);
    }
    for e in &t.events {
        eat(format!("{e:?}").as_bytes());
    }
    for c in Counter::ALL {
        eat(c.name().as_bytes());
        eat(&counters.get(c).to_le_bytes());
    }
    hash
}

/// With exactly one introducer configured, bootstrap is the single funnel:
/// one wildcard attempt on the full link-retry budget, the cache selector
/// never consulted. The pinned digest is the session's transcript under
/// `legacy_bootstrap: true` at commit 8f639e1, the last one that had the
/// flag — where this test compared the two paths directly and they were
/// equal, frames, events and telemetry. Re-pinned once since, on purpose
/// (was 44 frames, `13_921_976_092_887_995_306`): once node A is on the
/// ring its probes back off, so it sends five fewer in the 30 s session,
/// and it answers B's CTM over the connection it already holds to B, so
/// that reply leaves with hops 0 instead of as a routed first hop. The
/// events and the funnel itself — its wildcard attempt and retry budget —
/// are unchanged.
#[test]
fn single_introducer_bootstrap_matches_the_legacy_funnel_byte_for_byte() {
    let (_, session, counters) = record();
    assert!(
        session
            .events
            .iter()
            .any(|e| matches!(e, NodeEvent::Connected { .. })),
        "the session must actually link up"
    );
    assert_eq!(
        (
            session.frames.len(),
            session.events.len(),
            session_digest(&session, &counters)
        ),
        (39, 3, 16_389_272_956_486_944_567),
        "single-introducer transcript diverged from the recorded funnel"
    );
    assert_eq!(
        counters.get(Counter::IntroducerTried),
        0,
        "a single configured introducer must take the funnel, not the cache selector"
    );
}

/// Where the cache path earns its keep: two introducers, and node A's seed
/// makes the selector draw the dead one first. A whole-list funnel would
/// sit on a dead first URI for the full link-retry budget (~155 s) and
/// never reach the live introducer inside the horizon; the cache path
/// abandons it on the short introducer budget, demotes it, and falls
/// through to the live one.
#[test]
fn dead_first_introducer_diverges_from_the_legacy_funnel() {
    let boot = vec![TransportUri::udp(b_phys()), TransportUri::udp(dead_phys())];
    let (_, session, counters) = record_session(OverlayConfig::default(), boot);

    assert!(
        session
            .events
            .iter()
            .any(|e| matches!(e, NodeEvent::Connected { .. })),
        "the cache path must reach the live introducer within the horizon"
    );
    assert_eq!(
        session.frames[0].0,
        dead_phys(),
        "the scenario needs the dead introducer dialled first"
    );
    assert!(
        counters.get(Counter::IntroducerTried) >= 1,
        "the cache path must draw candidates from the selector"
    );
    assert!(
        counters.get(Counter::IntroducerFallback) >= 1,
        "the dead introducer must be demoted and fallen through"
    );
}

// ---------------------------------------------------------------------------
// Batched vs frame-at-a-time emission
// ---------------------------------------------------------------------------

/// Counters that only describe the flush mechanism itself — the one place
/// the driver and the bare node are *allowed* to differ. `SendFailed` is
/// not here because no transport in this file fails.
fn is_batch_bookkeeping(c: Counter) -> bool {
    matches!(
        c,
        Counter::BatchFlushes
            | Counter::BatchFrames
            | Counter::BatchSize1
            | Counter::BatchSize2
            | Counter::BatchSize3To4
            | Counter::BatchSize5To8
            | Counter::BatchSize9Plus
    )
}

fn assert_counters_match_modulo_batching(
    batched: &TelemetryCounters,
    unbatched: &TelemetryCounters,
    what: &str,
) {
    for c in Counter::ALL {
        if is_batch_bookkeeping(c) {
            continue;
        }
        assert_eq!(
            batched.get(c),
            unbatched.get(c),
            "{what}: counter {c} differs between batched and unbatched runs"
        );
    }
}

/// Batching changes when the transport sees a cycle's frames, never their
/// order or bytes: the driver's transcript of the join-plus-traffic
/// session — under both timer disciplines — equals the bare node's, frames
/// and events, and telemetry differs only in the flush bookkeeping.
#[test]
fn batched_and_unbatched_emission_are_byte_identical() {
    let (script, recorded, recorded_c) = record();
    assert!(
        script
            .iter()
            .any(|s| matches!(s.input, Input::Datagram(..))),
        "the session must actually exchange frames"
    );

    let (bare, bare_c) = replay_poll(Bare::new(fresh_a(OverlayConfig::default())), &script);
    assert_eq!(recorded, bare, "batching changed the polled transcript");
    assert_counters_match_modulo_batching(&recorded_c, &bare_c, "poll discipline");

    let (armed, armed_c) = replay_armed(OverlayConfig::default(), &script);
    assert_eq!(armed, bare, "batching changed the armed transcript");
    assert_counters_match_modulo_batching(&armed_c, &bare_c, "armed discipline");

    // The driver runs must genuinely batch: every emitted frame is
    // accounted to exactly one flush, and multi-frame bursts occur (a join
    // handshake emits several frames in one cycle).
    for (what, transcript, counters) in [
        ("poll", &recorded, &recorded_c),
        ("armed", &armed, &armed_c),
    ] {
        assert!(
            counters.get(Counter::BatchFlushes) > 0,
            "{what}: batched run recorded no flushes"
        );
        assert_eq!(
            counters.get(Counter::BatchFrames),
            transcript.frames.len() as u64,
            "{what}: every transmitted frame must be attributed to a flush"
        );
        assert!(
            counters.get(Counter::BatchFlushes) < counters.get(Counter::BatchFrames),
            "{what}: the session must contain at least one multi-frame burst"
        );
    }
}

/// The same proof for the second runtime shape: the relay-chain session is
/// transcript-identical through the driver and through bare nodes.
#[test]
fn relay_chain_is_identical_batched_and_unbatched() {
    let batched = run_relay_chain(NodeDriver::new);
    let unbatched = run_relay_chain(Bare::new);

    assert_eq!(
        batched.frames, unbatched.frames,
        "relay chain frame transcripts differ"
    );
    assert_eq!(
        batched.events, unbatched.events,
        "relay chain event transcripts differ"
    );
    for (i, (b, u)) in batched
        .counters
        .iter()
        .zip(unbatched.counters.iter())
        .enumerate()
    {
        assert_counters_match_modulo_batching(b, u, &format!("chain node {i}"));
    }
    let sum = |c: Counter| -> u64 { batched.counters.iter().map(|t| t.get(c)).sum() };
    assert!(
        sum(Counter::BatchFlushes) > 0,
        "the chain must flush batches"
    );
    assert_eq!(
        sum(Counter::BatchFrames),
        batched.frames.len() as u64,
        "every chain frame must be attributed to a flush"
    );
}
