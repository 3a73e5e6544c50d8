//! Property tests for the protocol managers: the linking state machine's
//! send budget and termination, keepalive accounting, the driver's flush
//! boundary (batched emission must be unobservable beyond telemetry), and
//! model-based differentials that pin the deadline-indexed managers to the
//! full-scan implementations they replaced.

use std::collections::HashMap;

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wow_netsim::addr::{PhysAddr, PhysIp};
use wow_netsim::time::{SimDuration, SimTime};
use wow_overlay::addr::{Address, U160};
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::ConnType;
use wow_overlay::driver::{FrameBatch, NodeDriver, NodeSink, Transport};
use wow_overlay::linking::{LinkCmd, LinkingManager};
use wow_overlay::node::BrunetNode;
use wow_overlay::ping::{PingCmd, PingManager};
use wow_overlay::telemetry::{Counter, TelemetryCounters};
use wow_overlay::uri::TransportUri;

fn addr(v: u64) -> Address {
    Address::from(U160::from(v))
}

fn uri(i: u16) -> TransportUri {
    TransportUri::udp(PhysAddr::new(
        PhysIp::new(10, 0, (i >> 8) as u8, i as u8),
        4000,
    ))
}

// ---------------------------------------------------------------------------
// Flush-boundary properties
// ---------------------------------------------------------------------------

fn dest_phys(i: u8) -> PhysAddr {
    PhysAddr::new(PhysIp::new(10, 1, 0, i), 5000)
}

/// Capture transport that also records every batch flush it receives, so
/// the properties can check flush boundaries — not just the frame stream.
#[derive(Default)]
struct FlushCap {
    out: Vec<(PhysAddr, Bytes)>,
    flush_sizes: Vec<usize>,
}

impl Transport for FlushCap {
    fn transmit(&mut self, to: PhysAddr, frame: Bytes) -> bool {
        self.out.push((to, frame));
        true
    }

    fn transmit_batch(&mut self, batch: &mut FrameBatch) -> u64 {
        self.flush_sizes.push(batch.len());
        for (to, frame) in batch.drain() {
            self.out.push((to, frame));
        }
        0
    }
}

/// One generated emission: `(destination index, payload)`. The outer vec is
/// the event cycle; the driver must flush each cycle as one batch.
type Cycles = Vec<Vec<(u8, Vec<u8>)>>;

fn cycles_strategy() -> impl Strategy<Value = Cycles> {
    prop::collection::vec(
        prop::collection::vec((0u8..4, prop::collection::vec(any::<u8>(), 0..12)), 0..12),
        0..10,
    )
}

/// Push every generated cycle through a fresh driver via `with_sink`.
fn run_cycles(cycles: &Cycles) -> (FlushCap, TelemetryCounters) {
    let mut d = NodeDriver::new(BrunetNode::new(addr(0x42), OverlayConfig::default(), 5));
    let mut transport = FlushCap::default();
    for cycle in cycles {
        d.with_sink(&mut transport, |_node, sink| {
            for (dest, payload) in cycle {
                sink.send(dest_phys(*dest), Bytes::copy_from_slice(payload));
            }
        });
    }
    (transport, *d.counters())
}

proptest! {
    /// An unanswered linking attempt terminates after exactly
    /// `retries × |uris|` transmissions and one `Failed`, no matter the
    /// URI count or retry budget.
    #[test]
    fn linking_send_budget_is_exact(
        n_uris in 1usize..8,
        retries in 1u32..6,
        rto_ms in 100u64..5000,
    ) {
        let cfg = OverlayConfig {
            link_retries: retries,
            link_rto: SimDuration::from_millis(rto_ms),
            ..OverlayConfig::default()
        };
        let uris: Vec<TransportUri> = (0..n_uris as u16).map(uri).collect();
        let mut m = LinkingManager::new();
        m.start(SimTime::ZERO, addr(2), ConnType::StructuredNear, uris);
        let mut sends = 0u32;
        let mut failed = 0u32;
        let mut guard = 0;
        #[allow(clippy::while_let_loop)]
        loop {
            guard += 1;
            prop_assert!(guard < 1000, "no termination");
            let Some(t) = m.next_deadline() else { break };
            let mut out = Vec::new();
            m.poll(t, &cfg, &mut out);
            for cmd in out {
                match cmd {
                    LinkCmd::SendRequest { .. } => sends += 1,
                    LinkCmd::Failed { .. } => failed += 1,
                    LinkCmd::Established { .. } => unreachable!("nobody answered"),
                }
            }
        }
        prop_assert_eq!(sends, retries * n_uris as u32);
        prop_assert_eq!(failed, 1);
        prop_assert!(m.is_empty());
    }

    /// A reply at any point during the attempt establishes exactly once and
    /// stops all further transmissions.
    #[test]
    fn linking_reply_terminates_cleanly(
        n_uris in 1usize..6,
        answer_after_polls in 0usize..12,
    ) {
        let cfg = OverlayConfig::default();
        let uris: Vec<TransportUri> = (0..n_uris as u16).map(uri).collect();
        let mut m = LinkingManager::new();
        m.start(SimTime::ZERO, addr(2), ConnType::Shortcut, uris);
        let mut polls = 0usize;
        let mut established = 0;
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(t) = m.next_deadline() else { break };
            let mut out = Vec::new();
            m.poll(t, &cfg, &mut out);
            if polls == answer_after_polls {
                let via = PhysAddr::new(PhysIp::new(9, 9, 9, 9), 1);
                let mut out2 = Vec::new();
                m.on_reply(addr(2), 0, via, &mut out2);
                established += out2
                    .iter()
                    .filter(|c| matches!(c, LinkCmd::Established { .. }))
                    .count();
            }
            polls += 1;
            if polls > 64 {
                break;
            }
        }
        // Either the reply landed while the attempt was alive (established
        // exactly once) or the attempt had already failed by then.
        prop_assert!(established <= 1);
        prop_assert!(m.is_empty());
    }

    /// Keepalives: with no pongs, a tracked peer dies after exactly
    /// `ping_retries` transmissions; with prompt pongs it never dies.
    #[test]
    fn ping_budget(retries in 1u32..8, answer in any::<bool>()) {
        let cfg = OverlayConfig {
            ping_retries: retries,
            ..OverlayConfig::default()
        };
        let mut m = PingManager::new();
        m.track(addr(1), SimTime::ZERO, &cfg);
        let mut sends = 0u32;
        let mut died = false;
        for _ in 0..(retries as usize + 3) * 2 {
            let Some(t) = m.next_deadline() else { break };
            let mut out = Vec::new();
            m.poll(t, &cfg, &mut out);
            for cmd in out {
                match cmd {
                    PingCmd::SendPing { peer, nonce } => {
                        sends += 1;
                        if answer {
                            m.on_pong(peer, nonce, t + SimDuration::from_millis(10), &cfg);
                        }
                    }
                    PingCmd::Dead { .. } => died = true,
                }
            }
            if died {
                break;
            }
            if answer && sends > retries + 2 {
                break; // survived several cycles; that's the point
            }
        }
        if answer {
            prop_assert!(!died, "answered pings must keep the peer alive");
        } else {
            prop_assert!(died);
            prop_assert_eq!(sends, retries);
        }
    }

    /// Across arbitrary emission interleavings and cycle boundaries,
    /// batching never reorders frames: the global transmit order, and the
    /// per-destination subsequences, match the generated emission order
    /// exactly.
    #[test]
    fn batching_preserves_emission_order(cycles in cycles_strategy()) {
        let (batched, batched_c) = run_cycles(&cycles);

        let expected: Vec<(PhysAddr, Bytes)> = cycles
            .iter()
            .flatten()
            .map(|(dest, payload)| (dest_phys(*dest), Bytes::copy_from_slice(payload)))
            .collect();
        prop_assert_eq!(&batched.out, &expected, "batched run reordered frames");

        for dest in 0u8..4 {
            let sub = |frames: &[(PhysAddr, Bytes)]| -> Vec<Bytes> {
                frames
                    .iter()
                    .filter(|(to, _)| *to == dest_phys(dest))
                    .map(|(_, f)| f.clone())
                    .collect()
            };
            prop_assert_eq!(
                sub(&batched.out),
                sub(&expected),
                "per-destination order broken for destination {}",
                dest
            );
        }

        // Flush boundaries coincide with cycle boundaries: one flush per
        // non-empty cycle, sized exactly as that cycle's burst.
        let per_cycle: Vec<usize> = cycles
            .iter()
            .map(|c| c.len())
            .filter(|&n| n > 0)
            .collect();
        prop_assert_eq!(&batched.flush_sizes, &per_cycle);

        // Telemetry mirrors the same accounting.
        let total: u64 = per_cycle.iter().map(|&n| n as u64).sum();
        prop_assert_eq!(batched_c.get(Counter::BatchFlushes), per_cycle.len() as u64);
        prop_assert_eq!(batched_c.get(Counter::BatchFrames), total);
        let histogram: u64 = [
            Counter::BatchSize1,
            Counter::BatchSize2,
            Counter::BatchSize3To4,
            Counter::BatchSize5To8,
            Counter::BatchSize9Plus,
        ]
        .into_iter()
        .map(|c| batched_c.get(c))
        .sum();
        prop_assert_eq!(
            histogram,
            per_cycle.len() as u64,
            "every flush lands in exactly one histogram bucket"
        );
    }

    /// Flushing is idempotent and empty-batch safe: once a cycle's frames
    /// are out, any number of extra `flush_frames` calls transmit nothing
    /// and bump no counters — and a cycle that emits nothing never counts
    /// as a flush.
    #[test]
    fn flush_is_idempotent_and_empty_batch_safe(
        burst in prop::collection::vec((0u8..4, prop::collection::vec(any::<u8>(), 0..8)), 0..6),
        extra_flushes in 1usize..5,
        empty_cycles in 0usize..4,
    ) {
        let mut d = NodeDriver::new(BrunetNode::new(addr(0x43), OverlayConfig::default(), 6));
        let mut transport = FlushCap::default();
        d.with_sink(&mut transport, |_node, sink| {
            for (dest, payload) in &burst {
                sink.send(dest_phys(*dest), Bytes::copy_from_slice(payload));
            }
        });
        for _ in 0..empty_cycles {
            d.with_sink(&mut transport, |_node, _sink| {});
        }
        let frames_after_cycle = transport.out.len();
        let counters_after_cycle = *d.counters();
        for _ in 0..extra_flushes {
            d.flush_frames(&mut transport);
        }
        prop_assert_eq!(
            transport.out.len(),
            frames_after_cycle,
            "an empty flush transmitted frames"
        );
        prop_assert_eq!(
            *d.counters(),
            counters_after_cycle,
            "an empty flush changed telemetry"
        );
        let expected_flushes = u64::from(!burst.is_empty());
        prop_assert_eq!(counters_after_cycle.get(Counter::BatchFlushes), expected_flushes);
        prop_assert_eq!(
            counters_after_cycle.get(Counter::BatchFrames),
            burst.len() as u64
        );
    }
}

// ---------------------------------------------------------------------------
// Model-based differentials: deadline index vs full scan
// ---------------------------------------------------------------------------
//
// The managers answer `next_deadline` from an ordered index and `poll` only
// what is due. The oracles below are the implementations they replaced —
// fold over everything for the deadline, collect + sort + scan everything
// on every poll — kept here, and only here, as the reference. Both sides
// get the same seeded operation sequence and must agree after every step:
// same commands in the same order with the same nonces/attempt ids, same
// `next_deadline()` (runtimes arm their wake from it, so the simulator's
// event count depends on the exact instant), same size, and an index that
// mirrors the state map.

/// Seeded sequences per manager.
const MODEL_SEQUENCES: u64 = 256;

#[derive(Clone, Copy)]
enum PingModelState {
    Idle {
        due: SimTime,
    },
    Awaiting {
        nonce: u64,
        resend: SimTime,
        rto: SimDuration,
        tries: u32,
    },
}

/// The full-scan keepalive manager.
#[derive(Default)]
struct PingOracle {
    peers: HashMap<Address, PingModelState>,
    next_nonce: u64,
}

impl PingOracle {
    fn track(&mut self, peer: Address, now: SimTime, cfg: &OverlayConfig) {
        let due = now + cfg.ping_interval;
        self.peers
            .entry(peer)
            .or_insert(PingModelState::Idle { due });
    }

    fn heard(&mut self, peer: Address, now: SimTime, cfg: &OverlayConfig) {
        if let Some(state) = self.peers.get_mut(&peer) {
            let due = now + cfg.ping_interval;
            *state = PingModelState::Idle { due };
        }
    }

    fn on_pong(&mut self, peer: Address, nonce: u64, now: SimTime, cfg: &OverlayConfig) -> bool {
        let hit = matches!(self.peers.get(&peer),
            Some(PingModelState::Awaiting { nonce: n, .. }) if *n == nonce);
        if hit {
            self.heard(peer, now, cfg);
        }
        hit
    }

    fn next_deadline(&self) -> Option<SimTime> {
        let at = |s: &PingModelState| match s {
            PingModelState::Idle { due } => *due,
            PingModelState::Awaiting { resend, .. } => *resend,
        };
        self.peers.values().map(at).min()
    }

    fn poll(&mut self, now: SimTime, cfg: &OverlayConfig, out: &mut Vec<PingCmd>) {
        let mut dead = Vec::new();
        let mut keys: Vec<Address> = self.peers.keys().copied().collect();
        keys.sort();
        for peer in keys {
            let state = self.peers.get_mut(&peer).expect("key just collected");
            match state {
                PingModelState::Idle { due } if *due <= now => {
                    let nonce = self.next_nonce;
                    self.next_nonce += 1;
                    let (resend, rto) = (now + cfg.ping_rto, cfg.ping_rto);
                    *state = PingModelState::Awaiting {
                        nonce,
                        resend,
                        rto,
                        tries: 1,
                    };
                    out.push(PingCmd::SendPing { peer, nonce });
                }
                PingModelState::Awaiting {
                    nonce,
                    resend,
                    rto,
                    tries,
                } if *resend <= now => {
                    if *tries >= cfg.ping_retries {
                        dead.push(peer);
                        continue;
                    }
                    *tries += 1;
                    *rto = rto.saturating_double();
                    *resend = now + *rto;
                    let nonce = *nonce;
                    out.push(PingCmd::SendPing { peer, nonce });
                }
                _ => {}
            }
        }
        for peer in dead {
            self.peers.remove(&peer);
            out.push(PingCmd::Dead { peer });
        }
    }
}

/// Advance the clock: often not at all or by a little (polls with nothing
/// due), sometimes by seconds, sometimes exactly onto — or one microsecond
/// short of — the next deadline.
fn step_clock(rng: &mut SmallRng, now: SimTime, next: Option<SimTime>) -> SimTime {
    let later = match (rng.gen_range(0u32..10), next) {
        (0..=2, _) => now,
        (3..=5, _) => now + SimDuration::from_micros(rng.gen_range(1u64..50_000)),
        (6, _) => now + SimDuration::from_micros(rng.gen_range(50_000u64..4_000_000)),
        (7, Some(d)) => SimTime::from_micros(d.as_micros().saturating_sub(1)),
        (_, Some(d)) => d,
        (_, None) => now + SimDuration::from_secs(1),
    };
    later.max(now)
}

/// A population of 1–600 peers; most sequences stay at the connection
/// counts an ordinary node holds, every fourth at an introducer's.
fn model_population(rng: &mut SmallRng, seed: u64) -> Vec<Address> {
    let n = if seed % 4 == 0 {
        rng.gen_range(1usize..=600)
    } else {
        rng.gen_range(1usize..=24)
    };
    (0..n).map(|_| Address::random(rng)).collect()
}

fn ping_model_sequence(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(0x9146_0000 + seed);
    let cfg = OverlayConfig {
        ping_interval: SimDuration::from_millis(rng.gen_range(200u64..20_000)),
        ping_rto: SimDuration::from_millis(rng.gen_range(50u64..3_000)),
        ping_retries: rng.gen_range(1u32..6),
        ..OverlayConfig::default()
    };
    let pool = model_population(&mut rng, seed);
    // A few addresses that are never tracked, for ops on unknown peers.
    let strangers: Vec<Address> = (0..4).map(|_| Address::random(&mut rng)).collect();
    let pick = |rng: &mut SmallRng| {
        if rng.gen_bool(0.05) {
            strangers[rng.gen_range(0..strangers.len())]
        } else {
            pool[rng.gen_range(0..pool.len())]
        }
    };

    let mut real = PingManager::new();
    let mut model = PingOracle::default();
    let mut now = SimTime::ZERO;
    // Pings seen and not yet answered, to aim pongs (and `heard`) at
    // peers that are awaiting one.
    let mut outstanding: Vec<(Address, u64)> = Vec::new();
    for &peer in &pool {
        if rng.gen_bool(0.7) {
            real.track(peer, now, &cfg);
            model.track(peer, now, &cfg);
        }
    }
    for step in 0..300 + 2 * pool.len() {
        now = step_clock(&mut rng, now, model.next_deadline());
        match rng.gen_range(0u32..100) {
            0..=14 => {
                let peer = pick(&mut rng);
                real.track(peer, now, &cfg);
                model.track(peer, now, &cfg);
            }
            15..=22 => {
                let peer = pick(&mut rng);
                real.untrack(peer);
                model.peers.remove(&peer);
            }
            23..=42 => {
                let peer = match outstanding.last() {
                    Some(&(awaiting, _)) if rng.gen_bool(0.4) => awaiting,
                    _ => pick(&mut rng),
                };
                real.heard(peer, now, &cfg);
                model.heard(peer, now, &cfg);
            }
            43..=57 => {
                let (peer, nonce) = if outstanding.is_empty() || rng.gen_bool(0.2) {
                    (pick(&mut rng), rng.gen_range(0u64..8))
                } else {
                    outstanding.swap_remove(rng.gen_range(0..outstanding.len()))
                };
                assert_eq!(
                    real.on_pong(peer, nonce, now, &cfg),
                    model.on_pong(peer, nonce, now, &cfg),
                    "seed {seed} step {step}: on_pong verdict"
                );
            }
            _ => {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                real.poll(now, &cfg, &mut got);
                model.poll(now, &cfg, &mut want);
                assert_eq!(got, want, "seed {seed} step {step}: poll at {now:?}");
                for cmd in &got {
                    if let PingCmd::SendPing { peer, nonce } = *cmd {
                        outstanding.push((peer, nonce));
                    }
                }
            }
        }
        assert_eq!(
            real.next_deadline(),
            model.next_deadline(),
            "seed {seed} step {step}: next_deadline"
        );
        assert_eq!(
            real.len(),
            model.peers.len(),
            "seed {seed} step {step}: len"
        );
        assert!(
            real.index_agrees(),
            "seed {seed} step {step}: index drifted"
        );
    }
}

#[test]
fn ping_manager_matches_full_scan_model() {
    for seed in 0..MODEL_SEQUENCES {
        ping_model_sequence(seed);
    }
}

struct LinkModelAttempt {
    ctype: ConnType,
    uris: Vec<TransportUri>,
    uri_idx: usize,
    tries_on_uri: u32,
    cur_rto: SimDuration,
    next_send: SimTime,
    attempt_id: u64,
    restarts: u32,
    /// `Some(until)` while stood down after a race.
    backed_off: Option<SimTime>,
    unanswered_sends: u32,
    retries: Option<u32>,
}

/// The full-scan linking manager.
#[derive(Default)]
struct LinkOracle {
    attempts: HashMap<Address, LinkModelAttempt>,
    next_attempt_id: u64,
}

impl LinkOracle {
    fn start(
        &mut self,
        now: SimTime,
        peer: Address,
        ctype: ConnType,
        uris: Vec<TransportUri>,
        retries: Option<u32>,
    ) {
        if uris.is_empty() || self.attempts.contains_key(&peer) {
            return;
        }
        let attempt_id = self.next_attempt_id;
        self.next_attempt_id += 1;
        self.attempts.insert(
            peer,
            LinkModelAttempt {
                ctype,
                uris,
                uri_idx: 0,
                tries_on_uri: 0,
                cur_rto: SimDuration::ZERO,
                next_send: now,
                attempt_id,
                restarts: 0,
                backed_off: None,
                unanswered_sends: 0,
                retries,
            },
        );
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.attempts
            .values()
            .map(|a| a.backed_off.unwrap_or(a.next_send))
            .min()
    }

    fn poll(&mut self, now: SimTime, cfg: &OverlayConfig, out: &mut Vec<LinkCmd>) {
        let mut failed = Vec::new();
        let mut keys: Vec<Address> = self.attempts.keys().copied().collect();
        keys.sort();
        for key in keys {
            let a = self.attempts.get_mut(&key).expect("key just collected");
            if let Some(until) = a.backed_off {
                if now < until {
                    continue;
                }
                a.backed_off = None;
                a.uri_idx = 0;
                a.tries_on_uri = 0;
                a.cur_rto = SimDuration::ZERO;
                a.next_send = now;
            }
            while a.next_send <= now {
                if a.tries_on_uri >= a.retries.unwrap_or(cfg.link_retries).max(1) {
                    a.uri_idx += 1;
                    a.tries_on_uri = 0;
                    a.cur_rto = SimDuration::ZERO;
                    if a.uri_idx >= a.uris.len() {
                        failed.push(key);
                        break;
                    }
                }
                out.push(LinkCmd::SendRequest {
                    to: a.uris[a.uri_idx].addr,
                    target: key,
                    ctype: a.ctype,
                    attempt: a.attempt_id,
                });
                a.tries_on_uri += 1;
                a.unanswered_sends += 1;
                a.cur_rto = if a.cur_rto == SimDuration::ZERO {
                    cfg.link_rto
                } else {
                    a.cur_rto.saturating_double()
                };
                a.next_send = now + a.cur_rto;
            }
        }
        for peer in failed {
            let ctype = self.attempts.remove(&peer).expect("collected above").ctype;
            out.push(LinkCmd::Failed { peer, ctype });
        }
    }

    fn on_reply(&mut self, from: Address, attempt: u64, via: PhysAddr, out: &mut Vec<LinkCmd>) {
        if self.attempts.get(&from).map(|a| a.attempt_id) != Some(attempt) {
            return;
        }
        let ctype = self.attempts.remove(&from).expect("checked above").ctype;
        out.push(LinkCmd::Established {
            peer: from,
            ctype,
            remote: via,
        });
    }

    fn on_race_error(
        &mut self,
        now: SimTime,
        from: Address,
        attempt: u64,
        cfg: &OverlayConfig,
        rng: &mut SmallRng,
    ) {
        let Some(a) = self.attempts.get_mut(&from) else {
            return;
        };
        if a.attempt_id != attempt {
            return;
        }
        a.restarts += 1;
        let exp = cfg
            .race_backoff
            .mul_f64(f64::from(1u32 << (a.restarts - 1).min(6)));
        a.backed_off = Some(now + exp.mul_f64(rng.gen_range(0.5..1.5)));
    }

    fn on_wrong_node(&mut self, now: SimTime, attempt: u64) {
        let Some(a) = self.attempts.values_mut().find(|a| a.attempt_id == attempt) else {
            return;
        };
        a.uri_idx += 1;
        a.tries_on_uri = 0;
        a.cur_rto = SimDuration::ZERO;
        a.next_send = now;
        if a.uri_idx >= a.uris.len() {
            a.uri_idx = a.uris.len().saturating_sub(1);
            a.tries_on_uri = u32::MAX;
        }
    }
}

fn linking_model_sequence(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(0x11E4_0000 + seed);
    let cfg = OverlayConfig {
        link_rto: SimDuration::from_millis(rng.gen_range(50u64..3_000)),
        link_retries: rng.gen_range(1u32..5),
        race_backoff: SimDuration::from_millis(rng.gen_range(100u64..2_000)),
        ..OverlayConfig::default()
    };
    let pool = model_population(&mut rng, seed);
    let via = PhysAddr::new(PhysIp::new(9, 9, 9, 9), 1);
    // The jitter draws must match, so each side owns an identically
    // seeded generator.
    let mut real_rng = SmallRng::seed_from_u64(seed);
    let mut model_rng = SmallRng::seed_from_u64(seed);

    let mut real = LinkingManager::new();
    let mut model = LinkOracle::default();
    let mut now = SimTime::ZERO;
    // (peer, attempt id) pairs seen in requests: some live, some stale.
    let mut seen: Vec<(Address, u64)> = Vec::new();
    for step in 0..300 + 2 * pool.len() {
        now = step_clock(&mut rng, now, model.next_deadline());
        let peer = pool[rng.gen_range(0..pool.len())];
        let (known_peer, known_id) = if seen.is_empty() || rng.gen_bool(0.15) {
            (peer, rng.gen_range(0u64..16))
        } else {
            seen[rng.gen_range(0..seen.len())]
        };
        let (mut got, mut want) = (Vec::new(), Vec::new());
        match rng.gen_range(0u32..100) {
            0..=29 => {
                // Zero to three URIs: an empty list is a no-op, a short
                // one exhausts quickly; duplicates of a live attempt too.
                let uris: Vec<TransportUri> = (0..rng.gen_range(0u16..4))
                    .map(|_| uri(rng.gen_range(0u16..512)))
                    .collect();
                let ctype = ConnType::Shortcut;
                let budget = rng.gen_bool(0.3).then(|| rng.gen_range(0u32..3));
                if budget.is_none() && rng.gen_bool(0.5) {
                    real.start(now, peer, ctype, uris.clone());
                } else {
                    real.start_with_budget(now, peer, ctype, uris.clone(), budget);
                }
                model.start(now, peer, ctype, uris, budget);
            }
            30..=39 => {
                real.on_reply(known_peer, known_id, via, &mut got);
                model.on_reply(known_peer, known_id, via, &mut want);
            }
            40..=51 => {
                real.on_race_error(now, known_peer, known_id, &cfg, &mut real_rng);
                model.on_race_error(now, known_peer, known_id, &cfg, &mut model_rng);
            }
            52..=57 => {
                real.on_wrong_node(now, known_id);
                model.on_wrong_node(now, known_id);
            }
            58..=62 => {
                if rng.gen_bool(0.5) {
                    real.cancel(peer);
                } else {
                    real.satisfied(peer);
                }
                model.attempts.remove(&peer);
            }
            _ => {
                real.poll(now, &cfg, &mut got);
                model.poll(now, &cfg, &mut want);
                for cmd in &got {
                    if let LinkCmd::SendRequest {
                        target, attempt, ..
                    } = *cmd
                    {
                        seen.push((target, attempt));
                    }
                }
            }
        }
        assert_eq!(got, want, "seed {seed} step {step}: commands at {now:?}");
        assert_eq!(
            real.next_deadline(),
            model.next_deadline(),
            "seed {seed} step {step}: next_deadline"
        );
        assert_eq!(real.len(), model.attempts.len(), "seed {seed} step {step}");
        let m = model.attempts.get(&peer);
        assert_eq!(real.has_attempt(peer), m.is_some());
        assert_eq!(
            real.has_active_attempt(peer),
            m.is_some_and(|a| a.backed_off.is_none())
        );
        assert_eq!(
            real.unanswered_sends(peer),
            m.map_or(0, |a| a.unanswered_sends)
        );
        assert!(
            real.index_agrees(),
            "seed {seed} step {step}: index drifted"
        );
    }
}

#[test]
fn linking_manager_matches_full_scan_model() {
    for seed in 0..MODEL_SEQUENCES {
        linking_model_sequence(seed);
    }
}
