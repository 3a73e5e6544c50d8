//! The linking protocol (§IV-B of the paper).
//!
//! Linking turns "I know your URIs" into an established connection. The
//! initiator sends `LinkRequest`s to the target's URIs **one at a time**,
//! retransmitting with exponential backoff, and abandons a URI only after
//! the full retry budget (~155 s with defaults — the paper's footnote).
//! Because both ends of a CTM exchange initiate linking simultaneously, the
//! protocol doubles as UDP hole punching, and a *race* arises: a node that
//! receives a `LinkRequest` from the very peer it is actively linking to
//! answers `LinkError(InRace)`; if both sides do so, both restart after a
//! randomized exponential backoff.
//!
//! This module is a pure state machine: inputs are protocol events plus the
//! current time; outputs are [`LinkCmd`]s for the node to act on.
//!
//! # Timer contract
//!
//! Same as [`crate::ping`]: every attempt has exactly one deadline (its next
//! transmission while active, the end of its stand-down while backed off),
//! all of them sit in an ordered index beside the attempts, and every
//! method that moves a deadline moves the index entry with it.
//! [`LinkingManager::next_deadline`] is the index minimum — exact, because
//! runtimes arm their wake-up from it — and [`LinkingManager::poll`] visits
//! only attempts with `deadline <= now`, in ascending [`Address`] order,
//! emitting every [`LinkCmd::Failed`] after every [`LinkCmd::SendRequest`].
//!
//! The attempts sit in an ordered table (`crate::table`) that releases its
//! buffer when the last attempt ends, so the typical node — one that
//! linked long ago — holds no attempt buffer, and a poll borrows its due
//! list from the thread instead of allocating one.

use rand::Rng;
use wow_netsim::addr::PhysAddr;
use wow_netsim::time::{SimDuration, SimTime};

use crate::addr::Address;
use crate::config::OverlayConfig;
use crate::conn::ConnType;
use crate::deadline::DeadlineIndex;
use crate::table::Table;
use crate::uri::TransportUri;

/// What the node should do as a result of linking progress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkCmd {
    /// Transmit a `LinkRequest` to this endpoint.
    SendRequest {
        /// Where to send.
        to: PhysAddr,
        /// The peer the request is meant for.
        target: Address,
        /// Desired role.
        ctype: ConnType,
        /// Attempt identifier to embed.
        attempt: u64,
    },
    /// The attempt succeeded; record the connection.
    Established {
        /// Peer address.
        peer: Address,
        /// Role of the new connection.
        ctype: ConnType,
        /// Endpoint that answered (the working return path).
        remote: PhysAddr,
    },
    /// Every URI failed; the attempt is abandoned.
    Failed {
        /// Peer address.
        peer: Address,
        /// Role that was being established.
        ctype: ConnType,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum AttemptState {
    /// Sending requests; `next_send` is the next (re)transmission time.
    Active,
    /// Stood down after a race; resume at `until`.
    BackedOff { until: SimTime },
}

#[derive(Clone, Debug)]
struct Attempt {
    peer: Address,
    ctype: ConnType,
    uris: Vec<TransportUri>,
    uri_idx: usize,
    tries_on_uri: u32,
    cur_rto: SimDuration,
    next_send: SimTime,
    attempt_id: u64,
    restarts: u32,
    state: AttemptState,
    /// Requests transmitted since the attempt (re)started, none answered.
    unanswered_sends: u32,
    /// Per-attempt retry budget overriding `cfg.link_retries` (the
    /// multi-introducer bootstrap path uses a short budget so a dead
    /// introducer is abandoned in seconds, not the 155 s legacy schedule).
    retries_override: Option<u32>,
}

impl Attempt {
    /// When [`LinkingManager::poll`] next has work for this attempt.
    fn deadline(&self) -> SimTime {
        match self.state {
            AttemptState::Active => self.next_send,
            AttemptState::BackedOff { until } => until,
        }
    }
}

/// Manager of all in-flight linking attempts of one node.
#[derive(Debug, Default)]
pub struct LinkingManager {
    attempts: Table<Address, Attempt>,
    /// One entry per entry of `attempts`, at that attempt's deadline.
    queue: DeadlineIndex,
    next_attempt_id: u64,
}

impl LinkingManager {
    /// No attempts in flight.
    pub fn new() -> Self {
        LinkingManager::default()
    }

    /// Whether an attempt to `peer` exists at all.
    pub fn has_attempt(&self, peer: Address) -> bool {
        self.attempts.contains_key(peer)
    }

    /// Whether an *active* (not backed-off) attempt to `peer` exists —
    /// the condition under which an incoming request is answered `InRace`.
    pub fn has_active_attempt(&self, peer: Address) -> bool {
        self.attempts
            .get(peer)
            .is_some_and(|a| a.state == AttemptState::Active)
    }

    /// How many of our requests to `peer` have gone unanswered since the
    /// attempt (re)started. A peer whose request *reaches us* while several
    /// of ours have vanished demonstrably has a working path where ours is
    /// broken (e.g. we are cone-NAT'd trying to reach a symmetric-NAT'd
    /// node); the race rule should yield rather than deadlock the join.
    pub fn unanswered_sends(&self, peer: Address) -> u32 {
        self.attempts.get(peer).map_or(0, |a| a.unanswered_sends)
    }

    /// Number of attempts in flight.
    pub fn len(&self) -> usize {
        self.attempts.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.attempts.is_empty()
    }

    /// Begin linking to `peer` over `uris`. No-op if an attempt is already
    /// in flight or `uris` is empty.
    pub fn start(&mut self, now: SimTime, peer: Address, ctype: ConnType, uris: Vec<TransportUri>) {
        self.start_with_budget(now, peer, ctype, uris, None);
    }

    /// [`LinkingManager::start`] with an explicit per-URI retry budget;
    /// `None` uses `cfg.link_retries` at poll time.
    pub fn start_with_budget(
        &mut self,
        now: SimTime,
        peer: Address,
        ctype: ConnType,
        uris: Vec<TransportUri>,
        retries: Option<u32>,
    ) {
        if uris.is_empty() || self.attempts.contains_key(peer) {
            return;
        }
        let attempt_id = self.next_attempt_id;
        self.next_attempt_id += 1;
        self.attempts.insert(
            peer,
            Attempt {
                peer,
                ctype,
                uris,
                uri_idx: 0,
                tries_on_uri: 0,
                cur_rto: SimDuration::ZERO, // set on first poll
                next_send: now,
                attempt_id,
                restarts: 0,
                state: AttemptState::Active,
                unanswered_sends: 0,
                retries_override: retries,
            },
        );
        self.queue.insert(now, peer);
        debug_assert_eq!(self.queue.len(), self.attempts.len());
    }

    /// Drop the attempt to `peer` and its index entry.
    fn remove(&mut self, peer: Address) -> Option<Attempt> {
        let a = self.attempts.remove(peer)?;
        self.queue.remove(a.deadline(), peer);
        debug_assert_eq!(self.queue.len(), self.attempts.len());
        Some(a)
    }

    /// Abandon any attempt to `peer` (e.g. the connection formed passively).
    pub fn cancel(&mut self, peer: Address) {
        self.remove(peer);
    }

    /// The peer was linked by other means (passive accept); same as cancel
    /// but reads better at call sites.
    pub fn satisfied(&mut self, peer: Address) {
        self.remove(peer);
    }

    /// Earliest time at which [`LinkingManager::poll`] has work to do.
    /// Exact.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.queue.next()
    }

    /// Whether the deadline index mirrors the attempts exactly (the
    /// module-level invariant). O(n log n); for tests.
    pub fn index_agrees(&self) -> bool {
        self.queue.len() == self.attempts.len()
            && self
                .attempts
                .iter()
                .all(|(peer, a)| self.queue.contains(a.deadline(), peer))
    }

    /// Drive timers: emit (re)transmissions, advance URIs, abandon attempts.
    pub fn poll(&mut self, now: SimTime, cfg: &OverlayConfig, out: &mut Vec<LinkCmd>) {
        // Address order keeps the emitted sequence independent of deadline
        // ties. The due list keeps only the exhausted attempts, which are
        // reported after every request.
        let mut due = self.queue.take_due(now);
        due.retain(|&key| {
            let a = self
                .attempts
                .get_mut(key)
                .expect("indexed attempt exists (index invariant)");
            if let AttemptState::BackedOff { .. } = a.state {
                // The stand-down is over: restart from the first URI.
                a.state = AttemptState::Active;
                a.uri_idx = 0;
                a.tries_on_uri = 0;
                a.cur_rto = SimDuration::ZERO;
                a.next_send = now;
            }
            while a.next_send <= now {
                if a.tries_on_uri >= a.retries_override.unwrap_or(cfg.link_retries).max(1) {
                    // This URI is dead; move on.
                    a.uri_idx += 1;
                    a.tries_on_uri = 0;
                    a.cur_rto = SimDuration::ZERO;
                    if a.uri_idx >= a.uris.len() {
                        return true;
                    }
                }
                let uri = a.uris[a.uri_idx];
                out.push(LinkCmd::SendRequest {
                    to: uri.addr,
                    target: a.peer,
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
            self.queue.insert(a.deadline(), key);
            false
        });
        for &peer in due.iter() {
            let a = self.attempts.remove(peer).expect("exhausted attempt");
            out.push(LinkCmd::Failed {
                peer,
                ctype: a.ctype,
            });
        }
        debug_assert_eq!(self.queue.len(), self.attempts.len());
    }

    /// A `LinkReply` arrived from `from` (at underlay address `via`).
    pub fn on_reply(&mut self, from: Address, attempt: u64, via: PhysAddr, out: &mut Vec<LinkCmd>) {
        let Some(a) = self.attempts.get(from) else {
            return; // stale or duplicate
        };
        if a.attempt_id != attempt {
            return; // reply to an older incarnation
        }
        let a = self.remove(from).expect("checked above");
        out.push(LinkCmd::Established {
            peer: a.peer,
            ctype: a.ctype,
            // The address the reply came from is a proven return path
            // (it traversed whatever NATs sit between us).
            remote: via,
        });
    }

    /// A `LinkError(InRace)` arrived: stand down and restart later with
    /// randomized exponential backoff.
    pub fn on_race_error(
        &mut self,
        now: SimTime,
        from: Address,
        attempt: u64,
        cfg: &OverlayConfig,
        rng: &mut impl Rng,
    ) {
        let Some(a) = self.attempts.get_mut(from) else {
            return;
        };
        if a.attempt_id != attempt {
            return;
        }
        let was = a.deadline();
        a.restarts += 1;
        // base · 2^(restarts−1) · U(0.5, 1.5) — the jitter is what breaks
        // symmetric races.
        let exp = cfg
            .race_backoff
            .mul_f64(f64::from(1u32 << (a.restarts - 1).min(6)));
        let jitter = rng.gen_range(0.5..1.5);
        let until = now + exp.mul_f64(jitter);
        a.state = AttemptState::BackedOff { until };
        self.queue.reschedule(from, was, until);
        debug_assert_eq!(self.queue.len(), self.attempts.len());
    }

    /// A `LinkError(WrongNode)` arrived: the current URI reaches the wrong
    /// machine (overlapping private address space); skip it immediately.
    pub fn on_wrong_node(&mut self, now: SimTime, from_attempt: u64) {
        // WrongNode replies carry the *responder's* address, which is not
        // the peer we indexed by — match on attempt id instead. (A lookup by
        // secondary key on an error path, not a timer: the one place left
        // that walks the attempts.)
        if let Some(a) = self
            .attempts
            .values_mut()
            .find(|a| a.attempt_id == from_attempt)
        {
            let was = a.deadline();
            a.uri_idx += 1;
            a.tries_on_uri = 0;
            a.cur_rto = SimDuration::ZERO;
            a.next_send = now;
            if a.uri_idx >= a.uris.len() {
                // That was the last URI: park the attempt in the exhausted
                // state so the next poll takes the failure path.
                a.uri_idx = a.uris.len().saturating_sub(1);
                a.tries_on_uri = u32::MAX;
            }
            // A backed-off attempt keeps its stand-down deadline.
            let (peer, deadline) = (a.peer, a.deadline());
            self.queue.reschedule(peer, was, deadline);
        }
        debug_assert_eq!(self.queue.len(), self.attempts.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::U160;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wow_netsim::addr::PhysIp;

    fn a(v: u64) -> Address {
        Address::from(U160::from(v))
    }

    fn uri(last: u8, port: u16) -> TransportUri {
        TransportUri::udp(PhysAddr::new(PhysIp::new(10, 0, 0, last), port))
    }

    fn cfg() -> OverlayConfig {
        OverlayConfig::default()
    }

    fn sends(cmds: &[LinkCmd]) -> Vec<PhysAddr> {
        cmds.iter()
            .filter_map(|c| match c {
                LinkCmd::SendRequest { to, .. } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn first_poll_sends_first_uri() {
        let mut m = LinkingManager::new();
        let t0 = SimTime::ZERO;
        m.start(t0, a(2), ConnType::Leaf, vec![uri(1, 4000), uri(2, 4000)]);
        let mut out = Vec::new();
        m.poll(t0, &cfg(), &mut out);
        assert_eq!(sends(&out), vec![uri(1, 4000).addr]);
        // Next deadline is one RTO out.
        assert_eq!(m.next_deadline(), Some(t0 + cfg().link_rto));
    }

    #[test]
    fn retransmits_with_doubling_then_advances_uri() {
        let mut m = LinkingManager::new();
        let c = cfg();
        m.start(
            SimTime::ZERO,
            a(2),
            ConnType::StructuredNear,
            vec![uri(1, 1), uri(2, 2)],
        );
        let mut all_sends = Vec::new();
        let mut t = SimTime::ZERO;
        // Drive by deadline until the second URI appears.
        for _ in 0..16 {
            let mut out = Vec::new();
            m.poll(t, &c, &mut out);
            all_sends.extend(sends(&out));
            if all_sends.contains(&uri(2, 2).addr) {
                break;
            }
            t = m.next_deadline().expect("attempt should still be alive");
        }
        // 5 tries on URI 1, then URI 2 at t = 155 s.
        let first: Vec<_> = all_sends.iter().filter(|&&s| s == uri(1, 1).addr).collect();
        assert_eq!(first.len(), 5);
        assert!(all_sends.contains(&uri(2, 2).addr));
        assert_eq!(t, SimTime::ZERO + c.uri_abandon_time());
    }

    #[test]
    fn fails_after_all_uris_exhausted() {
        let mut m = LinkingManager::new();
        let c = cfg();
        m.start(SimTime::ZERO, a(2), ConnType::Shortcut, vec![uri(1, 1)]);
        let mut t = SimTime::ZERO;
        let mut failed = false;
        for _ in 0..16 {
            let mut out = Vec::new();
            m.poll(t, &c, &mut out);
            if out
                .iter()
                .any(|cmd| matches!(cmd, LinkCmd::Failed { peer, .. } if *peer == a(2)))
            {
                failed = true;
                break;
            }
            match m.next_deadline() {
                Some(d) => t = d,
                None => break,
            }
        }
        assert!(failed, "attempt should eventually fail");
        assert!(m.is_empty());
    }

    #[test]
    fn reply_establishes_with_reply_source_as_remote() {
        let mut m = LinkingManager::new();
        m.start(
            SimTime::ZERO,
            a(2),
            ConnType::StructuredFar,
            vec![uri(1, 1)],
        );
        let mut out = Vec::new();
        m.poll(SimTime::ZERO, &cfg(), &mut out);
        out.clear();
        let via = PhysAddr::new(PhysIp::new(128, 9, 9, 9), 40_002);
        m.on_reply(a(2), 0, via, &mut out);
        assert_eq!(
            out,
            vec![LinkCmd::Established {
                peer: a(2),
                ctype: ConnType::StructuredFar,
                remote: via,
            }]
        );
        assert!(m.is_empty());
    }

    #[test]
    fn stale_or_mismatched_replies_are_ignored() {
        let mut m = LinkingManager::new();
        m.start(SimTime::ZERO, a(2), ConnType::Leaf, vec![uri(1, 1)]);
        let mut out = Vec::new();
        // Wrong attempt id.
        m.on_reply(a(2), 99, uri(1, 1).addr, &mut out);
        assert!(out.is_empty());
        assert!(m.has_attempt(a(2)));
        // Unknown peer.
        m.on_reply(a(3), 0, uri(1, 1).addr, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn race_error_backs_off_then_restarts_from_first_uri() {
        let mut m = LinkingManager::new();
        let c = cfg();
        let mut rng = SmallRng::seed_from_u64(1);
        m.start(
            SimTime::ZERO,
            a(2),
            ConnType::Shortcut,
            vec![uri(1, 1), uri(2, 2)],
        );
        let mut out = Vec::new();
        m.poll(SimTime::ZERO, &c, &mut out);
        m.on_race_error(SimTime::ZERO, a(2), 0, &c, &mut rng);
        assert!(m.has_attempt(a(2)));
        assert!(!m.has_active_attempt(a(2)), "backed off ≠ active");
        // During backoff, polling emits nothing.
        out.clear();
        m.poll(SimTime::from_millis(100), &c, &mut out);
        assert!(out.is_empty());
        // After the backoff deadline it resumes with URI 1.
        let resume = m.next_deadline().unwrap();
        assert!(resume > SimTime::ZERO && resume <= SimTime::from_secs(3));
        m.poll(resume, &c, &mut out);
        assert_eq!(sends(&out), vec![uri(1, 1).addr]);
        assert!(m.has_active_attempt(a(2)));
    }

    #[test]
    fn wrong_node_skips_uri_immediately() {
        let mut m = LinkingManager::new();
        let c = cfg();
        m.start(
            SimTime::ZERO,
            a(2),
            ConnType::StructuredNear,
            vec![uri(1, 1), uri(2, 2)],
        );
        let mut out = Vec::new();
        m.poll(SimTime::ZERO, &c, &mut out);
        out.clear();
        m.on_wrong_node(SimTime::from_millis(50), 0);
        m.poll(SimTime::from_millis(50), &c, &mut out);
        assert_eq!(sends(&out), vec![uri(2, 2).addr]);
    }

    #[test]
    fn duplicate_start_is_ignored() {
        let mut m = LinkingManager::new();
        m.start(SimTime::ZERO, a(2), ConnType::Leaf, vec![uri(1, 1)]);
        m.start(SimTime::ZERO, a(2), ConnType::Shortcut, vec![uri(9, 9)]);
        let mut out = Vec::new();
        m.poll(SimTime::ZERO, &cfg(), &mut out);
        // Still the original attempt (leaf, uri 1).
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            LinkCmd::SendRequest {
                ctype: ConnType::Leaf,
                ..
            }
        ));
    }

    #[test]
    fn empty_uri_list_is_a_noop() {
        let mut m = LinkingManager::new();
        m.start(SimTime::ZERO, a(2), ConnType::Leaf, Vec::new());
        assert!(m.is_empty());
    }
}
