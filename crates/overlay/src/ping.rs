//! Connection keepalives and failure detection.
//!
//! Nodes keep idle connections alive by periodically exchanging ping
//! messages (which also refreshes NAT bindings), resending unanswered pings
//! with exponential backoff; a connection whose pings go unanswered past the
//! retry budget is declared dead and discarded (§IV-B). The paper notes
//! these pings are the per-connection overhead that bounds how many
//! connections a node can afford — which is why shortcuts are capped.
//!
//! # Timer contract
//!
//! Every tracked peer has exactly one deadline — its next ping when idle,
//! its next retransmission when a pong is outstanding — and the manager
//! keeps all of them in an ordered index beside the per-peer state. So a
//! tick costs what is due, not what is tracked (an introducer in a join
//! storm holds hundreds of connections and has, typically, none due):
//!
//! * [`PingManager::next_deadline`] is the index minimum: exact, never an
//!   early lower bound, because runtimes arm their wake-up from it.
//! * [`PingManager::poll`] pops only entries with `deadline <= now` and
//!   handles them in ascending [`Address`] order — the order nonces are
//!   allocated in — with every [`PingCmd::Dead`] after every
//!   [`PingCmd::SendPing`].
//! * Invariant: the index holds `(deadline, peer)` for each tracked peer
//!   and nothing else. Every method that moves a deadline moves the index
//!   entry with it.
//!
//! The per-peer state is an ordered table (`crate::table`): it costs what
//! the node tracks and nothing once it tracks no one, and it iterates in
//! address order by construction. The due list a poll walks is a buffer
//! on loan from the thread (`crate::deadline`), so a poll allocates
//! nothing of its own.

use wow_netsim::time::{SimDuration, SimTime};

use crate::addr::Address;
use crate::config::OverlayConfig;
use crate::deadline::DeadlineIndex;
use crate::table::Table;

/// Output of the ping manager.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PingCmd {
    /// Transmit a ping with this nonce to the peer.
    SendPing {
        /// Connection peer.
        peer: Address,
        /// Nonce to embed (echoed by the pong).
        nonce: u64,
    },
    /// The peer failed its retry budget; drop the connection.
    Dead {
        /// Connection peer.
        peer: Address,
    },
}

#[derive(Clone, Debug)]
enum Probe {
    /// Nothing outstanding; the deadline is the next ping.
    Idle,
    /// Awaiting a pong; the deadline is the next retransmission.
    Awaiting {
        nonce: u64,
        rto: SimDuration,
        tries: u32,
    },
}

#[derive(Clone, Debug)]
struct Peer {
    /// When [`PingManager::poll`] next has work for this peer.
    deadline: SimTime,
    probe: Probe,
}

/// Keepalive state for all connections of one node.
#[derive(Debug, Default)]
pub struct PingManager {
    peers: Table<Address, Peer>,
    /// One entry per entry of `peers`, at that peer's deadline.
    queue: DeadlineIndex,
    next_nonce: u64,
}

impl PingManager {
    /// Empty manager.
    pub fn new() -> Self {
        PingManager::default()
    }

    /// Start tracking a connection.
    pub fn track(&mut self, peer: Address, now: SimTime, cfg: &OverlayConfig) {
        if !self.peers.contains_key(peer) {
            let deadline = now + cfg.ping_interval;
            let probe = Probe::Idle;
            self.peers.insert(peer, Peer { deadline, probe });
            self.queue.insert(deadline, peer);
        }
        debug_assert_eq!(self.queue.len(), self.peers.len());
    }

    /// Stop tracking (connection removed for any reason).
    pub fn untrack(&mut self, peer: Address) {
        if let Some(p) = self.peers.remove(peer) {
            self.queue.remove(p.deadline, peer);
        }
        debug_assert_eq!(self.queue.len(), self.peers.len());
    }

    /// Number of tracked peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when no peers are tracked.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Any traffic from the peer proves liveness; push the next ping out.
    pub fn heard(&mut self, peer: Address, now: SimTime, cfg: &OverlayConfig) {
        let Some(p) = self.peers.get_mut(peer) else {
            return;
        };
        p.probe = Probe::Idle;
        let deadline = now + cfg.ping_interval;
        let was = std::mem::replace(&mut p.deadline, deadline);
        self.queue.reschedule(peer, was, deadline);
        debug_assert_eq!(self.queue.len(), self.peers.len());
    }

    /// A pong arrived. Returns true if it matched an outstanding ping.
    pub fn on_pong(
        &mut self,
        peer: Address,
        nonce: u64,
        now: SimTime,
        cfg: &OverlayConfig,
    ) -> bool {
        match self.peers.get(peer) {
            Some(Peer {
                probe: Probe::Awaiting { nonce: n, .. },
                ..
            }) if *n == nonce => {
                self.heard(peer, now, cfg);
                true
            }
            _ => false,
        }
    }

    /// Earliest time at which [`PingManager::poll`] has work. Exact.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.queue.next()
    }

    /// Whether the deadline index mirrors the per-peer state exactly (the
    /// module-level invariant). O(n log n); for tests.
    pub fn index_agrees(&self) -> bool {
        self.queue.len() == self.peers.len()
            && self
                .peers
                .iter()
                .all(|(peer, p)| self.queue.contains(p.deadline, peer))
    }

    /// Drive timers.
    pub fn poll(&mut self, now: SimTime, cfg: &OverlayConfig, out: &mut Vec<PingCmd>) {
        // Address order is the order nonces are allocated in. The due list
        // keeps only the dead, which are reported after every ping.
        let mut due = self.queue.take_due(now);
        due.retain(|&peer| {
            let p = self
                .peers
                .get_mut(peer)
                .expect("indexed peer is tracked (index invariant)");
            match &mut p.probe {
                Probe::Idle => {
                    let nonce = self.next_nonce;
                    self.next_nonce += 1;
                    p.probe = Probe::Awaiting {
                        nonce,
                        rto: cfg.ping_rto,
                        tries: 1,
                    };
                    p.deadline = now + cfg.ping_rto;
                    out.push(PingCmd::SendPing { peer, nonce });
                }
                Probe::Awaiting { nonce, rto, tries } => {
                    if *tries >= cfg.ping_retries {
                        self.peers.remove(peer);
                        return true;
                    }
                    *tries += 1;
                    *rto = rto.saturating_double();
                    p.deadline = now + *rto;
                    out.push(PingCmd::SendPing {
                        peer,
                        nonce: *nonce,
                    });
                }
            }
            self.queue.insert(p.deadline, peer);
            false
        });
        out.extend(due.iter().map(|&peer| PingCmd::Dead { peer }));
        debug_assert_eq!(self.queue.len(), self.peers.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::U160;

    fn a(v: u64) -> Address {
        Address::from(U160::from(v))
    }

    fn cfg() -> OverlayConfig {
        OverlayConfig::default()
    }

    #[test]
    fn ping_fires_after_interval() {
        let mut m = PingManager::new();
        let c = cfg();
        m.track(a(1), SimTime::ZERO, &c);
        let mut out = Vec::new();
        m.poll(SimTime::from_secs(1), &c, &mut out);
        assert!(out.is_empty(), "not due yet");
        let due = m.next_deadline().unwrap();
        assert_eq!(due, SimTime::ZERO + c.ping_interval);
        m.poll(due, &c, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], PingCmd::SendPing { peer, .. } if peer == a(1)));
    }

    #[test]
    fn pong_resets_cycle() {
        let mut m = PingManager::new();
        let c = cfg();
        m.track(a(1), SimTime::ZERO, &c);
        let mut out = Vec::new();
        let due = m.next_deadline().unwrap();
        m.poll(due, &c, &mut out);
        let nonce = match out[0] {
            PingCmd::SendPing { nonce, .. } => nonce,
            _ => unreachable!(),
        };
        let t1 = due + SimDuration::from_millis(40);
        assert!(m.on_pong(a(1), nonce, t1, &c));
        // Next ping a full interval after the pong.
        assert_eq!(m.next_deadline(), Some(t1 + c.ping_interval));
    }

    #[test]
    fn wrong_nonce_pong_is_rejected() {
        let mut m = PingManager::new();
        let c = cfg();
        m.track(a(1), SimTime::ZERO, &c);
        let mut out = Vec::new();
        m.poll(m.next_deadline().unwrap(), &c, &mut out);
        assert!(!m.on_pong(a(1), 999, SimTime::from_secs(16), &c));
        assert!(!m.on_pong(a(2), 0, SimTime::from_secs(16), &c));
    }

    #[test]
    fn unanswered_pings_declare_death_with_backoff() {
        let mut m = PingManager::new();
        let c = cfg();
        m.track(a(1), SimTime::ZERO, &c);
        let mut sends = 0;
        let mut dead = false;
        let mut guard = 0;
        while let Some(t) = m.next_deadline() {
            guard += 1;
            assert!(guard < 32, "no progress");
            let mut out = Vec::new();
            m.poll(t, &c, &mut out);
            for cmd in out {
                match cmd {
                    PingCmd::SendPing { .. } => sends += 1,
                    PingCmd::Dead { peer } => {
                        assert_eq!(peer, a(1));
                        dead = true;
                    }
                }
            }
            if dead {
                break;
            }
        }
        assert!(dead);
        assert_eq!(sends, c.ping_retries, "one send per allowed try");
        assert!(m.is_empty());
        // Death takes interval + rto·(2^retries − 1) = 15 + 2+4+8+16 = 45 s.
    }

    #[test]
    fn heard_pushes_ping_out() {
        let mut m = PingManager::new();
        let c = cfg();
        m.track(a(1), SimTime::ZERO, &c);
        m.heard(a(1), SimTime::from_secs(10), &c);
        assert_eq!(
            m.next_deadline(),
            Some(SimTime::from_secs(10) + c.ping_interval)
        );
    }

    #[test]
    fn untrack_forgets() {
        let mut m = PingManager::new();
        let c = cfg();
        m.track(a(1), SimTime::ZERO, &c);
        m.untrack(a(1));
        assert_eq!(m.next_deadline(), None);
    }
}
