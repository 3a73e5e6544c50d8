//! Decentralized bootstrap: the introducer cache and a node's join part.
//!
//! The paper's §IV join path funnels every new workstation through one
//! well-known bootstrap node — exactly the single point of failure the
//! follow-up bootstrap work (arxiv 1004.2308) removes. In this overlay
//! *any routable node can introduce*: a wildcard `LinkRequest` is answered
//! by whoever receives it, so decentralizing bootstrap is purely a joiner-
//! side concern — carrying more than one introducer URI, choosing among
//! them, and remembering which ones worked.
//!
//! [`BootstrapManager`] is that joiner-side state, and it makes every join
//! decision (§IV-C): single funnel or one cached candidate, what a wildcard
//! reply or failure records, join retry versus the marooned-pair escape,
//! and whether to rebootstrap. The join itself: a wildcard link to an
//! introducer yields a **leaf** connection (and, from the reply, our
//! NAT-assigned URI); the first leaf takes the leaf slot and relays a CTM
//! addressed to ourselves, which greedy routing delivers to the ring node
//! nearest our address; it answers and edge-forwards a copy to our other
//! neighbour, and linking to both as structured near makes us routable.
//!
//! * **Configured + learned entries.** The cache starts from the configured
//!   bootstrap list and grows as the node links to peers (every directly
//!   linked peer has a proven return path and is itself an introducer).
//! * **Seeded randomized selection.** Candidates are drawn with the
//!   manager's own RNG stream — deterministic per seed, and never touching
//!   the node's protocol RNG, so enabling the cache cannot perturb
//!   existing transcripts.
//! * **Demotion, not removal.** A failed introducer backs off (doubling,
//!   capped) but stays cached; when *every* entry is backed off the
//!   selector falls through to the least-recently-failed one rather than
//!   refusing — a joiner with only dead-looking introducers keeps trying
//!   the most plausible one.
//! * **Restart persistence.** [`JoinState`] is a plain-data snapshot of the
//!   cache. Faultlab's clean-slate restart wipes the node (including this
//!   cache); runtimes capture the snapshot before the restart and re-seed
//!   it after, so a rejoining node remembers introducers it *learned* even
//!   when its configured bootstrap node is down.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wow_netsim::addr::PhysAddr;
use wow_netsim::time::{SimDuration, SimTime};

use crate::addr::Address;
use crate::conn::{ConnTable, ConnType};
use crate::driver::NodeSink;
use crate::linking::LinkingManager;
use crate::node::WILDCARD;
use crate::telemetry::Counter;
use crate::uri::TransportUri;

/// Stream-separation tweak: the manager's RNG derives from the node seed
/// but must not mirror the node's own `seed_from_u64` stream.
const RNG_TWEAK: u64 = 0x9E37_79B9_7F4A_7C15;

/// Cap on the failure-count exponent of the demotion backoff (base · 2⁵).
const MAX_BACKOFF_EXP: u32 = 5;

/// One cached introducer, as exported in a [`JoinState`] snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntroducerRecord {
    /// The introducer's transport URI.
    pub uri: TransportUri,
    /// Consecutive failures since the last success (drives demotion).
    pub failures: u32,
    /// Successful introductions through this entry.
    pub successes: u64,
    /// Whether the entry was learned from a live connection (as opposed
    /// to configured in the bootstrap list).
    pub learned: bool,
}

/// A plain-data snapshot of the introducer cache: what survives a
/// clean-slate restart. Runtimes capture it via
/// [`crate::node::BrunetNode::join_state`] before restarting a node and
/// re-seed it via [`crate::node::BrunetNode::restore_join_state`] after.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinState {
    /// Cached introducers, in cache order.
    pub introducers: Vec<IntroducerRecord>,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    uri: TransportUri,
    failures: u32,
    successes: u64,
    learned: bool,
    /// Demoted entries are not eligible again before this time.
    next_eligible: SimTime,
}

/// The joiner side of a node: the introducer cache and the join in
/// flight. See module docs.
#[derive(Clone, Debug)]
pub struct BootstrapManager {
    entries: Vec<Entry>,
    rng: SmallRng,
    /// The first leaf connection: the relay of our join CTM.
    pub(crate) leaf: Option<Address>,
    /// The introducer the in-flight wildcard attempt funnels through.
    introducer: Option<TransportUri>,
    next_attempt: SimTime,
}

impl BootstrapManager {
    /// Empty cache with a selection stream derived from the node seed.
    pub fn new(seed: u64) -> Self {
        BootstrapManager {
            entries: Vec::new(),
            rng: SmallRng::seed_from_u64(seed ^ RNG_TWEAK),
            leaf: None,
            introducer: None,
            next_attempt: SimTime::ZERO,
        }
    }

    /// Merge the configured bootstrap list into the cache (deduplicated;
    /// existing entries keep their history).
    pub fn configure(&mut self, uris: &[TransportUri]) {
        for &uri in uris {
            if !self.entries.iter().any(|e| e.uri == uri) {
                self.entries.push(Entry {
                    uri,
                    failures: 0,
                    successes: 0,
                    learned: false,
                    next_eligible: SimTime::ZERO,
                });
            }
        }
    }

    /// Remember a URI learned from a live connection. Returns `true` when a
    /// new entry was added. At capacity, the worst learned entry (most
    /// failures, oldest first) is evicted to make room; configured entries
    /// are never evicted, and when they fill the cache the learn is a no-op.
    pub fn learn(&mut self, uri: TransportUri, cap: usize) -> bool {
        if self.entries.iter().any(|e| e.uri == uri) {
            return false;
        }
        if self.entries.len() >= cap.max(1) {
            let Some(worst) = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.learned)
                .max_by_key(|(i, e)| (e.failures, usize::MAX - i))
                .map(|(i, _)| i)
            else {
                return false;
            };
            self.entries.remove(worst);
        }
        self.entries.push(Entry {
            uri,
            failures: 0,
            successes: 0,
            learned: true,
            next_eligible: SimTime::ZERO,
        });
        true
    }

    /// Number of cached introducers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every cached URI, in cache order (configured before learned for a
    /// fresh cache, since `configure` runs at start).
    pub fn uris(&self) -> Vec<TransportUri> {
        self.entries.iter().map(|e| e.uri).collect()
    }

    /// Pick the introducer to try next. Eligible (not backed-off) entries
    /// with the fewest failures are preferred, chosen uniformly at random
    /// from the manager's seeded stream; when every entry is backed off the
    /// earliest-eligible one is returned instead — the cache falls through
    /// to its least-bad entry rather than giving up. `None` only when the
    /// cache is empty.
    pub fn next_candidate(&mut self, now: SimTime) -> Option<TransportUri> {
        if self.entries.is_empty() {
            return None;
        }
        let best_tier = self
            .entries
            .iter()
            .filter(|e| e.next_eligible <= now)
            .map(|e| e.failures)
            .min();
        match best_tier {
            Some(tier) => {
                let n = self
                    .entries
                    .iter()
                    .filter(|e| e.next_eligible <= now && e.failures == tier)
                    .count();
                let pick = self.rng.gen_range(0..n);
                self.entries
                    .iter()
                    .filter(|e| e.next_eligible <= now && e.failures == tier)
                    .nth(pick)
                    .map(|e| e.uri)
            }
            // Everything is backed off: fall through to whichever entry
            // becomes eligible first (stable on ties: cache order).
            None => self
                .entries
                .iter()
                .min_by_key(|e| e.next_eligible)
                .map(|e| e.uri),
        }
    }

    /// Demote an introducer after a failed attempt: its failure count grows
    /// and it backs off for `base · 2^min(failures−1, 5)`. The entry stays
    /// cached — dead introducers are retried last, never forgotten.
    pub fn record_failure(&mut self, uri: TransportUri, now: SimTime, base: SimDuration) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.uri == uri) {
            e.failures = e.failures.saturating_add(1);
            let exp = (e.failures - 1).min(MAX_BACKOFF_EXP);
            let mut backoff = base;
            for _ in 0..exp {
                backoff = backoff.saturating_double();
            }
            e.next_eligible = now + backoff;
        }
    }

    /// Promote an introducer after a successful introduction: failures
    /// reset, the entry becomes immediately eligible again.
    pub fn record_success(&mut self, uri: TransportUri) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.uri == uri) {
            e.failures = 0;
            e.successes += 1;
            e.next_eligible = SimTime::ZERO;
        }
    }

    /// Export the cache as a plain-data snapshot.
    pub fn join_state(&self) -> JoinState {
        JoinState {
            introducers: self
                .entries
                .iter()
                .map(|e| IntroducerRecord {
                    uri: e.uri,
                    failures: e.failures,
                    successes: e.successes,
                    learned: e.learned,
                })
                .collect(),
        }
    }

    /// Merge a snapshot back in (after a clean-slate restart). Unknown
    /// URIs are inserted; known ones adopt the snapshot's history. Backoff
    /// deadlines deliberately do not survive — the restart clock may have
    /// no relation to the pre-restart one — but failure counts do, so a
    /// demoted introducer resumes deep in the backoff schedule on its next
    /// failure rather than at the start.
    pub fn restore(&mut self, state: &JoinState) {
        for r in &state.introducers {
            match self.entries.iter_mut().find(|e| e.uri == r.uri) {
                Some(e) => {
                    e.failures = r.failures;
                    e.successes = r.successes;
                    e.learned = e.learned && r.learned;
                }
                None => self.entries.push(Entry {
                    uri: r.uri,
                    failures: r.failures,
                    successes: r.successes,
                    learned: r.learned,
                    next_eligible: SimTime::ZERO,
                }),
            }
        }
    }

    /// Clean-slate restart: drop every entry and the join in flight,
    /// keeping the RNG stream.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.leaf = None;
        self.introducer = None;
    }
}

// ---------------------------------------------------------------- join ----

/// Retries per introducer before a multi-introducer joiner falls through
/// the cache; a single cached introducer keeps the full `link_retries`.
pub(crate) const INTRODUCER_RETRIES: u32 = 2;

/// Base demotion backoff after a failed introducer.
const INTRODUCER_BACKOFF: SimDuration = SimDuration::from_secs(30);

/// Upper bound on cached introducers (configured + learned).
const MAX_INTRODUCERS: usize = 16;

/// What a housekeeping round asks of the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JoinStep {
    /// Re-send the join CTM through this leaf.
    Ctm(Address),
    /// Dial the introducer cache again ([`BootstrapManager::dial`]).
    Dial,
}

/// The join part (module docs).
impl BootstrapManager {
    /// (Re)start: merge the configured introducers, arm the join retry.
    pub(crate) fn start(&mut self, now: SimTime, bootstrap: &[TransportUri], retry: SimDuration) {
        self.configure(bootstrap);
        self.next_attempt = now + retry;
    }

    /// Start a wildcard attempt unless one is in flight or nothing is
    /// cached; returns whether `linking` has a new attempt to drive. One
    /// cached introducer gets the whole-list funnel on the full budget
    /// (`tests/driver_differential.rs` pins it); several are tried one
    /// seeded-random candidate at a time on [`INTRODUCER_RETRIES`].
    pub(crate) fn dial<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        linking: &mut LinkingManager,
        sink: &mut S,
    ) -> bool {
        if self.is_empty() || linking.has_attempt(WILDCARD) {
            return false;
        }
        if self.len() == 1 {
            let uris = self.uris();
            self.introducer = uris.first().copied();
            linking.start(now, WILDCARD, ConnType::Leaf, uris);
            return true;
        }
        let Some(uri) = self.next_candidate(now) else {
            return false;
        };
        self.introducer = Some(uri);
        sink.count(Counter::IntroducerTried);
        let budget = Some(INTRODUCER_RETRIES);
        linking.start_with_budget(now, WILDCARD, ConnType::Leaf, vec![uri], budget);
        true
    }

    /// The introducer answered: clear its demotion.
    pub(crate) fn introducer_answered(&mut self) {
        if let Some(uri) = self.introducer.take() {
            self.record_success(uri);
        }
    }

    /// The wildcard attempt failed: demote the introducer; `true` when the
    /// node should fall through to the next cached candidate.
    pub(crate) fn introducer_failed(&mut self, now: SimTime) -> bool {
        if let Some(uri) = self.introducer.take() {
            self.record_failure(uri, now, INTRODUCER_BACKOFF);
        }
        self.len() > 1
    }

    /// A directly linked peer can introduce us: cache its return path.
    pub(crate) fn learn_peer(&mut self, remote: PhysAddr) {
        self.learn(TransportUri::udp(remote), MAX_INTRODUCERS);
    }

    /// A housekeeping round, on the `retry` cadence: a node not yet
    /// routable re-sends its join CTM through its leaf, or dials when it
    /// holds no leaf connection at all. A routable node whose whole
    /// neighbourhood is one peer dials too — the marooned-pair escape: two
    /// isolated nodes that bootstrap through each other form a private
    /// 2-ring in which each is "routable" and neither would dial again.
    /// For a genuine 2-node overlay the cache holds only the peer.
    pub(crate) fn housekeeping(
        &mut self,
        now: SimTime,
        routable: bool,
        conns: &ConnTable,
        retry: SimDuration,
    ) -> Option<JoinStep> {
        if now < self.next_attempt {
            return None;
        }
        let step = if !routable {
            let leafless = conns.with_type(ConnType::Leaf).next().is_none();
            match self.leaf {
                Some(leaf) => Some(JoinStep::Ctm(leaf)),
                None => leafless.then_some(JoinStep::Dial),
            }
        } else if conns.len() == 1 && self.len() > 1 {
            Some(JoinStep::Dial)
        } else {
            return None;
        };
        self.next_attempt = now + retry;
        step
    }

    /// `Rebootstrap`'s guard: only a node with no connection of any kind
    /// and no join in flight rejoins.
    pub(crate) fn may_rebootstrap(&self, conns: &ConnTable) -> bool {
        self.leaf.is_none() && conns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wow_netsim::addr::{PhysAddr, PhysIp};

    fn uri(last: u8) -> TransportUri {
        TransportUri::udp(PhysAddr::new(PhysIp::new(10, 0, 0, last), 4000))
    }

    const T0: SimTime = SimTime::ZERO;
    const BASE: SimDuration = SimDuration::from_secs(30);

    #[test]
    fn selection_is_deterministic_per_seed() {
        let uris: Vec<_> = (1..=8).map(uri).collect();
        let picks = |seed: u64| {
            let mut m = BootstrapManager::new(seed);
            m.configure(&uris);
            (0..32)
                .map(|_| m.next_candidate(T0).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7), "same seed, same sequence");
        assert_ne!(picks(7), picks(8), "different seed, different sequence");
    }

    #[test]
    fn failed_introducers_are_demoted_not_dropped() {
        let mut m = BootstrapManager::new(1);
        m.configure(&[uri(1), uri(2)]);
        m.record_failure(uri(1), T0, BASE);
        assert_eq!(m.len(), 2, "failure must not evict");
        // While demoted, only the healthy entry is picked.
        for _ in 0..16 {
            assert_eq!(m.next_candidate(T0), Some(uri(2)));
        }
        // After the backoff it competes again.
        let later = T0 + BASE + SimDuration::from_secs(1);
        let mut saw_demoted = false;
        for _ in 0..64 {
            if m.next_candidate(later) == Some(uri(1)) {
                saw_demoted = true;
                break;
            }
        }
        // failures=1 vs failures=0: the healthy tier still wins.
        assert!(!saw_demoted, "lower-failure tier is preferred");
        m.record_failure(uri(2), later, BASE);
        m.record_failure(uri(2), later, BASE);
        // Now uri(1) is the best eligible tier.
        assert_eq!(m.next_candidate(later), Some(uri(1)));
    }

    #[test]
    fn all_backed_off_falls_through_to_earliest() {
        let mut m = BootstrapManager::new(1);
        m.configure(&[uri(1), uri(2)]);
        m.record_failure(uri(1), T0, BASE); // eligible at 30 s
        m.record_failure(uri(2), T0, BASE);
        m.record_failure(uri(2), T0, BASE); // eligible at 60 s
                                            // Nothing eligible at t=1 s, but the cache still answers.
        assert_eq!(
            m.next_candidate(T0 + SimDuration::from_secs(1)),
            Some(uri(1)),
            "earliest-eligible entry is the fallback"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut m = BootstrapManager::new(1);
        m.configure(&[uri(1)]);
        for i in 0..10u64 {
            m.record_failure(uri(1), T0, BASE);
            let expect = BASE.as_micros() << (i).min(5);
            assert_eq!(
                m.entries[0].next_eligible,
                T0 + SimDuration::from_micros(expect),
                "failure #{i}"
            );
        }
    }

    #[test]
    fn success_resets_demotion() {
        let mut m = BootstrapManager::new(1);
        m.configure(&[uri(1), uri(2)]);
        for _ in 0..4 {
            m.record_failure(uri(1), T0, BASE);
        }
        m.record_success(uri(1));
        assert_eq!(m.entries[0].failures, 0);
        assert!(m.entries[0].next_eligible <= T0);
        assert_eq!(m.entries[0].successes, 1);
    }

    #[test]
    fn learn_caps_and_evicts_worst_learned_only() {
        let mut m = BootstrapManager::new(1);
        m.configure(&[uri(1), uri(2)]);
        assert!(m.learn(uri(3), 4));
        assert!(m.learn(uri(4), 4));
        assert!(!m.learn(uri(4), 4), "duplicates are no-ops");
        m.record_failure(uri(3), T0, BASE);
        // Full: the next learn evicts the worst learned entry (uri 3).
        assert!(m.learn(uri(5), 4));
        assert_eq!(m.len(), 4);
        assert!(!m.uris().contains(&uri(3)));
        assert!(m.uris().contains(&uri(1)) && m.uris().contains(&uri(2)));
        // A cache full of configured entries refuses learns.
        let mut cfg_only = BootstrapManager::new(2);
        cfg_only.configure(&[uri(1), uri(2)]);
        assert!(!cfg_only.learn(uri(9), 2));
    }

    #[test]
    fn join_state_round_trips_through_reset() {
        let mut m = BootstrapManager::new(1);
        m.configure(&[uri(1), uri(2)]);
        m.learn(uri(3), 16);
        m.record_failure(uri(2), T0, BASE);
        m.record_success(uri(1));
        let state = m.join_state();
        // Clean-slate restart: cache wiped, configured list re-applied,
        // snapshot re-seeded by the runtime.
        m.reset();
        assert!(m.is_empty());
        m.configure(&[uri(1), uri(2)]);
        m.restore(&state);
        assert_eq!(m.join_state(), state, "snapshot must round-trip");
        assert!(m.uris().contains(&uri(3)), "learned entry survives");
        assert_eq!(m.entries[1].failures, 1, "demotion survives");
    }

    // ---- the join part ----

    use crate::addr::U160;
    use crate::config::OverlayConfig;
    use crate::linking::LinkCmd;
    use crate::telemetry::TelemetryCounters;

    /// The join part only counts; it never sends or reports events.
    #[derive(Default)]
    struct Counts(TelemetryCounters);

    impl NodeSink for Counts {
        fn send(&mut self, _: PhysAddr, _: bytes::Bytes) {
            unreachable!("the join part sends nothing")
        }
        fn event(&mut self, _: crate::driver::NodeEvent) {
            unreachable!("the join part reports no events")
        }
        fn count(&mut self, counter: Counter) {
            self.0.record(counter);
        }
    }

    const RETRY: SimDuration = SimDuration::from_secs(10);

    fn joining(introducers: &[TransportUri]) -> (BootstrapManager, LinkingManager, Counts) {
        let mut m = BootstrapManager::new(1);
        m.start(T0, introducers, RETRY);
        (m, LinkingManager::new(), Counts::default())
    }

    /// Poll `l` until its wildcard attempt fails; returns the failure time
    /// and every endpoint a request went to.
    fn until_failed(l: &mut LinkingManager) -> (SimTime, Vec<PhysAddr>) {
        let (cfg, mut sent) = (OverlayConfig::default(), Vec::new());
        while let Some(t) = l.next_deadline() {
            let mut cmds = Vec::new();
            l.poll(t, &cfg, &mut cmds);
            for c in cmds {
                match c {
                    LinkCmd::SendRequest { to, .. } => sent.push(to),
                    LinkCmd::Failed { .. } => return (t, sent),
                    LinkCmd::Established { .. } => unreachable!(),
                }
            }
        }
        unreachable!("the attempt never failed")
    }

    #[test]
    fn one_introducer_is_funnelled_several_are_tried_one_at_a_time() {
        let cfg = OverlayConfig::default();
        let (mut m, mut l, mut sink) = joining(&[uri(1)]);
        assert!(m.dial(T0, &mut l, &mut sink));
        assert!(
            !m.dial(T0, &mut l, &mut sink),
            "one wildcard attempt at a time"
        );
        assert_eq!(sink.0.get(Counter::IntroducerTried), 0);
        let (failed_at, _) = until_failed(&mut l);
        assert_eq!(failed_at, T0 + cfg.uri_abandon_time(), "the full budget");
        assert!(
            !m.introducer_failed(failed_at),
            "nothing to fall through to"
        );

        let (mut m, mut l, mut sink) = joining(&[uri(1), uri(2), uri(3)]);
        assert!(m.dial(T0, &mut l, &mut sink));
        assert_eq!(sink.0.get(Counter::IntroducerTried), 1);
        let (failed_at, sent) = until_failed(&mut l);
        assert_eq!(
            failed_at,
            T0 + cfg.introducer_abandon_time(),
            "the short budget"
        );
        assert!(
            sent.iter().all(|&to| to == sent[0]),
            "one candidate: {sent:?}"
        );
        assert!(m.introducer_failed(failed_at), "fall through the cache");
        let state = m.join_state();
        let tried = state
            .introducers
            .iter()
            .find(|r| r.uri.addr == sent[0])
            .unwrap();
        assert_eq!(tried.failures, 1);
        // The next candidate is another introducer; its answer is recorded.
        assert!(m.dial(failed_at, &mut l, &mut sink));
        let mut cmds = Vec::new();
        l.poll(failed_at, &cfg, &mut cmds);
        let LinkCmd::SendRequest { to, .. } = cmds[0] else {
            panic!("{cmds:?}")
        };
        assert_ne!(to, sent[0], "the demoted introducer waits");
        m.introducer_answered();
        let state = m.join_state();
        let answered = state.introducers.iter().find(|r| r.uri.addr == to).unwrap();
        assert_eq!((answered.successes, answered.failures), (1, 0));
    }

    #[test]
    fn housekeeping_retries_the_join_and_escapes_a_marooned_pair() {
        let ep = |v: u16| PhysAddr::new(PhysIp::new(10, 0, 1, 1), v);
        let peer = Address::from(U160::from(7u64));
        let mut conns = ConnTable::new();
        let (mut m, _, _) = joining(&[uri(1), uri(2)]);
        let t = T0 + RETRY;
        assert_eq!(m.housekeeping(T0, false, &conns, RETRY), None, "not yet");
        // Not routable: through the leaf when it holds one, else dial.
        m.leaf = Some(peer);
        assert_eq!(
            m.housekeeping(t, false, &conns, RETRY),
            Some(JoinStep::Ctm(peer))
        );
        assert_eq!(m.housekeeping(t, false, &conns, RETRY), None, "re-armed");
        m.leaf = None;
        let t = t + RETRY;
        assert_eq!(
            m.housekeeping(t, false, &conns, RETRY),
            Some(JoinStep::Dial)
        );
        conns.upsert(peer, ConnType::Leaf, ep(1), T0);
        let t = t + RETRY;
        assert_eq!(
            m.housekeeping(t, false, &conns, RETRY),
            None,
            "a leaf is joining"
        );
        // Routable on one peer with another introducer cached: escape.
        conns.upsert(peer, ConnType::StructuredNear, ep(1), T0);
        let t = t + RETRY;
        assert_eq!(m.housekeeping(t, true, &conns, RETRY), Some(JoinStep::Dial));
        // A genuine two-node overlay caches only its peer.
        let (mut pair, _, _) = joining(&[uri(1)]);
        assert_eq!(pair.housekeeping(t, true, &conns, RETRY), None);
        conns.upsert(
            Address::from(U160::from(9u64)),
            ConnType::StructuredFar,
            ep(2),
            T0,
        );
        assert_eq!(m.housekeeping(t + RETRY, true, &conns, RETRY), None);
    }

    #[test]
    fn only_an_isolated_node_rebootstraps() {
        let (mut m, _, _) = joining(&[uri(1)]);
        let mut conns = ConnTable::new();
        assert!(m.may_rebootstrap(&conns));
        let peer = Address::from(U160::from(7u64));
        m.leaf = Some(peer);
        assert!(!m.may_rebootstrap(&conns), "a join is in flight");
        m.leaf = None;
        let remote = PhysAddr::new(PhysIp::new(10, 0, 1, 1), 1);
        conns.upsert(peer, ConnType::StructuredFar, remote, T0);
        assert!(!m.may_rebootstrap(&conns), "still connected");
    }
}
