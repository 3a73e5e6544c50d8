//! Tunable parameters of the overlay.
//!
//! Defaults follow the paper where it gives numbers, and its qualitative
//! descriptions otherwise. The footnote in §IV-D — "delays of the order of
//! 150 seconds before giving up on a bad URI" — pins the linking retry
//! schedule: with a 5 s initial timeout, doubling, and 5 tries per URI, a
//! dead URI is abandoned after 5+10+20+40+80 = 155 s.

use wow_netsim::time::SimDuration;

use crate::bootstrap::INTRODUCER_RETRIES;
use crate::uri::UriOrder;

/// Configuration for a [`crate::node::BrunetNode`].
#[derive(Clone, Debug)]
pub struct OverlayConfig {
    /// Ring neighbours to keep on each side ("structured near").
    pub near_per_side: usize,
    /// Long links to keep ("structured far") — the paper's `k`.
    pub far_count: usize,
    /// Initial linking retransmit timeout (per URI).
    pub link_rto: SimDuration,
    /// Retries per URI before moving to the next one.
    pub link_retries: u32,
    /// Base for the randomized restart backoff after a linking race.
    pub race_backoff: SimDuration,
    /// Keepalive ping interval per connection.
    pub ping_interval: SimDuration,
    /// Ping retransmit timeout.
    pub ping_rto: SimDuration,
    /// Ping retries before a connection is declared dead.
    pub ping_retries: u32,
    /// Hop budget for routed packets.
    pub ttl: u8,
    /// Ordering of our URI list when advertising it.
    pub uri_order: UriOrder,
    /// Interval of the near-overlord's neighbour stabilization.
    pub stabilize_interval: SimDuration,
    /// Interval of the far-overlord's census.
    pub far_check_interval: SimDuration,
    /// Delay before a joining node re-sends its self-addressed CTM if no
    /// near connection has formed.
    pub join_retry: SimDuration,
    /// Score threshold above which a shortcut is requested.
    pub shortcut_threshold: f64,
    /// Upper bound on simultaneous shortcut connections (the paper notes
    /// connection maintenance overhead bounds this in practice).
    pub max_shortcuts: usize,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            near_per_side: 2,
            far_count: 4,
            link_rto: SimDuration::from_secs(5),
            link_retries: 5,
            race_backoff: SimDuration::from_secs(2),
            ping_interval: SimDuration::from_secs(15),
            ping_rto: SimDuration::from_secs(2),
            ping_retries: 4,
            ttl: 64,
            uri_order: UriOrder::PublicFirst,
            stabilize_interval: SimDuration::from_secs(5),
            far_check_interval: SimDuration::from_secs(10),
            join_retry: SimDuration::from_secs(10),
            shortcut_threshold: 10.0,
            max_shortcuts: 16,
        }
    }
}

impl OverlayConfig {
    /// Time after which the linking protocol abandons one dead URI:
    /// `Σ link_rto · 2^i for i in 0..link_retries`.
    pub fn uri_abandon_time(&self) -> SimDuration {
        self.abandon_time(self.link_retries)
    }

    /// Time a multi-introducer joiner spends on one introducer before
    /// falling through the cache: `Σ link_rto · 2^i for i in
    /// 0..INTRODUCER_RETRIES` (15 s with defaults, vs the 155 s a single
    /// introducer gets — fallback is the point of carrying several).
    pub fn introducer_abandon_time(&self) -> SimDuration {
        self.abandon_time(INTRODUCER_RETRIES)
    }

    /// `Σ link_rto · 2^i for i in 0..retries`: how long linking spends on
    /// one URI before it gives up on it.
    fn abandon_time(&self, retries: u32) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let mut rto = self.link_rto;
        for _ in 0..retries {
            total += rto;
            rto = rto.saturating_double();
        }
        total
    }

    /// A configuration with shortcut creation disabled — the paper's
    /// baseline ("shortcuts disabled") in Table II, Fig. 8 and Table III.
    pub fn without_shortcuts(mut self) -> Self {
        self.shortcut_threshold = f64::INFINITY;
        self.max_shortcuts = 0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_abandon_time_matches_paper_footnote() {
        // 5+10+20+40+80 = 155 s — "of the order of 150 seconds".
        let c = OverlayConfig::default();
        assert_eq!(c.uri_abandon_time(), SimDuration::from_secs(155));
    }

    #[test]
    fn introducer_abandon_is_much_shorter_than_legacy() {
        // 5+10 = 15 s per introducer, an order of magnitude under the
        // 155 s single-funnel schedule.
        let c = OverlayConfig::default();
        assert_eq!(c.introducer_abandon_time(), SimDuration::from_secs(15));
        assert!(
            c.introducer_abandon_time().as_micros() * 10 <= c.uri_abandon_time().as_micros() + 1
        );
    }

    #[test]
    fn without_shortcuts_blocks_triggering() {
        let c = OverlayConfig::default().without_shortcuts();
        assert_eq!(c.max_shortcuts, 0);
        assert!(c.shortcut_threshold.is_infinite());
    }
}
