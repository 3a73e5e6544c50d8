//! Simulated time.
//!
//! The simulator counts microseconds from the start of the run. Wrapping a
//! plain `u64` in [`SimTime`] / [`SimDuration`] keeps instants and spans from
//! being mixed up and gives us saturating arithmetic where the protocol code
//! wants it (e.g. "deadline minus now" when the deadline already passed).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in microseconds since the start of the
/// simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any the simulator will ever reach.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the start of the simulation.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the simulation, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest microsecond).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite duration");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Microseconds in this span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in this span, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Milliseconds in this span, as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Multiply by a non-negative scalar, rounding to microseconds.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k >= 0.0 && k.is_finite(), "negative or non-finite scale");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Integer doubling with saturation — used by exponential backoff.
    pub fn saturating_double(self) -> SimDuration {
        SimDuration(self.0.saturating_mul(2))
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// The one wake rule for a deadline timer whose superseded wakes stay
/// queued: every runtime that schedules a wake per deadline and never
/// cancels one (the simulator's timer wheel, the live shard's heap, the
/// vnet stack's tick) asks this whether a wake is the armed one.
///
/// [`Alarm::arm`] says when a wake must be (re-)scheduled; [`Alarm::fire`]
/// says whether the wake that just came in should run, and disarms only
/// then. The rule is `armed <= now`, never `armed == now`: a runtime may
/// deliver a wake for a deadline already past at a later instant (the
/// simulator clamps it to the time it was scheduled), and that wake is
/// still the armed one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Alarm {
    armed: Option<SimTime>,
}

impl Alarm {
    /// Given the timer's earliest deadline `next`, the deadline to schedule
    /// a wake for, if the armed wake does not already cover it: nothing is
    /// armed, `next` is earlier than the armed deadline, or the armed one
    /// is already due.
    pub fn arm(&mut self, next: SimTime, now: SimTime) -> Option<SimTime> {
        let need = self.armed.is_none_or(|armed| next < armed || armed <= now);
        if need {
            self.armed = Some(next);
        }
        need.then_some(next)
    }

    /// A wake came in at `now`: true, and disarmed, only when the armed
    /// deadline is due. A false wake is stale — a superseded deadline's, or
    /// one that arrives with nothing armed — and should do nothing.
    pub fn fire(&mut self, now: SimTime) -> bool {
        let due = self.armed.is_some_and(|armed| armed <= now);
        if due {
            self.armed = None;
        }
        due
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        let d = t.saturating_since(SimTime::from_secs(1));
        assert_eq!(d, SimDuration::from_millis(500));
        // Saturation: asking for "since a later time" yields zero.
        assert_eq!(
            SimTime::from_secs(1).saturating_since(SimTime::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn backoff_doubling_saturates() {
        let mut d = SimDuration::from_micros(u64::MAX / 2 + 1);
        d = d.saturating_double();
        assert_eq!(d.as_micros(), u64::MAX);
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_secs(2).mul_f64(1.5);
        assert_eq!(d, SimDuration::from_secs(3));
        assert_eq!(SimDuration::from_secs(2).mul_f64(0.0), SimDuration::ZERO);
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn an_alarm_fires_the_superseding_deadline_not_the_superseded_one() {
        let mut a = Alarm::default();
        assert_eq!(a.arm(at(10), at(0)), Some(at(10)));
        assert_eq!(a.arm(at(5), at(0)), Some(at(5)));
        // A later deadline is covered by the armed wake.
        assert_eq!(a.arm(at(7), at(0)), None);
        assert!(a.fire(at(5)));
        assert!(!a.fire(at(10)), "the superseded wake is stale");
    }

    #[test]
    fn an_alarm_fires_a_late_wake() {
        // A deadline already past when armed is delivered at a later
        // instant; that wake is still the armed one.
        let mut a = Alarm::default();
        assert_eq!(a.arm(at(3), at(8)), Some(at(3)));
        assert!(a.fire(at(8)));
        assert!(!a.fire(at(8)), "a fire disarms");
    }

    #[test]
    fn an_alarm_with_nothing_armed_does_not_fire() {
        let mut a = Alarm::default();
        assert!(!a.fire(at(0)));
        assert!(!a.fire(SimTime::FAR_FUTURE));
    }

    #[test]
    fn an_alarm_does_not_fire_early() {
        let mut a = Alarm::default();
        a.arm(at(10), at(0));
        assert!(!a.fire(at(9)));
        assert!(a.fire(at(10)));
    }

    #[test]
    fn an_alarm_rearms_after_a_due_fire() {
        let mut a = Alarm::default();
        a.arm(at(5), at(0));
        assert!(a.fire(at(5)));
        assert_eq!(a.arm(at(15), at(5)), Some(at(15)));
        assert!(!a.fire(at(14)));
        assert!(a.fire(at(15)));
        // An armed deadline that fell due without its wake being seen yet
        // is re-armed at the next deadline.
        a.arm(at(20), at(15));
        assert_eq!(a.arm(at(30), at(25)), Some(at(30)));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_micros(1234)), "0.001s");
    }
}
