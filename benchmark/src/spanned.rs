//! Seam spans: timing an actor from outside.
//!
//! [`Spanned`] wraps any simulator [`Actor`] and, when its `ON` parameter
//! is true and the shared [`Tap`] is armed, records a span around every
//! callback the simulator makes into it. Everything the wrapper does not
//! cover inside the measured window — the wheel, the link and NAT path,
//! dispatch — is the simulator's self time: `window − Σ actor spans`.
//!
//! With `ON = false` the wrapper compiles to a plain forward, so untraced
//! runs execute the same world-building code without paying for a branch.
//! The wrapper never touches the [`Ctx`] it passes through (no RNG draw, no
//! send, no timer), so a traced run is the same simulation: the smoke
//! tests compare digests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use wow_netsim::addr::PhysAddr;
use wow_netsim::prelude::*;

/// What a span surrounds. The wake split follows `wow::simrt`'s documented
/// tag namespaces: 0 is the node's protocol tick, 1 is a datagram leaving
/// the host's CPU queue and entering the node, anything else is an
/// application timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    Start,
    Arrive,
    Tick,
    Process,
    AppWake,
    SendApp,
}

impl SpanKind {
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Start,
        SpanKind::Arrive,
        SpanKind::Tick,
        SpanKind::Process,
        SpanKind::AppWake,
        SpanKind::SendApp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Start => "actor.on_start",
            SpanKind::Arrive => "actor.on_datagram",
            SpanKind::Tick => "actor.on_wake.tick",
            SpanKind::Process => "actor.on_wake.process",
            SpanKind::AppWake => "actor.on_wake.app",
            SpanKind::SendApp => "actor.send_app",
        }
    }
}

/// Per-kind call counts and nanoseconds. Every span is counted; one in
/// [`TIME_EVERY`] is timed (two clock reads cost ~70 ns against events of
/// a few hundred), and a kind's time is its timed mean times its count.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub count: [u64; 6],
    pub timed: [u64; 6],
    pub timed_ns: [u64; 6],
}

/// Each actor times one of its spans in this many. Odd, so that an actor's
/// two-beat rhythm of arrive-then-process cannot lock its timed spans onto
/// one kind.
pub const TIME_EVERY: u32 = 5;

impl SpanTotals {
    pub fn absorb(&mut self, other: &SpanTotals) {
        for i in 0..6 {
            self.count[i] += other.count[i];
            self.timed[i] += other.timed[i];
            self.timed_ns[i] += other.timed_ns[i];
        }
    }

    /// Estimated nanoseconds spent in spans of `kind`.
    pub fn ns(&self, kind: SpanKind) -> f64 {
        let i = kind as usize;
        if self.timed[i] == 0 {
            0.0
        } else {
            self.timed_ns[i] as f64 * self.count[i] as f64 / self.timed[i] as f64
        }
    }

    pub fn total_ns(&self) -> f64 {
        SpanKind::ALL.iter().map(|k| self.ns(*k)).sum()
    }

    pub fn total_count(&self) -> u64 {
        self.count.iter().sum()
    }
}

/// One recorded span. `parent` 0 is the measured window's root span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub kind: SpanKind,
    pub actor: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated time of the event that caused the span, µs.
    pub sim_us: u64,
}

/// A datagram as an actor received it.
#[derive(Clone, Debug)]
pub struct Sampled {
    pub src: PhysAddr,
    pub payload: Bytes,
}

#[derive(Default)]
struct TapBuf {
    spans: Vec<SpanRec>,
    datagrams: Vec<Sampled>,
}

/// Shared by every wrapper of one world. Totals live in the wrappers; the
/// tap is touched only for timed spans, and locked only for the one timed
/// span in `keep_every` that is kept whole.
pub struct Tap {
    epoch: Instant,
    armed: AtomicBool,
    /// Timed spans so far; a kept span's id.
    timed: AtomicU64,
    keep_every: u64,
    buf: Mutex<TapBuf>,
}

impl Tap {
    /// Keep whole one timed span (and its datagram, if it has one) in
    /// `keep_every`.
    pub fn new(keep_every: u64) -> Arc<Tap> {
        Arc::new(Tap {
            epoch: Instant::now(),
            armed: AtomicBool::new(false),
            timed: AtomicU64::new(0),
            keep_every: keep_every.max(1),
            buf: Mutex::new(TapBuf::default()),
        })
    }

    /// Start or stop recording (armed for the measured window only).
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the tap was made: the clock every span uses.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Take the kept spans and datagrams.
    pub fn drain(&self) -> (Vec<SpanRec>, Vec<Sampled>) {
        let mut buf = self
            .buf
            .lock()
            .expect("tap lock is never held across a panic");
        (
            std::mem::take(&mut buf.spans),
            std::mem::take(&mut buf.datagrams),
        )
    }
}

/// An actor with a span around each callback.
pub struct Spanned<A: Actor, const ON: bool> {
    inner: A,
    index: u32,
    /// Spans of this actor since the tap was armed.
    seen: u32,
    tap: Option<Arc<Tap>>,
    totals: SpanTotals,
}

impl<A: Actor, const ON: bool> Spanned<A, ON> {
    /// Wrap `inner`. `tap` is ignored when `ON` is false.
    pub fn new(inner: A, index: u32, tap: Option<Arc<Tap>>) -> Self {
        Spanned {
            inner,
            index,
            seen: 0,
            tap: if ON { tap } else { None },
            totals: SpanTotals::default(),
        }
    }

    pub fn inner(&self) -> &A {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    pub fn totals(&self) -> SpanTotals {
        self.totals
    }

    /// Run `f` on the wrapped actor inside a span of `kind` — for work the
    /// benchmark itself injects through `Sim::with_actor`, which the
    /// simulator does not route through the actor callbacks.
    #[inline]
    pub fn span<R>(
        &mut self,
        kind: SpanKind,
        sim_now: SimTime,
        sample: Option<Sampled>,
        f: impl FnOnce(&mut A) -> R,
    ) -> R {
        if !ON {
            return f(&mut self.inner);
        }
        let Some(tap) = self
            .tap
            .as_ref()
            .filter(|t| t.armed.load(Ordering::Relaxed))
        else {
            return f(&mut self.inner);
        };
        self.seen = self.seen.wrapping_add(1);
        self.totals.count[kind as usize] += 1;
        if self.seen % TIME_EVERY != 0 {
            return f(&mut self.inner);
        }
        let id = tap.timed.fetch_add(1, Ordering::Relaxed);
        let keep = id % tap.keep_every == 0;
        let start_ns = tap.now_ns();
        let out = f(&mut self.inner);
        let end_ns = tap.now_ns();
        self.totals.timed[kind as usize] += 1;
        self.totals.timed_ns[kind as usize] += end_ns - start_ns;
        if keep {
            let mut buf = tap
                .buf
                .lock()
                .expect("tap lock is never held across a panic");
            buf.spans.push(SpanRec {
                id,
                parent: 0,
                kind,
                actor: self.index,
                start_ns,
                end_ns,
                sim_us: sim_now.as_micros(),
            });
            buf.datagrams.extend(sample);
        }
        out
    }
}

impl<A: Actor, const ON: bool> Actor for Spanned<A, ON> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.span(SpanKind::Start, ctx.now, None, |a| a.on_start(ctx));
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if !ON {
            return self.inner.on_datagram(ctx, dgram);
        }
        // A deep copy: a second handle on the buffer would make it shared
        // and push the node off its in-place transit path.
        let sample = self.wants_sample().then(|| Sampled {
            src: dgram.src,
            payload: Bytes::copy_from_slice(&dgram.payload),
        });
        let now = ctx.now;
        self.span(SpanKind::Arrive, now, sample, |a| a.on_datagram(ctx, dgram));
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let kind = match tag {
            0 => SpanKind::Tick,
            1 => SpanKind::Process,
            _ => SpanKind::AppWake,
        };
        self.span(kind, ctx.now, None, |a| a.on_wake(ctx, tag));
    }
}

impl<A: Actor, const ON: bool> Spanned<A, ON> {
    /// Whether this actor's next span will be kept whole (so its datagram
    /// is worth copying). Racy against other wrappers only under a parallel
    /// engine; the benchmark pins one worker.
    fn wants_sample(&self) -> bool {
        self.seen.wrapping_add(1) % TIME_EVERY == 0
            && self.tap.as_ref().is_some_and(|t| {
                t.armed.load(Ordering::Relaxed)
                    && t.timed.load(Ordering::Relaxed) % t.keep_every == 0
            })
    }
}
