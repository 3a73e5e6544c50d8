//! Windowed parallel event execution.
//!
//! The sequential core processes events strictly in `(at, seq)` order. This
//! module runs the *same* schedule on a worker pool without changing a single
//! observable byte: transcripts, stats, every RNG stream, NAT state, FIFO
//! clamps and the fault transcript are identical for any worker count. That
//! identity is what the differential suite pins, and it is what makes the
//! parallel path trustworthy enough to leave on for big runs.
//!
//! ## How
//!
//! Classic conservative lookahead. Every delay the simulator charges is a
//! path base latency plus strictly non-negative terms (jitter, serialization,
//! link/CPU queueing, the FIFO clamp, chaos extra), so nothing sent at time
//! `t` can arrive anywhere before `t + L`, where `L` is
//! [`crate::link::LinkModel::min_base_latency`]. Events in the half-open
//! window `[W, W + L)` therefore cannot affect each other *across hosts*
//! through the network; the only in-window interactions are host-local
//! (same-host wake chains, downlink → deliver chains). Hosts are striped
//! across shards ([`crate::topology::ShardMap`]), each shard's events execute
//! on one worker ("lane"), and everything global is recorded as an *effect*
//! to replay at the window barrier.
//!
//! ## Execute / commit
//!
//! **Phase A (parallel):** each lane executes its batch items in `(at, seq)`
//! order, interleaved with in-window same-host children (wake-ups and
//! downlink deliveries it spawned) via a sorted cursor + child heap. Lanes
//! and the sequential loop run the *same* host-local rules — actor dispatch,
//! port binding, downlink queueing, the delivery check, CPU queueing — on
//! the same per-host handle ([`HostMut`] / [`HostRef`]); a lane only builds
//! that handle differently, from the columns its shard owns for the window
//! ([`LaneCtx::host_mut`]). What does differ is recorded: sends and
//! out-of-window schedules append to an effect log, and one [`LaneRecord`]
//! is emitted per executed item.
//!
//! `unsafe` is confined to reaching those columns: the two handle
//! constructors, the actor slot in [`LaneCtx::dispatch`], and the `Send`
//! impl that moves a lane to a pool worker.
//!
//! **Phase B (sequential):** a k-way merge of the lane record streams plus
//! the coordinator stream (NAT ingress events, which touch shared NAT state)
//! replays effects in global `(at, seq)` order through the *unchanged*
//! sequential functions (`World::send_from`, `World::nat_ingress`,
//! `World::push`). Since those functions are where every RNG draw, sequence
//! allocation, NAT mutation and FIFO clamp lives, replaying them in the
//! sequential order yields byte-identical state.
//!
//! ## Why the order is exact
//!
//! * Batch events hold sequence numbers allocated before the window opened;
//!   children allocate theirs during commit. The counter only grows, so at
//!   equal `at` a batch item always precedes any child — the lane's
//!   batch-first tie-break.
//! * Within a lane, children execute in generation order at equal `at`.
//!   Generations are assigned in (parent execution position, push position)
//!   order, and commit allocates child seqs in exactly that order, so
//!   generation order *is* resolved seq order.
//! * A child's record sits after its parent's in the same lane stream, so by
//!   the time a child record surfaces as a merge head its seq has been
//!   resolved by the parent's `ChildSeq` effect. Merge heads are always
//!   comparable.
//! * `Control` events run arbitrary harness code against `&mut Sim`; a
//!   control pops stop the batch and lower the window end to its timestamp,
//!   so it executes alone at the barrier, exactly where the sequential core
//!   would have run it.
//!
//! A runtime tripwire backs the whole argument: during commit,
//! `World::push_floor` is set to the window end and `World::push` asserts
//! nothing lands below it. If any future code path could schedule into a
//! window being committed, the simulator aborts instead of silently
//! diverging.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;

use crate::addr::PhysAddr;
use crate::sim::{
    Actor, ActorId, ActorSlot, ControlFn, Ctx, CtxInner, Datagram, Ev, NetStats, Sim,
};
use crate::storage::PortSlot;
use crate::time::SimTime;
use crate::topology::{DomainId, HostId, HostInfo, HostMut, HostRef, ShardMap};

/// Below this many batch events the window executes inline on the caller —
/// the pool's wake/park round trip costs more than the work. Inline and
/// pooled execution go through identical lane machinery, so the results are
/// byte-identical either way; this is purely a latency knob.
const INLINE_BATCH: usize = 64;

/// Raw pointers to the world columns a lane may touch during Phase A.
///
/// Captured once per window from `&mut World` + the actor table, then copied
/// into every lane. `info` is read-only for the window and shared by all
/// lanes; the other pointers index by host id (or actor id for `actors`),
/// and a lane only dereferences indices whose host maps to its shard, so
/// concurrent lanes write disjoint elements.
#[derive(Clone, Copy)]
pub(crate) struct WorldCols {
    info: *const HostInfo,
    downlink_free_at: *mut SimTime,
    cpu_free_at: *mut SimTime,
    next_ephemeral: *mut u16,
    ports: *mut PortSlot,
    actors: *mut ActorSlot,
    n_hosts: u32,
    n_actors: u32,
}

impl WorldCols {
    /// Capture column pointers for one window. Takes the world and actor
    /// table mutably so the borrow checker guarantees no other access exists
    /// at capture time; until every lane has finished the window the caller
    /// only pops the queue and reads actor hosts, and never grows either
    /// table.
    fn capture(world: &mut crate::sim::World, actors: &mut Vec<ActorSlot>) -> Self {
        let n_hosts = world.hosts.len();
        world.ports.ensure_hosts(n_hosts);
        let hosts = &mut world.hosts;
        WorldCols {
            info: &hosts.info,
            downlink_free_at: hosts.downlink_free_at.as_mut_ptr(),
            cpu_free_at: hosts.cpu_free_at.as_mut_ptr(),
            next_ephemeral: hosts.next_ephemeral.as_mut_ptr(),
            ports: world.ports.raw_slots(),
            actors: actors.as_mut_ptr(),
            n_hosts: n_hosts as u32,
            n_actors: actors.len() as u32,
        }
    }

    /// Host `i`'s read-only columns. The caller has checked (`LaneCtx::idx`)
    /// that `i` is in range and belongs to its lane's shard.
    fn host(&self, i: usize) -> HostRef<'_> {
        // SAFETY: `info` was captured from `&mut World` for the current
        // window. Nobody writes those columns while lanes run (power, load
        // and link rates change only in controls, at barriers), so a shared
        // reference is sound even while other lanes read their own hosts;
        // the columns lanes write live outside `HostInfo`.
        unsafe { (*self.info).host(HostId(i as u32)) }
    }
}

/// One event handed to a lane for in-window execution.
pub(crate) struct LaneItem {
    at: u64,
    seq: u64,
    body: LaneBody,
}

/// The shard-executable event bodies. `Control` and `NatIngress` never reach
/// a lane: the former splits the window, the latter belongs to the
/// coordinator stream (it mutates shared NAT state).
pub(crate) enum LaneBody {
    Start(ActorId),
    Wake { actor: ActorId, tag: u64 },
    HostArrive { host: HostId, dgram: Datagram },
    ActorDeliver { host: HostId, dgram: Datagram },
}

/// An in-window child spawned by a lane: a same-host wake or a downlink
/// delivery (`ActorDeliver`) whose ready time still falls inside the window.
struct ChildItem {
    at: u64,
    /// Lane-local allocation order; equals resolved global seq order within
    /// the lane (see module docs), so `(at, gen)` is the execution key.
    gen: u32,
    body: LaneBody,
}

impl PartialEq for ChildItem {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.gen == other.gen
    }
}
impl Eq for ChildItem {}
impl PartialOrd for ChildItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ChildItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.gen).cmp(&(other.at, other.gen))
    }
}

/// How a record's global sequence number is known.
#[derive(Clone, Copy)]
enum SeqKey {
    /// A batch event: popped from the wheel with its seq.
    Resolved(u64),
    /// A child: seq is allocated when the parent's `ChildSeq` effect
    /// replays, and looked up by lane-local generation.
    Child(u32),
}

/// A globally-visible action recorded during Phase A, replayed at commit in
/// exact `(at, seq)` order. Variants mirror the calls the sequential core
/// would have made at the same point.
enum Effect {
    /// `Ctx::send` → `World::send_from` at replay.
    Send {
        src_port: u16,
        dst: PhysAddr,
        payload: Bytes,
    },
    /// Out-of-window wake → real `World::push`.
    WakeOut { at: u64, actor: ActorId, tag: u64 },
    /// Out-of-window downlink delivery → real `World::push`.
    DeliverOut {
        at: u64,
        host: HostId,
        dgram: Datagram,
    },
    /// An in-window child was spawned here: burn one sequence number so the
    /// counter (and every later seq) matches the sequential run, and resolve
    /// the child's merge key.
    ChildSeq { gen: u32 },
}

/// One executed item: its time, the host it ran on (the `from_host` for any
/// `Send` effects), its merge key, and its slice of the lane's effect log.
struct LaneRecord {
    at: u64,
    host: HostId,
    key: SeqKey,
    eff_start: u32,
    eff_end: u32,
}

/// Per-shard execution context. Holds raw world-column pointers (refreshed
/// every window) plus owned scratch; deliberately lifetime-free so a
/// `&mut LaneCtx` can sit inside [`CtxInner`] without variance contortions.
pub(crate) struct LaneCtx {
    cols: WorldCols,
    shard: u32,
    shards: u32,
    /// Exclusive µs end of the current window: children at or past it become
    /// real pushes.
    window_end: u64,
    /// Batch input, reversed so `pop()` yields ascending `(at, seq)`.
    input: Vec<LaneItem>,
    children: BinaryHeap<Reverse<ChildItem>>,
    next_gen: u32,
    records: Vec<LaneRecord>,
    effects: Vec<Effect>,
    /// Host of the item currently executing (records' `host` field).
    cur_host: HostId,
    /// Stats delta for this window; every counter is a sum, so absorbing
    /// per-lane deltas at the barrier equals sequential accumulation.
    stats: NetStats,
    /// Items executed this window (batch + children).
    events: u64,
}

// SAFETY: a LaneCtx is moved to a pool worker for the duration of one
// window's Phase A. The raw pointers target World/actor columns and are
// dereferenced in exactly two places — the host handle (`WorldCols::host`,
// `LaneCtx::host_mut`) and the actor slot in `LaneCtx::dispatch` — each
// on an id in range and in the lane's shard (debug-asserted). Lanes of
// one window have disjoint shards, and the coordinator does not touch the
// world while lanes run. Between windows the pointers are stale and unused.
// Every other field is owned data that is itself `Send`.
unsafe impl Send for LaneCtx {}

impl LaneCtx {
    fn new(shard: u32, shards: u32, cols: WorldCols) -> Self {
        LaneCtx {
            cols,
            shard,
            shards,
            window_end: 0,
            input: Vec::new(),
            children: BinaryHeap::new(),
            next_gen: 0,
            records: Vec::new(),
            effects: Vec::new(),
            cur_host: HostId(0),
            stats: NetStats::default(),
            events: 0,
        }
    }

    /// Range and shard-ownership check plus index conversion: every column
    /// access funnels through here. Both hold by construction — a lane sees
    /// only its shard's items, whose hosts the world created or
    /// `Sim::add_actor_at` / `move_actor` checked — and are debug-asserted.
    #[inline]
    fn idx(&self, host: HostId) -> usize {
        debug_assert!(host.0 < self.cols.n_hosts, "host out of range");
        debug_assert_eq!(
            host.0 % self.shards,
            self.shard,
            "lane touched a host outside its shard"
        );
        host.0 as usize
    }

    fn attach(&mut self, cols: WorldCols, window_end: u64) {
        self.cols = cols;
        self.window_end = window_end;
        debug_assert!(self.children.is_empty());
        debug_assert!(self.records.is_empty());
        debug_assert!(self.effects.is_empty());
        debug_assert_eq!(self.next_gen, 0);
        // Input was appended in global pop order (ascending (at, seq));
        // reverse so execution pops from the back.
        self.input.reverse();
    }

    /// Execute every batch item and in-window child in `(at, seq)` order.
    fn run(&mut self) {
        loop {
            let next_is_batch = match (self.input.last(), self.children.peek()) {
                // Batch seqs predate all child seqs, so batch wins ties.
                (Some(b), Some(Reverse(c))) => b.at <= c.at,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (at, body) = if next_is_batch {
                let item = self.input.pop().expect("checked non-empty");
                self.begin_record(item.at, SeqKey::Resolved(item.seq));
                (item.at, item.body)
            } else {
                let Reverse(child) = self.children.pop().expect("checked non-empty");
                self.begin_record(child.at, SeqKey::Child(child.gen));
                (child.at, child.body)
            };
            match body {
                LaneBody::Start(id) => self.dispatch(at, id, |a, ctx| a.on_start(ctx)),
                LaneBody::Wake { actor, tag } => {
                    self.dispatch(at, actor, |a, ctx| a.on_wake(ctx, tag))
                }
                LaneBody::HostArrive { host, dgram } => self.host_arrive(at, host, dgram),
                LaneBody::ActorDeliver { host, dgram } => {
                    if let Some(actor) = self.host_mut(host).deliver_to(dgram.dst.port) {
                        self.dispatch(at, actor, |a, ctx| a.on_datagram(ctx, dgram));
                    }
                }
            }
            self.events += 1;
        }
    }

    fn begin_record(&mut self, at: u64, key: SeqKey) {
        self.cur_host = HostId(0);
        self.records.push(LaneRecord {
            at,
            host: HostId(0),
            key,
            eff_start: self.effects.len() as u32,
            eff_end: self.effects.len() as u32,
        });
        // eff_end and host are finalized lazily: every effect push updates
        // the open record.
    }

    #[inline]
    fn push_effect(&mut self, e: Effect) {
        self.effects.push(e);
        let host = self.cur_host;
        let rec = self.records.last_mut().expect("effect outside a record");
        rec.eff_end = self.effects.len() as u32;
        rec.host = host;
    }

    fn spawn_child(&mut self, at: u64, body: LaneBody) {
        debug_assert!(at < self.window_end);
        let gen = self.next_gen;
        self.next_gen += 1;
        self.children.push(Reverse(ChildItem { at, gen, body }));
        self.push_effect(Effect::ChildSeq { gen });
    }

    /// Run one actor callback in this lane: the shared dispatch rule
    /// ([`ActorSlot::dispatch`]) with a lane-backed context.
    fn dispatch(&mut self, at: u64, id: ActorId, call: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>)) {
        debug_assert!(id.0 < self.cols.n_actors, "actor out of range");
        // SAFETY: `id` names an existing actor (events carry ids the actor
        // table issued; the pop loop indexed it safely), and actor slots
        // partition by host shard (an actor's host only changes at
        // barriers, and its events go to its host's lane), so this lane is
        // the slot's sole accessor for the window.
        let slot = unsafe { &mut *self.cols.actors.add(id.0 as usize) };
        let _ = self.idx(slot.host);
        self.cur_host = slot.host;
        slot.dispatch(id, SimTime::from_micros(at), CtxInner::Lane(self), call);
    }

    /// Arrival at one of this lane's hosts: the shared edge rule, with the
    /// ready delivery chained in-window or deferred to the barrier.
    fn host_arrive(&mut self, at: u64, host: HostId, dgram: Datagram) {
        self.cur_host = host;
        let now = SimTime::from_micros(at);
        let Some(ready) = self.host_mut(host).arrive(now, dgram.payload.len()) else {
            return;
        };
        let ready_us = ready.as_micros();
        if ready_us < self.window_end {
            self.spawn_child(ready_us, LaneBody::ActorDeliver { host, dgram });
        } else {
            self.push_effect(Effect::DeliverOut {
                at: ready_us,
                host,
                dgram,
            });
        }
    }

    // ---- Ctx backend surface (called from sim.rs's CtxInner::Lane arms) ----

    /// One of this shard's hosts, read-only.
    pub(crate) fn host(&self, host: HostId) -> HostRef<'_> {
        self.cols.host(self.idx(host))
    }

    /// One of this shard's hosts for a host-local rule: the lane's
    /// constructor of the handle `World::host_mut` gives the sequential
    /// core, counting into this lane's stats delta.
    pub(crate) fn host_mut(&mut self, host: HostId) -> HostMut<'_> {
        let i = self.idx(host);
        let LaneCtx { cols, stats, .. } = self;
        // SAFETY: host `i` is in range and in this lane's shard (see `idx`,
        // which debug-asserts both); hosts partition across the window's
        // lanes and the coordinator leaves the world alone while lanes run,
        // so element `i` of each mutable column and port slot `i` have no
        // other accessor, and `&mut self` makes this the lane's only live
        // handle.
        unsafe {
            HostMut {
                host: cols.host(i),
                downlink_free_at: &mut *cols.downlink_free_at.add(i),
                cpu_free_at: &mut *cols.cpu_free_at.add(i),
                next_ephemeral: &mut *cols.next_ephemeral.add(i),
                ports: &mut *cols.ports.add(i),
                stats,
            }
        }
    }

    pub(crate) fn record_send(&mut self, src_port: u16, dst: PhysAddr, payload: Bytes) {
        self.push_effect(Effect::Send {
            src_port,
            dst,
            payload,
        });
    }

    pub(crate) fn record_wake(&mut self, at: SimTime, actor: ActorId, tag: u64) {
        let at = at.as_micros();
        if at < self.window_end {
            self.spawn_child(at, LaneBody::Wake { actor, tag });
        } else {
            self.push_effect(Effect::WakeOut { at, actor, tag });
        }
    }
}

/// One lane's committed output, consumed by the Phase B merge.
struct LaneStream {
    records: Vec<LaneRecord>,
    effects: std::vec::IntoIter<Effect>,
    /// Resolved seqs indexed by child generation; `u64::MAX` = unresolved.
    child_seqs: Vec<u64>,
    idx: usize,
}

impl LaneStream {
    /// The merge key of the head record, if any. A child head is guaranteed
    /// resolved: its parent precedes it in this same stream.
    fn head(&self) -> Option<(u64, u64)> {
        let rec = self.records.get(self.idx)?;
        let seq = match rec.key {
            SeqKey::Resolved(s) => s,
            SeqKey::Child(g) => self.child_seqs[g as usize],
        };
        debug_assert_ne!(
            seq,
            u64::MAX,
            "child record surfaced before its parent committed"
        );
        Some((rec.at, seq))
    }
}

/// Half the host count at which the simulator runs a second worker.
/// Measured with `scale_par` on 2 cores: a 5 000-host world runs faster on
/// 2 workers, a 2 000-host world breaks even and the ~53-host testbed runs
/// slower (EXPERIMENTS.md "The simulator picks its own worker count").
const HOSTS_PER_WORKER: usize = 2_500;

/// The simulator's worker count for a world of `hosts` hosts on `cores`
/// cores whose shortest path takes `lookahead_us`: two once the world
/// reaches `2 * HOSTS_PER_WORKER` hosts on at least two cores, else one.
/// No count above two was measured, so the rule never picks one; a
/// zero-latency path leaves no window to run in parallel.
fn chosen_workers(cores: usize, hosts: usize, lookahead_us: u64) -> usize {
    if cores >= 2 && hosts >= 2 * HOSTS_PER_WORKER && lookahead_us > 0 {
        2
    } else {
        1
    }
}

/// The parallel engine: the worker count, the (lazily built) pool, and
/// reusable lane contexts. Owned by [`Sim`]; inert while one worker runs.
pub(crate) struct ParEngine {
    /// The count set by `Sim::set_workers`; `0` leaves it to
    /// [`chosen_workers`].
    pub(crate) pinned: usize,
    /// `available_parallelism`, read the first time the rule needs it.
    cores: std::cell::OnceCell<usize>,
    /// The count the pool and lanes are built for.
    workers: usize,
    pool: Option<rayon::ThreadPool>,
    lanes: Vec<LaneCtx>,
    /// Pool-dispatch threshold; see [`INLINE_BATCH`]. The differential suite
    /// lowers it to 0 so even tiny windows cross the thread pool.
    pub(crate) inline_batch: usize,
}

impl ParEngine {
    pub(crate) fn new() -> Self {
        ParEngine {
            pinned: 0,
            cores: std::cell::OnceCell::new(),
            workers: 1,
            pool: None,
            lanes: Vec::new(),
            inline_batch: INLINE_BATCH,
        }
    }

    /// The worker count for a world of `hosts` hosts with the given
    /// lookahead: the pin, else the simulator's choice.
    pub(crate) fn workers_for(&self, hosts: usize, lookahead_us: u64) -> usize {
        match self.pinned {
            0 => {
                let cores = *self
                    .cores
                    .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
                chosen_workers(cores, hosts, lookahead_us)
            }
            k => k,
        }
    }

    /// Run the next windows on `workers` workers, dropping the pool and
    /// lanes built for another count.
    pub(crate) fn resize(&mut self, workers: usize) {
        if workers != self.workers {
            self.workers = workers;
            self.pool = None;
            self.lanes.clear();
        }
    }
}

impl Sim {
    /// Execute one window `[first_at, first_at + lookahead)` (clipped to the
    /// run bound and to the first control event).
    pub(crate) fn run_window(&mut self, first_at: u64, lookahead: u64, until_us: u64) {
        // Events at exactly `until_us` must run, so the cap is exclusive at
        // until + 1 (saturating: quiescence passes u64::MAX).
        let until_cap = until_us.saturating_add(1);
        let mut window_end = first_at.saturating_add(lookahead).min(until_cap);
        let workers = self.par.workers;
        let shard = ShardMap::new(workers);
        let mut control: Option<(u64, ControlFn)> = None;
        // NAT ingress mutates shared NAT devices: coordinator stream,
        // executed at commit in merge order. Stored reversed for pop().
        let mut nat: Vec<(u64, u64, DomainId, Datagram)> = Vec::new();

        let Sim {
            world,
            actors,
            events_processed,
            par,
        } = self;
        let cols = WorldCols::capture(world, actors);
        if par.lanes.len() != workers {
            par.lanes = (0..workers)
                .map(|s| LaneCtx::new(s as u32, workers as u32, cols))
                .collect();
        }

        // ---- Pop the batch -------------------------------------------------
        let mut batch_items = 0usize;
        while let Some((at, _)) = world.queue.peek_at() {
            if at >= window_end {
                break;
            }
            let (at, seq, ev) = world.queue.pop().expect("peeked non-empty");
            let (host, body) = match ev {
                Ev::Control(f) => {
                    // The control runs arbitrary code against &mut Sim; end
                    // the window at its timestamp so it executes alone at
                    // the barrier. Same-at batch events already popped carry
                    // smaller seqs and correctly precede it.
                    window_end = at;
                    control = Some((at, f));
                    break;
                }
                Ev::NatIngress { domain, dgram } => {
                    nat.push((at, seq, domain, dgram));
                    continue;
                }
                Ev::Start(id) => (actors[id.0 as usize].host, LaneBody::Start(id)),
                Ev::Wake { actor, tag } => {
                    (actors[actor.0 as usize].host, LaneBody::Wake { actor, tag })
                }
                Ev::HostArrive { host, dgram } => (host, LaneBody::HostArrive { host, dgram }),
                Ev::ActorDeliver { host, dgram } => (host, LaneBody::ActorDeliver { host, dgram }),
            };
            par.lanes[shard.shard_of(host)]
                .input
                .push(LaneItem { at, seq, body });
            batch_items += 1;
        }

        // ---- Phase A: lanes execute ---------------------------------------
        if batch_items > 0 {
            let active = par.lanes.iter().filter(|l| !l.input.is_empty()).count();
            for lane in par.lanes.iter_mut() {
                lane.attach(cols, window_end);
            }
            if active <= 1 || batch_items < par.inline_batch {
                for lane in par.lanes.iter_mut() {
                    lane.run();
                }
            } else {
                let pool = par
                    .pool
                    .get_or_insert_with(|| rayon::ThreadPool::new(workers));
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = par
                    .lanes
                    .iter_mut()
                    .filter(|l| !l.input.is_empty())
                    .map(|lane| Box::new(move || lane.run()) as Box<dyn FnOnce() + Send + '_>)
                    .collect();
                pool.run_batch(jobs);
            }
        }

        // ---- Phase B: commit in global (at, seq) order --------------------
        let mut streams: Vec<LaneStream> = par
            .lanes
            .iter_mut()
            .map(|lane| {
                let stream = LaneStream {
                    records: std::mem::take(&mut lane.records),
                    effects: std::mem::take(&mut lane.effects).into_iter(),
                    child_seqs: vec![u64::MAX; lane.next_gen as usize],
                    idx: 0,
                };
                lane.next_gen = 0;
                stream
            })
            .collect();
        nat.reverse();
        world.push_floor = window_end;
        loop {
            let mut best: Option<(u64, u64, usize)> = None;
            for (li, st) in streams.iter().enumerate() {
                if let Some((at, seq)) = st.head() {
                    if best.is_none_or(|(ba, bs, _)| (at, seq) < (ba, bs)) {
                        best = Some((at, seq, li));
                    }
                }
            }
            let nat_wins = match (nat.last(), best) {
                (Some(&(at, seq, ..)), Some((ba, bs, _))) => (at, seq) < (ba, bs),
                (Some(_), None) => true,
                (None, _) => false,
            };
            if nat_wins {
                let (at, _seq, domain, dgram) = nat.pop().expect("checked non-empty");
                world.now = SimTime::from_micros(at);
                world.nat_ingress(domain, dgram);
                *events_processed += 1;
            } else if let Some((at, _seq, li)) = best {
                let st = &mut streams[li];
                let rec = &st.records[st.idx];
                let (host, n) = (rec.host, (rec.eff_end - rec.eff_start) as usize);
                st.idx += 1;
                world.now = SimTime::from_micros(at);
                let now = world.now;
                for _ in 0..n {
                    match st.effects.next().expect("effect log shorter than records") {
                        Effect::Send {
                            src_port,
                            dst,
                            payload,
                        } => world.send_from(now, host, src_port, dst, payload),
                        Effect::WakeOut { at, actor, tag } => {
                            world.push(SimTime::from_micros(at), Ev::Wake { actor, tag })
                        }
                        Effect::DeliverOut { at, host, dgram } => {
                            world.push(SimTime::from_micros(at), Ev::ActorDeliver { host, dgram })
                        }
                        Effect::ChildSeq { gen } => {
                            st.child_seqs[gen as usize] = world.alloc_seq();
                        }
                    }
                }
            } else {
                break;
            }
        }
        world.push_floor = 0;

        // Barrier bookkeeping: fold lane deltas, recycle record buffers.
        for (lane, stream) in par.lanes.iter_mut().zip(streams) {
            world.stats.absorb(&lane.stats);
            lane.stats = NetStats::default();
            *events_processed += lane.events;
            lane.events = 0;
            let mut records = stream.records;
            records.clear();
            lane.records = records;
        }

        // ---- The window-splitting control, alone at the barrier -----------
        if let Some((at, f)) = control {
            self.world.now = SimTime::from_micros(at);
            self.events_processed += 1;
            f(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_rule_adds_a_second_worker_above_the_threshold() {
        let h = HOSTS_PER_WORKER;
        assert_eq!(chosen_workers(2, 53, 1_000), 1, "testbed-size world");
        assert_eq!(chosen_workers(2, h, 1_000), 1);
        assert_eq!(chosen_workers(2, 2 * h - 1, 1_000), 1);
        assert_eq!(chosen_workers(2, 2 * h, 1_000), 2);
    }

    #[test]
    fn worker_rule_stops_at_the_measured_count() {
        assert_eq!(chosen_workers(1, 40 * HOSTS_PER_WORKER, 1_000), 1);
        assert_eq!(chosen_workers(0, 40 * HOSTS_PER_WORKER, 1_000), 1);
        assert_eq!(chosen_workers(2, 40 * HOSTS_PER_WORKER, 1_000), 2);
        assert_eq!(chosen_workers(8, 40 * HOSTS_PER_WORKER, 1_000), 2);
    }

    #[test]
    fn worker_rule_steps_a_zero_lookahead_world() {
        assert_eq!(chosen_workers(8, 40 * HOSTS_PER_WORKER, 0), 1);
    }
}
