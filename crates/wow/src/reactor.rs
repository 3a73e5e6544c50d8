//! High-density live runtime: many overlay nodes per thread.
//!
//! A thread per node stops scaling around a few hundred nodes per
//! process: each node costs a stack, a scheduler entry, and a poll wakeup
//! whether or not anything happened. The [`Reactor`] runs *shards*
//! instead — one event-loop thread each — multiplexing every node's
//! socket through one epoll instance per shard:
//!
//! * **demux** — each node keeps its own UDP socket (nodes must be
//!   individually addressable), but all of a shard's sockets register in
//!   the shard's poller; the epoll token *is* the node's slot index, so a
//!   readiness event maps straight to its driver with no lookup. (The
//!   token stands in for the destination port: socket ↔ bound port ↔
//!   slot.)
//! * **timers** — no polling. Each driver exposes its earliest deadline
//!   through the [`NodeDriver::arm_hint`]/[`NodeDriver::timer_fired`]
//!   discipline (the same one the simulator runtime trusts); the shard
//!   keeps a min-heap of `(deadline, slot, generation)` wakes, sleeps in
//!   `epoll_wait` until the earliest one, and lazily discards entries that
//!   a later re-arm or a node's departure made stale.
//! * **ingress** — a readable socket is drained through
//!   [`SocketTransport::recv_batch`] (`recvmmsg(2)` into the shard's
//!   recycling [`BufPool`]), at most [`INGRESS_QUANTUM`] datagrams per
//!   wake per node. The quantum plus level-triggered polling is the
//!   fairness discipline: a flooded socket stays readable and simply
//!   re-enters the next wake's ready set, after every other ready node has
//!   had its turn.
//! * **commands** — handles talk to shards over a crossbeam channel paired
//!   with a loopback UDP *doorbell* socket whose ping interrupts
//!   `epoll_wait` (portable; no eventfd).
//!
//! Shutdown is per-node: dropping a [`UdpNode`] deregisters one slot and
//! closes one socket, leaving the shard loop running for everyone else.
//! The reactor's threads stop when the last handle onto the reactor —
//! node handles hold one each — drops, and that drop *joins* them: no
//! detached threads survive.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use wow_netsim::addr::PhysAddr;
use wow_netsim::time::SimTime;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::driver::NodeDriver;
use wow_overlay::node::BrunetNode;
use wow_overlay::uri::TransportUri;

use crate::udprt::{
    dispatch_events, from_sock, live_view, publish_snapshot, BufPool, LiveView, NodeSnapshot,
    SocketTransport, UdpEvent, UdpNode, RECV_BATCH,
};

/// Most datagrams one node may consume per shard wake. A node with more
/// queued input stays readable and resumes next wake, after every other
/// ready node has been served — the bound that keeps one flooded socket
/// from starving its shard-mates.
pub const INGRESS_QUANTUM: usize = 64;

/// Longest `epoll_wait` sleep, so command-channel liveness never depends
/// solely on doorbell datagrams.
const MAX_SLEEP_MS: i32 = 50;

/// Opaque identity of a node slot on a reactor: shard, slot index, and a
/// generation stamp so a handle can never address a slot its node no
/// longer owns (slots are reused after deregistration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId {
    shard: u16,
    slot: u32,
    gen: u32,
}

enum ShardCmd {
    Register {
        addr: Address,
        cfg: OverlayConfig,
        socket: UdpSocket,
        local: PhysAddr,
        bootstrap: Vec<TransportUri>,
        seed: u64,
        ev_tx: Sender<UdpEvent>,
        snapshot: Arc<Mutex<NodeSnapshot>>,
        reply: Sender<std::io::Result<(u32, u32)>>,
    },
    SendApp {
        slot: u32,
        gen: u32,
        dst: Address,
        proto: u8,
        data: Bytes,
    },
    View {
        slot: u32,
        gen: u32,
        reply: Sender<Option<LiveView>>,
    },
    Rebind {
        slot: u32,
        gen: u32,
        reply: Sender<std::io::Result<PhysAddr>>,
    },
    Deregister {
        slot: u32,
        gen: u32,
    },
    Stop,
}

struct ShardHandle {
    cmd_tx: Sender<ShardCmd>,
    /// Connected to the shard's doorbell socket; one byte interrupts its
    /// `epoll_wait`.
    doorbell: UdpSocket,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ShardHandle {
    fn send(&self, cmd: ShardCmd) {
        if self.cmd_tx.send(cmd).is_ok() {
            let _ = self.doorbell.send(&[1u8]);
        }
    }
}

struct ReactorInner {
    shards: Vec<ShardHandle>,
    next_shard: std::sync::atomic::AtomicUsize,
}

impl Drop for ReactorInner {
    fn drop(&mut self) {
        for s in &self.shards {
            s.send(ShardCmd::Stop);
        }
        for s in &mut self.shards {
            if let Some(t) = s.thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// A shared event-loop runtime multiplexing many [`UdpNode`]s over a few
/// threads. Cheap to clone; the loop threads are joined when the last
/// clone (including the ones held by spawned nodes) drops.
#[derive(Clone)]
pub struct Reactor {
    inner: Arc<ReactorInner>,
}

impl Reactor {
    /// Start a reactor with `threads` shard loops (at least one).
    pub fn new(threads: usize) -> std::io::Result<Reactor> {
        let threads = threads.max(1);
        let mut shards = Vec::with_capacity(threads);
        for i in 0..threads {
            let bell_rx = UdpSocket::bind("127.0.0.1:0")?;
            bell_rx.set_nonblocking(true)?;
            let doorbell = UdpSocket::bind("127.0.0.1:0")?;
            doorbell.connect(bell_rx.local_addr()?)?;
            let (cmd_tx, cmd_rx) = unbounded();
            let thread = std::thread::Builder::new()
                .name(format!("wow-reactor-{i}"))
                .spawn(move || shard_main(cmd_rx, bell_rx))?;
            shards.push(ShardHandle {
                cmd_tx,
                doorbell,
                thread: Some(thread),
            });
        }
        Ok(Reactor {
            inner: Arc::new(ReactorInner {
                shards,
                next_shard: std::sync::atomic::AtomicUsize::new(0),
            }),
        })
    }

    /// Number of shard threads.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Bind a loopback socket (port 0 = ephemeral) and start a node on the
    /// least-recently-used shard, joining via `bootstrap` URIs (empty for
    /// the first node).
    pub fn spawn_node(
        &self,
        addr: Address,
        cfg: OverlayConfig,
        bind_port: u16,
        bootstrap: Vec<TransportUri>,
        seed: u64,
    ) -> std::io::Result<UdpNode> {
        let socket = UdpSocket::bind(("127.0.0.1", bind_port))?;
        socket.set_nonblocking(true)?;
        let local = from_sock(socket.local_addr()?);
        let shard = self
            .inner
            .next_shard
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            % self.inner.shards.len();
        let (ev_tx, events) = unbounded();
        let snapshot = Arc::new(Mutex::new(NodeSnapshot::default()));
        let (reply, rx) = unbounded();
        self.inner.shards[shard].send(ShardCmd::Register {
            addr,
            cfg,
            socket,
            local,
            bootstrap,
            seed,
            ev_tx,
            snapshot: snapshot.clone(),
            reply,
        });
        let (slot, gen) = rx
            .recv()
            .map_err(|_| std::io::Error::other("reactor shard is gone"))??;
        Ok(UdpNode {
            addr,
            local,
            events,
            snapshot,
            reactor: self.clone(),
            id: NodeId {
                shard: shard as u16,
                slot,
                gen,
            },
        })
    }

    pub(crate) fn send_app(&self, id: NodeId, dst: Address, proto: u8, data: Bytes) {
        self.shard(id).send(ShardCmd::SendApp {
            slot: id.slot,
            gen: id.gen,
            dst,
            proto,
            data,
        });
    }

    pub(crate) fn view(&self, id: NodeId) -> Option<LiveView> {
        let (reply, rx) = unbounded();
        self.shard(id).send(ShardCmd::View {
            slot: id.slot,
            gen: id.gen,
            reply,
        });
        rx.recv().ok().flatten()
    }

    pub(crate) fn rebind(&self, id: NodeId) -> std::io::Result<PhysAddr> {
        let (reply, rx) = unbounded();
        self.shard(id).send(ShardCmd::Rebind {
            slot: id.slot,
            gen: id.gen,
            reply,
        });
        rx.recv()
            .map_err(|_| std::io::Error::other("reactor shard is gone"))?
    }

    pub(crate) fn deregister(&self, id: NodeId) {
        self.shard(id).send(ShardCmd::Deregister {
            slot: id.slot,
            gen: id.gen,
        });
    }

    fn shard(&self, id: NodeId) -> &ShardHandle {
        &self.inner.shards[id.shard as usize]
    }
}

// --------------------------------------------------------------- shard --

struct NodeSlot {
    gen: u32,
    driver: NodeDriver,
    socket: UdpSocket,
    local: PhysAddr,
    ev_tx: Sender<UdpEvent>,
    snapshot: Arc<Mutex<NodeSnapshot>>,
}

struct Shard {
    slots: Vec<Option<NodeSlot>>,
    free: Vec<u32>,
    /// Next generation stamp per slot index (bumped on deregister so stale
    /// handles and timer entries can never address a reused slot).
    gens: Vec<u32>,
    /// Pending timer wakes: earliest first, lazily invalidated.
    timers: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// Shared ingress/forwarding buffer pool for every node on the shard.
    pool: BufPool,
    poller: sys::Poller,
    epoch: Instant,
}

/// Poller token reserved for the doorbell socket.
const DOORBELL_TOKEN: u64 = u64::MAX;

impl Shard {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn slot_mut(&mut self, slot: u32, gen: u32) -> Option<&mut NodeSlot> {
        self.slots
            .get_mut(slot as usize)?
            .as_mut()
            .filter(|s| s.gen == gen)
    }

    /// Dispatch events, refresh the shared snapshot, and (re-)arm the
    /// slot's timer after any driver activity.
    fn settle(
        slot: &mut NodeSlot,
        timers: &mut BinaryHeap<Reverse<(u64, u32, u32)>>,
        idx: u32,
        now: SimTime,
    ) {
        dispatch_events(&mut slot.driver, &slot.ev_tx);
        publish_snapshot(&slot.driver, &slot.snapshot);
        if let Some(deadline) = slot.driver.arm_hint(now) {
            timers.push(Reverse((deadline.as_micros(), idx, slot.gen)));
        }
    }

    #[allow(clippy::too_many_arguments)] // one-shot plumbing of a spawn request into a slot
    fn register(
        &mut self,
        addr: Address,
        cfg: OverlayConfig,
        socket: UdpSocket,
        local: PhysAddr,
        bootstrap: Vec<TransportUri>,
        seed: u64,
        ev_tx: Sender<UdpEvent>,
        snapshot: Arc<Mutex<NodeSnapshot>>,
    ) -> std::io::Result<(u32, u32)> {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        if let Err(e) = self.poller.add(&socket, idx as u64) {
            self.free.push(idx);
            return Err(e);
        }
        let gen = self.gens[idx as usize];
        let mut driver = NodeDriver::new(BrunetNode::new(addr, cfg, seed));
        let now = self.now();
        {
            let mut transport = SocketTransport::pooled(&socket, &mut self.pool);
            driver.start(now, TransportUri::udp(local), bootstrap, &mut transport);
        }
        let mut slot = NodeSlot {
            gen,
            driver,
            socket,
            local,
            ev_tx,
            snapshot,
        };
        Self::settle(&mut slot, &mut self.timers, idx, now);
        self.slots[idx as usize] = Some(slot);
        Ok((idx, gen))
    }

    fn deregister(&mut self, slot: u32, gen: u32) {
        let valid = self
            .slots
            .get(slot as usize)
            .and_then(|s| s.as_ref())
            .is_some_and(|s| s.gen == gen);
        if !valid {
            return;
        }
        let s = self.slots[slot as usize].take().expect("checked above");
        let _ = self.poller.del(&s.socket);
        // The socket closes here; peers' retries to it now vanish, which
        // is exactly what a crashed live node looks like.
        drop(s);
        self.gens[slot as usize] = gen.wrapping_add(1);
        self.free.push(slot);
    }

    fn drain_ingress(&mut self, idx: u32, scratch: &mut Vec<(PhysAddr, Bytes)>) {
        let epoch = self.epoch;
        let Shard {
            slots,
            pool,
            timers,
            ..
        } = self;
        let Some(slot) = slots.get_mut(idx as usize).and_then(|s| s.as_mut()) else {
            return;
        };
        let mut transport = SocketTransport::pooled(&slot.socket, pool);
        let mut budget = INGRESS_QUANTUM;
        let mut now = SimTime::from_micros(epoch.elapsed().as_micros() as u64);
        while budget > 0 {
            let want = budget.min(RECV_BATCH);
            let got = match transport.recv_batch(scratch, want, false) {
                Ok(n) => n,
                Err(_) => break,
            };
            if got == 0 {
                break;
            }
            budget -= got;
            now = SimTime::from_micros(epoch.elapsed().as_micros() as u64);
            for (src, frame) in scratch.drain(..) {
                slot.driver.on_datagram(now, src, frame, &mut transport);
            }
        }
        // `transport`'s borrow of the slot ends here, freeing it for settle.
        Self::settle(slot, timers, idx, now);
    }

    fn fire_timers(&mut self) {
        loop {
            let epoch = self.epoch;
            let now_us = self.now().as_micros();
            let due = matches!(self.timers.peek(), Some(Reverse((t, _, _))) if *t <= now_us);
            if !due {
                return;
            }
            let Reverse((_, idx, gen)) = self.timers.pop().expect("peeked above");
            let Shard {
                slots,
                pool,
                timers,
                ..
            } = self;
            let Some(slot) = slots
                .get_mut(idx as usize)
                .and_then(|s| s.as_mut())
                .filter(|s| s.gen == gen)
            else {
                continue; // stale: node left, slot reused, or re-armed
            };
            slot.driver.timer_fired();
            let t = SimTime::from_micros(epoch.elapsed().as_micros() as u64);
            let mut transport = SocketTransport::pooled(&slot.socket, pool);
            slot.driver.on_tick(t, &mut transport);
            Self::settle(slot, timers, idx, t);
        }
    }

    /// Milliseconds until the earliest pending timer, clamped to
    /// `[0, MAX_SLEEP_MS]`.
    fn sleep_ms(&self) -> i32 {
        match self.timers.peek() {
            None => MAX_SLEEP_MS,
            Some(Reverse((t, _, _))) => {
                let now = self.now().as_micros();
                if *t <= now {
                    0
                } else {
                    // Round up so a wake never lands just before its
                    // deadline and spins.
                    ((t - now).div_ceil(1000)).min(MAX_SLEEP_MS as u64) as i32
                }
            }
        }
    }
}

fn shard_main(cmd_rx: Receiver<ShardCmd>, bell_rx: UdpSocket) {
    let mut shard = Shard {
        slots: Vec::new(),
        free: Vec::new(),
        gens: Vec::new(),
        timers: BinaryHeap::new(),
        pool: BufPool::default(),
        poller: match sys::Poller::new() {
            Ok(p) => p,
            Err(_) => return,
        },
        epoch: Instant::now(),
    };
    if shard.poller.add(&bell_rx, DOORBELL_TOKEN).is_err() {
        return;
    }
    let mut ready: Vec<u64> = Vec::new();
    let mut scratch: Vec<(PhysAddr, Bytes)> = Vec::new();
    loop {
        // Commands first: registrations and sends should beat the traffic
        // they cause.
        while let Ok(cmd) = cmd_rx.try_recv() {
            match cmd {
                ShardCmd::Register {
                    addr,
                    cfg,
                    socket,
                    local,
                    bootstrap,
                    seed,
                    ev_tx,
                    snapshot,
                    reply,
                } => {
                    let r =
                        shard.register(addr, cfg, socket, local, bootstrap, seed, ev_tx, snapshot);
                    let _ = reply.send(r);
                }
                ShardCmd::SendApp {
                    slot,
                    gen,
                    dst,
                    proto,
                    data,
                } => {
                    let now = shard.now();
                    let Shard {
                        slots,
                        pool,
                        timers,
                        ..
                    } = &mut shard;
                    if let Some(s) = slots
                        .get_mut(slot as usize)
                        .and_then(|s| s.as_mut())
                        .filter(|s| s.gen == gen)
                    {
                        {
                            let mut transport = SocketTransport::pooled(&s.socket, pool);
                            s.driver.send_app(now, dst, proto, data, &mut transport);
                        }
                        Shard::settle(s, timers, slot, now);
                    }
                }
                ShardCmd::View { slot, gen, reply } => {
                    let view = shard
                        .slot_mut(slot, gen)
                        .map(|s| live_view(&s.driver, s.local));
                    let _ = reply.send(view);
                }
                ShardCmd::Rebind { slot, gen, reply } => {
                    let r = rebind_slot(&mut shard, slot, gen);
                    let _ = reply.send(r);
                }
                ShardCmd::Deregister { slot, gen } => shard.deregister(slot, gen),
                ShardCmd::Stop => return,
            }
        }
        shard.fire_timers();
        let timeout = shard.sleep_ms();
        ready.clear();
        if shard.poller.wait(&mut ready, timeout).is_err() {
            return;
        }
        for &token in ready.iter() {
            if token == DOORBELL_TOKEN {
                let mut sink = [0u8; 8];
                while bell_rx.recv(&mut sink).is_ok() {}
            } else {
                shard.drain_ingress(token as u32, &mut scratch);
            }
        }
        shard.fire_timers();
    }
}

/// Swap a node's socket for a freshly bound one *without telling the
/// driver* — its advertised URI goes stale exactly like a NAT mapping
/// expiring under a live node.
fn rebind_slot(shard: &mut Shard, slot: u32, gen: u32) -> std::io::Result<PhysAddr> {
    let stale = std::io::Error::other("node is gone");
    let Shard { slots, poller, .. } = shard;
    let Some(s) = slots
        .get_mut(slot as usize)
        .and_then(|s| s.as_mut())
        .filter(|s| s.gen == gen)
    else {
        return Err(stale);
    };
    let fresh = UdpSocket::bind("127.0.0.1:0")?;
    fresh.set_nonblocking(true)?;
    let local = from_sock(fresh.local_addr()?);
    let _ = poller.del(&s.socket);
    poller.add(&fresh, slot as u64)?;
    s.socket = fresh;
    s.local = local;
    Ok(local)
}

// ------------------------------------------------------------- polling --

/// Readiness polling. Linux: epoll via raw FFI (matching the
/// `sendmmsg`/GSO style in [`crate::udprt`] — no `libc` crate). Elsewhere:
/// a sleep-scan that reports every registered socket and relies on the
/// non-blocking `recv_batch` returning 0 for idle ones.
#[cfg(target_os = "linux")]
mod sys {
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLLIN: u32 = 0x1;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;

    /// Kernel ABI layout: packed on x86-64 (a 12-byte struct), naturally
    /// aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub struct Poller {
        epfd: i32,
    }

    impl Poller {
        pub fn new() -> std::io::Result<Poller> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        pub fn add(&mut self, socket: &UdpSocket, token: u64) -> std::io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: token,
            };
            // SAFETY: `ev` is a live local; the fd is owned by `socket`.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, socket.as_raw_fd(), &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn del(&mut self, socket: &UdpSocket) -> std::io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as above; the event argument is ignored for DEL on
            // modern kernels but must be non-null on pre-2.6.9 ABIs.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, socket.as_raw_fd(), &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        /// Block up to `timeout_ms` for readiness; push ready tokens.
        pub fn wait(&mut self, ready: &mut Vec<u64>, timeout_ms: i32) -> std::io::Result<()> {
            let mut events = [EpollEvent { events: 0, data: 0 }; 128];
            // SAFETY: `events` is a live stack array of the stated length.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = std::io::Error::last_os_error();
                if err.kind() == std::io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in events.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct before use.
                let token = { ev.data };
                ready.push(token);
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: closing the fd this struct owns.
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::collections::HashMap;
    use std::net::UdpSocket;
    use std::time::Duration;

    /// Portable stand-in: every registered token is reported "ready" after
    /// a short sleep; idle sockets cost one non-blocking recv each.
    pub struct Poller {
        tokens: HashMap<i64, u64>,
    }

    fn key(socket: &UdpSocket) -> i64 {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            socket.as_raw_fd() as i64
        }
        #[cfg(windows)]
        {
            use std::os::windows::io::AsRawSocket;
            socket.as_raw_socket() as i64
        }
    }

    impl Poller {
        pub fn new() -> std::io::Result<Poller> {
            Ok(Poller {
                tokens: HashMap::new(),
            })
        }

        pub fn add(&mut self, socket: &UdpSocket, token: u64) -> std::io::Result<()> {
            self.tokens.insert(key(socket), token);
            Ok(())
        }

        pub fn del(&mut self, socket: &UdpSocket) -> std::io::Result<()> {
            self.tokens.remove(&key(socket));
            Ok(())
        }

        pub fn wait(&mut self, ready: &mut Vec<u64>, timeout_ms: i32) -> std::io::Result<()> {
            std::thread::sleep(Duration::from_millis(timeout_ms.clamp(0, 5) as u64));
            ready.extend(self.tokens.values().copied());
            Ok(())
        }
    }
}
