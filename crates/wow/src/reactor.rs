//! High-density live runtime: many overlay nodes per thread.
//!
//! A thread per node stops scaling around a few hundred nodes per
//! process: each node costs a stack, a scheduler entry, and a poll wakeup
//! whether or not anything happened. The [`Reactor`] runs *shards*
//! instead — one event-loop thread each. A shard's decisions (slots,
//! timers, the [`INGRESS_QUANTUM`], dispatch) are the socket-free
//! [`crate::shard`] core; this module is the thin OS shell around it: the
//! command loop, and the core's `Wire` — each node's UDP socket (nodes must
//! be individually addressable; the epoll token *is* the node's slot), one
//! epoll instance, the wall clock, and a loopback UDP *doorbell* whose ping
//! interrupts `epoll_wait` when a handle sends a command (portable; no
//! eventfd). The foreign calls themselves are [`crate::os`]'s.
//!
//! Shutdown is per-node: dropping a [`UdpNode`] deregisters one slot and
//! closes one socket, leaving the shard loop running for everyone else.
//! The reactor's threads stop when the last handle onto the reactor —
//! node handles hold one each — drops, and that drop *joins* them: no
//! detached threads survive, and a shard that panicked re-raises its panic
//! there instead of vanishing.

use std::io;
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

use crate::os::Poller;
pub use crate::shard::INGRESS_QUANTUM;
use crate::shard::{Node, ShardCore, Wire};
use crate::udprt::{from_sock, BufPool, LiveView, NodeSnapshot, SocketTransport, UdpNode};

/// Opaque identity of a node slot on a reactor: shard, slot index, and a
/// generation stamp so a handle can never address a slot its node no
/// longer owns (slots are reused after deregistration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId {
    shard: u16,
    slot: u32,
    gen: u32,
}

/// Work for a shard's thread: a closure over its core and wire, or stop.
enum ShardCmd {
    Run(Job),
    Stop,
    /// Panic on the shard thread, standing in for a bug in a shard.
    #[cfg(test)]
    Crash,
}

type Job = Box<dyn FnOnce(&mut ShardCore, &mut SocketWire) + Send>;

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

    fn run(&self, f: impl FnOnce(&mut ShardCore, &mut SocketWire) + Send + 'static) {
        self.send(ShardCmd::Run(Box::new(f)));
    }
}

struct ReactorInner {
    shards: Vec<ShardHandle>,
    next_shard: std::sync::atomic::AtomicUsize,
}

impl Drop for ReactorInner {
    /// Stop and join every shard. A shard that panicked re-raises its
    /// panic here, after all shards are joined, so a lost result names
    /// its cause — unless this thread is already unwinding, where a
    /// second panic would abort and hide the first.
    fn drop(&mut self) {
        for s in &self.shards {
            s.send(ShardCmd::Stop);
        }
        let mut panicked = None;
        for s in &mut self.shards {
            if let Some(Err(payload)) = s.thread.take().map(|t| t.join()) {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
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
    pub fn new(threads: usize) -> io::Result<Reactor> {
        let threads = threads.max(1);
        let mut shards = Vec::with_capacity(threads);
        for i in 0..threads {
            let (bell_rx, _) = bind_loopback(0)?;
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
    ) -> io::Result<UdpNode> {
        let (socket, local) = bind_loopback(bind_port)?;
        let shard = self
            .inner
            .next_shard
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            % self.inner.shards.len();
        let (ev_tx, events) = unbounded();
        let snapshot = Arc::new(Mutex::new(NodeSnapshot::default()));
        let node = Node {
            driver: NodeDriver::new(BrunetNode::new(addr, cfg, seed)),
            local,
            ev_tx,
            snapshot: snapshot.clone(),
        };
        let (slot, gen) = self.ask(shard, move |core, wire| {
            core.register(wire, socket, node, bootstrap)
        })??;
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
        self.inner.shards[id.shard as usize]
            .run(move |core, wire| core.send_app(wire, id.slot, id.gen, dst, proto, data));
    }

    pub(crate) fn view(&self, id: NodeId) -> Option<LiveView> {
        let ask = self.ask(id.shard.into(), move |core, _| core.view(id.slot, id.gen));
        ask.ok().flatten()
    }

    pub(crate) fn rebind(&self, id: NodeId) -> io::Result<PhysAddr> {
        self.ask(id.shard.into(), move |core, wire| {
            core.rebind(wire, id.slot, id.gen)
        })?
    }

    pub(crate) fn deregister(&self, id: NodeId) {
        self.inner.shards[id.shard as usize]
            .run(move |core, wire| core.deregister(wire, id.slot, id.gen));
    }

    /// Run `f` on shard `shard`'s thread and wait for its result.
    fn ask<R: Send + 'static>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut ShardCore, &mut SocketWire) -> R + Send + 'static,
    ) -> io::Result<R> {
        let (reply, rx) = unbounded();
        self.inner.shards[shard].run(move |core, wire| {
            let _ = reply.send(f(core, wire));
        });
        rx.recv()
            .map_err(|_| io::Error::other("reactor shard is gone"))
    }
}

// --------------------------------------------------------------- shell --

/// The live wire: the wall clock since the shard started, its poller and
/// doorbell, and each slot's socket.
struct SocketWire {
    epoch: Instant,
    poller: Poller,
    bell: UdpSocket,
    sockets: Vec<Option<UdpSocket>>,
}

/// Poller token reserved for the doorbell socket.
const DOORBELL_TOKEN: u32 = u32::MAX;

impl SocketWire {
    fn socket(&self, slot: u32) -> &UdpSocket {
        self.sockets[slot as usize]
            .as_ref()
            .expect("the core reaches only attached slots")
    }
}

impl Wire for SocketWire {
    type Port = UdpSocket;
    type Tx<'a> = SocketTransport<'a>;

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn attach(&mut self, slot: u32, socket: UdpSocket) -> io::Result<()> {
        self.poller.add(&socket, slot)?;
        let i = slot as usize;
        if self.sockets.len() <= i {
            self.sockets.resize_with(i + 1, || None);
        }
        self.sockets[i] = Some(socket);
        Ok(())
    }

    fn detach(&mut self, slot: u32) {
        // The socket closes here; peers' retries to it now vanish, which
        // is exactly what a crashed live node looks like.
        if let Some(s) = self.sockets[slot as usize].take() {
            let _ = self.poller.del(&s);
        }
    }

    /// Swap the slot's socket for a freshly bound one *without telling the
    /// driver* — its advertised URI goes stale exactly like a NAT mapping
    /// expiring under a live node.
    fn rebind(&mut self, slot: u32) -> io::Result<PhysAddr> {
        let (fresh, local) = bind_loopback(0)?;
        if let Some(old) = &self.sockets[slot as usize] {
            let _ = self.poller.del(old);
        }
        self.poller.add(&fresh, slot)?;
        self.sockets[slot as usize] = Some(fresh);
        Ok(local)
    }

    fn wait(&mut self, ready: &mut Vec<u32>, timeout_ms: i32) -> io::Result<()> {
        self.poller.wait(ready, timeout_ms)?;
        if let Some(i) = ready.iter().position(|&t| t == DOORBELL_TOKEN) {
            ready.remove(i);
            let mut sink = [0u8; 8];
            while self.bell.recv(&mut sink).is_ok() {}
        }
        Ok(())
    }

    fn recv(
        &mut self,
        slot: u32,
        pool: &mut BufPool,
        out: &mut Vec<(PhysAddr, Bytes)>,
        max: usize,
    ) -> io::Result<usize> {
        SocketTransport::pooled(self.socket(slot), pool).recv_batch(out, max, false)
    }

    fn tx(&mut self, slot: u32) -> SocketTransport<'_> {
        SocketTransport::new(self.socket(slot))
    }
}

/// A non-blocking loopback socket on `port` (0 = ephemeral), and its
/// address.
fn bind_loopback(port: u16) -> io::Result<(UdpSocket, PhysAddr)> {
    let socket = UdpSocket::bind(("127.0.0.1", port))?;
    socket.set_nonblocking(true)?;
    let local = from_sock(socket.local_addr()?);
    Ok((socket, local))
}

fn shard_main(cmd_rx: Receiver<ShardCmd>, bell: UdpSocket) {
    let Ok(mut poller) = Poller::new() else {
        return;
    };
    if poller.add(&bell, DOORBELL_TOKEN).is_err() {
        return;
    }
    let mut wire = SocketWire {
        epoch: Instant::now(),
        poller,
        bell,
        sockets: Vec::new(),
    };
    let mut core = ShardCore::default();
    loop {
        // Commands first: registrations and sends should beat the traffic
        // they cause.
        while let Ok(cmd) = cmd_rx.try_recv() {
            match cmd {
                ShardCmd::Run(f) => f(&mut core, &mut wire),
                ShardCmd::Stop => return,
                #[cfg(test)]
                ShardCmd::Crash => panic!("shard crashed on command"),
            }
        }
        if core.turn(&mut wire).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shard_panic_is_re_raised_when_the_reactor_drops() {
        let reactor = Reactor::new(2).expect("start reactor");
        reactor.inner.shards[1].send(ShardCmd::Crash);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(reactor)))
            .expect_err("the shard's panic must surface");
        assert_eq!(
            err.downcast_ref::<&str>(),
            Some(&"shard crashed on command")
        );
    }

    #[test]
    fn a_caller_already_unwinding_keeps_its_own_panic() {
        let reactor = Reactor::new(1).expect("start reactor");
        reactor.inner.shards[0].send(ShardCmd::Crash);
        let err = std::thread::spawn(move || {
            let _held = reactor;
            panic!("the caller's own panic");
        })
        .join()
        .expect_err("the caller panicked");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"the caller's own panic"));
    }
}
