//! `ttcp`-style bulk TCP throughput measurement (Table II).
//!
//! The paper measures end-to-end bandwidth with Test TCP transfers of
//! 695 MB / 50 MB / 8 MB files between WOW nodes, with and without shortcut
//! connections. [`TtcpSender`] pushes `bytes` through a virtual-network TCP
//! connection as fast as flow control allows; [`TtcpReceiver`] counts what
//! arrives. Progress and completion times land in a shared
//! [`TransferProgress`] for the harness to turn into KB/s rows.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use wow::workstation::{Workload, WsHandle};
use wow_netsim::time::{SimDuration, SimTime};
use wow_vnet::prelude::{SocketId, StackEvent, VirtIp};

/// Shared transfer bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct TransferProgress {
    /// When the transfer began (connection established).
    pub started: Option<SimTime>,
    /// Cumulative bytes over time (sampled at every read). Grows one entry
    /// per read — 47 k entries (0.75 MB) per 60 sim-s of shortcut-path
    /// ttcp — and nothing here trims it: a harness that streams for long
    /// drains or truncates it between looks (`table2` and `fig6` read it
    /// once, at the end of a bounded transfer).
    pub samples: Vec<(SimTime, u64)>,
    /// Total bytes moved so far.
    pub total: u64,
    /// When the transfer finished (peer closed / all bytes written).
    pub completed: Option<SimTime>,
    /// Transfer failed (connection aborted).
    pub aborted: bool,
}

impl TransferProgress {
    /// Average throughput in KB/s over the whole transfer, if complete.
    pub fn throughput_kbs(&self) -> Option<f64> {
        let start = self.started?;
        let end = self.completed?;
        let secs = end.saturating_since(start).as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        Some(self.total as f64 / 1000.0 / secs)
    }
}

/// How much a sender writes per attempt burst.
const WRITE_CHUNK: usize = 16 * 1024;
/// What a sender writes: one shared chunk of 'T's (for ttcp).
static PATTERN: [u8; WRITE_CHUNK] = [0x54; WRITE_CHUNK];
/// Safety-net pacing wake for senders.
const TAG_PACE: u64 = 11;
/// Deferred start.
const TAG_START: u64 = 12;

/// Push `bytes` to `target:port`, then close.
pub struct TtcpSender {
    /// Destination virtual IP.
    pub target: VirtIp,
    /// Destination port.
    pub port: u16,
    /// Bytes to send.
    pub bytes: u64,
    /// Delay after boot before connecting (lets the overlay settle).
    pub start_delay: SimDuration,
    /// Shared progress (records the *sender-side* completion).
    pub progress: Arc<Mutex<TransferProgress>>,
    sock: Option<SocketId>,
    written: u64,
    closed: bool,
    /// A pace wake is outstanding. A blocked writer owns one timer: every
    /// ACK that frees space raises `TcpWritable`, so the wake is only a
    /// safety net and a second one could never find room the first missed.
    pace_armed: bool,
}

impl TtcpSender {
    /// A sender of `bytes` toward `target:port`.
    pub fn new(
        target: VirtIp,
        port: u16,
        bytes: u64,
        start_delay: SimDuration,
        progress: Arc<Mutex<TransferProgress>>,
    ) -> Self {
        TtcpSender {
            target,
            port,
            bytes,
            start_delay,
            progress,
            sock: None,
            written: 0,
            closed: false,
            pace_armed: false,
        }
    }

    fn pump_writes(&mut self, w: &mut WsHandle<'_, '_, '_>) {
        let Some(sock) = self.sock else { return };
        if self.closed {
            return;
        }
        let now = w.now();
        while self.written < self.bytes {
            let want = (self.bytes - self.written).min(WRITE_CHUNK as u64) as usize;
            let n = w.stack.tcp_write(now, sock, &PATTERN[..want]);
            self.written += n as u64;
            if n < want {
                // Buffer full: resume on Writable (plus the safety wake).
                if !self.pace_armed {
                    self.pace_armed = true;
                    w.wake_after(SimDuration::from_secs(1), TAG_PACE);
                }
                return;
            }
        }
        // All written: half-close and mark completion when acked... the
        // sender-side "done" is when the close completes gracefully.
        w.stack.tcp_close(now, sock);
        self.closed = true;
    }
}

impl Workload for TtcpSender {
    fn on_boot(&mut self, w: &mut WsHandle<'_, '_, '_>) {
        w.wake_after(self.start_delay, TAG_START);
    }

    fn on_wake(&mut self, w: &mut WsHandle<'_, '_, '_>, tag: u64) {
        match tag {
            TAG_START => {
                let now = w.now();
                let sock = w.stack.tcp_connect(now, self.target, self.port);
                self.sock = Some(sock);
            }
            TAG_PACE => {
                self.pace_armed = false;
                self.pump_writes(w);
            }
            _ => {}
        }
    }

    fn on_event(&mut self, w: &mut WsHandle<'_, '_, '_>, ev: StackEvent) {
        match ev {
            StackEvent::TcpConnected { sock } if Some(sock) == self.sock => {
                self.progress.lock().unwrap().started = Some(w.now());
                self.pump_writes(w);
            }
            StackEvent::TcpWritable { sock } if Some(sock) == self.sock => {
                self.pump_writes(w);
            }
            StackEvent::TcpClosed { sock } if Some(sock) == self.sock => {
                let mut p = self.progress.lock().unwrap();
                p.total = self.written;
                p.completed = Some(w.now());
            }
            StackEvent::TcpAborted { sock } if Some(sock) == self.sock => {
                self.progress.lock().unwrap().aborted = true;
            }
            _ => {}
        }
    }
}

/// Accept connections on `port` and count the bytes of each.
pub struct TtcpReceiver {
    /// Listening port.
    pub port: u16,
    /// Shared progress (records the *receiver-side* byte counts; completion
    /// is set when the sender closes).
    pub progress: Arc<Mutex<TransferProgress>>,
    accepted: HashMap<SocketId, ()>,
}

impl TtcpReceiver {
    /// A receiver on `port`.
    pub fn new(port: u16, progress: Arc<Mutex<TransferProgress>>) -> Self {
        TtcpReceiver {
            port,
            progress,
            accepted: HashMap::new(),
        }
    }

    fn drain(&mut self, w: &mut WsHandle<'_, '_, '_>, sock: SocketId) {
        let now = w.now();
        let data = w.stack.tcp_read(now, sock, usize::MAX);
        if !data.is_empty() {
            let mut p = self.progress.lock().unwrap();
            p.total += data.len() as u64;
            let total = p.total;
            p.samples.push((now, total));
        }
    }
}

impl Workload for TtcpReceiver {
    fn on_boot(&mut self, w: &mut WsHandle<'_, '_, '_>) {
        w.stack.tcp_listen(self.port);
    }

    fn on_event(&mut self, w: &mut WsHandle<'_, '_, '_>, ev: StackEvent) {
        match ev {
            StackEvent::TcpAccepted { listener, sock, .. } if listener == self.port => {
                self.accepted.insert(sock, ());
                self.progress.lock().unwrap().started.get_or_insert(w.now());
            }
            StackEvent::TcpReadable { sock } if self.accepted.contains_key(&sock) => {
                self.drain(w, sock);
            }
            StackEvent::TcpPeerClosed { sock } if self.accepted.contains_key(&sock) => {
                self.drain(w, sock);
                let now = w.now();
                self.progress.lock().unwrap().completed = Some(now);
                w.stack.tcp_close(now, sock);
            }
            StackEvent::TcpAborted { sock } if self.accepted.remove(&sock).is_some() => {
                self.progress.lock().unwrap().aborted = true;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wow_netsim::time::SimTime;

    #[test]
    fn throughput_requires_completion() {
        let mut p = TransferProgress::default();
        assert_eq!(p.throughput_kbs(), None);
        p.started = Some(SimTime::from_secs(10));
        assert_eq!(p.throughput_kbs(), None);
        p.completed = Some(SimTime::from_secs(20));
        p.total = 1_000_000;
        assert_eq!(p.throughput_kbs(), Some(100.0));
    }

    #[test]
    fn throughput_guards_zero_duration() {
        let p = TransferProgress {
            started: Some(SimTime::from_secs(5)),
            completed: Some(SimTime::from_secs(5)),
            total: 10,
            ..TransferProgress::default()
        };
        assert_eq!(p.throughput_kbs(), None);
    }
}
