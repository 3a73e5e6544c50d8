//! SSH/SCP-style file transfer (the Fig. 6 migration experiment).
//!
//! The paper's client VM downloads a 720 MB file over SCP while the *server*
//! VM is suspended, copied across the WAN, and resumed. The transfer stalls
//! during the outage and resumes without any application-level restart —
//! the property [`FileServer`]/[`FileClient`] reproduce over the virtual
//! network's TCP. The client records a (time, bytes) series: exactly the
//! "file size on the client's local disk over time" curve of Fig. 6.

use std::sync::{Arc, Mutex};

use wow::workstation::{Workload, WsHandle};
use wow_netsim::time::SimDuration;
use wow_vnet::prelude::{SocketId, StackEvent, VirtIp};

use crate::ttcp::TransferProgress;

const WRITE_CHUNK: usize = 16 * 1024;
/// The synthetic file's content: one shared chunk.
static PATTERN: [u8; WRITE_CHUNK] = [0x5C; WRITE_CHUNK];
const TAG_PACE: u64 = 21;
const TAG_CONNECT: u64 = 22;
const TAG_SAMPLE: u64 = 23;

/// Serves a synthetic file of `file_bytes` to every connection on `port`.
pub struct FileServer {
    /// Listening port (22 in spirit).
    pub port: u16,
    /// File size in bytes.
    pub file_bytes: u64,
    /// Per-connection bytes already pushed.
    serving: Vec<(SocketId, u64)>,
    /// A pace wake is outstanding: the server owns one safety timer for
    /// all its blocked sockets (the wake re-pumps every one of them).
    pace_armed: bool,
}

impl FileServer {
    /// A server for one file.
    pub fn new(port: u16, file_bytes: u64) -> Self {
        FileServer {
            port,
            file_bytes,
            serving: Vec::new(),
            pace_armed: false,
        }
    }

    fn pump(&mut self, w: &mut WsHandle<'_, '_, '_>, sock: SocketId) {
        let Some(entry) = self.serving.iter_mut().find(|(s, _)| *s == sock) else {
            return;
        };
        let now = w.now();
        while entry.1 < self.file_bytes {
            let want = (self.file_bytes - entry.1).min(WRITE_CHUNK as u64) as usize;
            let n = w.stack.tcp_write(now, sock, &PATTERN[..want]);
            entry.1 += n as u64;
            if n < want {
                if !self.pace_armed {
                    self.pace_armed = true;
                    w.wake_after(SimDuration::from_secs(2), TAG_PACE);
                }
                return;
            }
        }
        w.stack.tcp_close(now, sock);
        self.serving.retain(|(s, _)| *s != sock);
    }
}

impl Workload for FileServer {
    fn on_boot(&mut self, w: &mut WsHandle<'_, '_, '_>) {
        w.stack.tcp_listen(self.port);
    }

    fn on_resumed(&mut self, w: &mut WsHandle<'_, '_, '_>) {
        // The guest is back after migration: its sockets (and our serving
        // state) survived intact; the TCP layer's retransmission does the
        // rest. Just make sure listening is still in place.
        w.stack.tcp_listen(self.port);
    }

    fn on_wake(&mut self, w: &mut WsHandle<'_, '_, '_>, tag: u64) {
        if tag == TAG_PACE {
            self.pace_armed = false;
            let socks: Vec<SocketId> = self.serving.iter().map(|(s, _)| *s).collect();
            for s in socks {
                self.pump(w, s);
            }
        }
    }

    fn on_event(&mut self, w: &mut WsHandle<'_, '_, '_>, ev: StackEvent) {
        match ev {
            StackEvent::TcpAccepted { listener, sock, .. } if listener == self.port => {
                self.serving.push((sock, 0));
                self.pump(w, sock);
            }
            StackEvent::TcpWritable { sock } => self.pump(w, sock),
            StackEvent::TcpAborted { sock } => self.serving.retain(|(s, _)| *s != sock),
            _ => {}
        }
    }
}

/// Downloads a file from `server:port`, sampling progress every second.
pub struct FileClient {
    /// Server virtual IP.
    pub server: VirtIp,
    /// Server port.
    pub port: u16,
    /// Delay after boot before connecting.
    pub start_delay: SimDuration,
    /// Shared progress: the Fig. 6 curve.
    pub progress: Arc<Mutex<TransferProgress>>,
    sock: Option<SocketId>,
}

impl FileClient {
    /// A client downloading from `server:port` after `start_delay`.
    pub fn new(
        server: VirtIp,
        port: u16,
        start_delay: SimDuration,
        progress: Arc<Mutex<TransferProgress>>,
    ) -> Self {
        FileClient {
            server,
            port,
            start_delay,
            progress,
            sock: None,
        }
    }
}

impl Workload for FileClient {
    fn on_boot(&mut self, w: &mut WsHandle<'_, '_, '_>) {
        w.wake_after(self.start_delay, TAG_CONNECT);
    }

    fn on_wake(&mut self, w: &mut WsHandle<'_, '_, '_>, tag: u64) {
        match tag {
            TAG_CONNECT => {
                let now = w.now();
                let sock = w.stack.tcp_connect(now, self.server, self.port);
                self.sock = Some(sock);
                w.wake_after(SimDuration::from_secs(1), TAG_SAMPLE);
            }
            TAG_SAMPLE => {
                // Periodic sample so the stall plateau shows in the curve.
                let mut p = self.progress.lock().unwrap();
                if p.completed.is_none() {
                    let total = p.total;
                    p.samples.push((w.now(), total));
                    drop(p);
                    w.wake_after(SimDuration::from_secs(1), TAG_SAMPLE);
                }
            }
            _ => {}
        }
    }

    fn on_event(&mut self, w: &mut WsHandle<'_, '_, '_>, ev: StackEvent) {
        let Some(sock) = self.sock else { return };
        match ev {
            StackEvent::TcpConnected { sock: s } if s == sock => {
                self.progress.lock().unwrap().started = Some(w.now());
            }
            StackEvent::TcpReadable { sock: s } if s == sock => {
                let now = w.now();
                let data = w.stack.tcp_read(now, sock, usize::MAX);
                let mut p = self.progress.lock().unwrap();
                p.total += data.len() as u64;
                let total = p.total;
                p.samples.push((now, total));
            }
            StackEvent::TcpPeerClosed { sock: s } if s == sock => {
                let now = w.now();
                let data = w.stack.tcp_read(now, sock, usize::MAX);
                let mut p = self.progress.lock().unwrap();
                p.total += data.len() as u64;
                p.completed = Some(now);
                drop(p);
                w.stack.tcp_close(now, sock);
            }
            StackEvent::TcpAborted { sock: s } if s == sock => {
                self.progress.lock().unwrap().aborted = true;
            }
            _ => {}
        }
    }
}
