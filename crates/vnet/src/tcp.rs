//! A miniature TCP for the virtual network.
//!
//! Implements the parts of TCP that the paper's experiments exercise:
//!
//! * three-way handshake, graceful close (FIN), reset (RST);
//! * cumulative ACKs, out-of-order reassembly, receiver-advertised windows;
//! * retransmission with an RFC 6298-style adaptive RTO, exponential
//!   backoff capped at 60 s, and a *large* retry budget — this is what lets
//!   the Fig. 6 SCP transfer stall through an ~8-minute VM migration outage
//!   and resume, exactly as the paper observes ("TCP transport and
//!   applications are resilient to such temporary network outages");
//! * Reno-style congestion control (slow start, congestion avoidance, fast
//!   retransmit on three duplicate ACKs) so Table II's bandwidth numbers
//!   reflect path quality rather than a fixed send rate.
//!
//! Simplifications, documented in DESIGN.md: the advertised window is
//! carried as a 32-bit field (stand-in for window scaling), there is no
//! delayed ACK, no SACK, and no simultaneous-open support.

use std::collections::{BTreeMap, VecDeque};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use wow_netsim::time::{SimDuration, SimTime};

use crate::buf::{copy_range, RecvQueue};
use crate::ip::IpError;

/// Maximum segment size on the virtual network (fits the tunnel MTU).
pub const MSS: usize = 1200;
/// Encoded segment header: ports, seq, ack, flags, 32-bit window.
const HEADER_LEN: usize = 17;

/// TCP header flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpFlags {
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Sender has finished sending.
    pub fin: bool,
    /// Abort the connection.
    pub rst: bool,
}

impl TcpFlags {
    fn bits(self) -> u8 {
        (self.syn as u8) | (self.ack as u8) << 1 | (self.fin as u8) << 2 | (self.rst as u8) << 3
    }

    fn from_bits(b: u8) -> TcpFlags {
        TcpFlags {
            syn: b & 1 != 0,
            ack: b & 2 != 0,
            fin: b & 4 != 0,
            rst: b & 8 != 0,
        }
    }
}

/// A TCP segment on the virtual wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of SYN/FIN).
    pub seq: u32,
    /// Cumulative acknowledgement (valid when `flags.ack`).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes (32-bit: implicit window scale).
    pub window: u32,
    /// Payload.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Encoded length: header plus payload.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        self.put(&mut buf);
        buf.freeze()
    }

    /// Append the wire encoding to `buf` (the stack writes it straight
    /// after the IP header, so a segment is copied once on its way out).
    pub fn put(&self, buf: &mut BytesMut) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(self.flags.bits());
        buf.put_u32(self.window);
        buf.put_slice(&self.payload);
    }

    /// Decode from wire bytes.
    pub fn decode(mut bytes: Bytes) -> Result<TcpSegment, IpError> {
        if bytes.len() < HEADER_LEN {
            return Err(IpError::Malformed);
        }
        let src_port = bytes.get_u16();
        let dst_port = bytes.get_u16();
        let seq = bytes.get_u32();
        let ack = bytes.get_u32();
        let flags = TcpFlags::from_bits(bytes.get_u8());
        let window = bytes.get_u32();
        Ok(TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            payload: bytes,
        })
    }

    /// Sequence space the segment occupies (payload + SYN/FIN flags).
    pub fn seg_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }
}

// Sequence-space comparisons (RFC 793 wrapping arithmetic).
fn seq_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}
fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Connection state (RFC 793 names).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// Active open sent, awaiting SYN-ACK.
    SynSent,
    /// Passive open got SYN, sent SYN-ACK.
    SynReceived,
    /// Data flows.
    Established,
    /// We closed first; FIN sent, awaiting its ACK.
    FinWait1,
    /// Our FIN ACKed; awaiting the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// We closed after the peer; FIN sent, awaiting its ACK.
    LastAck,
    /// Both FINs crossed; awaiting ACK of ours.
    Closing,
    /// Final quarantine before the port is reusable.
    TimeWait,
    /// Gone.
    Closed,
}

/// Event surfaced to the socket layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TcpEvent {
    /// Handshake completed.
    Connected,
    /// New in-order bytes are readable.
    DataReadable,
    /// The peer finished sending (EOF after draining the buffer).
    PeerClosed,
    /// The connection fully closed (graceful).
    Closed,
    /// The connection was reset or timed out.
    Aborted,
    /// Free space re-opened in the send buffer; writers may continue.
    Writable,
}

/// Lower bound on the retransmission timeout.
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Upper bound on the (backed-off) retransmission timeout.
const MAX_RTO: SimDuration = SimDuration::from_secs(60);
/// TIME_WAIT duration.
const TIME_WAIT: SimDuration = SimDuration::from_secs(30);

/// Tunables.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Receive buffer capacity (advertised window ceiling).
    pub recv_capacity: usize,
    /// Send buffer capacity.
    pub send_capacity: usize,
    /// Consecutive retransmissions of one segment before giving up. With
    /// the 60 s RTO cap, 40 retries ≈ half an hour of persistence — enough
    /// to ride out a WAN VM migration.
    pub max_retries: u32,
    /// Initial congestion window in segments.
    pub initial_cwnd_segments: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            recv_capacity: 256 * 1024,
            send_capacity: 256 * 1024,
            max_retries: 40,
            initial_cwnd_segments: 2,
        }
    }
}

/// One TCP connection endpoint.
#[derive(Debug)]
pub struct TcpConn {
    cfg: TcpConfig,
    /// Current state.
    state: TcpState,
    // --- send side ---
    /// Oldest unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Unsent + unacked bytes; front is at sequence `snd_una` (+1 if the
    /// SYN is still unacked).
    send_buf: VecDeque<u8>,
    /// Bytes of `send_buf` already transmitted (between snd_una and snd_nxt).
    inflight: usize,
    /// FIN requested by the application.
    fin_pending: bool,
    /// Sequence number our FIN occupies once sent.
    fin_seq: Option<u32>,
    peer_window: u32,
    cwnd: f64,
    ssthresh: f64,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    rtx_deadline: Option<SimTime>,
    rtx_count: u32,
    dup_acks: u32,
    /// One timed segment for RTT sampling (Karn's algorithm: never sample
    /// retransmitted data).
    rtt_probe: Option<(u32, SimTime)>,
    // --- receive side ---
    /// Next expected sequence number, counted without wrapping: the wire
    /// value is its low 32 bits. Out-of-order chunks are keyed on the same
    /// scale, so the map's key order is stream order even when the receive
    /// window crosses 2^32.
    rcv_nxt: u64,
    recv_buf: RecvQueue,
    ooo: BTreeMap<u64, Bytes>,
    peer_fin_seq: Option<u32>,
    fin_delivered: bool,
    // --- timers/misc ---
    time_wait_until: Option<SimTime>,
    out: Vec<TcpSegment>,
    events: Vec<TcpEvent>,
    local_port: u16,
    remote_port: u16,
    /// True once a window-full condition was reported to the writer.
    write_blocked: bool,
}

impl TcpConn {
    /// Active open: returns the connection with a SYN queued for output.
    pub fn connect(
        now: SimTime,
        local_port: u16,
        remote_port: u16,
        iss: u32,
        cfg: TcpConfig,
    ) -> Self {
        let mut c = Self::raw(local_port, remote_port, iss, cfg);
        c.state = TcpState::SynSent;
        c.snd_nxt = iss.wrapping_add(1);
        let seg = c.make_segment(
            iss,
            TcpFlags {
                syn: true,
                ..Default::default()
            },
            Bytes::new(),
        );
        c.out.push(seg);
        c.arm_rtx(now);
        c
    }

    /// Passive open: a listener accepted `syn`; replies SYN-ACK.
    pub fn accept(
        now: SimTime,
        local_port: u16,
        remote_port: u16,
        iss: u32,
        syn: &TcpSegment,
        cfg: TcpConfig,
    ) -> Self {
        debug_assert!(syn.flags.syn && !syn.flags.ack);
        let mut c = Self::raw(local_port, remote_port, iss, cfg);
        c.state = TcpState::SynReceived;
        c.rcv_nxt = syn.seq.wrapping_add(1).into();
        c.peer_window = syn.window;
        c.snd_nxt = iss.wrapping_add(1);
        let seg = c.make_segment(
            iss,
            TcpFlags {
                syn: true,
                ack: true,
                ..Default::default()
            },
            Bytes::new(),
        );
        c.out.push(seg);
        c.arm_rtx(now);
        c
    }

    fn raw(local_port: u16, remote_port: u16, iss: u32, cfg: TcpConfig) -> Self {
        let cwnd = (cfg.initial_cwnd_segments * MSS) as f64;
        TcpConn {
            cfg,
            state: TcpState::Closed,
            snd_una: iss,
            snd_nxt: iss,
            send_buf: VecDeque::new(),
            inflight: 0,
            fin_pending: false,
            fin_seq: None,
            peer_window: u32::MAX,
            cwnd,
            ssthresh: f64::INFINITY,
            srtt: None,
            rttvar: 0.0,
            rto: MIN_RTO.max(SimDuration::from_secs(1)),
            rtx_deadline: None,
            rtx_count: 0,
            dup_acks: 0,
            rtt_probe: None,
            rcv_nxt: 0,
            recv_buf: RecvQueue::new(),
            ooo: BTreeMap::new(),
            peer_fin_seq: None,
            fin_delivered: false,
            time_wait_until: None,
            out: Vec::new(),
            events: Vec::new(),
            local_port,
            remote_port,
            write_blocked: false,
        }
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Congestion/timer diagnostics: (cwnd bytes, ssthresh bytes, rto,
    /// smoothed rtt seconds, bytes in flight).
    pub fn diag(&self) -> (f64, f64, SimDuration, Option<f64>, usize) {
        (self.cwnd, self.ssthresh, self.rto, self.srtt, self.inflight)
    }

    /// Queued output segments (drain and wrap in IP).
    pub fn take_output(&mut self) -> Vec<TcpSegment> {
        std::mem::take(&mut self.out)
    }

    /// Events since the last drain.
    pub fn take_events(&mut self) -> Vec<TcpEvent> {
        std::mem::take(&mut self.events)
    }

    /// [`TcpConn::take_output`] for the stack's per-packet path: the queue
    /// keeps its allocation.
    pub(crate) fn drain_output(&mut self) -> std::vec::Drain<'_, TcpSegment> {
        self.out.drain(..)
    }

    /// [`TcpConn::take_events`], keeping the queue's allocation.
    pub(crate) fn drain_events(&mut self) -> std::vec::Drain<'_, TcpEvent> {
        self.events.drain(..)
    }

    /// Bytes the application can still write without blocking.
    pub fn send_space(&self) -> usize {
        self.cfg.send_capacity.saturating_sub(self.send_buf.len())
    }

    /// Bytes available to read.
    pub fn readable(&self) -> usize {
        self.recv_buf.len()
    }

    /// True when the peer has closed and everything was read.
    pub fn at_eof(&self) -> bool {
        self.fin_delivered && self.recv_buf.is_empty()
    }

    /// Append application data to the send buffer (bounded by
    /// [`TcpConn::send_space`]); returns bytes accepted.
    pub fn write(&mut self, now: SimTime, data: &[u8]) -> usize {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynReceived
        ) || self.fin_pending
        {
            return 0;
        }
        let n = data.len().min(self.send_space());
        self.send_buf.extend(&data[..n]);
        if n < data.len() {
            self.write_blocked = true;
        }
        self.pump_send(now);
        n
    }

    /// Read up to `max` in-order bytes. When one received segment covers
    /// the request this is that segment's payload itself, not a copy.
    pub fn read(&mut self, now: SimTime, max: usize) -> Bytes {
        let before = self.advertised_window();
        let data = self.recv_buf.pop(max);
        // If the window was pinched shut, tell the peer it re-opened.
        if before < (MSS as u32) && self.advertised_window() >= (MSS as u32) {
            let seg = self.make_segment(
                self.snd_nxt,
                TcpFlags {
                    ack: true,
                    ..Default::default()
                },
                Bytes::new(),
            );
            self.out.push(seg);
        }
        let _ = now;
        data
    }

    /// Application close: queue a FIN after any buffered data.
    pub fn close(&mut self, now: SimTime) {
        match self.state {
            TcpState::Established | TcpState::SynReceived | TcpState::SynSent => {
                self.fin_pending = true;
                self.state = if self.state == TcpState::SynSent {
                    // Never got anywhere; just drop it.
                    self.events.push(TcpEvent::Closed);
                    TcpState::Closed
                } else {
                    TcpState::FinWait1
                };
                self.pump_send(now);
            }
            TcpState::CloseWait => {
                self.fin_pending = true;
                self.state = TcpState::LastAck;
                self.pump_send(now);
            }
            _ => {}
        }
    }

    /// Hard abort: send RST, go to Closed.
    pub fn abort(&mut self) {
        if !matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            let seg = self.make_segment(
                self.snd_nxt,
                TcpFlags {
                    rst: true,
                    ack: true,
                    ..Default::default()
                },
                Bytes::new(),
            );
            self.out.push(seg);
        }
        self.state = TcpState::Closed;
        self.events.push(TcpEvent::Aborted);
    }

    /// The next time [`TcpConn::on_tick`] has work.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut d = self.rtx_deadline;
        if let Some(tw) = self.time_wait_until {
            d = Some(d.map_or(tw, |x| x.min(tw)));
        }
        d
    }

    /// Drive timers: retransmission and TIME_WAIT expiry.
    pub fn on_tick(&mut self, now: SimTime) {
        if let Some(tw) = self.time_wait_until {
            if now >= tw {
                self.time_wait_until = None;
                if self.state == TcpState::TimeWait {
                    self.state = TcpState::Closed;
                    self.events.push(TcpEvent::Closed);
                }
            }
        }
        let Some(deadline) = self.rtx_deadline else {
            return;
        };
        if now < deadline || self.state == TcpState::Closed {
            return;
        }
        self.rtx_count += 1;
        if self.rtx_count > self.cfg.max_retries {
            self.state = TcpState::Closed;
            self.rtx_deadline = None;
            self.events.push(TcpEvent::Aborted);
            return;
        }
        // Back off and retransmit the oldest outstanding item.
        self.rto = self.rto.saturating_double().min(MAX_RTO);
        self.rtt_probe = None; // Karn: no sampling across retransmits
        self.ssthresh = (self.bytes_in_flight() as f64 / 2.0).max((2 * MSS) as f64);
        self.cwnd = MSS as f64;
        self.retransmit_head(now);
        self.rtx_deadline = Some(now + self.rto);
    }

    /// Process an incoming segment.
    pub fn on_segment(&mut self, now: SimTime, seg: TcpSegment) {
        if self.state == TcpState::Closed {
            return;
        }
        if seg.flags.rst {
            self.state = TcpState::Closed;
            self.rtx_deadline = None;
            self.events.push(TcpEvent::Aborted);
            return;
        }
        self.peer_window = seg.window;
        match self.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.snd_nxt {
                    self.rcv_nxt = seg.seq.wrapping_add(1).into();
                    self.snd_una = seg.ack;
                    self.rtx_count = 0;
                    self.rtx_deadline = None;
                    self.state = TcpState::Established;
                    self.events.push(TcpEvent::Connected);
                    self.send_pure_ack();
                    self.pump_send(now);
                }
            }
            TcpState::SynReceived => {
                if seg.flags.ack && seg.ack == self.snd_nxt {
                    self.snd_una = seg.ack;
                    self.rtx_count = 0;
                    self.rtx_deadline = None;
                    self.state = TcpState::Established;
                    self.events.push(TcpEvent::Connected);
                    // Fall through to normal processing of any data.
                    self.process_established(now, seg);
                } else if seg.flags.syn && !seg.flags.ack {
                    // Duplicate SYN: re-send SYN-ACK.
                    let iss = self.snd_nxt.wrapping_sub(1);
                    let syn_ack = self.make_segment(
                        iss,
                        TcpFlags {
                            syn: true,
                            ack: true,
                            ..Default::default()
                        },
                        Bytes::new(),
                    );
                    self.out.push(syn_ack);
                }
            }
            TcpState::Closed => {}
            _ => self.process_established(now, seg),
        }
    }

    // ------------------------------------------------------------------

    fn advertised_window(&self) -> u32 {
        (self.cfg.recv_capacity.saturating_sub(self.recv_buf.len())) as u32
    }

    fn make_segment(&self, seq: u32, flags: TcpFlags, payload: Bytes) -> TcpSegment {
        TcpSegment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack: self.rcv_nxt as u32,
            flags: TcpFlags {
                ack: flags.ack || self.state != TcpState::SynSent,
                ..flags
            },
            window: self.advertised_window(),
            payload,
        }
    }

    fn send_pure_ack(&mut self) {
        let seg = self.make_segment(
            self.snd_nxt,
            TcpFlags {
                ack: true,
                ..Default::default()
            },
            Bytes::new(),
        );
        self.out.push(seg);
    }

    fn bytes_in_flight(&self) -> usize {
        self.inflight
    }

    fn arm_rtx(&mut self, now: SimTime) {
        self.rtx_deadline = Some(now + self.rto);
    }

    /// Send as much buffered data as the windows allow.
    fn pump_send(&mut self, now: SimTime) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::LastAck
                | TcpState::Closing
        ) {
            return;
        }
        let window = (self.cwnd as usize).min(self.peer_window as usize);
        loop {
            let unsent = self.send_buf.len() - self.inflight;
            if unsent == 0 {
                break;
            }
            if self.inflight >= window {
                break;
            }
            let n = unsent.min(MSS).min(window - self.inflight);
            if n == 0 {
                break;
            }
            let chunk = copy_range(&self.send_buf, self.inflight, n);
            let seg = self.make_segment(
                self.snd_nxt,
                TcpFlags {
                    ack: true,
                    ..Default::default()
                },
                chunk,
            );
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt.wrapping_add(n as u32), now));
            }
            self.snd_nxt = self.snd_nxt.wrapping_add(n as u32);
            self.inflight += n;
            self.out.push(seg);
            if self.rtx_deadline.is_none() {
                self.arm_rtx(now);
            }
        }
        // Persist behaviour: if data is blocked behind a closed window,
        // keep the timer armed so on_tick can probe (a lost window-update
        // ACK must not deadlock the connection).
        if self.send_buf.len() > self.inflight && self.rtx_deadline.is_none() {
            self.arm_rtx(now);
        }
        // FIN goes out once all data has been transmitted.
        if self.fin_pending && self.inflight == self.send_buf.len() && self.fin_seq.is_none() {
            let seg = self.make_segment(
                self.snd_nxt,
                TcpFlags {
                    fin: true,
                    ack: true,
                    ..Default::default()
                },
                Bytes::new(),
            );
            self.fin_seq = Some(self.snd_nxt);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.out.push(seg);
            if self.rtx_deadline.is_none() {
                self.arm_rtx(now);
            }
        }
    }

    /// Retransmit one MSS (or the FIN / SYN) from snd_una.
    fn retransmit_head(&mut self, _now: SimTime) {
        match self.state {
            TcpState::SynSent => {
                let iss = self.snd_una;
                let seg = self.make_segment(
                    iss,
                    TcpFlags {
                        syn: true,
                        ..Default::default()
                    },
                    Bytes::new(),
                );
                self.out.push(seg);
                return;
            }
            TcpState::SynReceived => {
                let iss = self.snd_una;
                let seg = self.make_segment(
                    iss,
                    TcpFlags {
                        syn: true,
                        ack: true,
                        ..Default::default()
                    },
                    Bytes::new(),
                );
                self.out.push(seg);
                return;
            }
            _ => {}
        }
        if self.inflight > 0 {
            let n = self.inflight.min(MSS);
            let chunk = copy_range(&self.send_buf, 0, n);
            let seg = self.make_segment(
                self.snd_una,
                TcpFlags {
                    ack: true,
                    ..Default::default()
                },
                chunk,
            );
            self.out.push(seg);
        } else if !self.send_buf.is_empty() {
            // Zero-window probe: push one byte past the window so the
            // receiver re-advertises its window.
            let chunk = Bytes::copy_from_slice(&[self.send_buf[0]]);
            let seg = self.make_segment(
                self.snd_nxt,
                TcpFlags {
                    ack: true,
                    ..Default::default()
                },
                chunk,
            );
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.inflight += 1;
            self.out.push(seg);
        } else if let Some(fin_seq) = self.fin_seq {
            if seq_le(self.snd_una, fin_seq) {
                let seg = self.make_segment(
                    fin_seq,
                    TcpFlags {
                        fin: true,
                        ack: true,
                        ..Default::default()
                    },
                    Bytes::new(),
                );
                self.out.push(seg);
            }
        }
    }

    fn process_established(&mut self, now: SimTime, seg: TcpSegment) {
        // ---- ACK processing ----
        if seg.flags.ack {
            let ack = seg.ack;
            if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt) {
                let mut acked = ack.wrapping_sub(self.snd_una) as usize;
                // A FIN consumes one sequence number but no buffer byte.
                if let Some(fin_seq) = self.fin_seq {
                    if seq_lt(fin_seq, ack) {
                        acked -= 1;
                    }
                }
                let from_buf = acked.min(self.send_buf.len());
                self.send_buf.drain(..from_buf);
                self.inflight = self.inflight.saturating_sub(from_buf);
                self.snd_una = ack;
                self.dup_acks = 0;
                self.rtx_count = 0;
                // RTT sample (Karn-safe).
                if let Some((probe_seq, sent_at)) = self.rtt_probe {
                    if seq_le(probe_seq, ack) {
                        self.rtt_probe = None;
                        let rtt = now.saturating_since(sent_at).as_secs_f64();
                        match self.srtt {
                            None => {
                                self.srtt = Some(rtt);
                                self.rttvar = rtt / 2.0;
                            }
                            Some(srtt) => {
                                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - rtt).abs();
                                self.srtt = Some(0.875 * srtt + 0.125 * rtt);
                            }
                        }
                        let rto = SimDuration::from_secs_f64(
                            self.srtt.expect("just set") + 4.0 * self.rttvar,
                        );
                        self.rto = rto.max(MIN_RTO).min(MAX_RTO);
                    }
                }
                // Congestion control.
                if self.cwnd < self.ssthresh {
                    self.cwnd += MSS as f64; // slow start
                } else {
                    self.cwnd += (MSS * MSS) as f64 / self.cwnd; // AIMD
                }
                // Re-arm or clear the retransmission timer.
                let all_acked = self.inflight == 0 && self.fin_seq.is_none_or(|f| seq_lt(f, ack));
                self.rtx_deadline = if all_acked {
                    None
                } else {
                    Some(now + self.rto)
                };
                if self.write_blocked && self.send_space() > 0 {
                    self.write_blocked = false;
                    self.events.push(TcpEvent::Writable);
                }
                // Close-state transitions on our FIN being ACKed.
                if let Some(fin_seq) = self.fin_seq {
                    if seq_lt(fin_seq, ack) {
                        match self.state {
                            TcpState::FinWait1 => self.state = TcpState::FinWait2,
                            TcpState::Closing => {
                                self.state = TcpState::TimeWait;
                                self.time_wait_until = Some(now + TIME_WAIT);
                            }
                            TcpState::LastAck => {
                                self.state = TcpState::Closed;
                                self.events.push(TcpEvent::Closed);
                            }
                            _ => {}
                        }
                    }
                }
            } else if ack == self.snd_una && self.inflight > 0 && seg.payload.is_empty() {
                // Duplicate ACK.
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    // Fast retransmit.
                    self.ssthresh = (self.bytes_in_flight() as f64 / 2.0).max((2 * MSS) as f64);
                    self.cwnd = self.ssthresh;
                    self.retransmit_head(now);
                }
            }
        }

        // ---- data / FIN processing ----
        let had_payload = !seg.payload.is_empty();
        if had_payload {
            self.ingest_payload(seg.seq, seg.payload.clone());
        }
        if seg.flags.fin {
            let fin_at = seg.seq.wrapping_add(seg.payload.len() as u32);
            self.peer_fin_seq = Some(fin_at);
        }
        // Deliver the FIN once all data before it has arrived.
        if let Some(fin_at) = self.peer_fin_seq {
            if !self.fin_delivered && self.rcv_nxt as u32 == fin_at {
                self.rcv_nxt += 1;
                self.fin_delivered = true;
                self.events.push(TcpEvent::PeerClosed);
                match self.state {
                    TcpState::Established => self.state = TcpState::CloseWait,
                    TcpState::FinWait1 => self.state = TcpState::Closing,
                    TcpState::FinWait2 => {
                        self.state = TcpState::TimeWait;
                        self.time_wait_until = Some(now + TIME_WAIT);
                    }
                    _ => {}
                }
            }
        }
        if had_payload || seg.flags.fin {
            self.send_pure_ack();
        }
        self.pump_send(now);
    }

    /// Queue the part of `chunk` (first byte at sequence `seq`) at or past
    /// `rcv_nxt`, as far as the receive capacity allows. False when the
    /// buffer filled before the chunk ended.
    fn append_in_order(&mut self, seq: u32, mut chunk: Bytes) -> bool {
        let offset = (self.rcv_nxt as u32).wrapping_sub(seq) as usize;
        if offset >= chunk.len() {
            return true;
        }
        chunk.advance(offset);
        let room = self.cfg.recv_capacity - self.recv_buf.len();
        let take = chunk.len().min(room);
        let whole = take == chunk.len();
        if take > 0 {
            self.recv_buf
                .push(if whole { chunk } else { chunk.split_to(take) });
            self.rcv_nxt += take as u64;
            self.events.push(TcpEvent::DataReadable);
        }
        whole
    }

    /// Store an in-window out-of-order chunk (first byte at unwrapped
    /// position `at`) so stored chunks never overlap: the bytes a stored
    /// predecessor already holds are cut from the front, stored chunks the
    /// new one covers are replaced, and a stored successor it runs into
    /// cuts its end. Overlapping segments therefore stash each window byte
    /// at most once — never more than `recv_capacity` bytes in all.
    fn stash(&mut self, mut at: u64, mut chunk: Bytes) {
        if let Some((&s, prev)) = self.ooo.range(..=at).next_back() {
            let prev_end = s + prev.len() as u64;
            if at < prev_end {
                let covered = (prev_end - at) as usize;
                if covered >= chunk.len() {
                    return;
                }
                chunk.advance(covered);
                at = prev_end;
            }
        }
        let end = at + chunk.len() as u64;
        while let Some((&s, next)) = self.ooo.range(at..).next() {
            if s >= end {
                break;
            }
            if s + next.len() as u64 <= end {
                self.ooo.remove(&s);
            } else {
                chunk = chunk.slice(..(s - at) as usize);
                break;
            }
        }
        if !chunk.is_empty() {
            self.ooo.insert(at, chunk);
        }
    }

    fn ingest_payload(&mut self, seq: u32, mut payload: Bytes) {
        if seq_lt(self.rcv_nxt as u32, seq) {
            // Out of order: stash for later what falls inside the receive
            // window `[rcv_nxt, rcv_nxt + recv_capacity)`. The advertised
            // window keeps an honest peer inside it; a segment that starts
            // beyond it is dropped and one that runs past it is cut, so far
            // sequence numbers cannot grow the map.
            let ahead = seq.wrapping_sub(self.rcv_nxt as u32) as usize;
            if ahead < self.cfg.recv_capacity {
                let keep = payload.len().min(self.cfg.recv_capacity - ahead);
                self.stash(self.rcv_nxt + ahead as u64, payload.split_to(keep));
            }
        } else {
            // Overlaps or extends the in-order point.
            self.append_in_order(seq, payload);
        }
        // Drain the stored chunks that start at or before rcv_nxt.
        while let Some((&s, _)) = self.ooo.range(..=self.rcv_nxt).next_back() {
            let chunk = self.ooo.remove(&s).expect("present");
            if !self.append_in_order(s as u32, chunk) {
                break; // buffer full
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    /// Wire two connections together, delivering all queued segments (with
    /// optional per-direction drop filters), until quiescent.
    fn pump(now: SimTime, a: &mut TcpConn, b: &mut TcpConn) {
        loop {
            let a_out = a.take_output();
            let b_out = b.take_output();
            if a_out.is_empty() && b_out.is_empty() {
                break;
            }
            for s in a_out {
                b.on_segment(now, s);
            }
            for s in b_out {
                a.on_segment(now, s);
            }
        }
    }

    fn handshake(now: SimTime) -> (TcpConn, TcpConn) {
        let mut client = TcpConn::connect(now, 5000, 80, 1000, cfg());
        let syn = client.take_output().remove(0);
        let mut server = TcpConn::accept(now, 80, 5000, 9000, &syn, cfg());
        pump(now, &mut client, &mut server);
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        assert!(client.take_events().contains(&TcpEvent::Connected));
        assert!(server.take_events().contains(&TcpEvent::Connected));
        (client, server)
    }

    #[test]
    fn segment_codec_roundtrip() {
        let seg = TcpSegment {
            src_port: 5000,
            dst_port: 80,
            seq: 0xDEADBEEF,
            ack: 0x01020304,
            flags: TcpFlags {
                syn: true,
                ack: true,
                fin: false,
                rst: false,
            },
            window: 1 << 20,
            payload: Bytes::from_static(b"hello"),
        };
        assert_eq!(TcpSegment::decode(seg.encode()).unwrap(), seg);
    }

    #[test]
    fn three_way_handshake() {
        let _ = handshake(T0);
    }

    #[test]
    fn data_transfer_in_order() {
        let (mut c, mut s) = handshake(T0);
        let msg = b"GET /genome.dat".as_slice();
        assert_eq!(c.write(T0, msg), msg.len());
        pump(T0, &mut c, &mut s);
        assert!(s.take_events().contains(&TcpEvent::DataReadable));
        assert_eq!(&s.read(T0, 1024)[..], msg);
    }

    #[test]
    fn bulk_transfer_respects_mss_and_delivers_exactly() {
        let (mut c, mut s) = handshake(T0);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut written = 0;
        let mut received = Vec::new();
        let mut t = T0;
        while received.len() < data.len() {
            t += SimDuration::from_millis(10);
            if written < data.len() {
                written += c.write(t, &data[written..]);
            }
            // Deliver with MSS check.
            let segs = c.take_output();
            for seg in segs {
                assert!(seg.payload.len() <= MSS);
                s.on_segment(t, seg);
            }
            for seg in s.take_output() {
                c.on_segment(t, seg);
            }
            let chunk = s.read(t, usize::MAX);
            received.extend_from_slice(&chunk);
        }
        assert_eq!(received, data);
    }

    #[test]
    fn out_of_order_segments_are_reassembled() {
        let wide = TcpConfig {
            initial_cwnd_segments: 8, // let all three segments fly at once
            ..cfg()
        };
        let mut c = TcpConn::connect(T0, 5000, 80, 1000, wide);
        let syn = c.take_output().remove(0);
        let mut s = TcpConn::accept(T0, 80, 5000, 9000, &syn, cfg());
        pump(T0, &mut c, &mut s);
        c.write(T0, &[1u8; 3000]); // three segments (1200/1200/600)
        let mut segs = c.take_output();
        assert_eq!(segs.len(), 3);
        segs.reverse(); // deliver in reverse order
        for seg in segs {
            s.on_segment(T0, seg);
        }
        let got = s.read(T0, usize::MAX);
        assert_eq!(got.len(), 3000);
        assert!(got.iter().all(|&b| b == 1));
    }

    #[test]
    fn out_of_order_chunk_is_cut_at_the_window_end() {
        let (mut c, mut s) = handshake(T0);
        c.write(T0, &[1u8; 100]);
        let mut seg = c.take_output().remove(0);
        let cap = cfg().recv_capacity as u32;
        seg.seq = seg.seq.wrapping_add(cap - 40); // 40 bytes of window left
        s.on_segment(T0, seg.clone());
        assert_eq!(s.ooo.values().map(Bytes::len).collect::<Vec<_>>(), [40]);
        seg.seq = seg.seq.wrapping_add(40); // starts exactly at the window end
        s.on_segment(T0, seg);
        assert_eq!(s.ooo.len(), 1);
    }

    #[test]
    fn lost_segment_is_retransmitted_on_rto() {
        let (mut c, mut s) = handshake(T0);
        c.write(T0, b"important");
        let _lost = c.take_output(); // drop it
        let deadline = c.next_deadline().expect("rtx armed");
        c.on_tick(deadline);
        let rtx = c.take_output();
        assert!(
            rtx.iter().any(|seg| &seg.payload[..] == b"important"),
            "retransmission must carry the lost bytes"
        );
        for seg in rtx {
            s.on_segment(deadline, seg);
        }
        assert_eq!(&s.read(deadline, 64)[..], b"important");
    }

    #[test]
    fn fast_retransmit_on_three_dup_acks() {
        let wide = TcpConfig {
            initial_cwnd_segments: 8,
            ..cfg()
        };
        let mut c = TcpConn::connect(T0, 5000, 80, 1000, wide);
        let syn = c.take_output().remove(0);
        let mut s = TcpConn::accept(T0, 80, 5000, 9000, &syn, cfg());
        pump(T0, &mut c, &mut s);
        c.write(T0, &[7u8; MSS * 5]);
        let segs = c.take_output();
        assert_eq!(segs.len(), 5);
        // Drop the first segment; deliver the rest → four dup ACKs.
        for seg in segs.into_iter().skip(1) {
            s.on_segment(T0, seg);
        }
        let dup_acks = s.take_output();
        assert!(dup_acks.len() >= 4);
        let mut got_rtx = false;
        for a in dup_acks {
            c.on_segment(T0, a);
            for seg in c.take_output() {
                if seg.seq == 1001 && !seg.payload.is_empty() {
                    got_rtx = true;
                }
            }
        }
        assert!(
            got_rtx,
            "head segment must be fast-retransmitted on dup ACK 3"
        );
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut c, mut s) = handshake(T0);
        c.write(T0, b"bye");
        c.close(T0);
        pump(T0, &mut c, &mut s);
        assert!(s.take_events().contains(&TcpEvent::PeerClosed));
        assert_eq!(&s.read(T0, 16)[..], b"bye");
        assert!(s.at_eof());
        s.close(T0);
        pump(T0, &mut c, &mut s);
        assert_eq!(s.state(), TcpState::Closed);
        // Client is in TIME_WAIT; expires into Closed.
        assert_eq!(c.state(), TcpState::TimeWait);
        let tw = c.next_deadline().expect("time-wait timer");
        c.on_tick(tw);
        assert_eq!(c.state(), TcpState::Closed);
    }

    #[test]
    fn rst_aborts() {
        let (mut c, mut s) = handshake(T0);
        c.abort();
        let out = c.take_output();
        assert!(out.iter().any(|seg| seg.flags.rst));
        for seg in out {
            s.on_segment(T0, seg);
        }
        assert_eq!(s.state(), TcpState::Closed);
        assert!(s.take_events().contains(&TcpEvent::Aborted));
    }

    #[test]
    fn survives_long_outage_then_resumes() {
        // The Fig. 6 property: a transfer stalls through an 8-minute
        // blackout and resumes when connectivity returns.
        let (mut c, mut s) = handshake(T0);
        c.write(T0, &[9u8; 4000]);
        let _lost = c.take_output(); // blackout: nothing gets through
                                     // 8 minutes of retries into the void.
        let mut now = T0;
        while now < SimTime::from_secs(480) {
            let Some(d) = c.next_deadline() else { break };
            now = d;
            c.on_tick(now);
            let _still_lost = c.take_output();
        }
        let t = now;
        assert_ne!(c.state(), TcpState::Closed, "must not give up in 8 min");
        // Connectivity returns: advance real time in 100 ms steps, letting
        // timers fire naturally and all segments flow again.
        let mut total = 0;
        let mut t2 = t;
        for _ in 0..30_000 {
            t2 += SimDuration::from_millis(100);
            c.on_tick(t2);
            s.on_tick(t2);
            pump(t2, &mut c, &mut s);
            total += s.read(t2, usize::MAX).len();
            if total >= 4000 {
                break;
            }
        }
        assert_eq!(total, 4000, "the full payload must arrive after the outage");
    }

    #[test]
    fn gives_up_after_retry_budget() {
        let custom = TcpConfig {
            max_retries: 3,
            ..cfg()
        };
        let mut c = TcpConn::connect(T0, 1, 2, 0, custom);
        let _ = c.take_output();
        for _ in 0..10 {
            let Some(d) = c.next_deadline() else { break };
            c.on_tick(d);
            let _ = c.take_output();
        }
        assert_eq!(c.state(), TcpState::Closed);
        assert!(c.take_events().contains(&TcpEvent::Aborted));
    }

    #[test]
    fn receiver_window_blocks_sender() {
        let small = TcpConfig {
            recv_capacity: 2 * MSS,
            ..cfg()
        };
        let mut c = TcpConn::connect(T0, 5000, 80, 1000, cfg());
        let syn = c.take_output().remove(0);
        let mut s = TcpConn::accept(T0, 80, 5000, 9000, &syn, small);
        pump(T0, &mut c, &mut s);
        c.take_events();
        s.take_events();
        // Fill far beyond the receiver's capacity without reading.
        c.write(T0, &vec![5u8; 64 * 1024]);
        for _ in 0..50 {
            pump(T0, &mut c, &mut s);
        }
        assert!(
            s.readable() <= 2 * MSS,
            "receiver must not buffer beyond its capacity"
        );
        // Reading opens the window; more data flows.
        let first = s.read(T0, usize::MAX).len();
        assert!(first > 0);
        for _ in 0..50 {
            pump(T0, &mut c, &mut s);
            s.read(T0, usize::MAX);
        }
    }

    #[test]
    fn write_after_close_is_rejected() {
        let (mut c, mut s) = handshake(T0);
        c.close(T0);
        pump(T0, &mut c, &mut s);
        assert_eq!(c.write(T0, b"nope"), 0);
    }

    #[test]
    fn rtt_estimation_adapts_rto() {
        let (mut c, mut s) = handshake(T0);
        // Exchange with a consistent 50 ms RTT.
        let mut t = T0;
        for _ in 0..10 {
            c.write(t, &[1u8; 100]);
            let segs = c.take_output();
            t += SimDuration::from_millis(25);
            for seg in segs {
                s.on_segment(t, seg);
            }
            let acks = s.take_output();
            t += SimDuration::from_millis(25);
            for a in acks {
                c.on_segment(t, a);
            }
            s.read(t, usize::MAX);
        }
        // RTO should have settled well under the initial 1 s.
        assert!(
            c.rto <= SimDuration::from_millis(500),
            "rto {:?} did not adapt downwards",
            c.rto
        );
        assert!(c.rto >= MIN_RTO);
    }
}
