//! An NFS analogue: file service over UDP RPC (the era's NFSv3-over-UDP).
//!
//! PBS jobs in the paper "read and write input and output files to an NFS
//! file system mounted from the head node" — that data path, crossing the
//! virtual network for every job, is what shortcut connections accelerate
//! in Fig. 8. The server tracks file *sizes* (contents are synthetic); the
//! client moves real bytes through the vnet in windowed, retransmitted
//! chunks, so bandwidth and loss behave like a real mount.

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use wow::workstation::{Workload, WsHandle};
use wow_netsim::time::{SimDuration, SimTime};
use wow_vnet::prelude::{StackEvent, VirtIp};

/// The well-known NFS port.
pub const NFS_PORT: u16 = 2049;
/// RPC payload chunk size (NFSv3-over-UDP era rsize/wsize: 8 KB; larger
/// datagrams make router queues lumpy and trip timeouts under contention).
pub const CHUNK: usize = 8 * 1024;
/// Parallel RPCs in flight per transfer.
const WINDOW: usize = 4;
/// Retry tick cadence.
const TICK: SimDuration = SimDuration::from_millis(250);
/// Bounds on the adaptive RPC timeout. NFS-over-UDP clients adapt their
/// timeo to observed latency and back off exponentially on retries —
/// without this, a busy server's reply queue pushes every RPC past a fixed
/// timeout and duplicate retransmissions collapse the mount.
const MIN_RTO: SimDuration = SimDuration::from_millis(500);
const MAX_RTO: SimDuration = SimDuration::from_secs(30);
/// Give up after this many resends of one RPC... except we don't: NFS hard
/// mounts retry forever, which is what survives VM migration (Fig. 7).
const _: () = ();

/// Wake-tag base reserved for the NFS client inside a composite workload.
pub const NFS_TAG_BASE: u64 = 1 << 32;
const TAG_TICK: u64 = NFS_TAG_BASE;

// ---- wire format ----

#[derive(Clone, Debug, PartialEq, Eq)]
enum Rpc {
    ReadReq {
        xid: u32,
        name: String,
        offset: u64,
        len: u32,
    },
    WriteReq {
        xid: u32,
        name: String,
        offset: u64,
        data_len: u32,
    },
    ReadReply {
        xid: u32,
        ok: bool,
        data_len: u32,
    },
    WriteReply {
        xid: u32,
        ok: bool,
    },
}

impl Rpc {
    fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            Rpc::ReadReq {
                xid,
                name,
                offset,
                len,
            } => {
                b.put_u8(1);
                b.put_u32(*xid);
                b.put_u8(name.len() as u8);
                b.put_slice(name.as_bytes());
                b.put_u64(*offset);
                b.put_u32(*len);
            }
            Rpc::WriteReq {
                xid,
                name,
                offset,
                data_len,
            } => {
                b.put_u8(2);
                b.put_u32(*xid);
                b.put_u8(name.len() as u8);
                b.put_slice(name.as_bytes());
                b.put_u64(*offset);
                b.put_u32(*data_len);
                // The "data" is synthetic: we transmit real padding bytes so
                // the network sees the load, but content is zeros.
                b.put_bytes(0, *data_len as usize);
            }
            Rpc::ReadReply { xid, ok, data_len } => {
                b.put_u8(3);
                b.put_u32(*xid);
                b.put_u8(*ok as u8);
                b.put_u32(*data_len);
                b.put_bytes(0, *data_len as usize);
            }
            Rpc::WriteReply { xid, ok } => {
                b.put_u8(4);
                b.put_u32(*xid);
                b.put_u8(*ok as u8);
            }
        }
        b.freeze()
    }

    fn decode(mut b: Bytes) -> Option<Rpc> {
        if b.remaining() < 5 {
            return None;
        }
        let tag = b.get_u8();
        let xid = b.get_u32();
        Some(match tag {
            1 | 2 => {
                if b.remaining() < 1 {
                    return None;
                }
                let n = b.get_u8() as usize;
                if b.remaining() < n + 12 {
                    return None;
                }
                let name = String::from_utf8(b.split_to(n).to_vec()).ok()?;
                let offset = b.get_u64();
                let len = b.get_u32();
                if tag == 1 {
                    Rpc::ReadReq {
                        xid,
                        name,
                        offset,
                        len,
                    }
                } else {
                    if b.remaining() < len as usize {
                        return None;
                    }
                    Rpc::WriteReq {
                        xid,
                        name,
                        offset,
                        data_len: len,
                    }
                }
            }
            3 => {
                if b.remaining() < 5 {
                    return None;
                }
                let ok = b.get_u8() != 0;
                let data_len = b.get_u32();
                if b.remaining() < data_len as usize {
                    return None;
                }
                Rpc::ReadReply { xid, ok, data_len }
            }
            4 => {
                if b.remaining() < 1 {
                    return None;
                }
                Rpc::WriteReply {
                    xid,
                    ok: b.get_u8() != 0,
                }
            }
            _ => return None,
        })
    }
}

// ---- server ----

/// The NFS server workload (runs on the PBS head node).
pub struct NfsServer {
    /// Exported files: name → size.
    files: HashMap<String, u64>,
    /// Served/written byte counters (for experiment accounting).
    pub bytes_read: u64,
    /// Total bytes written by clients.
    pub bytes_written: u64,
}

impl NfsServer {
    /// A server exporting the given (name, size) files.
    pub fn new(exports: impl IntoIterator<Item = (String, u64)>) -> Self {
        NfsServer {
            files: exports.into_iter().collect(),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Add or grow an exported file.
    pub fn export(&mut self, name: impl Into<String>, size: u64) {
        self.files.insert(name.into(), size);
    }
}

impl Workload for NfsServer {
    fn on_boot(&mut self, w: &mut WsHandle<'_, '_, '_>) {
        w.stack.udp_bind(NFS_PORT);
    }

    fn on_resumed(&mut self, w: &mut WsHandle<'_, '_, '_>) {
        w.stack.udp_bind(NFS_PORT);
    }

    fn on_event(&mut self, w: &mut WsHandle<'_, '_, '_>, ev: StackEvent) {
        let StackEvent::UdpIn {
            from,
            src_port,
            dst_port,
            data,
        } = ev
        else {
            return;
        };
        if dst_port != NFS_PORT {
            return;
        }
        let Some(rpc) = Rpc::decode(data) else { return };
        match rpc {
            Rpc::ReadReq {
                xid,
                name,
                offset,
                len,
            } => {
                let reply = match self.files.get(&name) {
                    Some(&size) if offset < size => {
                        let n = (size - offset).min(len as u64) as u32;
                        self.bytes_read += u64::from(n);
                        Rpc::ReadReply {
                            xid,
                            ok: true,
                            data_len: n,
                        }
                    }
                    Some(_) => Rpc::ReadReply {
                        xid,
                        ok: true,
                        data_len: 0, // EOF
                    },
                    None => Rpc::ReadReply {
                        xid,
                        ok: false,
                        data_len: 0,
                    },
                };
                w.stack.udp_send(from, src_port, NFS_PORT, reply.encode());
            }
            Rpc::WriteReq {
                xid,
                name,
                offset,
                data_len,
            } => {
                let size = self.files.entry(name).or_insert(0);
                *size = (*size).max(offset + u64::from(data_len));
                self.bytes_written += u64::from(data_len);
                w.stack.udp_send(
                    from,
                    src_port,
                    NFS_PORT,
                    Rpc::WriteReply { xid, ok: true }.encode(),
                );
            }
            _ => {}
        }
    }
}

// ---- client ----

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
}

#[derive(Clone, Debug)]
struct PendingRpc {
    transfer: u64,
    kind: OpKind,
    offset: u64,
    len: u32,
    sent_at: SimTime,
    first_sent: SimTime,
    retries: u32,
    rto: SimDuration,
}

#[derive(Clone, Debug)]
struct Transfer {
    name: String,
    kind: OpKind,
    total: u64,
    next_offset: u64,
    acked: u64,
}

/// Windowed, retransmitting NFS client state machine. Embed it in a
/// workload (the PBS worker does) and forward `UdpIn` events and NFS wake
/// tags to it.
pub struct NfsClient {
    /// The server's virtual IP.
    pub server: VirtIp,
    local_port: u16,
    next_xid: u32,
    pending: HashMap<u32, PendingRpc>,
    transfers: HashMap<u64, Transfer>,
    completed: Vec<u64>,
    tick_armed: bool,
    /// Smoothed observed RPC round-trip (seconds).
    srtt: Option<f64>,
    /// RTT variance estimate (seconds) — congested overlay paths have
    /// heavy-tailed queueing delay, and a mean-based timeout would fire on
    /// every tail event and amplify the congestion with duplicates.
    rttvar: f64,
    /// First transmissions sent (diagnostic).
    pub rpcs_sent: u64,
    /// Retransmissions sent (diagnostic).
    pub retransmits: u64,
    /// Optional per-RPC trace: (xid, first_sent s, replied s, retries).
    pub trace: Option<Vec<(u32, f64, f64, u32)>>,
}

impl NfsClient {
    /// A client of `server`, sourcing requests from `local_port`.
    pub fn new(server: VirtIp, local_port: u16) -> Self {
        NfsClient {
            server,
            local_port,
            next_xid: 1,
            pending: HashMap::new(),
            transfers: HashMap::new(),
            completed: Vec::new(),
            tick_armed: false,
            srtt: None,
            rttvar: 0.0,
            rpcs_sent: 0,
            retransmits: 0,
            trace: None,
        }
    }

    /// Smoothed RPC RTT estimate (seconds), if sampled.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// The adaptive base timeout for a fresh RPC: srtt + 4·rttvar,
    /// clamped — the TCP formula, which tolerates queueing-delay tails.
    fn base_rto(&self) -> SimDuration {
        match self.srtt {
            Some(s) => SimDuration::from_secs_f64((s + 4.0 * self.rttvar).clamp(1.0, 20.0)),
            None => SimDuration::from_secs(2),
        }
    }

    /// Must be called from the embedding workload's `on_boot`.
    pub fn bind(&self, w: &mut WsHandle<'_, '_, '_>) {
        w.stack.udp_bind(self.local_port);
    }

    /// Start reading `total` bytes of `name`; `transfer` is a caller-chosen
    /// id reported back on completion.
    pub fn begin_read(
        &mut self,
        w: &mut WsHandle<'_, '_, '_>,
        transfer: u64,
        name: impl Into<String>,
        total: u64,
    ) {
        self.begin(w, transfer, name.into(), total, OpKind::Read);
    }

    /// Start writing `total` bytes to `name`.
    pub fn begin_write(
        &mut self,
        w: &mut WsHandle<'_, '_, '_>,
        transfer: u64,
        name: impl Into<String>,
        total: u64,
    ) {
        self.begin(w, transfer, name.into(), total, OpKind::Write);
    }

    fn begin(
        &mut self,
        w: &mut WsHandle<'_, '_, '_>,
        transfer: u64,
        name: String,
        total: u64,
        kind: OpKind,
    ) {
        self.transfers.insert(
            transfer,
            Transfer {
                name,
                kind,
                total,
                next_offset: 0,
                acked: 0,
            },
        );
        if total == 0 {
            self.transfers.remove(&transfer);
            self.completed.push(transfer);
            return;
        }
        self.fill_window(w, transfer);
        if !self.tick_armed {
            self.tick_armed = true;
            w.wake_after(TICK, TAG_TICK);
        }
    }

    /// Completed transfer ids since the last call.
    pub fn drain_completed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.completed)
    }

    /// Transfers still in progress.
    pub fn active(&self) -> usize {
        self.transfers.len()
    }

    /// Forward a stack event. Returns true if it was an NFS packet.
    pub fn on_event(&mut self, w: &mut WsHandle<'_, '_, '_>, ev: &StackEvent) -> bool {
        let StackEvent::UdpIn {
            from,
            dst_port,
            data,
            ..
        } = ev
        else {
            return false;
        };
        if *dst_port != self.local_port || *from != self.server {
            return false;
        }
        let Some(rpc) = Rpc::decode(data.clone()) else {
            return true;
        };
        let (xid, ok) = match rpc {
            Rpc::ReadReply { xid, ok, .. } => (xid, ok),
            Rpc::WriteReply { xid, ok } => (xid, ok),
            _ => return true,
        };
        let Some(p) = self.pending.remove(&xid) else {
            return true; // duplicate reply
        };
        if let Some(trace) = &mut self.trace {
            trace.push((
                xid,
                p.first_sent.as_secs_f64(),
                w.now().as_secs_f64(),
                p.retries,
            ));
        }
        // Karn-safe RTT sample: only first-transmission replies.
        if p.retries == 0 {
            let rtt = w.now().saturating_since(p.first_sent).as_secs_f64();
            match self.srtt {
                Some(s) => {
                    self.rttvar = 0.75 * self.rttvar + 0.25 * (s - rtt).abs();
                    self.srtt = Some(0.875 * s + 0.125 * rtt);
                }
                None => {
                    self.srtt = Some(rtt);
                    self.rttvar = rtt / 2.0;
                }
            }
        }
        let transfer_id = p.transfer;
        if let Some(t) = self.transfers.get_mut(&transfer_id) {
            if ok {
                t.acked += u64::from(p.len);
            } else {
                // Missing file: treat as instantly complete (job setup
                // errors surface in the experiment harness as zero-byte IO).
                t.acked = t.total;
                t.next_offset = t.total;
            }
            if t.acked >= t.total {
                self.transfers.remove(&transfer_id);
                self.completed.push(transfer_id);
            } else {
                self.fill_window(w, transfer_id);
            }
        }
        true
    }

    /// Forward a wake tag. Returns true if it belonged to the NFS client.
    pub fn on_wake(&mut self, w: &mut WsHandle<'_, '_, '_>, tag: u64) -> bool {
        if tag != TAG_TICK {
            return false;
        }
        self.tick_armed = false;
        let now = w.now();
        // Retransmit stale RPCs with exponential backoff (hard-mount
        // semantics: retry forever, but never storm a busy server).
        for xid in self.stale_xids(now) {
            self.retransmits += 1;
            let p = self.pending.get_mut(&xid).expect("collected above");
            p.sent_at = now;
            p.retries += 1;
            p.rto = p.rto.saturating_double().min(MAX_RTO);
            let (kind, offset, len, transfer) = (p.kind, p.offset, p.len, p.transfer);
            let name = self
                .transfers
                .get(&transfer)
                .map(|t| t.name.clone())
                .unwrap_or_default();
            self.send_rpc(w, xid, kind, name, offset, len);
        }
        if !self.transfers.is_empty() {
            self.tick_armed = true;
            w.wake_after(TICK, TAG_TICK);
        }
        true
    }

    /// The RPCs whose timeout has lapsed, in xid order: the map iterates in
    /// a per-process random order, and the order retransmits reach the wire
    /// is simulation input.
    fn stale_xids(&self, now: SimTime) -> Vec<u32> {
        let mut stale: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, p)| now.saturating_since(p.sent_at) >= p.rto)
            .map(|(&x, _)| x)
            .collect();
        stale.sort_unstable();
        stale
    }

    fn fill_window(&mut self, w: &mut WsHandle<'_, '_, '_>, transfer: u64) {
        loop {
            let in_flight = self
                .pending
                .values()
                .filter(|p| p.transfer == transfer)
                .count();
            if in_flight >= WINDOW {
                break;
            }
            let Some(t) = self.transfers.get_mut(&transfer) else {
                break;
            };
            if t.next_offset >= t.total {
                break;
            }
            let len = (t.total - t.next_offset).min(CHUNK as u64) as u32;
            let offset = t.next_offset;
            t.next_offset += u64::from(len);
            let xid = self.next_xid;
            self.next_xid += 1;
            let (kind, name) = (t.kind, t.name.clone());
            let rto = self.base_rto().max(MIN_RTO);
            self.rpcs_sent += 1;
            self.pending.insert(
                xid,
                PendingRpc {
                    transfer,
                    kind,
                    offset,
                    len,
                    sent_at: w.now(),
                    first_sent: w.now(),
                    retries: 0,
                    rto,
                },
            );
            self.send_rpc(w, xid, kind, name, offset, len);
        }
    }

    fn send_rpc(
        &mut self,
        w: &mut WsHandle<'_, '_, '_>,
        xid: u32,
        kind: OpKind,
        name: String,
        offset: u64,
        len: u32,
    ) {
        let rpc = match kind {
            OpKind::Read => Rpc::ReadReq {
                xid,
                name,
                offset,
                len,
            },
            OpKind::Write => Rpc::WriteReq {
                xid,
                name,
                offset,
                data_len: len,
            },
        };
        w.stack
            .udp_send(self.server, NFS_PORT, self.local_port, rpc.encode());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_codec_roundtrip() {
        let cases = vec![
            Rpc::ReadReq {
                xid: 7,
                name: "input.fasta".into(),
                offset: 65536,
                len: 32768,
            },
            Rpc::WriteReq {
                xid: 8,
                name: "out".into(),
                offset: 0,
                data_len: 100,
            },
            Rpc::ReadReply {
                xid: 7,
                ok: true,
                data_len: 32768,
            },
            Rpc::ReadReply {
                xid: 9,
                ok: false,
                data_len: 0,
            },
            Rpc::WriteReply { xid: 8, ok: true },
        ];
        for rpc in cases {
            assert_eq!(Rpc::decode(rpc.encode()).expect("decodes"), rpc);
        }
    }

    #[test]
    fn stale_rpcs_retransmit_in_xid_order() {
        let mut c = NfsClient::new(VirtIp::testbed(2), 900);
        for xid in 1..=64 {
            c.pending.insert(
                xid,
                PendingRpc {
                    transfer: 0,
                    kind: OpKind::Read,
                    offset: 0,
                    len: 0,
                    sent_at: SimTime::ZERO,
                    first_sent: SimTime::ZERO,
                    retries: 0,
                    // Odd xids time out first.
                    rto: SimDuration::from_secs(if xid % 2 == 1 { 1 } else { 5 }),
                },
            );
        }
        let odd: Vec<u32> = (1..=64).filter(|x| x % 2 == 1).collect();
        assert_eq!(c.stale_xids(SimTime::from_secs(2)), odd);
        assert_eq!(
            c.stale_xids(SimTime::from_secs(5)),
            (1..=64).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn rpc_decode_is_total() {
        for len in 0..64 {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let _ = Rpc::decode(Bytes::from(junk));
        }
    }

    #[test]
    fn read_reply_payload_sizes_match_wire_load() {
        // The reply for a full chunk must actually carry that many bytes.
        let reply = Rpc::ReadReply {
            xid: 1,
            ok: true,
            data_len: CHUNK as u32,
        };
        assert!(reply.encode().len() >= CHUNK);
    }
}
