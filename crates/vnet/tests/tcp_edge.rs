//! TCP edge cases exercised through the public API: duplicate segments,
//! zero-window persistence, simultaneous close, stack-level abort/reset
//! interplay, and ident/event bookkeeping.

use bytes::Bytes;
use wow_netsim::time::{SimDuration, SimTime};
use wow_vnet::prelude::*;
use wow_vnet::tcp::{TcpConfig, TcpConn, TcpState, MSS};

const T0: SimTime = SimTime::ZERO;

fn pair() -> (TcpConn, TcpConn) {
    pair_from(1000)
}

/// A connected pair whose client sends its first data byte at `iss + 1`.
fn pair_from(iss: u32) -> (TcpConn, TcpConn) {
    let mut c = TcpConn::connect(T0, 5000, 80, iss, TcpConfig::default());
    let syn = c.take_output().remove(0);
    let mut s = TcpConn::accept(T0, 80, 5000, 9000, &syn, TcpConfig::default());
    loop {
        let a = c.take_output();
        let b = s.take_output();
        if a.is_empty() && b.is_empty() {
            break;
        }
        for seg in a {
            s.on_segment(T0, seg);
        }
        for seg in b {
            c.on_segment(T0, seg);
        }
    }
    (c, s)
}

#[test]
fn duplicate_data_segments_are_idempotent() {
    let (mut c, mut s) = pair();
    c.write(T0, b"hello world");
    let segs = c.take_output();
    // Deliver everything twice.
    for seg in segs.iter().chain(segs.iter()) {
        s.on_segment(T0, seg.clone());
    }
    assert_eq!(&s.read(T0, 64)[..], b"hello world");
    assert_eq!(
        s.read(T0, 64).len(),
        0,
        "duplicates must not duplicate data"
    );
}

/// A peer spraying far-future sequence numbers must not grow the
/// out-of-order map: a segment that starts past the receive window is
/// dropped, and an in-window reassembly still completes around the spray.
#[test]
fn out_of_window_segments_are_dropped_not_stashed() {
    let wide = TcpConfig {
        initial_cwnd_segments: 8, // let all three segments fly at once
        ..TcpConfig::default()
    };
    let mut c = TcpConn::connect(T0, 5000, 80, 1000, wide);
    let syn = c.take_output().remove(0);
    let mut s = TcpConn::accept(T0, 80, 5000, 9000, &syn, TcpConfig::default());
    for seg in s.take_output() {
        c.on_segment(T0, seg);
    }
    for seg in c.take_output() {
        s.on_segment(T0, seg);
    }
    let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    c.write(T0, &data);
    let mut segs = c.take_output();
    assert_eq!(segs.len(), 3);

    let window = TcpConfig::default().recv_capacity as u32;
    for i in 0..10_000u32 {
        let mut junk = segs[0].clone();
        junk.seq = junk.seq.wrapping_add(window + i * 1200);
        junk.payload = Bytes::from_static(&[0xEE; 100]);
        s.on_segment(T0, junk);
    }
    // `TcpConn` exposes no view of its reassembly map; its derived Debug
    // prints the empty map as `ooo: {}`.
    assert!(
        format!("{s:?}").contains("ooo: {}"),
        "out-of-window segments were stashed"
    );

    segs.reverse(); // in-window, out of order
    for seg in segs {
        s.on_segment(T0, seg);
    }
    assert_eq!(&s.read(T0, usize::MAX)[..], &data[..]);
}

/// Payload bytes held in a receiver's reassembly map. `TcpConn` exposes no
/// view of it, so this reads the derived Debug form (`ooo: {seq: b"…", …}`),
/// which prints each letter of a letters-only payload as one character.
fn stashed(s: &TcpConn) -> usize {
    let dbg = format!("{s:?}");
    let map = dbg
        .split("ooo: {")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .expect("derived Debug shows the reassembly map");
    map.split('"').skip(1).step_by(2).map(str::len).sum()
}

/// Overlapping in-window segments stash each window byte at most once: a
/// peer sending 10 000 MSS-long segments that start one byte apart leaves
/// at most `recv_capacity` bytes in the reassembly map, and the stream
/// still reassembles once the gap at `rcv_nxt` fills.
#[test]
fn overlapping_segments_stash_each_byte_once() {
    let (mut c, mut s) = pair();
    let data: Vec<u8> = (0..10_000 + MSS).map(|i| b'a' + (i % 26) as u8).collect();
    c.write(T0, &data[..MSS]);
    let first = c.take_output().remove(0);
    for k in 1..=10_000 {
        let mut seg = first.clone();
        seg.seq = first.seq.wrapping_add(k as u32);
        seg.payload = Bytes::copy_from_slice(&data[k..k + MSS]);
        s.on_segment(T0, seg);
    }
    let cap = TcpConfig::default().recv_capacity;
    let held = stashed(&s);
    assert!(held <= cap, "{held} bytes stashed, window is {cap}");

    s.on_segment(T0, first); // fills the gap at rcv_nxt
    assert_eq!(&s.read(T0, usize::MAX)[..], &data[..]);
}

/// Reassembly across the 2^32 sequence wrap: with `rcv_nxt` just below
/// `u32::MAX`, chunks stashed on both sides of the wrap — one straddling
/// it, some overlapping their neighbours, one apart — are trimmed against
/// their neighbours in stream order, and the stream reassembles.
#[test]
fn reassembly_across_sequence_wrap() {
    let (mut c, mut s) = pair_from(0xFFFF_FEFF); // first byte at 0xFFFF_FF00
    let data: Vec<u8> = (0..0x260).map(|i| b'a' + (i % 26) as u8).collect();
    c.write(T0, &data[..0x60]);
    let first = c.take_output().remove(0);
    assert_eq!(first.seq, 0xFFFF_FF00);
    let send = |s: &mut TcpConn, off: usize, len: usize| {
        let mut seg = first.clone();
        seg.seq = first.seq.wrapping_add(off as u32);
        seg.payload = Bytes::copy_from_slice(&data[off..off + len]);
        s.on_segment(T0, seg);
    };
    send(&mut s, 0xF0, 100); // straddles the wrap: [0xFFFF_FFF0, 0x54)
    send(&mut s, 0x110, 20); // [0x10, 0x24): inside the straddler
    send(&mut s, 0x140, 30); // [0x40, 0x5E): overlaps the straddler's end
    send(&mut s, 0x80, 0x80); // [0xFFFF_FF80, 0): overlaps its start
    send(&mut s, 0x200, 50); // [0x100, 0x132): apart

    // Offsets [0x80, 0x15E) and [0x200, 0x232) are held, each once.
    assert_eq!(stashed(&s), 0xDE + 50);
    send(&mut s, 0x60, 0x200); // [0xFFFF_FF60, 0x160): covers all but the end
    assert_eq!(stashed(&s), 0x200);

    s.on_segment(T0, first); // fills the gap at rcv_nxt
    assert_eq!(stashed(&s), 0);
    assert_eq!(&s.read(T0, usize::MAX)[..], &data[..]);
}

#[test]
fn zero_window_probe_reopens_flow() {
    let tiny = TcpConfig {
        recv_capacity: 1200, // one MSS
        ..TcpConfig::default()
    };
    let mut c = TcpConn::connect(T0, 5000, 80, 1000, TcpConfig::default());
    let syn = c.take_output().remove(0);
    let mut s = TcpConn::accept(T0, 80, 5000, 9000, &syn, tiny);
    let mut t = T0;
    let shuttle = |c: &mut TcpConn, s: &mut TcpConn, t: SimTime| loop {
        let a = c.take_output();
        let b = s.take_output();
        if a.is_empty() && b.is_empty() {
            break;
        }
        for seg in a {
            s.on_segment(t, seg);
        }
        for seg in b {
            c.on_segment(t, seg);
        }
    };
    shuttle(&mut c, &mut s, t);
    // Fill the receiver completely; don't read.
    c.write(t, &[7u8; 6000]);
    for _ in 0..20 {
        t += SimDuration::from_millis(50);
        c.on_tick(t);
        s.on_tick(t);
        shuttle(&mut c, &mut s, t);
    }
    assert!(s.readable() <= 1200);
    // Drain the receiver, then let timers (persist probes) run: the rest
    // of the data must arrive without any new writes.
    let mut got = 0;
    for _ in 0..600 {
        t += SimDuration::from_millis(100);
        got += s.read(t, usize::MAX).len();
        c.on_tick(t);
        s.on_tick(t);
        shuttle(&mut c, &mut s, t);
        if got >= 6000 {
            break;
        }
    }
    assert_eq!(got, 6000, "zero-window stall must recover via probes");
}

#[test]
fn simultaneous_close_reaches_closed_on_both_sides() {
    let (mut c, mut s) = pair();
    // Both close before seeing the other's FIN.
    c.close(T0);
    s.close(T0);
    let c_out = c.take_output();
    let s_out = s.take_output();
    for seg in c_out {
        s.on_segment(T0, seg);
    }
    for seg in s_out {
        c.on_segment(T0, seg);
    }
    // Shuttle the final ACKs.
    let mut t = T0;
    for _ in 0..10 {
        t += SimDuration::from_millis(50);
        let a = c.take_output();
        let b = s.take_output();
        for seg in a {
            s.on_segment(t, seg);
        }
        for seg in b {
            c.on_segment(t, seg);
        }
        c.on_tick(t);
        s.on_tick(t);
    }
    // Both end in TimeWait (simultaneous close) and expire to Closed.
    for conn in [&mut c, &mut s] {
        if conn.state() == TcpState::TimeWait {
            let tw = conn.next_deadline().expect("time-wait timer");
            conn.on_tick(tw);
        }
        assert_eq!(conn.state(), TcpState::Closed);
    }
}

#[test]
fn stack_abort_resets_peer() {
    let mut a = NetStack::new(VirtIp::testbed(2), TcpConfig::default(), 1);
    let mut b = NetStack::new(VirtIp::testbed(3), TcpConfig::default(), 2);
    b.tcp_listen(80);
    let client = a.tcp_connect(T0, b.ip(), 80);
    let shuttle = |a: &mut NetStack, b: &mut NetStack| loop {
        let x = a.take_packets();
        let y = b.take_packets();
        if x.is_empty() && y.is_empty() {
            break;
        }
        for p in x {
            b.on_ip(T0, p);
        }
        for p in y {
            a.on_ip(T0, p);
        }
    };
    shuttle(&mut a, &mut b);
    let server = b
        .take_events()
        .iter()
        .find_map(|e| match e {
            StackEvent::TcpAccepted { sock, .. } => Some(*sock),
            _ => None,
        })
        .expect("accepted");
    a.tcp_abort(client);
    shuttle(&mut a, &mut b);
    assert!(b
        .take_events()
        .contains(&StackEvent::TcpAborted { sock: server }));
}

#[test]
fn stack_unlisten_stops_accepting() {
    let mut a = NetStack::new(VirtIp::testbed(2), TcpConfig::default(), 1);
    let mut b = NetStack::new(VirtIp::testbed(3), TcpConfig::default(), 2);
    b.tcp_listen(80);
    b.tcp_unlisten(80);
    let client = a.tcp_connect(T0, b.ip(), 80);
    for p in a.take_packets() {
        b.on_ip(T0, p);
    }
    for p in b.take_packets() {
        a.on_ip(T0, p);
    }
    assert!(a
        .take_events()
        .contains(&StackEvent::TcpAborted { sock: client }));
    assert!(b.take_events().is_empty());
}

#[test]
fn icmp_ident_mismatch_still_reported_with_fields() {
    // The stack surfaces replies with their ident/seq; callers filter.
    let mut a = NetStack::new(VirtIp::testbed(2), TcpConfig::default(), 1);
    let mut b = NetStack::new(VirtIp::testbed(3), TcpConfig::default(), 2);
    a.ping(b.ip(), 42, 7, Bytes::from_static(b"probe"));
    for p in a.take_packets() {
        b.on_ip(T0, p);
    }
    for p in b.take_packets() {
        a.on_ip(T0, p);
    }
    let evs = a.take_events();
    assert_eq!(
        evs,
        vec![StackEvent::PingReply {
            from: VirtIp::testbed(3),
            ident: 42,
            seq: 7,
        }]
    );
}
