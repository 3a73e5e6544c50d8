//! TCP edge cases exercised through the public API: duplicate segments,
//! zero-window persistence, simultaneous close, stack-level abort/reset
//! interplay, and ident/event bookkeeping.

use bytes::Bytes;
use wow_netsim::time::{SimDuration, SimTime};
use wow_vnet::prelude::*;
use wow_vnet::tcp::{TcpConfig, TcpConn, TcpState};

const T0: SimTime = SimTime::ZERO;

fn pair() -> (TcpConn, TcpConn) {
    let mut c = TcpConn::connect(T0, 5000, 80, 1000, TcpConfig::default());
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
