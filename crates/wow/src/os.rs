//! The live runtime's foreign calls — [`Poller`] (epoll; a sleep-scan
//! elsewhere) and [`mmsg`] — and so every `unsafe` site in this crate:
//! `scripts/check.sh` fails on one anywhere else under `crates/wow/src`, or
//! on more than the 12 here. The declarations are raw FFI against the C
//! library std already links (this workspace vendors no `libc` crate).

#[cfg(target_os = "linux")]
mod epoll {
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

        pub fn add(&mut self, socket: &UdpSocket, token: u32) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, socket, token)
        }

        pub fn del(&mut self, socket: &UdpSocket) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, socket, 0)
        }

        fn ctl(&mut self, op: i32, socket: &UdpSocket, token: u32) -> std::io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: token.into(),
            };
            // SAFETY: `ev` is a live local (ignored for DEL on modern
            // kernels, but non-null as pre-2.6.9 ABIs require); the fd is
            // owned by `socket`.
            let rc = unsafe { epoll_ctl(self.epfd, op, socket.as_raw_fd(), &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        /// Block up to `timeout_ms` for readiness; push ready tokens.
        pub fn wait(&mut self, ready: &mut Vec<u32>, timeout_ms: i32) -> std::io::Result<()> {
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
                // Copy out of the (possibly packed) struct before use; every
                // registered token is a u32.
                let token = { ev.data };
                ready.push(token as u32);
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
mod epoll {
    use std::collections::HashMap;
    use std::net::UdpSocket;
    use std::time::Duration;

    /// Portable stand-in: every registered token is reported "ready" after
    /// a short sleep; idle sockets cost one non-blocking recv each.
    pub struct Poller {
        tokens: HashMap<i64, u32>,
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

        pub fn add(&mut self, socket: &UdpSocket, token: u32) -> std::io::Result<()> {
            self.tokens.insert(key(socket), token);
            Ok(())
        }

        pub fn del(&mut self, socket: &UdpSocket) -> std::io::Result<()> {
            self.tokens.remove(&key(socket));
            Ok(())
        }

        pub fn wait(&mut self, ready: &mut Vec<u32>, timeout_ms: i32) -> std::io::Result<()> {
            std::thread::sleep(Duration::from_millis(timeout_ms.clamp(0, 5) as u64));
            ready.extend(self.tokens.values().copied());
            Ok(())
        }
    }
}

pub(crate) use epoll::Poller;

/// Vectored UDP transmit and receive. On egress, two kernel fast paths are
/// picked per run of the batch while preserving global emission order:
///
/// * **GSO** — a run of ≥ 2 consecutive frames to the same destination
///   with the same length goes out as one `sendmsg(2)` carrying a
///   `UDP_SEGMENT` control message: the kernel traverses the stack once
///   and segments into per-frame datagrams at the bottom (the relay-burst
///   and keepalive-sweep regime — this is where the batch wins big);
/// * **`sendmmsg(2)`** — everything else is coalesced into multi-message
///   syscalls, one message per frame (mixed sizes/destinations).
///
/// On ingress, `recvmmsg(2)` fills up to [`RECV_BATCH`] fixed slots of the
/// shard's receive arena per syscall; each datagram is then copied out into
/// a right-sized `Bytes` the driver owns.
///
/// Any frame or run the kernel rejects is retried frame-by-frame through
/// the portable path, so errors stay attributed per frame and never stall
/// the frames behind them.
///
/// [`RECV_BATCH`]: crate::udprt::RECV_BATCH
#[cfg(target_os = "linux")]
pub(crate) mod mmsg {
    use std::ffi::c_void;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    use bytes::Bytes;

    use wow_netsim::addr::{PhysAddr, PhysIp};

    use crate::udprt::{to_sock, BufPool, RECV_BATCH};

    const AF_INET: u16 = 2;
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_WAITFORONE: i32 = 0x10000;
    const MSG_TRUNC: i32 = 0x20;
    /// Kernel cap on segments per GSO send (UDP_MAX_SEGMENTS).
    const MAX_GSO_SEGS: usize = 64;
    /// Largest UDP payload one sendmsg can carry (IPv4 datagram limit).
    const MAX_UDP_PAYLOAD: usize = 65_507;

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        /// Network byte order.
        sin_port: u16,
        /// Network byte order (stored via native-endian `from_ne_bytes` of
        /// the dotted octets, which *is* the wire layout).
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    #[repr(C)]
    struct IoVec {
        iov_base: *mut c_void,
        iov_len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut c_void,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut c_void,
        msg_controllen: usize,
        msg_flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: u32,
    }

    /// A `cmsghdr` followed by its (padded) payload — exactly the layout
    /// `CMSG_SPACE(sizeof(u16))` describes on 64-bit Linux.
    #[repr(C, align(8))]
    struct CmsgU16 {
        cmsg_len: usize,
        cmsg_level: i32,
        cmsg_type: i32,
        data: [u8; 8],
    }

    extern "C" {
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut c_void,
        ) -> i32;
    }

    fn sockaddr(to: PhysAddr) -> SockaddrIn {
        SockaddrIn {
            sin_family: AF_INET,
            sin_port: to.port.to_be(),
            sin_addr: u32::from_ne_bytes(to.ip.octets()),
            sin_zero: [0; 8],
        }
    }

    /// Pull up to `max.min(RECV_BATCH)` datagrams in one `recvmmsg(2)`,
    /// the kernel writing each into its own slot of `pool`'s arena, and
    /// copy each out right-sized. All other scratch is on the stack.
    pub fn recv_batch(
        socket: &UdpSocket,
        pool: &mut BufPool,
        out: &mut Vec<(PhysAddr, Bytes)>,
        max: usize,
        wait: bool,
    ) -> std::io::Result<usize> {
        let want = max.min(RECV_BATCH);
        if want == 0 {
            return Ok(0);
        }
        // SAFETY: SockaddrIn, IoVec and MMsgHdr are plain-old-data repr(C)
        // structs for which all-zero bytes are a valid value.
        let mut addrs: [SockaddrIn; RECV_BATCH] = unsafe { std::mem::zeroed() };
        let mut iovs: [IoVec; RECV_BATCH] = unsafe { std::mem::zeroed() };
        let mut msgs: [MMsgHdr; RECV_BATCH] = unsafe { std::mem::zeroed() };
        for (i, slot) in pool.slots().take(want).enumerate() {
            iovs[i] = IoVec {
                iov_base: slot.as_mut_ptr() as *mut c_void,
                iov_len: slot.len(),
            };
            msgs[i].msg_hdr = MsgHdr {
                msg_name: &mut addrs[i] as *mut SockaddrIn as *mut c_void,
                msg_namelen: std::mem::size_of::<SockaddrIn>() as u32,
                msg_iov: &mut iovs[i],
                msg_iovlen: 1,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            };
        }
        let flags = if wait { MSG_WAITFORONE } else { MSG_DONTWAIT };
        // SAFETY: msgs[..want] point at live stack scratch (addrs, iovs)
        // and at disjoint slots of the pool's arena, which nothing else
        // touches until the call returns.
        let ret = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                msgs.as_mut_ptr(),
                want as u32,
                flags,
                std::ptr::null_mut(),
            )
        };
        if ret < 0 {
            let err = std::io::Error::last_os_error();
            return match err.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Ok(0),
                _ => Err(err),
            };
        }
        let mut pushed = 0usize;
        for (i, msg) in msgs.iter().enumerate().take(ret as usize) {
            // A truncated datagram exceeded RECV_BUF_CAP — impossible for
            // real UDP/IPv4 payloads, so drop the mangled bytes.
            if msg.msg_hdr.msg_flags & MSG_TRUNC != 0 {
                continue;
            }
            let a = &addrs[i];
            let o = a.sin_addr.to_ne_bytes();
            let src = PhysAddr::new(
                PhysIp::new(o[0], o[1], o[2], o[3]),
                u16::from_be(a.sin_port),
            );
            out.push((src, pool.frame(i, msg.msg_len as usize)));
            pushed += 1;
        }
        Ok(pushed)
    }

    /// Flush the whole batch, returning the number of frames the kernel
    /// refused. The caller clears the batch afterwards.
    pub fn transmit_frames(socket: &UdpSocket, frames: &[(PhysAddr, Bytes)]) -> u64 {
        let n = frames.len();
        if n == 0 {
            return 0;
        }
        let fd = socket.as_raw_fd();
        let mut failed = 0u64;
        // Walk the batch in emission order, splitting it into maximal
        // GSO-eligible runs and the stretches between them. Sending each
        // piece as it is found keeps the global order intact.
        let mut i = 0usize;
        let mut plain_from = 0usize; // start of the pending non-GSO stretch
        while i < n {
            let (to, first) = &frames[i];
            let seg = first.len();
            let mut j = i + 1;
            if seg > 0 {
                while j < n
                    && j - i < MAX_GSO_SEGS
                    && (j - i + 1) * seg <= MAX_UDP_PAYLOAD
                    && frames[j].0 == *to
                    && frames[j].1.len() == seg
                {
                    j += 1;
                }
            }
            if j - i >= 2 {
                failed += send_plain(fd, socket, &frames[plain_from..i]);
                failed += send_gso(fd, socket, &frames[i..j], *to, seg);
                plain_from = j;
            }
            i = j;
        }
        failed += send_plain(fd, socket, &frames[plain_from..n]);
        failed
    }

    /// One `sendmsg` for a same-destination, same-length run: the iovec
    /// carries the frames back to back and `UDP_SEGMENT` tells the kernel
    /// to cut the stream into `seg`-byte datagrams — one wire datagram per
    /// frame, identical to sending them individually.
    fn send_gso(
        fd: i32,
        socket: &UdpSocket,
        run: &[(PhysAddr, Bytes)],
        to: PhysAddr,
        seg: usize,
    ) -> u64 {
        let mut addr = sockaddr(to);
        let mut iovs: Vec<IoVec> = run
            .iter()
            .map(|(_, frame)| IoVec {
                // sendmsg never writes through the iovec; the cast is the
                // C API's signature, not a mutation.
                iov_base: frame.as_ptr() as *mut c_void,
                iov_len: frame.len(),
            })
            .collect();
        let mut cmsg = CmsgU16 {
            // CMSG_LEN(sizeof(u16)): header (16 bytes on 64-bit) + payload.
            cmsg_len: 16 + 2,
            cmsg_level: SOL_UDP,
            cmsg_type: UDP_SEGMENT,
            data: [0; 8],
        };
        cmsg.data[..2].copy_from_slice(&(seg as u16).to_ne_bytes());
        let msg = MsgHdr {
            msg_name: &mut addr as *mut SockaddrIn as *mut c_void,
            msg_namelen: std::mem::size_of::<SockaddrIn>() as u32,
            msg_iov: iovs.as_mut_ptr(),
            msg_iovlen: iovs.len(),
            msg_control: &mut cmsg as *mut CmsgU16 as *mut c_void,
            msg_controllen: std::mem::size_of::<CmsgU16>(),
            msg_flags: 0,
        };
        // SAFETY: every pointer in `msg` references a live local (addr,
        // iovs, cmsg) or the borrowed frames, all outliving the call.
        let ret = unsafe { sendmsg(fd, &msg, 0) };
        if ret >= 0 {
            return 0;
        }
        // The kernel refused the run (no GSO support, oversized, ...):
        // retry frame by frame so failures are attributed individually.
        let mut failed = 0;
        for (to, frame) in run {
            if socket.send_to(frame, to_sock(*to)).is_err() {
                failed += 1;
            }
        }
        failed
    }

    /// `sendmmsg` for a stretch of mixed frames, one message per frame.
    fn send_plain(fd: i32, socket: &UdpSocket, frames: &[(PhysAddr, Bytes)]) -> u64 {
        let n = frames.len();
        if n == 0 {
            return 0;
        }
        let mut addrs: Vec<SockaddrIn> = frames.iter().map(|(to, _)| sockaddr(*to)).collect();
        let mut iovs: Vec<IoVec> = frames
            .iter()
            .map(|(_, frame)| IoVec {
                iov_base: frame.as_ptr() as *mut c_void,
                iov_len: frame.len(),
            })
            .collect();
        let addrs_ptr = addrs.as_mut_ptr();
        let iovs_ptr = iovs.as_mut_ptr();
        let mut msgs: Vec<MMsgHdr> = (0..n)
            .map(|i| MMsgHdr {
                msg_hdr: MsgHdr {
                    // SAFETY: i < n == addrs.len() == iovs.len(); the Vecs
                    // outlive every use of these pointers below.
                    msg_name: unsafe { addrs_ptr.add(i) } as *mut c_void,
                    msg_namelen: std::mem::size_of::<SockaddrIn>() as u32,
                    msg_iov: unsafe { iovs_ptr.add(i) },
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            })
            .collect();

        let mut failed = 0u64;
        let mut i = 0usize;
        while i < n {
            // SAFETY: msgs[i..] points at n-i valid headers whose name/iov
            // pointers reference live allocations (addrs, iovs, frames).
            let ret = unsafe { sendmmsg(fd, msgs.as_mut_ptr().add(i), (n - i) as u32, 0) };
            if ret > 0 {
                i += ret as usize;
            } else {
                // The i-th message failed outright. Retry it alone through
                // std so the error is observed per frame, then move on to
                // its successors — a mid-batch failure must never stall or
                // reorder the frames behind it.
                let (to, frame) = &frames[i];
                if socket.send_to(frame, to_sock(*to)).is_err() {
                    failed += 1;
                }
                i += 1;
            }
        }
        failed
    }
}
