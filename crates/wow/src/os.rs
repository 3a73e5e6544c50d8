//! The live runtime's foreign calls — [`Poller`] (epoll; a sleep-scan
//! elsewhere) and [`mmsg`] (batched ingress) — and so every `unsafe` site
//! in this crate: `scripts/check.sh` fails on one anywhere else under
//! `crates/wow/src`, or on more than the 8 here. The declarations are raw
//! FFI against the C library std already links (this workspace vendors no
//! `libc` crate). Egress needs none: it is one `std` `send_to` per frame
//! ([`crate::udprt::SocketTransport`]).

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

/// Batched UDP ingress: one `recvmmsg(2)` fills up to [`RECV_BATCH`]
/// fixed slots of the shard's receive arena, and each datagram is then
/// copied out into a right-sized `Bytes` the driver owns. (Egress has no
/// counterpart here: live flushes carry about one frame, so each frame is
/// one `send_to`.)
///
/// [`RECV_BATCH`]: crate::udprt::RECV_BATCH
#[cfg(target_os = "linux")]
pub(crate) mod mmsg {
    use std::ffi::c_void;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    use bytes::Bytes;

    use wow_netsim::addr::{PhysAddr, PhysIp};

    use crate::udprt::{BufPool, RECV_BATCH};

    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_WAITFORONE: i32 = 0x10000;
    const MSG_TRUNC: i32 = 0x20;

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        /// Network byte order.
        sin_port: u16,
        /// Network byte order (read back as the dotted octets through
        /// native-endian `to_ne_bytes`, which *is* the wire layout).
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

    extern "C" {
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut c_void,
        ) -> i32;
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
}
