//! Raw `epoll(7)` / `eventfd(2)` syscalls via a self-declared `extern`.
//!
//! `std` exposes no readiness API, but it already links libc, so declaring
//! the five symbols we need keeps the workspace dependency-free — the same
//! trick `sibia_serve::signal` uses for `signal(2)`. Everything here is a
//! thin RAII wrapper; the unsafety is confined to this module and each
//! wrapper upholds the obvious invariant (the fd it owns is open until
//! `Drop`).
//!
//! Off Linux the module degrades to stubs whose constructors return
//! [`std::io::ErrorKind::Unsupported`], so the crate still compiles and the
//! caller gets a typed "no reactor here" error instead of a link failure.

#[cfg(target_os = "linux")]
pub(crate) use linux::widen_listen_backlog;
#[cfg(target_os = "linux")]
pub use linux::{Epoll, EventFd};

#[cfg(not(target_os = "linux"))]
pub(crate) use fallback::widen_listen_backlog;
#[cfg(not(target_os = "linux"))]
pub use fallback::{Epoll, EventFd};

/// One readiness event, mirroring `struct epoll_event`. On x86-64 the
/// kernel ABI packs the struct (no padding between `events` and `data`);
/// other architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// `EPOLL*` readiness bits.
    pub events: u32,
    /// The caller's token, returned verbatim.
    pub data: u64,
}

/// Readable (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`; always reported, never needs arming).
pub const EPOLLERR: u32 = 0x008;
/// Peer hung up (`EPOLLHUP`).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery (`EPOLLET`).
pub const EPOLLET: u32 = 1 << 31;

#[cfg(target_os = "linux")]
mod linux {
    use super::EpollEvent;
    use std::io;
    use std::os::fd::RawFd;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
    }

    /// Re-issues `listen(2)` on an already-listening socket to widen its
    /// accept backlog. `std::net::TcpListener::bind` hardcodes a backlog of
    /// 128, which a multi-thousand-connection storm overflows — established
    /// connections then sit half-open until the kernel resets them. Calling
    /// `listen` again on Linux just updates the backlog (clamped by
    /// `net.core.somaxconn`). Failure is ignored: the socket keeps its old
    /// backlog, which is only a capacity loss, never a correctness one.
    pub(crate) fn widen_listen_backlog(listener: &std::net::TcpListener, backlog: i32) {
        use std::os::fd::AsRawFd;
        unsafe { listen(listener.as_raw_fd(), backlog) };
    }

    /// An owned epoll instance.
    #[derive(Debug)]
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// Creates the instance (`EPOLL_CLOEXEC`).
        pub fn new() -> io::Result<Self> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` for `events`, tagging it with `token`.
        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Changes the registration of `fd`.
        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Removes `fd` from the interest list.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks up to `timeout_ms` (-1 = forever) and fills `events`,
        /// returning how many fired. `EINTR` reports as zero events rather
        /// than an error: the caller's loop just comes around again.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(n as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// A nonblocking `eventfd(2)`: the reactor's cross-thread wakeup.
    /// Worker threads [`wake`](EventFd::wake) it after queuing a
    /// completion; the reactor holds it in its epoll set and
    /// [`drain`](EventFd::drain)s the counter each time it fires.
    #[derive(Debug)]
    pub struct EventFd {
        fd: RawFd,
    }

    impl EventFd {
        /// Creates the fd (nonblocking, cloexec).
        pub fn new() -> io::Result<Self> {
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { fd })
        }

        /// The fd to register in an epoll set.
        pub fn raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Adds 1 to the counter, waking any epoll waiter. A full counter
        /// (`EAGAIN`) already guarantees a pending wakeup, so errors are
        /// deliberately ignored.
        pub fn wake(&self) {
            let one: u64 = 1;
            unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Zeroes the counter so edge-triggered registration re-arms.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod fallback {
    use super::EpollEvent;
    use std::io;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "the sibia-net reactor requires Linux epoll",
        )
    }

    /// No-op off Linux: the listener keeps `std`'s default backlog.
    pub(crate) fn widen_listen_backlog(_listener: &std::net::TcpListener, _backlog: i32) {}

    /// Stub: construction fails with `Unsupported` off Linux.
    #[derive(Debug)]
    pub struct Epoll;

    impl Epoll {
        /// Always `Unsupported` off Linux.
        pub fn new() -> io::Result<Self> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn add(&self, _fd: i32, _events: u32, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn modify(&self, _fd: i32, _events: u32, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn delete(&self, _fd: i32) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn wait(&self, _events: &mut [EpollEvent], _timeout_ms: i32) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    /// Stub: construction fails with `Unsupported` off Linux.
    #[derive(Debug)]
    pub struct EventFd;

    impl EventFd {
        /// Always `Unsupported` off Linux.
        pub fn new() -> io::Result<Self> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn raw_fd(&self) -> i32 {
            -1
        }

        /// Unreachable (no instance can exist).
        pub fn wake(&self) {}

        /// Unreachable (no instance can exist).
        pub fn drain(&self) {}
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_an_epoll_waiter() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw_fd(), EPOLLIN | EPOLLET, 42).unwrap();

        let mut events = [EpollEvent::default(); 4];
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        ev.wake();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        // Copy out of the packed struct: references into it are UB.
        let (bits, token) = (events[0].events, events[0].data);
        assert_eq!(token, 42);
        assert_ne!(bits & EPOLLIN, 0);

        // Edge-triggered: without draining, a second wake still fires (the
        // counter transitioned 1 -> 2), and after draining it stays quiet.
        ev.wake();
        assert_eq!(ep.wait(&mut events, 100).unwrap(), 1);
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_tracks_modify_and_delete() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw_fd(), EPOLLIN, 7).unwrap();
        ev.wake();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 100).unwrap(), 1);
        // Level-triggered: still ready until drained.
        ep.modify(ev.raw_fd(), EPOLLIN, 9).unwrap();
        assert_eq!(ep.wait(&mut events, 100).unwrap(), 1);
        let token = events[0].data;
        assert_eq!(token, 9);
        ep.delete(ev.raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
