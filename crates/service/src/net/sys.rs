//! Hand-rolled Linux `epoll`/`eventfd` bindings.
//!
//! The event loop needs exactly five syscalls beyond what
//! `std::net` exposes — `epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd`, and `getrlimit` — so they are declared here directly
//! against the C library `std` already links, keeping the tree free of
//! crates.io dependencies. Everything is wrapped in the two RAII types
//! [`Epoll`] and [`EventFd`]; raw fds never escape unowned.

use std::io;
use std::os::fd::RawFd;

/// Readable (incl. accepted connections pending on a listener).
pub const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported; no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down the write half of the connection.
pub const EPOLLRDHUP: u32 = 0x2000;

/// `accept` failed: the process is out of file descriptors.
pub const EMFILE: i32 = 24;
/// `accept` failed: the system is out of file descriptors.
pub const ENFILE: i32 = 23;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's readiness record. x86-64 is the one Linux ABI where
/// `struct epoll_event` is packed; everywhere else it has natural
/// alignment — mirror glibc's `__EPOLL_PACKED` exactly or `epoll_wait`
/// scribbles events at the wrong offsets.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-state bitmask (`EPOLLIN` | …).
    pub events: u32,
    /// The caller's token, echoed back verbatim.
    pub token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

/// The soft `RLIMIT_NOFILE` cap — how many fds this process may hold.
/// The C10K test scales its connection count to it.
pub fn nofile_limit() -> Option<u64> {
    const RLIMIT_NOFILE: i32 = 7;
    let mut lim = RLimit { cur: 0, max: 0 };
    let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) };
    (rc == 0).then_some(lim.cur)
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates the epoll fd (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest and token.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes an existing registration's interest set.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest list.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL but must be non-null on
        // pre-2.6.9 kernels; passing a real struct costs nothing.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (-1 = forever) for readiness; fills
    /// `events` and returns how many are valid. A signal interruption
    /// reports as zero events rather than an error — callers just loop.
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
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(e)
            };
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd: the cross-thread doorbell that lets engine
/// workers wake the event loop out of `epoll_wait` when a completion
/// lands on the queue.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates the eventfd (nonblocking, close-on-exec).
    pub fn new() -> io::Result<EventFd> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The fd to register with [`Epoll`].
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Rings the doorbell. A full counter (EAGAIN) already means the
    /// loop has a pending wakeup, so the error is safely ignored.
    pub fn signal(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
    }

    /// Clears the counter so level-triggered epoll stops reporting it,
    /// and returns how many rings it held (0 when none).
    pub fn drain(&self) -> u64 {
        let mut buf = [0u8; 8];
        let n = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        if n == 8 {
            u64::from_ne_bytes(buf)
        } else {
            0
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readable_sockets_and_eventfd_wakeups() {
        let epoll = Epoll::new().unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();

        let efd = EventFd::new().unwrap();
        epoll.add(efd.raw(), EPOLLIN, 9).unwrap();

        // Nothing ready yet: a zero-timeout wait returns no events.
        let mut events = [EpollEvent {
            events: 0,
            token: 0,
        }; 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        // A connecting peer makes the listener readable under its token.
        let mut peer = std::net::TcpStream::connect(addr).unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert!(n >= 1);
        assert!((0..n).any(|i| events[i].token == 7));

        // Accept, then watch the connection go readable on peer bytes.
        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        epoll
            .add(conn.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 11)
            .unwrap();
        peer.write_all(b"ping\n").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert!((0..n).any(|i| events[i].token == 11));

        // The eventfd doorbell: signal → readable; drain → silent again.
        efd.signal();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert!((0..n).any(|i| events[i].token == 9));
        efd.drain();
        epoll.delete(listener.as_raw_fd()).unwrap();
        epoll.delete(conn.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "drained + deleted");
    }

    #[test]
    fn nofile_limit_is_reported() {
        let lim = nofile_limit().expect("getrlimit works on linux");
        assert!(lim >= 64, "implausibly low fd limit {lim}");
    }
}
