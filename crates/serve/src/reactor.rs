//! Readiness polling for the event-driven acceptor (DESIGN.md §7.9).
//!
//! A hand-rolled epoll wrapper over direct `extern "C"` bindings — the
//! workspace stays dependency-free, so no `libc`/`mio`. Only the three
//! epoll calls (plus `close`) are bound; everything else the transport
//! needs (`set_nonblocking`, `set_nodelay`, timeouts) already exists in
//! std. On non-Linux targets [`Poller::new`] is `Unsupported`, and so is
//! `Server::start`: serving is Linux-only.
//!
//! The wrapper is level-triggered: an fd with unread bytes (or unflushed
//! write space, when write interest is armed) reports ready on every
//! `wait`, so the event loop never needs to track edge state. Tokens are
//! caller-chosen `u64`s carried in the kernel's per-fd user data.

use std::io;
use std::time::Duration;

/// What to watch an fd for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (the common case: heads and accepts).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest (a shed response is still being flushed).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Bytes (or an EOF) are waiting to be read.
    pub readable: bool,
    /// The socket can accept more outgoing bytes.
    pub writable: bool,
    /// Peer hung up or the socket errored; the fd should be torn down
    /// after draining whatever [`Event::readable`] still delivers.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! The raw epoll surface. `epoll_event` is packed on x86-64 (and only
    //! there) to match the kernel ABI.

    #[allow(non_camel_case_types)]
    pub type c_int = i32;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// An epoll instance (Linux) or an always-erroring stub (elsewhere).
pub struct Poller {
    #[cfg(target_os = "linux")]
    epfd: i32,
    #[cfg(target_os = "linux")]
    scratch: std::cell::RefCell<Vec<sys::EpollEvent>>,
}

// The scratch buffer makes Poller !Sync by default; the event loop owns
// the poller from a single thread, and moving it there needs Send only.
#[cfg(target_os = "linux")]
unsafe impl Send for Poller {}

impl Poller {
    /// A fresh epoll instance.
    #[cfg(target_os = "linux")]
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            scratch: std::cell::RefCell::new(vec![sys::EpollEvent { events: 0, data: 0 }; 64]),
        })
    }

    /// Readiness polling is Linux-only, and with it the server.
    #[cfg(not(target_os = "linux"))]
    pub fn new() -> io::Result<Poller> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "readiness polling needs epoll (Linux)",
        ))
    }

    #[cfg(target_os = "linux")]
    fn ctl(&self, op: sys::c_int, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: {
                let mut bits = sys::EPOLLRDHUP;
                if interest.readable {
                    bits |= sys::EPOLLIN;
                }
                if interest.writable {
                    bits |= sys::EPOLLOUT;
                }
                bits
            },
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token`.
    #[cfg(target_os = "linux")]
    pub fn add(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of a registered fd.
    #[cfg(target_os = "linux")]
    pub fn modify(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd` (ownership of the fd is handed elsewhere, e.g. to
    /// a worker thread).
    #[cfg(target_os = "linux")]
    pub fn remove(&self, fd: i32) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks for readiness up to `timeout` (`None` = forever) and appends
    /// the ready set to `out`. Returns how many events fired. `EINTR`
    /// retries internally.
    #[cfg(target_os = "linux")]
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: sys::c_int = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as sys::c_int,
        };
        let mut scratch = self.scratch.borrow_mut();
        let n = loop {
            let rc = unsafe {
                sys::epoll_wait(
                    self.epfd,
                    scratch.as_mut_ptr(),
                    scratch.len() as sys::c_int,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for raw in scratch.iter().take(n) {
            // copy out of the (possibly packed) kernel struct by value
            let bits = raw.events;
            let token = raw.data;
            out.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn readable_event_fires_when_bytes_land() {
        let poller = Poller::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        poller.add(rx.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // nothing yet: a short wait times out with no events
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        tx.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].hangup);
    }

    #[test]
    fn half_close_reports_hangup_and_eof() {
        let poller = Poller::new().unwrap();
        let (tx, mut rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        poller.add(rx.as_raw_fd(), 9, Interest::READ).unwrap();

        // peer shuts down its write side without sending anything — the
        // half-closed connection must still wake the poller (RDHUP), and
        // the read side must observe a clean EOF so the conn can be reaped
        tx.shutdown(std::net::Shutdown::Write).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 9);
        assert!(events[0].hangup, "half-close must flag hangup");
        let mut buf = [0u8; 8];
        assert_eq!(rx.read(&mut buf).unwrap(), 0, "EOF after half-close");
    }

    #[test]
    fn modify_arms_write_interest_and_remove_silences() {
        let poller = Poller::new().unwrap();
        let (tx, _rx) = UnixStream::pair().unwrap();
        tx.set_nonblocking(true).unwrap();
        poller.add(tx.as_raw_fd(), 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no read interest satisfied yet");

        poller
            .modify(tx.as_raw_fd(), 3, Interest::READ_WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));

        events.clear();
        poller.remove(tx.as_raw_fd()).unwrap();
        let t0 = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "removed fd still reported events");
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }
}
