//! Minimal raw-syscall bindings for the reactor: `epoll` only,
//! hand-declared so the crate stays dependency-free (the repo's
//! offline-vendoring convention — no `libc` crate in the tree).
//!
//! The instance is wrapped in an owned type ([`Epoll`]) so its file
//! descriptor closes on drop and no raw fd escapes the module.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable (or accept-ready) event bit.
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable event bit.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition event bit (always reported, never requested).
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup event bit (always reported, never requested).
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EINTR: i32 = 4;

/// One `epoll_wait` readiness record. On x86-64 the kernel ABI packs this
/// struct (glibc's `__EPOLL_PACKED`); getting that wrong corrupts every
/// second event, so the layout attribute is architecture-gated.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    /// Bitmask of ready `EPOLL*` conditions.
    pub events: u32,
    /// The caller's token registered with the fd.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// The raw `epoll_create1` failure.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall; the returned fd is immediately owned.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` is a freshly created, unowned descriptor.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; `fd` is a live descriptor owned
        // by the caller.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` for `events`, delivering `token` on readiness.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure.
    pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` (−1 = forever) and fills `events`.
    /// Retries transparently on `EINTR`. Returns the number of ready
    /// records.
    ///
    /// # Errors
    ///
    /// The raw `epoll_wait` failure.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is a valid writable slice; the kernel
            // writes at most `events.len()` records.
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() != Some(EINTR) {
                return Err(err);
            }
        }
    }
}
