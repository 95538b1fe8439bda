//! Raw Linux syscall bindings for the readiness loop.
//!
//! The build environment is offline, so no `libc` crate: the handful of
//! symbols we need (`epoll_*`, `eventfd`, `setrlimit`) are declared
//! here directly — they live in the C library every Rust binary on
//! Linux already links. Everything is `cfg(target_os = "linux")`; other
//! targets get an `Unsupported` stub so the workspace still compiles.

#![allow(non_camel_case_types)]

use std::io;

/// Readiness: the fd has bytes to read (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd can accept writes (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// The peer closed its end or an error is pending (`EPOLLERR | EPOLLHUP`).
pub const EPOLLERR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`). Always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half (`EPOLLRDHUP`): a half-closed socket.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered registration (`EPOLLET`).
pub const EPOLLET: u32 = 1 << 31;

pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// One `struct epoll_event`. Packed on x86-64 exactly as the kernel ABI
/// demands (the kernel reads 12 bytes per event).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Debug)]
pub struct epoll_event {
    /// Readiness bit set (`EPOLLIN | ...`).
    pub events: u32,
    /// Caller-owned cookie; we store the connection token.
    pub u64: u64,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::*;

    #[repr(C)]
    struct rlimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
        fn epoll_wait(epfd: i32, events: *mut epoll_event, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn getrlimit(resource: i32, rlim: *mut rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const rlimit) -> i32;
    }

    pub fn sys_epoll_create() -> io::Result<i32> {
        // SAFETY: epoll_create1 takes a flags word and touches no
        // caller memory; the return value is checked below.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn sys_epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = epoll_event { events, u64: token };
        // SAFETY: `ev` is a live, properly laid out (`repr(C)`, packed
        // to the kernel ABI) epoll_event for the duration of the call.
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn sys_epoll_wait(
        epfd: i32,
        events: &mut [epoll_event],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        // SAFETY: the pointer/length pair comes from a live `&mut`
        // slice, so the kernel writes at most `events.len()` entries
        // into memory we exclusively own.
        let rc = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            // A signal landing mid-wait is an empty wake-up, not a failure.
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }

    pub fn sys_eventfd() -> io::Result<i32> {
        // SAFETY: eventfd takes two scalars and touches no caller
        // memory; the return value is checked below.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn sys_close(fd: i32) {
        // SAFETY: close takes an fd by value; callers pass fds they
        // own (from sys_epoll_create / sys_eventfd) exactly once.
        unsafe {
            close(fd);
        }
    }

    pub fn sys_eventfd_write(fd: i32) {
        let one: u64 = 1;
        // SAFETY: the buffer is the 8 bytes of the local `one`, live
        // for the whole call. Failure means the counter is saturated —
        // the loop is already guaranteed to wake, so the signal is
        // delivered.
        unsafe {
            write(fd, &one as *const u64 as *const u8, 8);
        }
    }

    pub fn sys_eventfd_drain(fd: i32) {
        let mut buf = [0u8; 8];
        // SAFETY: the kernel writes at most 8 bytes into the 8-byte
        // local buffer; the counter value itself is discarded.
        unsafe {
            read(fd, buf.as_mut_ptr(), 8);
        }
    }

    pub fn sys_raise_nofile(want: u64) -> io::Result<u64> {
        let mut lim = rlimit { rlim_cur: 0, rlim_max: 0 };
        // SAFETY: `lim` is a live, `repr(C)` rlimit the kernel fills.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } < 0 {
            return Err(io::Error::last_os_error());
        }
        if lim.rlim_cur < want && lim.rlim_max >= want {
            let raised = rlimit { rlim_cur: want, rlim_max: lim.rlim_max };
            // SAFETY: `raised` is a live, `repr(C)` rlimit read by the
            // kernel for the duration of the call.
            if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } < 0 {
                return Err(io::Error::last_os_error());
            }
            lim.rlim_cur = want;
        }
        Ok(lim.rlim_cur)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::*;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "mst-net requires Linux epoll"))
    }

    pub fn sys_epoll_create() -> io::Result<i32> {
        unsupported()
    }

    pub fn sys_epoll_ctl(_: i32, _: i32, _: i32, _: u32, _: u64) -> io::Result<()> {
        unsupported()
    }

    pub fn sys_epoll_wait(_: i32, _: &mut [epoll_event], _: i32) -> io::Result<usize> {
        unsupported()
    }

    pub fn sys_eventfd() -> io::Result<i32> {
        unsupported()
    }

    pub fn sys_close(_: i32) {}

    pub fn sys_eventfd_write(_: i32) {}

    pub fn sys_eventfd_drain(_: i32) {}

    pub fn sys_raise_nofile(_: u64) -> io::Result<u64> {
        unsupported()
    }
}

pub use imp::*;

/// Raises the process `RLIMIT_NOFILE` soft limit toward `want` (capped
/// at the hard limit) and returns the resulting soft limit. A server
/// parking thousands of keep-alive sockets needs the descriptors; the
/// capacity test raises the limit before opening its client fleet.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    sys_raise_nofile(want)
}
