//! A minimal, dependency-free socket readiness layer.
//!
//! [`Poller`] answers one question — *which of my registered sockets may
//! have a datagram waiting?* — without spawning a thread or taking a
//! dependency. On Linux it is backed by raw `epoll` through a tiny
//! hand-rolled FFI shim (`std` already links libc, so declaring the four
//! symbols we need costs nothing); everywhere else (and on Linux if the
//! `epoll` instance cannot be created) it degrades to a portable
//! round-robin sweep with adaptive parking: every registered socket is
//! reported as possibly-ready and the caller's nonblocking drain discovers
//! the truth, with the park interval growing while the sweeps come back
//! empty so an idle endpoint set does not busy-spin.
//!
//! The same shim carries the one-socket wait [`crate::UdpTransport`] times
//! its `recv` with: `wait_readable` is one `ppoll` with a nanosecond
//! `timespec` on Linux (`SO_RCVTIMEO` is rounded up to scheduler ticks —
//! measured on a 250 Hz kernel, a 300 µs wait sleeps 8 ms), and a blocking
//! `SO_RCVTIMEO` peek everywhere else.
//!
//! # Contract
//!
//! `wait` fills `ready` with tokens of sockets that **may** be readable: it
//! is a superset filter, never a guarantee. Every socket that actually has
//! data queued is included (epoll is level-triggered; the fallback reports
//! everything), so a caller that drains each reported socket until
//! `WouldBlock` never misses a datagram. Tokens are the dense indices
//! handed out by [`Poller::register`], in registration order.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

/// Linux `epoll` and `ppoll` via a hand-rolled FFI shim. This is the only
/// unsafe code in the crate: five libc calls (`epoll_create1`, `epoll_ctl`,
/// `epoll_wait`, `close`, `ppoll`) on file descriptors the safe wrappers
/// own or borrow.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    // The kernel ABI packs `epoll_event` on x86 (glibc's `__EPOLL_PACKED`);
    // other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Debug)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
        // `tmo` is `const` in C; glibc copies it, the raw syscall writes the
        // time left back. Declared `*mut` so either behaviour is sound.
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            tmo: *mut Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// `struct timespec` where `time_t` is `long` (every 64-bit Linux ABI
    /// and 32-bit glibc).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x001;

    /// Waits up to `timeout` (nanosecond resolution; seconds clamped to what
    /// a 32-bit `time_t` holds) for `fd` to become readable or report an
    /// error. `Ok(false)` on a timeout **or a signal**: the caller owns the
    /// deadline and re-waits for what is left of it.
    pub fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
        let mut pfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let mut tmo = Timespec {
            tv_sec: timeout.as_secs().min(i32::MAX as u64) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `pfd` and `tmo` are live, exclusively borrowed locals for
        // the duration of the call and `nfds` = 1 matches the one `PollFd`;
        // a null `sigmask` leaves the signal mask alone (plain `poll`
        // semantics). `fd` is only watched, never read or closed, so a stale
        // descriptor can at worst report `POLLNVAL`.
        let rc = unsafe { ppoll(&mut pfd, 1, &mut tmo, std::ptr::null()) };
        if rc >= 0 {
            return Ok(rc > 0);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(false);
        }
        Err(err)
    }

    /// An owned `epoll` instance.
    #[derive(Debug)]
    pub struct Epoll {
        epfd: c_int,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall; the returned fd is owned by `Epoll`
            // and closed exactly once in `Drop`.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { epfd })
        }

        pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Waits up to `timeout` and returns the number of events written
        /// into `events`. Retries on `EINTR`.
        pub fn wait(&self, events: &mut [EpollEvent], timeout: Duration) -> io::Result<usize> {
            // epoll takes whole milliseconds; round up so a sub-ms timeout
            // still sleeps instead of spinning (0 means "poll and return").
            // The reactor source's timers therefore resolve to 1 ms, where
            // `wait_readable` (the `UdpTransport` endpoint) waits with a
            // nanosecond `ppoll`. `epoll_pwait2` would close the gap at the
            // price of more idle wake-ups: an open question in ROADMAP.md,
            // to be settled against `runtime.idle_cpu_share_n5`.
            let ms = timeout
                .as_millis()
                .max(u128::from(!timeout.is_zero()))
                .min(c_int::MAX as u128) as c_int;
            loop {
                // SAFETY: `events` is a valid, exclusively borrowed buffer
                // of `len()` entries for the duration of the call.
                let rc = unsafe {
                    epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as c_int, ms)
                };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `epfd` is a valid fd we own; closing twice is
            // impossible because `Drop` runs once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

/// Waits up to `timeout` (non-zero) for a nonblocking `socket` to have a
/// datagram queued. `Ok(true)` means *try a receive now*; `Ok(false)` means
/// the wait ended early or timed out with nothing seen — the caller owns the
/// deadline and calls again with what is left of it.
#[cfg(target_os = "linux")]
pub(crate) fn wait_readable(socket: &UdpSocket, timeout: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;
    sys::wait_readable(socket.as_raw_fd(), timeout)
}

/// The portable wait: a blocking one-byte peek under `SO_RCVTIMEO` (tick
/// precision at best), the socket back in nonblocking mode on return.
#[cfg(not(target_os = "linux"))]
pub(crate) fn wait_readable(socket: &UdpSocket, timeout: Duration) -> io::Result<bool> {
    socket.set_nonblocking(false)?;
    socket.set_read_timeout(Some(timeout))?;
    let peeked = socket.peek_from(&mut [0u8; 1]);
    socket.set_nonblocking(true)?;
    match peeked {
        Ok(_) => Ok(true),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(false)
        }
        // Anything else (Windows reports a datagram longer than the peek
        // buffer as an error) is for the real receive to classify.
        Err(_) => Ok(true),
    }
}

/// Base park interval of the fallback's adaptive idle backoff.
const PARK_BASE: Duration = Duration::from_micros(50);
/// Cap on the adaptive park interval (kept well under typical protocol
/// timer periods so timers never observably jitter).
const PARK_CAP: Duration = Duration::from_millis(5);

/// The portable degraded mode: report every registered socket as
/// possibly-ready and park adaptively while the caller's drains come back
/// empty.
#[derive(Debug, Default)]
struct Fallback {
    /// Consecutive `wait` rounds whose drains found nothing.
    idle_streak: u32,
}

impl Fallback {
    fn park_interval(&self, timeout: Duration) -> Duration {
        if self.idle_streak == 0 {
            return Duration::ZERO;
        }
        let shift = (self.idle_streak - 1).min(7);
        (PARK_BASE * (1 << shift)).min(PARK_CAP).min(timeout)
    }
}

#[derive(Debug)]
enum Imp {
    #[cfg(target_os = "linux")]
    Epoll {
        epoll: sys::Epoll,
        events: Vec<sys::EpollEvent>,
    },
    Fallback(Fallback),
}

/// A readiness multiplexer over registered UDP sockets (see module docs).
#[derive(Debug)]
pub struct Poller {
    imp: Imp,
    registered: usize,
}

/// Most readiness events fetched per `wait` call; level-triggered `epoll`
/// re-reports anything still readable on the next call, so a small buffer
/// only bounds batching, not correctness.
const MAX_EVENTS: usize = 64;

impl Poller {
    /// Creates a poller: `epoll`-backed on Linux, the portable sweep
    /// elsewhere (or if the `epoll` instance cannot be created).
    pub fn new() -> Poller {
        #[cfg(target_os = "linux")]
        if let Ok(epoll) = sys::Epoll::new() {
            return Poller {
                imp: Imp::Epoll {
                    epoll,
                    events: vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
                },
                registered: 0,
            };
        }
        Poller {
            imp: Imp::Fallback(Fallback::default()),
            registered: 0,
        }
    }

    /// `true` when the backend reports *actual* readiness (epoll) rather
    /// than the conservative everything-may-be-ready sweep.
    pub fn is_readiness_based(&self) -> bool {
        match self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll { .. } => true,
            Imp::Fallback(_) => false,
        }
    }

    /// Registers a socket and returns its token (dense, in registration
    /// order). The socket must stay alive (and nonblocking sockets stay
    /// nonblocking) for as long as the poller watches it.
    ///
    /// # Errors
    ///
    /// Returns any error from the underlying readiness syscall.
    pub fn register(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        let token = self.registered;
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll { epoll, .. } => {
                use std::os::fd::AsRawFd;
                epoll.add(socket.as_raw_fd(), token as u64)?;
            }
            Imp::Fallback(_) => {
                let _ = socket;
            }
        }
        self.registered += 1;
        Ok(token)
    }

    /// Fills `ready` with the tokens of sockets that may be readable,
    /// waiting up to `timeout` for the first one. `ready` is cleared first;
    /// an empty result after a full `timeout` means nothing arrived
    /// (epoll) or the fallback parked through its interval.
    ///
    /// # Errors
    ///
    /// Returns any error from the underlying readiness syscall.
    pub fn wait(&mut self, ready: &mut Vec<usize>, timeout: Duration) -> io::Result<()> {
        ready.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll { epoll, events } => {
                let count = epoll.wait(events, timeout)?;
                ready.extend(events[..count].iter().map(|e| {
                    // Copy out of the (possibly packed) struct before use.
                    let token = e.data;
                    token as usize
                }));
            }
            Imp::Fallback(fb) => {
                let park = fb.park_interval(timeout);
                if !park.is_zero() {
                    std::thread::park_timeout(park);
                }
                ready.extend(0..self.registered);
            }
        }
        Ok(())
    }

    /// Feedback from the caller's drain pass: whether the last `wait`'s
    /// reported sockets actually yielded data. Drives the fallback's
    /// adaptive park; a readiness-based backend ignores it.
    pub fn note_progress(&mut self, made_progress: bool) {
        if let Imp::Fallback(fb) = &mut self.imp {
            if made_progress {
                fb.idle_streak = 0;
            } else {
                fb.idle_streak = fb.idle_streak.saturating_add(1);
            }
        }
    }
}

impl Default for Poller {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        (a, b)
    }

    #[test]
    fn readable_socket_token_is_reported() {
        let (a, b) = pair();
        let mut poller = Poller::new();
        let ta = poller.register(&a).unwrap();
        let tb = poller.register(&b).unwrap();
        assert_eq!((ta, tb), (0, 1));

        b.send_to(b"x", a.local_addr().unwrap()).unwrap();
        let mut ready = Vec::new();
        // The datagram is on loopback; one short wait must surface token a.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(&mut ready, Duration::from_millis(100)).unwrap();
            if ready.contains(&ta) {
                break;
            }
            assert!(Instant::now() < deadline, "token never reported ready");
        }
        let mut buf = [0u8; 8];
        let (len, _) = a.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], b"x");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn epoll_backend_blocks_until_timeout_when_idle() {
        let (a, _b) = pair();
        let mut poller = Poller::new();
        assert!(poller.is_readiness_based(), "Linux builds use epoll");
        poller.register(&a).unwrap();
        let mut ready = Vec::new();
        let started = Instant::now();
        poller.wait(&mut ready, Duration::from_millis(60)).unwrap();
        assert!(ready.is_empty(), "no data, no tokens");
        assert!(started.elapsed() >= Duration::from_millis(40));
    }

    /// The portable fallback reports every registered token and backs off
    /// while the caller reports empty drains.
    #[test]
    fn fallback_reports_all_tokens_and_parks_adaptively() {
        let (a, b) = pair();
        let mut poller = Poller {
            imp: Imp::Fallback(Fallback::default()),
            registered: 0,
        };
        assert!(!poller.is_readiness_based());
        poller.register(&a).unwrap();
        poller.register(&b).unwrap();
        let mut ready = Vec::new();
        poller.wait(&mut ready, Duration::from_millis(10)).unwrap();
        assert_eq!(ready, vec![0, 1], "sweep reports everything");

        // Idle feedback grows the park interval (bounded by cap/timeout)...
        for _ in 0..10 {
            poller.note_progress(false);
        }
        let Imp::Fallback(fb) = &poller.imp else {
            unreachable!()
        };
        assert_eq!(fb.park_interval(Duration::from_secs(1)), PARK_CAP);
        assert_eq!(
            fb.park_interval(Duration::from_micros(10)),
            Duration::from_micros(10),
            "park never exceeds the caller's timeout"
        );
        // ...and one productive drain resets it.
        poller.note_progress(true);
        let Imp::Fallback(fb) = &poller.imp else {
            unreachable!()
        };
        assert_eq!(fb.park_interval(Duration::from_secs(1)), Duration::ZERO);
    }
}
