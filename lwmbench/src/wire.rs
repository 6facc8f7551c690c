//! One JSON-lines connection as the load generator drives it: whole-line
//! writes, and reads that can wait for a response *or* a deadline, which
//! an open-loop sender needs to keep its schedule on a single thread.
//! Also the load threads' scheduling priority.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// A load connection.
pub struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already searched for a newline.
    scanned: usize,
    /// Read buffer, reused so a read neither allocates nor zeroes.
    chunk: Box<[u8]>,
}

impl Wire {
    /// Connects with Nagle off, as the service's own client does.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Wire {
            stream,
            buf: Vec::with_capacity(1 << 16),
            scanned: 0,
            chunk: vec![0; 1 << 16].into_boxed_slice(),
        })
    }

    /// Sends one encoded line; `line` must end with `\n`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, line: &[u8]) -> io::Result<()> {
        self.stream.write_all(line)
    }

    /// The next response line (without its newline), waiting until
    /// `deadline` at most; `Ok(None)` when the deadline passed first.
    /// `None` as the deadline blocks until a line arrives.
    ///
    /// # Errors
    ///
    /// Socket errors, or `UnexpectedEof` when the server closed.
    pub fn recv(&mut self, deadline: Option<Instant>) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + pos;
                let line = String::from_utf8(self.buf[..end].to_vec())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                self.buf.drain(..=end);
                self.scanned = 0;
                return Ok(Some(line));
            }
            self.scanned = self.buf.len();
            if let Some(deadline) = deadline {
                if !readable_before(&self.stream, deadline)? {
                    return Ok(None);
                }
            }
            let n = self.stream.read(&mut self.chunk)?;
            self.buf.extend_from_slice(&self.chunk[..n]);
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
    }
}

/// Waits until `stream` is readable or `deadline` passes.
///
/// `SO_RCVTIMEO` read timeouts round up to scheduler ticks (1–4 ms),
/// which would make the open-loop sender miss its schedule by as much;
/// `ppoll` sleeps on a high-resolution timer.
fn readable_before(stream: &TcpStream, deadline: Instant) -> io::Result<bool> {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;

    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let timeout = Timespec {
            tv_sec: i64::try_from(left.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(left.subsec_nanos()),
        };
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        // SAFETY: `fd` and `timeout` are live, properly laid-out (64-bit
        // Linux `struct pollfd` / `struct timespec`) locals for the whole
        // call; `nfds` is 1, matching the single `pollfd`; a null sigmask
        // is allowed and leaves the signal mask unchanged.
        let rc = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
        if rc >= 0 {
            return Ok(rc > 0);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Nice value of the load threads.
const LOAD_NICE: i32 = -15;

/// Raises the calling thread's scheduling priority to [`LOAD_NICE`].
///
/// The servers share the host's cores with the load generator. At the
/// default priority a load thread woken for its next send or a response
/// waits behind busy server threads: on the two-core reference host its
/// sends went out 20–40 ms late at p99 and the closed loop left the
/// servers idle while its own thread waited to run. Raised, it behaves
/// like a client on a machine of its own.
///
/// # Errors
///
/// Refuses when the process may not raise priority (`CAP_SYS_NICE`):
/// numbers measured without it are not comparable with the baseline's.
pub fn prioritize_this_thread() -> Result<(), String> {
    extern "C" {
        fn gettid() -> i32;
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: `gettid` takes no arguments and cannot fail. `setpriority`
    // takes plain integers; with `PRIO_PROCESS` and a thread id, Linux
    // applies the nice value to that one thread and reports failure
    // through its return value, touching no memory of ours.
    let rc = unsafe { setpriority(PRIO_PROCESS, gettid() as u32, LOAD_NICE) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot run the load threads at nice {LOAD_NICE} ({}); the benchmark needs \
             CAP_SYS_NICE, because its numbers without it are not comparable",
            io::Error::last_os_error()
        ))
    }
}
