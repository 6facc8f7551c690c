//! A minimal blocking client for the wire protocol, shared by the CLI's
//! `localwm request`, the gateway's backend pools, the integration tests,
//! and the load benches. Speaks JSON lines, the protocol's one encoding.
//!
//! One [`Client`] is one TCP connection; every call reuses it, so repeated
//! requests ride the warm path (no reconnect, no fresh slow-start). The
//! CLI's `--repeat N` and the gateway's per-backend pools both lean on
//! that keep-alive behavior.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::protocol::{Request, Response};

/// One connection to a running server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Recycled wire buffers: every send encodes into `send_buf` (one
    /// write syscall per request or burst) and the hot-path receives land
    /// in `line_buf`; both are cleared per use, never freed, so a warm
    /// connection does request/response IO without allocating.
    send_buf: Vec<u8>,
    line_buf: String,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7171`).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            send_buf: Vec::new(),
            line_buf: String::new(),
        })
    }

    /// Connects, retrying for up to `wait` while the server is starting.
    ///
    /// # Errors
    ///
    /// Returns the last connection error once `wait` elapses.
    pub fn connect_within(addr: &str, wait: Duration) -> io::Result<Client> {
        let deadline = std::time::Instant::now() + wait;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Applies a read timeout to subsequent [`Client::recv`] calls (`None`
    /// blocks forever). A timed-out read surfaces as a `WouldBlock` /
    /// `TimedOut` I/O error — the chaos harness uses this to classify
    /// dropped responses without hanging.
    ///
    /// # Errors
    ///
    /// Propagates socket option errors.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.send_buf.clear();
        encode_request(req, &mut self.send_buf);
        self.writer.write_all(&self.send_buf)?;
        self.writer.flush()
    }

    /// Sends one already-encoded JSON request line verbatim (the gateway's
    /// forwarding path: the client's bytes go upstream untouched, so
    /// responses stay byte-identical to a direct backend call).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.send_buf.clear();
        self.send_buf.extend_from_slice(line.as_bytes());
        self.send_buf.push(b'\n');
        self.writer.write_all(&self.send_buf)?;
        self.writer.flush()
    }

    /// Reads the next raw response line (without the trailing newline).
    ///
    /// # Errors
    ///
    /// Fails on socket errors or a server-closed connection.
    pub fn recv_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Reads the next raw response into this connection's recycled buffer
    /// (no per-read allocation); decode the result with
    /// [`Response::from_line`]. The hot-path primitive under [`Client::recv`],
    /// [`Client::call_repeated`], and [`Client::call_pipelined`].
    fn recv_reused(&mut self) -> io::Result<()> {
        self.line_buf.clear();
        let n = self.reader.read_line(&mut self.line_buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while self.line_buf.ends_with('\n') || self.line_buf.ends_with('\r') {
            self.line_buf.pop();
        }
        Ok(())
    }

    /// Decodes the response last read by [`Client::recv_reused`].
    fn decode_reused(&self) -> io::Result<Response> {
        Response::from_line(&self.line_buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Reads and decodes the next response.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or an undecodable response.
    pub fn recv(&mut self) -> io::Result<Response> {
        self.recv_reused()?;
        self.decode_reused()
    }

    /// Sends `req` and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`] and [`Client::recv`] errors.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    /// Calls `req` `n` times over this one keep-alive connection, returning
    /// the last response and each call's wall-clock latency. The first
    /// latency is the cold-path cost (server parses and caches the design);
    /// the rest measure the warm path without reconnect overhead — this is
    /// what `localwm request --repeat N` reports.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Client::send`]/receive error; `n` is clamped
    /// to ≥ 1. The request is encoded once and its wire bytes replayed
    /// every iteration; responses land in one recycled buffer, and only
    /// the final one is decoded — the warm path allocates nothing per
    /// iteration.
    pub fn call_repeated(
        &mut self,
        req: &Request,
        n: usize,
    ) -> io::Result<(Response, Vec<Duration>)> {
        let n = n.max(1);
        let mut wire = std::mem::take(&mut self.send_buf);
        wire.clear();
        encode_request(req, &mut wire);
        let mut latencies = Vec::with_capacity(n);
        for _ in 0..n {
            let start = Instant::now();
            let sent = self
                .writer
                .write_all(&wire)
                .and_then(|()| self.writer.flush())
                .and_then(|()| self.recv_reused());
            if let Err(e) = sent {
                self.send_buf = wire;
                return Err(e);
            }
            latencies.push(start.elapsed());
        }
        self.send_buf = wire;
        Ok((self.decode_reused()?, latencies))
    }

    /// Relays a burst of already-encoded JSON request lines pipelined:
    /// every line goes out in one buffered write, then the raw response
    /// lines come back in request order. The verbatim-forwarding sibling
    /// of [`Client::call_pipelined`] — the gateway's burst relay uses it
    /// to fan a read-ahead burst upstream in one round trip while keeping
    /// the forwarded bytes untouched.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; on error the connection should be
    /// discarded — responses may still be in flight.
    pub fn pipeline_lines(&mut self, lines: &[&str]) -> io::Result<Vec<String>> {
        let mut wire = std::mem::take(&mut self.send_buf);
        wire.clear();
        for line in lines {
            wire.extend_from_slice(line.as_bytes());
            wire.push(b'\n');
        }
        let sent = self
            .writer
            .write_all(&wire)
            .and_then(|()| self.writer.flush());
        self.send_buf = wire;
        sent?;
        let mut responses = Vec::with_capacity(lines.len());
        for _ in lines {
            responses.push(self.recv_line()?);
        }
        Ok(responses)
    }

    /// Sends a burst of requests back-to-back — one buffered write, one
    /// flush — and reads their responses in request order. This is the
    /// client half of connection pipelining: the server's ordered writer
    /// guarantees response `i` answers request `i`, so the byte stream is
    /// identical to `reqs.len()` lockstep [`Client::call`]s while paying
    /// one round trip.
    ///
    /// # Errors
    ///
    /// Propagates socket write/read errors and undecodable responses; on
    /// error, responses already read are lost (the connection should be
    /// discarded, as in-flight responses may still be arriving).
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> io::Result<Vec<Response>> {
        let mut wire = std::mem::take(&mut self.send_buf);
        wire.clear();
        for req in reqs {
            encode_request(req, &mut wire);
        }
        let sent = self
            .writer
            .write_all(&wire)
            .and_then(|()| self.writer.flush());
        self.send_buf = wire;
        sent?;
        let mut responses = Vec::with_capacity(reqs.len());
        for _ in reqs {
            responses.push(self.recv()?);
        }
        Ok(responses)
    }
}

/// Appends `req`'s wire bytes, its JSON line plus newline, to `out`.
fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.extend_from_slice(req.to_line().as_bytes());
    out.push(b'\n');
}
