//! One connection's state machine, driven by both data planes.
//!
//! A connection cycles ReadingCommand → Executing → WritingResponse.
//! [`ConnCore`] is that cycle without a socket: the input buffer with
//! its parse cursor, the [`ResponseWriter`] over a drainable output
//! buffer, and the execute loop that parses each command where it lies
//! in the input buffer and turns it into queued responses through
//! [`serve_command`]. A command still arriving is parsed again, header
//! line only, each time more bytes come. A data plane is only how a
//! connection waits for bytes: the epoll reactor (`reactor.rs`, Linux)
//! calls [`ConnCore::read_from`] and [`ConnCore::serve`] when a
//! non-blocking socket is ready, the threaded plane calls them in a
//! blocking loop on the connection's own thread. One core, two drivers:
//! both planes frame and answer a byte stream the same way by
//! construction.

use std::io::{ErrorKind, Read, Write};
use std::time::Instant;

use crate::protocol::{parse_command, Response, ResponseWriter};
use crate::server::{op_class_of, serve_command, OutBuf, Shared};

/// The capacity a connection buffer returns to — the server's input
/// and output buffers, the client's input and encode buffers — after a
/// message larger than it. A pipelined stream of smaller messages never
/// takes a buffer past it: a read is offered at most this much room
/// and its commands or replies are parsed before the next, output is
/// flushed at [`OUT_HIGH_WATER`], and the client sends its encoded
/// commands at the same mark. So only one message larger than the rest
/// of the buffer grows it, and the buffer keeps that size while such
/// messages follow one another; the first drain of traffic that fits
/// gives the excess back ([`rest`]).
pub(crate) const REST_BYTES: usize = 64 << 10;

/// Output high-water mark: above this many pending response bytes a
/// connection stops parsing until they are flushed, and stops reading
/// until the peer drains its socket — bounding per-connection memory
/// against a client that pipelines requests without reading
/// responses. Half of [`REST_BYTES`], so a reply of up to as much again
/// still fits a buffer at rest.
pub(crate) const OUT_HIGH_WATER: usize = REST_BYTES / 2;

/// A server connection's input buffer before its first read is offered
/// more than this, std's default read-buffer size. It doubles while
/// reads fill it, up to [`REST_BYTES`], and past that only for one
/// command that does not fit.
const READ_START: usize = 8 << 10;

/// Where the room offered to the next read of an input buffer of `len`
/// bytes, holding `end`, stops: at [`REST_BYTES`] while what is held
/// fits under it, so a grown buffer does not take in more pipelined
/// traffic at once than one at rest would; only a message still
/// arriving past that mark is offered the rest.
pub(crate) fn room_end(len: usize, end: usize) -> usize {
    if end < REST_BYTES {
        len.min(REST_BYTES)
    } else {
        len
    }
}

/// Gives a drained buffer's excess back: down to [`REST_BYTES`] of
/// capacity if `drained`, the bytes that just went through it, fitted
/// in that much. A buffer a larger message has just drained from keeps
/// its size, so a run of large messages grows it once.
pub(crate) fn rest(buf: &mut Vec<u8>, drained: usize) {
    if drained <= REST_BYTES && buf.capacity() > REST_BYTES {
        buf.truncate(REST_BYTES);
        buf.shrink_to(REST_BYTES);
    }
}

/// One connection's state. The phases of the ReadingCommand →
/// Executing → WritingResponse cycle are encoded in the buffers:
/// unparsed input waits in `rbuf[rpos..rend]`, queued output waits in
/// the writer's [`OutBuf`], and the `eof`/`closing` flags steer the
/// endgame (serve everything already buffered, flush, then close).
pub(crate) struct ConnCore {
    /// Bytes off the socket: `rbuf[rpos..rend]` is unparsed input and
    /// `rbuf[rend..]` the room the next read lands in, zeroed when the
    /// buffer grew, not per read.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// The last read filled the room it was offered.
    filled: bool,
    /// Response assembly over the connection's output buffer.
    pub(crate) writer: ResponseWriter<OutBuf>,
    /// Peer finished sending (clean EOF or RDHUP).
    pub(crate) eof: bool,
    /// Close once the output buffer drains (quit, protocol error, or
    /// input exhausted after EOF).
    pub(crate) closing: bool,
    /// Buffer capacity last added to the server's `conn_buffers`.
    counted: usize,
}

impl ConnCore {
    pub(crate) fn new() -> ConnCore {
        ConnCore {
            rbuf: Vec::new(),
            rpos: 0,
            rend: 0,
            filled: false,
            writer: ResponseWriter::new(OutBuf::default()),
            eof: false,
            closing: false,
            counted: 0,
        }
    }

    /// Brings the server's `conn_buffers` gauge up to this connection's
    /// buffer capacity.
    fn account(&mut self, shared: &Shared) {
        let held = self.rbuf.capacity() + self.writer.get_ref().buf.capacity();
        if held != self.counted {
            shared
                .metrics
                .conn_buffers
                .add(held as i64 - self.counted as i64);
            self.counted = held;
        }
    }

    /// Takes this connection's buffers out of `conn_buffers`: it is
    /// closing.
    pub(crate) fn release(&mut self, shared: &Shared) {
        shared.metrics.conn_buffers.add(-(self.counted as i64));
        self.counted = 0;
    }

    /// Response bytes queued in the output buffer.
    pub(crate) fn out_pending(&self) -> usize {
        self.writer.get_ref().pending()
    }

    /// Input bytes read and not yet parsed.
    #[cfg(test)]
    pub(crate) fn in_pending(&self) -> usize {
        self.rend - self.rpos
    }

    /// Issues one `read` straight into the input buffer's room; a read
    /// of 0 bytes marks EOF. Returns whether the read filled the room,
    /// so the socket may hold more: the caller parses what arrived
    /// before it reads again, and the buffer grows only while reads
    /// fill it (up to [`REST_BYTES`]) or when one unparsed command
    /// fills all of it.
    pub(crate) fn read_from(
        &mut self,
        source: &mut impl Read,
        shared: &Shared,
    ) -> std::io::Result<bool> {
        if self.rpos > 0 {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            (self.rend, self.rpos) = (self.rend - self.rpos, 0);
        }
        let len = self.rbuf.len();
        if self.rend == len || (self.filled && len < REST_BYTES) {
            self.rbuf.resize((2 * len).max(READ_START), 0);
        }
        let end = room_end(self.rbuf.len(), self.rend);
        shared.metrics.plane_syscalls.inc();
        shared.metrics.socket_reads.inc();
        let n = source.read(&mut self.rbuf[self.rend..end])?;
        self.filled = self.rend + n == end;
        self.rend += n;
        self.eof |= n == 0;
        Ok(self.filled)
    }

    /// Drains queued response bytes to `sink`, resuming where the last
    /// partial write stopped. Stops early on `WouldBlock` (the reactor
    /// waits for EPOLLOUT); a hard error is `Err`.
    pub(crate) fn flush_to(&mut self, sink: &mut impl Write, shared: &Shared) -> Result<(), ()> {
        let out = self.writer.get_mut();
        while out.pos < out.buf.len() {
            shared.metrics.plane_syscalls.inc();
            shared.metrics.socket_writes.inc();
            match sink.write(&out.buf[out.pos..]) {
                Ok(0) => return Err(()),
                Ok(n) => out.pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        if out.pos == out.buf.len() && out.pos > 0 {
            out.buf.clear();
            rest(&mut out.buf, out.pos);
            out.pos = 0;
        }
        Ok(())
    }

    /// Serves every complete command buffered and flushes the replies
    /// to `sink`. `Ok(true)` keeps the connection, `Ok(false)` is a
    /// graceful close (`closing` with everything flushed), `Err` is a
    /// fatal write error.
    pub(crate) fn serve(&mut self, sink: &mut impl Write, shared: &Shared) -> Result<bool, ()> {
        loop {
            self.process(shared);
            let stopped_over_mark = self.out_pending() > OUT_HIGH_WATER;
            self.flush_to(sink, shared)?;
            // Backpressure may have stopped the parse with whole
            // commands still buffered. If the sink then took enough to
            // get back under the mark, serve on: no read will ever
            // announce input that has already been read.
            if !stopped_over_mark || self.out_pending() > OUT_HIGH_WATER {
                break;
            }
        }
        self.account(shared);
        Ok(!(self.closing && self.out_pending() == 0))
    }

    /// Parses and executes every complete command buffered on the
    /// connection, stopping at backpressure (the output high-water
    /// mark), incomplete input, or a close condition.
    pub(crate) fn process(&mut self, shared: &Shared) {
        loop {
            if self.closing || self.out_pending() > OUT_HIGH_WATER {
                break;
            }
            let ConnCore {
                rbuf,
                rpos,
                rend,
                writer,
                closing,
                eof,
                ..
            } = &mut *self;
            match parse_command(&rbuf[*rpos..*rend]) {
                Ok(Some((command, used))) => {
                    *rpos += used;
                    // Time the serve (engine + response assembly), not
                    // the wait for bytes.
                    let class = op_class_of(&command);
                    let begin = Instant::now();
                    let quit = serve_command(command, shared, writer);
                    shared.metrics.ops.record(class, begin.elapsed());
                    // quit: flush then close
                    *closing |= quit;
                }
                Ok(None) => {
                    // Incomplete: wait for more bytes — unless the
                    // peer already finished sending, in which case a
                    // trailing partial command is dropped.
                    *closing |= *eof;
                    break;
                }
                Err(e) => {
                    // Malformed input earns an ERROR line, then the
                    // connection closes.
                    let _ = writer.write(&Response::Error(e.to_string()));
                    *closing = true;
                    break;
                }
            }
        }
        // Input parsed to its end: the next read starts at the front,
        // in a buffer back at rest if one command had grown it.
        if self.rpos == self.rend {
            rest(&mut self.rbuf, self.rend);
            (self.rpos, self.rend) = (0, 0);
        }
    }
}
