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

/// Output high-water mark: above this many pending response bytes a
/// connection stops reading and parsing until the peer drains its
/// socket — bounding per-connection memory against a client that
/// pipelines requests without reading responses.
pub(crate) const OUT_HIGH_WATER: usize = 1 << 20;

/// Socket read granularity: the size of the scratch buffer every
/// `read` is offered (one per event loop, one per connection thread).
pub(crate) const READ_CHUNK: usize = 64 << 10;

/// One connection's state. The phases of the ReadingCommand →
/// Executing → WritingResponse cycle are encoded in the buffers:
/// unparsed input waits in `rbuf[rpos..]`, queued output waits in the
/// writer's [`OutBuf`], and the `eof`/`closing` flags steer the endgame
/// (serve everything already buffered, flush, then close).
pub(crate) struct ConnCore {
    /// Raw bytes off the socket; `rpos` is the parse cursor.
    pub(crate) rbuf: Vec<u8>,
    rpos: usize,
    /// Response assembly over the connection's output buffer.
    pub(crate) writer: ResponseWriter<OutBuf>,
    /// Peer finished sending (clean EOF or RDHUP).
    pub(crate) eof: bool,
    /// Close once the output buffer drains (quit, protocol error, or
    /// input exhausted after EOF).
    pub(crate) closing: bool,
}

impl ConnCore {
    pub(crate) fn new() -> ConnCore {
        ConnCore {
            rbuf: Vec::new(),
            rpos: 0,
            writer: ResponseWriter::new(OutBuf::default()),
            eof: false,
            closing: false,
        }
    }

    /// Response bytes queued in the output buffer.
    pub(crate) fn out_pending(&self) -> usize {
        self.writer.get_ref().pending()
    }

    /// Issues one `read` into `scratch` and appends what arrived to the
    /// input; a read of 0 bytes marks EOF. Returns the bytes read.
    pub(crate) fn read_from(
        &mut self,
        source: &mut impl Read,
        scratch: &mut [u8],
        shared: &Shared,
    ) -> std::io::Result<usize> {
        shared.metrics.plane_syscalls.inc();
        let n = source.read(scratch)?;
        self.eof |= n == 0;
        self.rbuf.extend_from_slice(&scratch[..n]);
        Ok(n)
    }

    /// Drains queued response bytes to `sink`, resuming where the last
    /// partial write stopped. Stops early on `WouldBlock` (the reactor
    /// waits for EPOLLOUT); a hard error is `Err`.
    pub(crate) fn flush_to(&mut self, sink: &mut impl Write, shared: &Shared) -> Result<(), ()> {
        let out = self.writer.get_mut();
        while out.pos < out.buf.len() {
            shared.metrics.plane_syscalls.inc();
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
        Ok(!(self.closing && self.out_pending() == 0))
    }

    /// Drops the parsed prefix of the input buffer so it never grows
    /// past one command plus whatever arrived pipelined behind it.
    fn compact(&mut self) {
        self.rbuf.drain(..self.rpos);
        self.rpos = 0;
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
                writer,
                closing,
                eof,
            } = &mut *self;
            match parse_command(&rbuf[*rpos..]) {
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
        self.compact();
    }
}
