//! The event loop's connection state machine.
//!
//! The epoll reactor ([`reactor`]) drives a ReadingCommand → Executing
//! → WritingResponse cycle over each connection; it owns how bytes move
//! between the socket and the buffers. This module holds the middle:
//! the input buffer with its parse cursor, the per-connection
//! [`WireBuf`] parse scratch, the [`ResponseWriter`] over a drainable
//! output buffer, and the execute loop that turns buffered bytes into
//! queued responses through the same [`serve_command`] the threaded
//! plane uses.
//!
//! [`reactor`]: crate::reactor

use std::net::TcpStream;
use std::time::Instant;

use crate::protocol::{parse_raw_command, storage_command_len, Response, ResponseWriter, WireBuf};
use crate::server::{op_class_of, serve_command, OutBuf, Shared, OUT_HIGH_WATER};

/// One connection's state on the reactor. The phases of the
/// ReadingCommand → Executing → WritingResponse cycle are encoded in
/// the buffers: unparsed input waits in `rbuf[rpos..]`, queued output
/// waits in the writer's [`OutBuf`], and the `eof`/`closing` flags
/// steer the endgame (serve everything already buffered, flush, then
/// close — exactly the threaded plane's semantics).
pub(crate) struct ConnCore {
    pub(crate) stream: TcpStream,
    /// Raw bytes off the socket; `rpos` is the parse cursor.
    pub(crate) rbuf: Vec<u8>,
    rpos: usize,
    /// Unparsed bytes to have buffered before parsing again: the whole
    /// length of a storage command whose data block is still arriving,
    /// 0 when nothing is known to be missing. `parse_raw_command`
    /// starts from the first byte and sizes its scratch to the declared
    /// length on every call, so retrying per arrival would cost a value
    /// of `n` chunks `n` parses — on a loop thread that serves nothing
    /// else meanwhile.
    need: usize,
    /// Per-connection parse scratch: keys borrow this in place, so a
    /// warmed connection parses without allocating.
    pub(crate) wire: WireBuf,
    /// Response assembly over the connection's output buffer.
    pub(crate) writer: ResponseWriter<OutBuf>,
    /// Peer finished sending (clean EOF or RDHUP).
    pub(crate) eof: bool,
    /// Close once the output buffer drains (quit, protocol error, or
    /// input exhausted after EOF).
    pub(crate) closing: bool,
}

impl ConnCore {
    pub(crate) fn new(stream: TcpStream) -> ConnCore {
        ConnCore {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            need: 0,
            wire: WireBuf::new(),
            writer: ResponseWriter::new(OutBuf::default()),
            eof: false,
            closing: false,
        }
    }

    /// Response bytes queued in the output buffer.
    pub(crate) fn out_pending(&self) -> usize {
        self.writer.get_ref().pending()
    }

    /// Drops the parsed prefix of the input buffer so it never grows
    /// past one command plus whatever arrived pipelined behind it.
    fn compact(&mut self) {
        if self.rpos == 0 {
            return;
        }
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
        } else {
            self.rbuf.copy_within(self.rpos.., 0);
            let remaining = self.rbuf.len() - self.rpos;
            self.rbuf.truncate(remaining);
        }
        self.rpos = 0;
    }

    /// Parses and executes every complete command buffered on the
    /// connection, stopping at backpressure (the 1 MiB high-water mark
    /// the threaded plane applies too), incomplete input, or a close
    /// condition.
    pub(crate) fn process(&mut self, shared: &Shared) {
        // EOF parses once more regardless: that attempt is what closes
        // a connection whose peer gave up mid-block.
        if self.rbuf.len() - self.rpos < self.need && !self.eof {
            return;
        }
        self.need = 0;
        loop {
            if self.closing || self.out_pending() > OUT_HIGH_WATER {
                break;
            }
            let ConnCore {
                rbuf,
                rpos,
                need,
                wire,
                writer,
                closing,
                eof,
                ..
            } = &mut *self;
            match parse_raw_command(&rbuf[*rpos..], wire) {
                Ok(Some((command, used))) => {
                    *rpos += used;
                    // Same timing rule as the threaded plane: the
                    // serve (engine + response assembly), not the wait
                    // for bytes.
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
                    // trailing partial command drops exactly as the
                    // threaded plane's mid-command EOF does.
                    if *eof {
                        *closing = true;
                    } else {
                        *need = storage_command_len(&rbuf[*rpos..]).unwrap_or(0);
                    }
                    break;
                }
                Err(e) => {
                    // Threaded-plane parity: malformed input earns an
                    // ERROR line, then the connection closes.
                    let _ = writer.write(&Response::Error(e.to_string()));
                    *closing = true;
                    break;
                }
            }
        }
        self.compact();
    }
}
