//! Raw pipelined wire client for the single-server workloads.
//!
//! The load generator shares two cores with the server it measures, so
//! it speaks the text protocol itself: a batch of commands is appended
//! to one buffer and written once, and replies are checked in place in
//! the receive buffer — no `Response` values, no per-reply allocation.
//! `protocol.read_response_ns` in the probe pass times the program's
//! own client-side parser instead.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;

pub struct WireClient {
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

/// One reply element, as byte ranges of [`WireClient::bytes`]. The
/// ranges are valid until the next call to [`WireClient::next`].
pub enum Reply {
    /// A `VALUE` block.
    Value {
        key: Range<usize>,
        data: Range<usize>,
    },
    /// The `END` that closes a `get`.
    End,
    /// Any other line (`STORED`, `DELETED`, `NOT_FOUND`, an error).
    Line(Range<usize>),
}

fn protocol(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl WireClient {
    pub fn connect(addr: SocketAddr) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            stream,
            out: Vec::with_capacity(512 << 10),
            buf: vec![0; 512 << 10],
            pos: 0,
            end: 0,
        })
    }

    pub fn queue_get<'k>(&mut self, keys: impl IntoIterator<Item = &'k [u8]>) {
        self.out.extend_from_slice(b"get");
        for key in keys {
            self.out.push(b' ');
            self.out.extend_from_slice(key);
        }
        self.out.extend_from_slice(b"\r\n");
    }

    pub fn queue_set(&mut self, key: &[u8], value: &[u8]) {
        self.out.extend_from_slice(b"set ");
        self.out.extend_from_slice(key);
        write!(self.out, " 0 0 {}\r\n", value.len()).expect("write to a Vec");
        self.out.extend_from_slice(value);
        self.out.extend_from_slice(b"\r\n");
    }

    pub fn queue_delete(&mut self, key: &[u8]) {
        self.out.extend_from_slice(b"delete ");
        self.out.extend_from_slice(key);
        self.out.extend_from_slice(b"\r\n");
    }

    /// Writes every queued command in one go.
    pub fn send(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    pub fn bytes(&self, range: Range<usize>) -> &[u8] {
        &self.buf[range]
    }

    /// Reads until at least `need` unread bytes are buffered. Grows the
    /// buffer instead of moving its contents, so ranges handed out for
    /// the reply being parsed stay valid.
    fn fill(&mut self, need: usize) -> io::Result<()> {
        while self.end - self.pos < need {
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = self.stream.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.end += n;
        }
        Ok(())
    }

    fn line(&mut self) -> io::Result<Range<usize>> {
        let mut scanned = self.pos;
        loop {
            if let Some(i) = self.buf[scanned..self.end].iter().position(|&b| b == b'\n') {
                let nl = scanned + i;
                if nl == self.pos || self.buf[nl - 1] != b'\r' {
                    return Err(protocol("reply line does not end in CRLF"));
                }
                let line = self.pos..nl - 1;
                self.pos = nl + 1;
                return Ok(line);
            }
            scanned = self.end;
            self.fill(self.end - self.pos + 1)?;
        }
    }

    /// The next reply element.
    pub fn next(&mut self) -> io::Result<Reply> {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        } else if self.pos > self.buf.len() / 2 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        let line = self.line()?;
        let text = &self.buf[line.clone()];
        if text == b"END" {
            return Ok(Reply::End);
        }
        let Some(rest) = text.strip_prefix(b"VALUE ") else {
            return Ok(Reply::Line(line));
        };
        // VALUE <key> <flags> <bytes>
        let key_len = rest
            .iter()
            .position(|&b| b == b' ')
            .ok_or_else(|| protocol("VALUE line has no flags"))?;
        let len: usize = rest
            .rsplit(|&b| b == b' ')
            .next()
            .and_then(|f| std::str::from_utf8(f).ok())
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| protocol("VALUE line has no length"))?;
        let key = line.start + 6..line.start + 6 + key_len;
        self.fill(len + 2)?;
        let data = self.pos..self.pos + len;
        if &self.buf[data.end..data.end + 2] != b"\r\n" {
            return Err(protocol("data block does not end in CRLF"));
        }
        self.pos = data.end + 2;
        Ok(Reply::Value { key, data })
    }
}
