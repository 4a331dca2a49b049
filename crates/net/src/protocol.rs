//! The wire protocol: a memcached-flavoured text protocol.
//!
//! Grammar (all lines CRLF-terminated):
//!
//! ```text
//! get <key> [<key> ...]
//! set <key> <flags> <exptime> <bytes>\r\n<data of `bytes` octets>
//! add <key> <flags> <exptime> <bytes>\r\n<data>      (store if absent)
//! replace <key> <flags> <exptime> <bytes>\r\n<data>  (store if present)
//! delete <key>
//! touch <key> <exptime>
//! incr <key> <delta>
//! decr <key> <delta>
//! stats
//! stats proteus      (full telemetry registry as STAT pairs)
//! flush_all
//! version
//! quit
//! ```
//!
//! Responses:
//!
//! ```text
//! VALUE <key> <flags> <bytes>\r\n<data>\r\nEND     (get hit)
//! END                                             (get miss)
//! VALUE ...\r\n<data>\r\nVALUE ...\r\n<data>\r\nEND (multi-key get;
//!                                                  misses are omitted)
//! STORED / NOT_STORED / DELETED / NOT_FOUND / TOUCHED / OK
//! <number>                                        (incr/decr result)
//! VERSION <string>
//! STAT <name> <value> ... END                     (stats)
//! ERROR <message>
//! ```
//!
//! Two keys are reserved exactly as in the paper's modified memcached:
//! `get SET_BLOOM_FILTER` makes the server snapshot its digest, and
//! `get BLOOM_FILTER` retrieves the snapshot bytes as a normal value —
//! "it exactly follows Memcached protocol, and should be compatible
//! with all Memcached client packages". The keys of a multi-key `get`
//! are served in order, so `get SET_BLOOM_FILTER BLOOM_FILTER` takes a
//! snapshot and returns it in one round trip.
//!
//! A third reserved key lists what a server holds, hottest first, the
//! same way: `get MRU_KEYS:<shard>:<skip>` returns one value, up to
//! [`MRU_KEYS_PAGE`] keys of engine shard `<shard>` in MRU→LRU order
//! starting `<skip>` keys from the hottest, joined by `\n` (a key holds
//! no byte ≤ 32). The value is empty once `<skip>` is past the shard's
//! last key, and the key misses when there is no such shard — which is
//! how a client learns the shard count. The server keeps no cursor.
//!
//! Both directions are read one way: each end parses what it receives
//! where it lies in the connection's input buffer, and a message still
//! arriving is "not yet", not an error. A server parses a command
//! ([`parse_raw_command`]), whose keys and data blocks borrow that
//! buffer; a client parses a reply, whose values are copied once, from
//! that buffer into their [`SharedBytes`]. The two parsers find lines
//! and data blocks through the same helpers, so the line cap, the CR
//! strip and the data block's CRLF rule are one rule each.

use std::io::{BufRead, ErrorKind, Write};

use proteus_cache::SharedBytes;

use crate::error::NetError;

/// Reserved key: take a digest snapshot.
pub const DIGEST_SNAPSHOT_KEY: &[u8] = b"SET_BLOOM_FILTER";
/// Reserved key: retrieve the digest snapshot.
pub const DIGEST_KEY: &[u8] = b"BLOOM_FILTER";
/// Reserved key prefix: `MRU_KEYS:<shard>:<skip>` lists one page of one
/// engine shard's keys, hottest first (see the module docs).
pub const MRU_KEYS_PREFIX: &[u8] = b"MRU_KEYS:";

/// The reserved key that lists engine shard `shard` from `skip` keys
/// below its hottest: `MRU_KEYS:<shard>:<skip>`.
#[must_use]
pub fn mru_keys_key(shard: usize, skip: usize) -> Vec<u8> {
    [MRU_KEYS_PREFIX, format!("{shard}:{skip}").as_bytes()].concat()
}

/// The `(shard, skip)` named by what follows [`MRU_KEYS_PREFIX`] in a
/// listing key; `None` if it is not two decimal numbers and a colon.
pub(crate) fn parse_mru_keys_page(page: &[u8]) -> Option<(usize, usize)> {
    let (shard, skip) = std::str::from_utf8(page).ok()?.split_once(':')?;
    Some((shard.parse().ok()?, skip.parse().ok()?))
}

/// Keys in one page of the `MRU_KEYS:` listing. One request holds one
/// shard lock while it walks `skip + MRU_KEYS_PAGE` list links twice
/// (to measure the page, then to copy it): at 512, ≈ 40 µs median on a
/// 1 500-key shard — what a 128-key `get` costs there — and four
/// requests list the shard.
pub const MRU_KEYS_PAGE: usize = 512;
/// Keys a pull-ahead migration moves per exchange with a server
/// (`ClusterClient::begin_transition`): one multi-key `get`, one
/// pipelined `add` batch, on a grow one pipelined `delete` batch. It is
/// the most work the pull queues on a server's event loop ahead of a
/// foreground request, and the longest `end_transition` waits. Swept at
/// 32 / 128 / 512: the pull of a 12 500-key server takes 58 / 50 / 41 ms
/// on an idle cluster and the benchmark cannot tell the three apart, so
/// the size is set by the queue — a 128-key `get` is 35 µs median on
/// the server, one of 512 is 65 µs (EXPERIMENTS.md, "move the hot set
/// before the window closes").
pub const PULL_BATCH: usize = 128;
/// Most keys one `get` may name; the parser rejects more and the client
/// splits its batches at it.
pub const MAX_GET_KEYS: usize = 1024;
const _: () = assert!(PULL_BATCH <= MAX_GET_KEYS);

/// Values larger than this are rejected on read.
const MAX_VALUE_BYTES: usize = 64 << 20;

/// Longest line either side accepts: more bytes than this before the
/// LF, a CR included, is a protocol error.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Staging for [`read_response_buffered`]: the bytes of a reply that
/// spans more than one of its reader's buffers. A reply that arrives
/// whole in one buffer is parsed where it lies and never staged. (A
/// pooled client connection needs no `WireBuf`: it parses each reply
/// where it lies in its own input buffer.)
#[derive(Debug, Default)]
pub struct WireBuf {
    staged: Vec<u8>,
}

impl WireBuf {
    /// Creates an empty staging buffer (grows on first use, then
    /// steadies).
    #[must_use]
    pub fn new() -> Self {
        WireBuf::default()
    }
}

/// One `VALUE` block inside a multi-key get response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueItem {
    /// Echoed key.
    pub key: Vec<u8>,
    /// Echoed flags.
    pub flags: u32,
    /// The value bytes (shared with the cache engine on the server
    /// side; a fresh shared buffer on the client side).
    pub data: SharedBytes,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A `get` hit.
    Value {
        /// Echoed key.
        key: Vec<u8>,
        /// Echoed flags.
        flags: u32,
        /// The value bytes.
        data: SharedBytes,
    },
    /// Two or more `VALUE` blocks from a multi-key get. A reply is
    /// never parsed into an empty or single-item list: zero hits parse
    /// as [`Miss`](Response::Miss), one as [`Value`](Response::Value).
    Values(Vec<ValueItem>),
    /// A `get` miss.
    Miss,
    /// A successful `set`/`add`/`replace`.
    Stored,
    /// An `add` of a present key or `replace` of an absent one.
    NotStored,
    /// A successful `delete`.
    Deleted,
    /// The key was absent (`delete`, `touch`, `incr`, `decr`).
    NotFound,
    /// A successful `touch`.
    Touched,
    /// The numeric result of `incr`/`decr`.
    Numeric(u64),
    /// Generic success (`flush_all`).
    Ok,
    /// Server version string.
    Version(String),
    /// `stats` payload: `(name, value)` pairs.
    Stats(Vec<(String, String)>),
    /// Server-side error.
    Error(String),
}

fn valid_key(key: &[u8]) -> bool {
    !key.is_empty() && key.len() <= 250 && key.iter().all(|&b| b > 32 && b != 127)
}

/// A command parsed without copying its keys or its data block: both
/// borrow the bytes it was parsed from ([`parse_raw_command`]), so
/// single-key `get` and the storage commands parse with zero
/// allocations (a multi-key `get` allocates the `Vec` that lists its
/// keys).
///
/// It is the only command type: the client encodes one from the keys
/// and values its caller holds ([`write_command_unflushed`]), so a
/// command is never copied on its way to the wire either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawCommand<'a> {
    /// `get <key>`
    Get {
        /// The requested key (borrowed from the parsed bytes).
        key: &'a [u8],
    },
    /// `get <key> <key> ...` (at least two keys).
    MultiGet {
        /// The requested keys, in request order.
        keys: Vec<&'a [u8]>,
    },
    /// `set <key> <flags> <exptime> <bytes>` + data block.
    Set {
        /// The key to store.
        key: &'a [u8],
        /// Opaque client flags.
        flags: u32,
        /// Expiry in seconds (advisory).
        exptime: u32,
        /// The value bytes (borrowed from the parsed bytes).
        data: &'a [u8],
    },
    /// `add <key> ...`: store only if the key is absent.
    Add {
        /// The key to store.
        key: &'a [u8],
        /// Opaque client flags.
        flags: u32,
        /// Expiry in seconds (advisory).
        exptime: u32,
        /// The value bytes.
        data: &'a [u8],
    },
    /// `replace <key> ...`: store only if the key is present.
    Replace {
        /// The key to store.
        key: &'a [u8],
        /// Opaque client flags.
        flags: u32,
        /// Expiry in seconds (advisory).
        exptime: u32,
        /// The value bytes.
        data: &'a [u8],
    },
    /// `delete <key>`
    Delete {
        /// The key to remove.
        key: &'a [u8],
    },
    /// `touch <key> <exptime>`
    Touch {
        /// The key to touch.
        key: &'a [u8],
        /// New expiry in seconds (advisory).
        exptime: u32,
    },
    /// `incr <key> <delta>`
    Incr {
        /// The key holding an ASCII number.
        key: &'a [u8],
        /// Amount to add.
        delta: u64,
    },
    /// `decr <key> <delta>`
    Decr {
        /// The key holding an ASCII number.
        key: &'a [u8],
        /// Amount to subtract.
        delta: u64,
    },
    /// `stats`
    Stats,
    /// `stats proteus`: the full telemetry registry.
    StatsProteus,
    /// `flush_all`
    FlushAll,
    /// `version`
    Version,
    /// `quit`
    Quit,
}

/// Parses the command at the start of `input` where it lies: keys and
/// data blocks borrow `input`, so a stored value is copied once, from
/// the connection's input buffer to where it comes to rest.
///
/// Returns `Ok(Some((command, used)))` when `input` starts with a
/// complete command (`used` is how many bytes it spans) and `Ok(None)`
/// when more bytes are needed: the command line has no LF yet, or a
/// storage command's data block has not wholly arrived — found by
/// reading only the header line, so a retry per arriving piece costs
/// one header parse.
///
/// # Errors
///
/// [`NetError::Protocol`] on malformed input, including a command line
/// of more than [`MAX_LINE_BYTES`] bytes before its LF.
pub(crate) fn parse_command(input: &[u8]) -> Result<Option<(RawCommand<'_>, usize)>, NetError> {
    let Some((line, used)) = next_line(input)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(line)
        .map_err(|_| NetError::Protocol("command line is not UTF-8".into()))?;
    let mut parts = text.split_ascii_whitespace();
    let verb = parts
        .next()
        .ok_or_else(|| NetError::Protocol("empty command".into()))?;
    let command = match verb {
        "get" => {
            let mut keys = parts.map(str::as_bytes);
            let key = keys
                .next()
                .ok_or_else(|| NetError::Protocol("get needs a key".into()))?;
            // Counting the other keys before listing them refuses an
            // oversized line before any list exists, and sizes the list
            // of a multi-key `get` once.
            let (others, all_valid) = keys
                .clone()
                .take(MAX_GET_KEYS)
                .fold((0, valid_key(key)), |(n, ok), k| {
                    (n + 1, ok && valid_key(k))
                });
            if others == MAX_GET_KEYS {
                return Err(NetError::Protocol("too many keys in one get".into()));
            }
            if !all_valid {
                return Err(NetError::Protocol("invalid key".into()));
            }
            if others == 0 {
                RawCommand::Get { key }
            } else {
                let mut listed = Vec::with_capacity(1 + others);
                listed.push(key);
                listed.extend(keys);
                RawCommand::MultiGet { keys: listed }
            }
        }
        "set" | "add" | "replace" => {
            let missing_key = if verb == "set" {
                "set needs a key"
            } else {
                "storage command needs a key"
            };
            let key = key_field(parts.next(), missing_key)?;
            let flags: u32 = parse_field(parts.next(), "flags")?;
            let exptime: u32 = parse_field(parts.next(), "exptime")?;
            let Some(data) = data_block(&input[used..], parts.next())? else {
                return Ok(None);
            };
            let command = match verb {
                "set" => RawCommand::Set {
                    key,
                    flags,
                    exptime,
                    data,
                },
                "add" => RawCommand::Add {
                    key,
                    flags,
                    exptime,
                    data,
                },
                _ => RawCommand::Replace {
                    key,
                    flags,
                    exptime,
                    data,
                },
            };
            return Ok(Some((command, used + data.len() + 2)));
        }
        "delete" => RawCommand::Delete {
            key: key_field(parts.next(), "delete needs a key")?,
        },
        "touch" => RawCommand::Touch {
            key: key_field(parts.next(), "touch needs a key")?,
            exptime: parse_field(parts.next(), "exptime")?,
        },
        "incr" | "decr" => {
            let key = key_field(parts.next(), "incr/decr needs a key")?;
            let delta: u64 = parse_field(parts.next(), "delta")?;
            if verb == "incr" {
                RawCommand::Incr { key, delta }
            } else {
                RawCommand::Decr { key, delta }
            }
        }
        // `stats proteus` selects the full telemetry registry; any
        // other (or absent) argument keeps the historical behaviour of
        // plain `stats` ignoring trailing tokens.
        "stats" => match parts.next() {
            Some("proteus") => RawCommand::StatsProteus,
            _ => RawCommand::Stats,
        },
        "flush_all" => RawCommand::FlushAll,
        "version" => RawCommand::Version,
        "quit" => RawCommand::Quit,
        other => return Err(NetError::Protocol(format!("unknown verb {other:?}"))),
    };
    Ok(Some((command, used)))
}

/// The line at the start of `input` without its LF and one CR before
/// it, and the bytes it spans with the LF; `Ok(None)` until the LF has
/// arrived.
///
/// # Errors
///
/// [`NetError::Protocol`] once more than [`MAX_LINE_BYTES`] bytes, a CR
/// included, have arrived without an LF among them.
fn next_line(input: &[u8]) -> Result<Option<(&[u8], usize)>, NetError> {
    let scan = &input[..input.len().min(MAX_LINE_BYTES + 1)];
    let Some(lf) = scan.iter().position(|&b| b == b'\n') else {
        return if input.len() > MAX_LINE_BYTES {
            Err(NetError::Protocol("line too long".into()))
        } else {
            Ok(None)
        };
    };
    let line = &input[..lf];
    Ok(Some((line.strip_suffix(b"\r").unwrap_or(line), lf + 1)))
}

/// The data block at the start of `input` whose length `field`, its
/// header's last field, declares: refused over [`MAX_VALUE_BYTES`], and
/// `Ok(None)` until it and the CRLF that must close it have arrived.
fn data_block<'a>(input: &'a [u8], field: Option<&str>) -> Result<Option<&'a [u8]>, NetError> {
    let bytes: usize = parse_field(field, "bytes")?;
    if bytes > MAX_VALUE_BYTES {
        return Err(NetError::Protocol("value too large".into()));
    }
    let Some(block) = input.get(..bytes + 2) else {
        return Ok(None);
    };
    let (data, crlf) = block.split_at(bytes);
    if crlf != b"\r\n" {
        return Err(NetError::Protocol("data block not CRLF-terminated".into()));
    }
    Ok(Some(data))
}

/// Parses one command from a byte slice without consuming it, as the
/// server does on a connection's input buffer: `Ok(Some((command,
/// used)))` when `input` starts with a complete command of `used`
/// bytes, `Ok(None)` when more bytes are needed. The command borrows
/// `input`.
///
/// `_scratch` is unused: the parser no longer copies into a
/// [`WireBuf`], and the parameter stays so that callers written
/// against that signature keep compiling.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] on malformed input.
pub fn parse_raw_command<'a>(
    input: &'a [u8],
    _scratch: &mut WireBuf,
) -> Result<Option<(RawCommand<'a>, usize)>, NetError> {
    parse_command(input)
}

/// A command's key argument: `missing` if there is none, "invalid key"
/// if it is not a valid key.
fn key_field<'a>(field: Option<&'a str>, missing: &str) -> Result<&'a [u8], NetError> {
    let key = field
        .ok_or_else(|| NetError::Protocol(missing.into()))?
        .as_bytes();
    valid_key(key)
        .then_some(key)
        .ok_or_else(|| NetError::Protocol("invalid key".into()))
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, name: &str) -> Result<T, NetError> {
    field
        .ok_or_else(|| NetError::Protocol(format!("missing {name}")))?
        .parse()
        .map_err(|_| NetError::Protocol(format!("malformed {name}")))
}

/// Writes one command without flushing: the client encodes a whole
/// exchange — one command, or a pipelined batch
/// ([`CacheClient::set_many`]) — into its connection's buffer and sends
/// it with one `write`. Keys and data are borrowed and copied exactly
/// once, into the writer.
///
/// [`CacheClient::set_many`]: crate::CacheClient::set_many
///
/// # Errors
///
/// Propagates write failures.
pub fn write_command_unflushed<W: Write>(
    writer: &mut W,
    cmd: &RawCommand<'_>,
) -> Result<(), NetError> {
    match *cmd {
        RawCommand::Get { key } => {
            writer.write_all(b"get ")?;
            writer.write_all(key)?;
        }
        RawCommand::MultiGet { ref keys } => {
            writer.write_all(b"get")?;
            for key in keys {
                writer.write_all(b" ")?;
                writer.write_all(key)?;
            }
        }
        RawCommand::Set {
            key,
            flags,
            exptime,
            data,
        } => write_storage(writer, b"set ", key, flags, exptime, data)?,
        RawCommand::Add {
            key,
            flags,
            exptime,
            data,
        } => write_storage(writer, b"add ", key, flags, exptime, data)?,
        RawCommand::Replace {
            key,
            flags,
            exptime,
            data,
        } => write_storage(writer, b"replace ", key, flags, exptime, data)?,
        RawCommand::Delete { key } => {
            writer.write_all(b"delete ")?;
            writer.write_all(key)?;
        }
        RawCommand::Touch { key, exptime } => {
            writer.write_all(b"touch ")?;
            writer.write_all(key)?;
            write!(writer, " {exptime}")?;
        }
        RawCommand::Incr { key, delta } => {
            writer.write_all(b"incr ")?;
            writer.write_all(key)?;
            write!(writer, " {delta}")?;
        }
        RawCommand::Decr { key, delta } => {
            writer.write_all(b"decr ")?;
            writer.write_all(key)?;
            write!(writer, " {delta}")?;
        }
        RawCommand::Stats => writer.write_all(b"stats")?,
        RawCommand::StatsProteus => writer.write_all(b"stats proteus")?,
        RawCommand::FlushAll => writer.write_all(b"flush_all")?,
        RawCommand::Version => writer.write_all(b"version")?,
        RawCommand::Quit => writer.write_all(b"quit")?,
    }
    writer.write_all(b"\r\n")?;
    Ok(())
}

/// A storage command up to the CRLF that closes its data block:
/// `<verb><key> <flags> <exptime> <bytes>\r\n<data>`.
fn write_storage<W: Write>(
    writer: &mut W,
    verb: &[u8],
    key: &[u8],
    flags: u32,
    exptime: u32,
    data: &[u8],
) -> Result<(), NetError> {
    writer.write_all(verb)?;
    writer.write_all(key)?;
    write!(writer, " {flags} {exptime} {}\r\n", data.len())?;
    writer.write_all(data)?;
    Ok(())
}

/// Writes one response without flushing — the building block
/// [`ResponseWriter`] uses to coalesce flushes across a pipelined
/// batch.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response_unflushed<W: Write>(writer: &mut W, resp: &Response) -> Result<(), NetError> {
    match resp {
        Response::Value { key, flags, data } => {
            write_value_block(writer, key, *flags, data)?;
            writer.write_all(b"END\r\n")?;
        }
        Response::Values(items) => {
            for item in items {
                write_value_block(writer, &item.key, item.flags, &item.data)?;
            }
            writer.write_all(b"END\r\n")?;
        }
        Response::Miss => writer.write_all(b"END\r\n")?,
        Response::Stored => writer.write_all(b"STORED\r\n")?,
        Response::NotStored => writer.write_all(b"NOT_STORED\r\n")?,
        Response::Deleted => writer.write_all(b"DELETED\r\n")?,
        Response::NotFound => writer.write_all(b"NOT_FOUND\r\n")?,
        Response::Touched => writer.write_all(b"TOUCHED\r\n")?,
        Response::Numeric(v) => write!(writer, "{v}\r\n")?,
        Response::Ok => writer.write_all(b"OK\r\n")?,
        Response::Version(v) => write!(writer, "VERSION {}\r\n", v.replace(['\r', '\n'], " "))?,
        Response::Stats(pairs) => {
            for (name, value) in pairs {
                write!(writer, "STAT {name} {value}\r\n")?;
            }
            writer.write_all(b"END\r\n")?;
        }
        Response::Error(msg) => {
            write!(writer, "ERROR {}\r\n", msg.replace(['\r', '\n'], " "))?;
        }
    }
    Ok(())
}

/// One block of a `get` reply: `VALUE <key> <flags> <len>`, the data,
/// CRLF.
fn write_value_block<W: Write>(
    writer: &mut W,
    key: &[u8],
    flags: u32,
    data: &[u8],
) -> Result<(), NetError> {
    writer.write_all(b"VALUE ")?;
    writer.write_all(key)?;
    write!(writer, " {flags} {}\r\n", data.len())?;
    writer.write_all(data)?;
    writer.write_all(b"\r\n")?;
    Ok(())
}

/// A response writer that queues responses without flushing, and
/// assembles `get` replies one `VALUE` block at a time from borrowed
/// keys and values — so the server can copy a value straight out of
/// the cache into the reply while it holds the value's shard lock.
///
/// The server runs it over an in-memory buffer (nothing here may block
/// under that lock) and drains the buffer to the socket once per
/// drained input buffer, so a pipelined batch of gets goes out in one
/// write.
#[derive(Debug)]
pub struct ResponseWriter<W: Write> {
    writer: W,
}

impl<W: Write> ResponseWriter<W> {
    /// Wraps a writer (typically an in-memory buffer).
    pub fn new(writer: W) -> Self {
        ResponseWriter { writer }
    }

    /// The wrapped writer.
    pub fn get_ref(&self) -> &W {
        &self.writer
    }

    /// Mutable access to the wrapped writer — the data planes use this
    /// to drain their per-connection output buffer to the socket.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.writer
    }

    /// Queues one response (no flush).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write(&mut self, resp: &Response) -> Result<(), NetError> {
        write_response_unflushed(&mut self.writer, resp)
    }

    /// Queues one `VALUE` block of a `get` reply. Key and data are
    /// borrowed and copied exactly once, into the writer. A reply is
    /// zero or more blocks (misses are omitted) closed by
    /// [`write_end`](Self::write_end).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_value(&mut self, key: &[u8], flags: u32, data: &[u8]) -> Result<(), NetError> {
        write_value_block(&mut self.writer, key, flags, data)
    }

    /// Queues one `VALUE` block whose data is `parts` joined by `\n`,
    /// `len` bytes in all — the caller has measured them, because the
    /// length goes out ahead of the data. Each part is copied exactly
    /// once, into the writer.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_value_joined<'a>(
        &mut self,
        key: &[u8],
        flags: u32,
        len: usize,
        parts: impl Iterator<Item = &'a [u8]>,
    ) -> Result<(), NetError> {
        self.writer.write_all(b"VALUE ")?;
        self.writer.write_all(key)?;
        write!(self.writer, " {flags} {len}\r\n")?;
        for (i, part) in parts.enumerate() {
            if i > 0 {
                self.writer.write_all(b"\n")?;
            }
            self.writer.write_all(part)?;
        }
        self.writer.write_all(b"\r\n")?;
        Ok(())
    }

    /// Closes a `get` reply with `END`.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_end(&mut self) -> Result<(), NetError> {
        self.writer.write_all(b"END\r\n")?;
        Ok(())
    }

    /// Queues a whole single-key `get` hit: one
    /// [`write_value`](Self::write_value) block and `END`.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_single_value(
        &mut self,
        key: &[u8],
        flags: u32,
        data: &[u8],
    ) -> Result<(), NetError> {
        self.write_value(key, flags, data)?;
        self.write_end()
    }
}

/// Parses the reply at the start of `input` where it lies, as a pooled
/// client connection does on its input buffer: `Ok(Some((reply,
/// used)))` when `input` starts with a whole reply of `used` bytes and
/// `Ok(None)` when more bytes are needed. A `VALUE … END` or `STAT …
/// END` run is whole only at its `END`; until then the parse walks the
/// block headers already buffered and copies nothing. Each value is
/// then copied once, into its [`SharedBytes`].
///
/// # Errors
///
/// [`NetError::Protocol`] on a malformed reply, including a line of
/// more than [`MAX_LINE_BYTES`] bytes before its LF.
pub(crate) fn parse_response(input: &[u8]) -> Result<Option<(Response, usize)>, NetError> {
    let Some((line, used)) = next_line(input)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(line)
        .map_err(|_| NetError::Protocol("response line is not UTF-8".into()))?;
    let response = match text {
        "END" => Response::Miss,
        "STORED" => Response::Stored,
        "NOT_STORED" => Response::NotStored,
        "DELETED" => Response::Deleted,
        "NOT_FOUND" => Response::NotFound,
        "TOUCHED" => Response::Touched,
        "OK" => Response::Ok,
        "ERROR" => Response::Error(String::new()),
        _ if text.starts_with("VALUE ") => return parse_values(input),
        _ if text.starts_with("STAT ") => {
            let Some(used) = walk_stats(input, |_, _| {})? else {
                return Ok(None);
            };
            let mut pairs = Vec::new();
            walk_stats(input, |name, value| pairs.push((name.into(), value.into())))?;
            return Ok(Some((Response::Stats(pairs), used)));
        }
        _ if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) => Response::Numeric(
            text.parse()
                .map_err(|_| NetError::Protocol("numeric response out of range".into()))?,
        ),
        _ => match (text.strip_prefix("VERSION "), text.strip_prefix("ERROR ")) {
            (Some(version), _) => Response::Version(version.into()),
            (_, Some(message)) => Response::Error(message.into()),
            _ => {
                return Err(NetError::Protocol(format!(
                    "unrecognized response {text:?}"
                )))
            }
        },
    };
    Ok(Some((response, used)))
}

/// A `get` reply: one or more `VALUE` blocks and a lone `END`. One
/// block parses as [`Response::Value`] in one walk; a longer run is
/// walked once to find its end and count it, then again to copy it.
fn parse_values(input: &[u8]) -> Result<Option<(Response, usize)>, NetError> {
    let mut first = None;
    let Some((used, blocks)) = walk_values(input, |key, flags, data| {
        first.get_or_insert((key, flags, data));
    })?
    else {
        return Ok(None);
    };
    let item = |key: &[u8], flags, data: &[u8]| ValueItem {
        key: key.to_vec(),
        flags,
        data: data.into(),
    };
    let response = match first {
        Some((key, flags, data)) if blocks == 1 => {
            let ValueItem { key, flags, data } = item(key, flags, data);
            Response::Value { key, flags, data }
        }
        _ => {
            let mut items = Vec::with_capacity(blocks);
            walk_values(input, |key, flags, data| items.push(item(key, flags, data)))?;
            Response::Values(items)
        }
    };
    Ok(Some((response, used)))
}

/// Walks the `VALUE <key> <flags> <bytes>` blocks at the start of
/// `input` up to the `END` that closes them, handing each block's key,
/// flags and data to `each`: `Ok(Some((used, blocks)))` once the `END`
/// has arrived, `Ok(None)` before.
fn walk_values<'a>(
    input: &'a [u8],
    mut each: impl FnMut(&'a [u8], u32, &'a [u8]),
) -> Result<Option<(usize, usize)>, NetError> {
    let (mut pos, mut blocks) = (0, 0);
    loop {
        let Some((line, used)) = next_line(&input[pos..])? else {
            return Ok(None);
        };
        pos += used;
        if line == b"END" {
            return Ok(Some((pos, blocks)));
        }
        let header = std::str::from_utf8(line)
            .map_err(|_| NetError::Protocol("value line is not UTF-8".into()))?;
        let mut parts = header
            .strip_prefix("VALUE ")
            .ok_or_else(|| NetError::Protocol(format!("bad value line {header:?}")))?
            .split_ascii_whitespace();
        let key = parts
            .next()
            .ok_or_else(|| NetError::Protocol("VALUE missing key".into()))?;
        let flags: u32 = parse_field(parts.next(), "flags")?;
        let Some(data) = data_block(&input[pos..], parts.next())? else {
            return Ok(None);
        };
        blocks += 1;
        if blocks > MAX_GET_KEYS {
            return Err(NetError::Protocol("too many VALUE blocks".into()));
        }
        each(key.as_bytes(), flags, data);
        pos += data.len() + 2;
    }
}

/// Walks the `STAT <name> <value>` lines at the start of `input` up to
/// the `END` that closes them, handing each pair to `each`: the bytes
/// they span once the `END` has arrived, `Ok(None)` before.
fn walk_stats<'a>(
    input: &'a [u8],
    mut each: impl FnMut(&'a str, &'a str),
) -> Result<Option<usize>, NetError> {
    let mut pos = 0;
    loop {
        let Some((line, used)) = next_line(&input[pos..])? else {
            return Ok(None);
        };
        pos += used;
        if line == b"END" {
            return Ok(Some(pos));
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| NetError::Protocol("stats line is not UTF-8".into()))?;
        let (name, value) = line
            .strip_prefix("STAT ")
            .ok_or_else(|| NetError::Protocol(format!("bad stats line {line:?}")))?
            .split_once(' ')
            .ok_or_else(|| NetError::Protocol("stats line missing value".into()))?;
        each(name, value);
    }
}

/// Reads one reply off `reader`, consuming exactly its bytes: each
/// buffer the reader fills is parsed where it lies, and a reply that
/// spans several is staged in `buf` and parsed again from its start
/// each time a buffer is added, until it is whole.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] on malformed responses and
/// [`NetError::Io`] on read errors, a stream that ends mid-reply
/// included.
pub fn read_response_buffered<R: BufRead>(
    reader: &mut R,
    buf: &mut WireBuf,
) -> Result<Response, NetError> {
    let staged = &mut buf.staged;
    staged.clear();
    loop {
        let input = reader.fill_buf()?;
        if input.is_empty() {
            return Err(NetError::Io(ErrorKind::UnexpectedEof.into()));
        }
        let (taken, fresh) = (staged.len(), input.len());
        if taken > 0 {
            staged.extend_from_slice(input);
        }
        match parse_response(if taken == 0 { input } else { staged })? {
            Some((response, used)) => {
                reader.consume(used - taken);
                return Ok(response);
            }
            None if taken == 0 => staged.extend_from_slice(input),
            None => {}
        }
        reader.consume(fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One parse of `bytes`; the command borrows `bytes`. A command
    /// still missing bytes is the end of input.
    fn parse(bytes: &[u8]) -> Result<RawCommand<'_>, NetError> {
        parse_command(bytes)?
            .map(|(cmd, _)| cmd)
            .ok_or_else(|| NetError::Io(std::io::ErrorKind::UnexpectedEof.into()))
    }

    fn encode(cmd: &RawCommand<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        write_command_unflushed(&mut out, cmd).unwrap();
        out
    }

    /// One parse of `bytes`; a reply still missing bytes is the end of
    /// input.
    fn read_response(bytes: &[u8]) -> Result<Response, NetError> {
        parse_response(bytes)?
            .map(|(resp, _)| resp)
            .ok_or_else(|| NetError::Io(std::io::ErrorKind::UnexpectedEof.into()))
    }

    fn roundtrip_response(resp: Response) -> Response {
        let mut buf = Vec::new();
        write_response_unflushed(&mut buf, &resp).unwrap();
        read_response(&buf).unwrap()
    }

    #[test]
    fn commands_roundtrip() {
        for cmd in [
            RawCommand::Get { key: b"page:1" },
            RawCommand::Set {
                key: b"k",
                flags: 7,
                exptime: 60,
                data: b"hello\r\nworld", // binary-safe data block
            },
            RawCommand::Delete { key: b"k" },
            RawCommand::Stats,
            RawCommand::StatsProteus,
            RawCommand::Quit,
        ] {
            assert_eq!(parse(&encode(&cmd)).unwrap(), cmd);
        }
    }

    #[test]
    fn stats_argument_selects_registry_or_is_ignored() {
        assert_eq!(
            parse(b"stats proteus\r\n").unwrap(),
            RawCommand::StatsProteus
        );
        // Unknown arguments keep the historical plain-stats behaviour.
        assert_eq!(parse(b"stats items\r\n").unwrap(), RawCommand::Stats);
        assert_eq!(parse(b"stats\r\n").unwrap(), RawCommand::Stats);
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Value {
                key: b"k".to_vec(),
                flags: 1,
                data: vec![0, 1, 2, 255].into(),
            },
            Response::Miss,
            Response::Stored,
            Response::Deleted,
            Response::NotFound,
            Response::Stats(vec![
                ("hits".into(), "10".into()),
                ("misses".into(), "2".into()),
            ]),
            Response::Error("kaboom".into()),
        ] {
            assert_eq!(roundtrip_response(resp.clone()), resp);
        }
    }

    #[test]
    fn rejects_malformed_commands() {
        for bad in [
            "\r\n",
            "get\r\n",
            "frob k\r\n",
            "set k x 0 5\r\nhello\r\n",
            "get bad key\r\n extra",
        ] {
            // Either a protocol error or (for trailing garbage) a clean
            // first parse — never a panic.
            let _ = parse(bad.as_bytes());
        }
        assert!(matches!(parse(b"frob k\r\n"), Err(NetError::Protocol(_))));
        assert!(matches!(
            parse(b"set k 0 0 abc\r\n"),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn rejects_invalid_keys() {
        assert!(matches!(parse(b"get \r\n"), Err(NetError::Protocol(_))));
        let long = format!("get {}\r\n", "k".repeat(300));
        assert!(matches!(parse(long.as_bytes()), Err(NetError::Protocol(_))));
    }

    #[test]
    fn set_data_block_must_be_crlf_terminated() {
        let bad = b"set k 0 0 2\r\nhiXX".to_vec();
        assert!(matches!(parse(&bad), Err(NetError::Protocol(_))));
    }

    #[test]
    fn eof_surfaces_as_io() {
        assert!(matches!(parse(b""), Err(NetError::Io(_))));
    }

    #[test]
    fn multi_key_get_roundtrips() {
        let cmd = RawCommand::MultiGet {
            keys: vec![b"a", b"b", b"c"],
        };
        let buf = encode(&cmd);
        assert_eq!(buf, b"get a b c\r\n");
        assert_eq!(parse(&buf).unwrap(), cmd);
    }

    #[test]
    fn single_key_get_stays_get() {
        // `get k` must keep parsing to Get, not a one-key MultiGet, so
        // single-key traffic is byte-identical to the previous protocol.
        assert_eq!(parse(b"get k\r\n").unwrap(), RawCommand::Get { key: b"k" });
    }

    #[test]
    fn multi_get_rejects_any_invalid_key() {
        let long = format!("get ok {}\r\n", "k".repeat(300));
        assert!(matches!(parse(long.as_bytes()), Err(NetError::Protocol(_))));
    }

    #[test]
    fn values_roundtrip_and_degenerate_cases_normalize() {
        let items = vec![
            ValueItem {
                key: b"a".to_vec(),
                flags: 1,
                data: b"first".to_vec().into(),
            },
            ValueItem {
                key: b"c".to_vec(),
                flags: 0,
                data: vec![0, 255, b'\r', b'\n'].into(),
            },
        ];
        let resp = Response::Values(items.clone());
        assert_eq!(roundtrip_response(resp.clone()), resp);
        // Zero hits on the wire are exactly a miss; one hit is exactly
        // a single-key Value. Both normalize on read.
        assert_eq!(
            roundtrip_response(Response::Values(Vec::new())),
            Response::Miss
        );
        assert_eq!(
            roundtrip_response(Response::Values(items[..1].to_vec())),
            Response::Value {
                key: b"a".to_vec(),
                flags: 1,
                data: b"first".to_vec().into(),
            }
        );
    }

    #[test]
    fn multi_value_wire_bytes_are_memcached_shaped() {
        let resp = Response::Values(vec![
            ValueItem {
                key: b"x".to_vec(),
                flags: 0,
                data: b"1".to_vec().into(),
            },
            ValueItem {
                key: b"y".to_vec(),
                flags: 2,
                data: b"22".to_vec().into(),
            },
        ]);
        let mut buf = Vec::new();
        write_response_unflushed(&mut buf, &resp).unwrap();
        assert_eq!(buf, b"VALUE x 0 1\r\n1\r\nVALUE y 2 2\r\n22\r\nEND\r\n");
    }

    #[test]
    fn a_set_borrows_its_key_and_data_block_from_the_input() {
        let input = b"set k 1 0 3\r\nabc\r\nget next\r\n";
        let (command, used) = parse_command(input).unwrap().unwrap();
        assert_eq!(used, 18);
        let RawCommand::Set {
            key, flags, data, ..
        } = command
        else {
            panic!("expected set, got {command:?}");
        };
        assert_eq!((key, flags, data), (&b"k"[..], 1, &b"abc"[..]));
        // Where they lie in `input`, not copies.
        assert!(std::ptr::eq(key, &input[4..5]));
        assert!(std::ptr::eq(data, &input[13..16]));
    }

    #[test]
    fn response_writer_output_is_byte_identical() {
        let responses = [
            Response::Value {
                key: b"k".to_vec(),
                flags: 3,
                data: vec![0, 255, b'\r', b'\n'].into(),
            },
            Response::Values(vec![
                ValueItem {
                    key: b"x".to_vec(),
                    flags: 0,
                    data: b"1".to_vec().into(),
                },
                ValueItem {
                    key: b"y".to_vec(),
                    flags: 2,
                    data: Vec::new().into(), // zero-length value block
                },
            ]),
            Response::Miss,
            Response::Stored,
            Response::Numeric(42),
            Response::Stats(vec![("hits".into(), "1".into())]),
            Response::Error("nope".into()),
        ];
        // What the flushing, one-response-at-a-time writer put on the
        // wire before the server coalesced its replies.
        let flushed = b"VALUE k 3 4\r\n\x00\xff\r\n\r\nEND\r\n\
            VALUE x 0 1\r\n1\r\nVALUE y 2 0\r\n\r\nEND\r\n\
            END\r\nSTORED\r\n42\r\nSTAT hits 1\r\nEND\r\nERROR nope\r\n"
            .to_vec();
        let mut coalesced = ResponseWriter::new(Vec::new());
        for resp in &responses {
            coalesced.write(resp).unwrap();
        }
        assert_eq!(
            coalesced.writer, flushed,
            "coalesced writer must emit identical bytes"
        );
    }

    #[test]
    fn truncated_multi_value_stream_errors() {
        // Second VALUE block promised but stream ends: Io error, not a
        // bogus partial response.
        let bytes = b"VALUE x 0 1\r\n1\r\nVALUE y 0 5\r\n".to_vec();
        assert!(matches!(read_response(&bytes), Err(NetError::Io(_))));
    }

    #[test]
    fn resumable_parse_matches_streaming_parse_at_every_split() {
        // For every prefix of a pipelined stream, parse_command must either yield exactly the commands a parse of the whole
        // stream sees or report Incomplete — never an error, never a
        // different command.
        let stream = b"get hot\r\nset k 1 0 3\r\nabc\r\nget a b\r\nincr k 2\r\nquit\r\n";
        let mut expected = Vec::new();
        {
            let mut pos = 0;
            while let Some((cmd, used)) = parse_command(&stream[pos..]).unwrap() {
                expected.push(format!("{cmd:?}"));
                pos += used;
            }
            assert_eq!(pos, stream.len());
        }
        for split in 0..=stream.len() {
            let mut got = Vec::new();
            let mut pos = 0;
            for end in [split, stream.len()] {
                while let Some((cmd, used)) = parse_command(&stream[pos..end]).unwrap() {
                    got.push(format!("{cmd:?}"));
                    pos += used;
                }
            }
            assert_eq!(got, expected, "split at byte {split}");
        }
    }

    #[test]
    fn resumable_parse_surfaces_protocol_errors() {
        assert!(matches!(
            parse_command(b"frob k\r\n"),
            Err(NetError::Protocol(_))
        ));
        // A prefix with no newline is incomplete, not an error...
        assert!(parse_command(b"get parti").unwrap().is_none());
        // ...until it blows the line-length cap.
        let long = vec![b'a'; (1 << 20) + 2];
        assert!(matches!(parse_command(&long), Err(NetError::Protocol(_))));
    }

    #[test]
    fn unflushed_command_writer_is_byte_identical() {
        let cmds = [
            RawCommand::Set {
                key: b"k",
                flags: 7,
                exptime: 60,
                data: b"hello",
            },
            RawCommand::Get { key: b"page:1" },
        ];
        // What the flushing writer this one replaced put on the wire.
        let flushed = b"set k 7 60 5\r\nhello\r\nget page:1\r\n".to_vec();
        let mut unflushed = Vec::new();
        for cmd in &cmds {
            write_command_unflushed(&mut unflushed, cmd).unwrap();
        }
        assert_eq!(flushed, unflushed);
    }

    #[test]
    fn reserved_keys_are_ordinary_keys() {
        // The digest keys must be parseable as plain gets — that is the
        // paper's compatibility trick.
        assert_eq!(
            parse(b"get SET_BLOOM_FILTER\r\n").unwrap(),
            RawCommand::Get {
                key: DIGEST_SNAPSHOT_KEY
            }
        );
    }
}
