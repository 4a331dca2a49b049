//! The borrow-based command parser accepts and rejects exactly the
//! same byte streams as the owned parser it replaced.
//!
//! The `reference` module below is a verbatim transplant of the
//! pre-rewrite parser (byte-at-a-time `read_line`, owned keys). The
//! properties drive the old and new parsers over the same inputs in
//! lockstep — well-formed pipelines, arbitrary bytes, and mutated
//! valid streams — and require identical verdicts: the same commands,
//! the same number of bytes consumed on success, and the same error
//! class (protocol vs I/O) on rejection.

mod common;

use common::Command;
use proptest::prelude::*;
use proteus_net::{parse_raw_command, NetError, RawCommand, WireBuf};

/// The pre-rewrite parser, kept as the behavioral oracle.
mod reference {
    use std::io::BufRead;

    use proteus_net::NetError;

    use crate::common::Command;

    fn valid_key(key: &[u8]) -> bool {
        !key.is_empty() && key.len() <= 250 && key.iter().all(|&b| b > 32 && b != 127)
    }

    fn read_line<R: BufRead>(reader: &mut R, out: &mut Vec<u8>) -> Result<(), NetError> {
        out.clear();
        loop {
            let mut byte = [0u8; 1];
            reader.read_exact(&mut byte)?;
            if byte[0] == b'\n' {
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                return Ok(());
            }
            out.push(byte[0]);
            if out.len() > 1 << 20 {
                return Err(NetError::Protocol("line too long".into()));
            }
        }
    }

    fn parse_field<T: std::str::FromStr>(field: Option<&str>, name: &str) -> Result<T, NetError> {
        field
            .ok_or_else(|| NetError::Protocol(format!("missing {name}")))?
            .parse()
            .map_err(|_| NetError::Protocol(format!("malformed {name}")))
    }

    fn read_data_block<R: BufRead>(reader: &mut R, bytes: usize) -> Result<Vec<u8>, NetError> {
        if bytes > 64 << 20 {
            return Err(NetError::Protocol("value too large".into()));
        }
        let mut data = vec![0u8; bytes];
        reader.read_exact(&mut data)?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(NetError::Protocol("data block not CRLF-terminated".into()));
        }
        Ok(data)
    }

    pub fn read_command<R: BufRead>(reader: &mut R) -> Result<Command, NetError> {
        let mut line = Vec::new();
        read_line(reader, &mut line)?;
        let text = std::str::from_utf8(&line)
            .map_err(|_| NetError::Protocol("command line is not UTF-8".into()))?;
        let mut parts = text.split_ascii_whitespace();
        let verb = parts
            .next()
            .ok_or_else(|| NetError::Protocol("empty command".into()))?;
        match verb {
            "get" => {
                let keys: Vec<Vec<u8>> = parts.map(|p| p.as_bytes().to_vec()).collect();
                if keys.is_empty() {
                    return Err(NetError::Protocol("get needs a key".into()));
                }
                if keys.len() > 1024 {
                    return Err(NetError::Protocol("too many keys in one get".into()));
                }
                if keys.iter().any(|k| !valid_key(k)) {
                    return Err(NetError::Protocol("invalid key".into()));
                }
                if keys.len() == 1 {
                    let key = keys.into_iter().next().expect("one key");
                    Ok(Command::Get { key })
                } else {
                    Ok(Command::MultiGet { keys })
                }
            }
            "set" | "add" | "replace" => {
                let key = parts
                    .next()
                    .ok_or_else(|| NetError::Protocol("storage command needs a key".into()))?
                    .as_bytes()
                    .to_vec();
                if !valid_key(&key) {
                    return Err(NetError::Protocol("invalid key".into()));
                }
                let flags: u32 = parse_field(parts.next(), "flags")?;
                let exptime: u32 = parse_field(parts.next(), "exptime")?;
                let bytes: usize = parse_field(parts.next(), "bytes")?;
                let data = read_data_block(reader, bytes)?;
                Ok(match verb {
                    "set" => Command::Set {
                        key,
                        flags,
                        exptime,
                        data,
                    },
                    "add" => Command::Add {
                        key,
                        flags,
                        exptime,
                        data,
                    },
                    _ => Command::Replace {
                        key,
                        flags,
                        exptime,
                        data,
                    },
                })
            }
            "delete" => {
                let key = parts
                    .next()
                    .ok_or_else(|| NetError::Protocol("delete needs a key".into()))?
                    .as_bytes()
                    .to_vec();
                if !valid_key(&key) {
                    return Err(NetError::Protocol("invalid key".into()));
                }
                Ok(Command::Delete { key })
            }
            "touch" => {
                let key = parts
                    .next()
                    .ok_or_else(|| NetError::Protocol("touch needs a key".into()))?
                    .as_bytes()
                    .to_vec();
                if !valid_key(&key) {
                    return Err(NetError::Protocol("invalid key".into()));
                }
                let exptime: u32 = parse_field(parts.next(), "exptime")?;
                Ok(Command::Touch { key, exptime })
            }
            "incr" | "decr" => {
                let key = parts
                    .next()
                    .ok_or_else(|| NetError::Protocol("incr/decr needs a key".into()))?
                    .as_bytes()
                    .to_vec();
                if !valid_key(&key) {
                    return Err(NetError::Protocol("invalid key".into()));
                }
                let delta: u64 = parse_field(parts.next(), "delta")?;
                if verb == "incr" {
                    Ok(Command::Incr { key, delta })
                } else {
                    Ok(Command::Decr { key, delta })
                }
            }
            // `stats proteus` postdates the parser rewrite; it is
            // mirrored here so the oracle tracks the live grammar.
            "stats" => match parts.next() {
                Some("proteus") => Ok(Command::StatsProteus),
                _ => Ok(Command::Stats),
            },
            "flush_all" => Ok(Command::FlushAll),
            "version" => Ok(Command::Version),
            "quit" => Ok(Command::Quit),
            other => Err(NetError::Protocol(format!("unknown verb {other:?}"))),
        }
    }
}

/// The error classes the equivalence check distinguishes. Error
/// *messages* may differ between the parsers; the class may not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrClass {
    Protocol,
    Io,
}

fn classify(err: &NetError) -> ErrClass {
    match err {
        NetError::Protocol(_) => ErrClass::Protocol,
        _ => ErrClass::Io,
    }
}

/// The parser under test, driven as a connection drives it: one command
/// off the front of `input`, which then starts past it. A command still
/// missing bytes is the end of input, as the reference reports it.
fn next_command<'a>(input: &mut &'a [u8], buf: &mut WireBuf) -> Result<RawCommand<'a>, NetError> {
    let rest: &'a [u8] = input;
    match parse_raw_command(rest, buf)? {
        Some((cmd, used)) => {
            *input = &rest[used..];
            Ok(cmd)
        }
        None => Err(NetError::Io(std::io::ErrorKind::UnexpectedEof.into())),
    }
}

/// Drives both parsers over `stream` in lockstep until the first
/// rejection, asserting identical commands, identical bytes consumed
/// after every accepted command, and the same error class at the end.
fn assert_parsers_agree(stream: &[u8]) -> Result<(), TestCaseError> {
    let mut old_input = stream;
    let mut new_input = stream;
    let mut buf = WireBuf::new();
    loop {
        let old = reference::read_command(&mut old_input);
        let new = next_command(&mut new_input, &mut buf);
        match (old, new) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.raw(), &b, "parsers disagree on the command");
                prop_assert_eq!(
                    old_input.len(),
                    new_input.len(),
                    "parsers consumed different byte counts after {:?}",
                    a
                );
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(
                    classify(&a),
                    classify(&b),
                    "different rejection class: old {:?} vs new {:?}",
                    a,
                    b
                );
                return Ok(());
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "one parser accepted what the other rejected: old {a:?} vs new {b:?}"
                )));
            }
        }
    }
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Printable ASCII: the command line must be UTF-8, so bytes ≥ 128
    // only form parseable keys in multi-byte sequences — those are
    // covered by the arbitrary-bytes and mutation properties below.
    prop::collection::vec(33u8..=126, 1..40)
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..256)
}

fn command_strategy() -> impl Strategy<Value = Command> {
    prop_oneof![
        key_strategy().prop_map(|key| Command::Get { key }),
        prop::collection::vec(key_strategy(), 2..6).prop_map(|keys| Command::MultiGet { keys }),
        (key_strategy(), any::<u32>(), any::<u32>(), value_strategy()).prop_map(
            |(key, flags, exptime, data)| Command::Set {
                key,
                flags,
                exptime,
                data
            }
        ),
        (key_strategy(), any::<u32>(), any::<u32>(), value_strategy()).prop_map(
            |(key, flags, exptime, data)| Command::Add {
                key,
                flags,
                exptime,
                data
            }
        ),
        (key_strategy(), any::<u32>(), any::<u32>(), value_strategy()).prop_map(
            |(key, flags, exptime, data)| Command::Replace {
                key,
                flags,
                exptime,
                data
            }
        ),
        key_strategy().prop_map(|key| Command::Delete { key }),
        (key_strategy(), any::<u32>()).prop_map(|(key, exptime)| Command::Touch { key, exptime }),
        (key_strategy(), any::<u64>()).prop_map(|(key, delta)| Command::Incr { key, delta }),
        (key_strategy(), any::<u64>()).prop_map(|(key, delta)| Command::Decr { key, delta }),
        Just(Command::Stats),
        Just(Command::StatsProteus),
        Just(Command::FlushAll),
        Just(Command::Version),
        Just(Command::Quit),
    ]
}

proptest! {
    /// Well-formed pipelined streams: every command parses identically
    /// through old and new, sharing one `WireBuf` across the pipeline.
    #[test]
    fn valid_pipelines_parse_identically(
        cmds in prop::collection::vec(command_strategy(), 1..8),
    ) {
        let mut stream = Vec::new();
        for cmd in &cmds {
            cmd.write_to(&mut stream);
        }
        assert_parsers_agree(&stream)?;
        // And the accepted prefix is the whole pipeline: re-parse with
        // the new parser alone and count.
        let mut input = &stream[..];
        let mut buf = WireBuf::new();
        for cmd in &cmds {
            let parsed = next_command(&mut input, &mut buf).unwrap();
            prop_assert_eq!(parsed, cmd.raw());
        }
    }

    /// Arbitrary bytes: both parsers reach the same verdict.
    #[test]
    fn arbitrary_bytes_get_the_same_verdict(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        assert_parsers_agree(&bytes)?;
    }

    /// Arbitrary text lines (the realistic fuzz surface: garbage that
    /// is at least CRLF-framed).
    #[test]
    fn text_lines_get_the_same_verdict(lines in prop::collection::vec("[ -~]{0,80}", 1..5)) {
        let mut stream = Vec::new();
        for line in &lines {
            stream.extend_from_slice(line.as_bytes());
            stream.extend_from_slice(b"\r\n");
        }
        assert_parsers_agree(&stream)?;
    }

    /// Mutated valid streams: flip one byte or truncate a well-formed
    /// command — the parsers must still agree on accept vs reject.
    #[test]
    fn mutated_streams_get_the_same_verdict(
        cmd in command_strategy(),
        flip_at in any::<usize>(),
        flip_to in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let mut stream = Vec::new();
        cmd.write_to(&mut stream);

        let mut flipped = stream.clone();
        let i = flip_at % flipped.len();
        flipped[i] = flip_to;
        assert_parsers_agree(&flipped)?;

        let truncated = &stream[..cut % (stream.len() + 1)];
        assert_parsers_agree(truncated)?;
    }
}

/// The 1 MiB line cap at its edge: a line of exactly `1 << 20` bytes
/// before its LF, a CR counted among them, is accepted; one byte more
/// is refused; and so is an unfinished line once it has more than
/// `1 << 20` bytes, while one of exactly that many is still waiting.
#[test]
fn the_line_cap_holds_at_its_boundary() {
    const CAP: usize = 1 << 20;
    // `get k` padded with spaces to `len` bytes, then `tail`.
    let line = |len: usize, tail: &[u8]| {
        let mut bytes = b"get k".to_vec();
        bytes.resize(len, b' ');
        bytes.extend_from_slice(tail);
        bytes
    };
    for (name, stream, verdict) in [
        ("cap, LF", line(CAP, b"\nversion\r\n"), "accepted"),
        ("cap, CR LF", line(CAP - 1, b"\r\nversion\r\n"), "accepted"),
        ("cap + 1, LF", line(CAP + 1, b"\nversion\r\n"), "refused"),
        ("cap + 1, CR LF", line(CAP, b"\r\nversion\r\n"), "refused"),
        ("cap, no LF", line(CAP, b""), "waiting"),
        ("cap + 1, no LF", line(CAP + 1, b""), "refused"),
    ] {
        assert_parsers_agree(&stream).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = match parse_raw_command(&stream, &mut WireBuf::new()) {
            Ok(Some(_)) => "accepted",
            Ok(None) => "waiting",
            Err(_) => "refused",
        };
        assert_eq!(got, verdict, "{name}");
    }
}
