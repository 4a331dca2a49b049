//! The reply parser accepts and rejects exactly the same byte streams as
//! the blocking reader it replaced.
//!
//! `common::reply` is a verbatim transplant of the pre-rewrite reader
//! (a `BufRead`, a line `Vec`, a data `Vec`). The properties drive it
//! and `read_response_buffered` — a loop over the crate's
//! `parse_response` — in lockstep over the same inputs: well-formed
//! pipelined replies, arbitrary bytes, CRLF-framed text, and mutated or
//! truncated valid streams. They require identical verdicts: the same
//! replies, the same number of bytes consumed after each, and the same
//! error class (protocol vs I/O) at the first rejection. Each stream is
//! read off a plain slice, where every reply is parsed where it lies,
//! and behind a `BufReader` of every capacity from 1 to 16 bytes, so
//! that every split point goes through the forward's staging.

mod common;

use std::io::{BufRead, BufReader};

use common::reply;
use proptest::prelude::*;
use proteus_net::{
    read_response_buffered, write_response_unflushed, NetError, Response, ValueItem, WireBuf,
    MAX_GET_KEYS,
};

/// The error classes the equivalence check distinguishes. Error
/// *messages* may differ between the readers; the class may not.
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

/// Drives the reference over `stream` and the forward over `new`, a
/// reader of the same bytes whose unread count is `unread(&new)`, until
/// the first rejection.
fn assert_readers_agree<R: BufRead>(
    stream: &[u8],
    mut new: R,
    unread: impl Fn(&R) -> usize,
) -> Result<(), TestCaseError> {
    let mut old_input = stream;
    let mut wire = WireBuf::new();
    loop {
        let old = reply::read_response(&mut old_input);
        let got = read_response_buffered(&mut new, &mut wire);
        match (old, got) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &b, "readers disagree on the reply");
                prop_assert_eq!(
                    old_input.len(),
                    unread(&new),
                    "readers consumed different byte counts after {:?}",
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
                    "one reader accepted what the other rejected: old {a:?} vs new {b:?}"
                )));
            }
        }
    }
}

/// [`assert_readers_agree`] behind a `BufReader` of `capacity` bytes.
fn agree_behind(stream: &[u8], capacity: usize) -> Result<(), TestCaseError> {
    let reader = BufReader::with_capacity(capacity, stream);
    assert_readers_agree(stream, reader, |r| r.get_ref().len() + r.buffer().len())
}

/// [`assert_readers_agree`] off a plain slice and behind every
/// `BufReader` capacity from 1 to 16 bytes.
fn agree_at_every_split(stream: &[u8]) -> Result<(), TestCaseError> {
    assert_readers_agree(stream, stream, |r| r.len())?;
    (1..=16).try_for_each(|capacity| agree_behind(stream, capacity))
}

fn encode(replies: &[Response]) -> Vec<u8> {
    let mut stream = Vec::new();
    for reply in replies {
        write_response_unflushed(&mut stream, reply).unwrap();
    }
    stream
}

fn value_item() -> impl Strategy<Value = ValueItem> {
    let key = prop::collection::vec(33u8..=126, 1..24);
    let data = prop::collection::vec(any::<u8>(), 0..96);
    (key, any::<u32>(), data).prop_map(|(key, flags, data)| ValueItem {
        key,
        flags,
        data: data.into(),
    })
}

/// Every `Response` variant, as a server writes it. `blocks` bounds a
/// multi-`VALUE` run's length.
fn reply_strategy(blocks: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Response> {
    let stat_pair = ("[!-~]{1,16}", "[ -~]{0,16}");
    prop_oneof![
        value_item().prop_map(|ValueItem { key, flags, data }| Response::Value {
            key,
            flags,
            data
        }),
        prop::collection::vec(value_item(), blocks).prop_map(Response::Values),
        Just(Response::Miss),
        Just(Response::Stored),
        Just(Response::NotStored),
        Just(Response::Deleted),
        Just(Response::NotFound),
        Just(Response::Touched),
        any::<u64>().prop_map(Response::Numeric),
        Just(Response::Ok),
        "[ -~]{0,40}".prop_map(Response::Version),
        prop::collection::vec(stat_pair, 1..8).prop_map(Response::Stats),
        "[ -~]{0,40}".prop_map(Response::Error),
    ]
}

proptest! {
    /// Well-formed pipelined replies, short runs: both readers read
    /// every reply back, at every split point.
    #[test]
    fn valid_reply_streams_read_identically(
        replies in prop::collection::vec(reply_strategy(2..=6), 1..8),
    ) {
        let stream = encode(&replies);
        agree_at_every_split(&stream)?;
        // And the forward reads back exactly what was written.
        let (mut input, mut wire) = (&stream[..], WireBuf::new());
        for written in &replies {
            prop_assert_eq!(&read_response_buffered(&mut input, &mut wire).unwrap(), written);
        }
        prop_assert!(input.is_empty());
    }

    /// Arbitrary bytes: both readers reach the same verdict.
    #[test]
    fn arbitrary_bytes_get_the_same_verdict(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        agree_at_every_split(&bytes)?;
    }

    /// Arbitrary CRLF-framed text lines, the realistic fuzz surface.
    #[test]
    fn text_lines_get_the_same_verdict(lines in prop::collection::vec("[ -~]{0,80}", 1..6)) {
        let mut stream = Vec::new();
        for line in &lines {
            stream.extend_from_slice(line.as_bytes());
            stream.extend_from_slice(b"\r\n");
        }
        agree_at_every_split(&stream)?;
    }

    /// Valid streams with one byte flipped, or cut short.
    #[test]
    fn mutated_streams_get_the_same_verdict(
        replies in prop::collection::vec(reply_strategy(2..=6), 1..4),
        flip_at in any::<usize>(),
        flip_to in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let stream = encode(&replies);
        let mut flipped = stream.clone();
        let i = flip_at % flipped.len();
        flipped[i] = flip_to;
        agree_at_every_split(&flipped)?;
        agree_at_every_split(&stream[..cut % (stream.len() + 1)])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multi-`VALUE` runs up to `MAX_GET_KEYS` blocks, whole or cut
    /// short. The forward re-parses a staged reply once per buffer its
    /// reader fills, walking the run's headers each time, so these runs
    /// read off a plain slice and behind the 8 KiB `BufReader` a socket
    /// gets, not behind one of a few bytes.
    #[test]
    fn runs_up_to_the_key_limit_read_identically(
        run in prop::collection::vec(value_item(), 2..=MAX_GET_KEYS),
        next in reply_strategy(2..=6),
        cut in any::<usize>(),
    ) {
        let stream = encode(&[Response::Values(run), next]);
        for stream in [&stream[..], &stream[..cut % (stream.len() + 1)]] {
            assert_readers_agree(stream, stream, |r| r.len())?;
            agree_behind(stream, 8 << 10)?;
        }
    }
}

/// A run of exactly `MAX_GET_KEYS` blocks is read; one block more is
/// refused, by both readers.
#[test]
fn the_key_limit_holds_at_its_boundary() {
    let run = |blocks: usize| {
        let mut stream = Vec::new();
        for i in 0..blocks {
            stream.extend_from_slice(format!("VALUE k{i} 0 1\r\nv\r\n").as_bytes());
        }
        stream.extend_from_slice(b"END\r\nSTORED\r\n");
        stream
    };
    for (blocks, verdict) in [(MAX_GET_KEYS, "accepted"), (MAX_GET_KEYS + 1, "refused")] {
        let stream = run(blocks);
        assert_readers_agree(&stream, &stream[..], |r| r.len()).unwrap();
        agree_behind(&stream, 8 << 10).unwrap();
        let got = match read_response_buffered(&mut &stream[..], &mut WireBuf::new()) {
            Ok(Response::Values(items)) if items.len() == blocks => "accepted",
            Ok(other) => panic!("{blocks} blocks read as {other:?}"),
            Err(_) => "refused",
        };
        assert_eq!(got, verdict, "{blocks} blocks");
    }
}

/// The reply twin of `parser_equivalence.rs`'s line-cap test: a line of
/// exactly `1 << 20` bytes before its LF, a CR counted among them, is
/// accepted; one byte more is refused; and so is an unfinished line
/// once it has more than `1 << 20` bytes, while one of exactly that
/// many is still waiting (the end of input, as the reference reports
/// it).
#[test]
fn the_line_cap_holds_at_its_boundary() {
    const CAP: usize = 1 << 20;
    // `VERSION x` padded to `len` bytes, then `tail`.
    let line = |len: usize, tail: &[u8]| {
        let mut bytes = b"VERSION x".to_vec();
        bytes.resize(len, b'x');
        bytes.extend_from_slice(tail);
        bytes
    };
    for (name, stream, verdict) in [
        ("cap, LF", line(CAP, b"\nEND\r\n"), "accepted"),
        ("cap, CR LF", line(CAP - 1, b"\r\nEND\r\n"), "accepted"),
        ("cap + 1, LF", line(CAP + 1, b"\nEND\r\n"), "refused"),
        ("cap + 1, CR LF", line(CAP, b"\r\nEND\r\n"), "refused"),
        ("cap, no LF", line(CAP, b""), "waiting"),
        ("cap + 1, no LF", line(CAP + 1, b""), "refused"),
    ] {
        assert_readers_agree(&stream, &stream[..], |r| r.len())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        agree_behind(&stream, 8 << 10).unwrap_or_else(|e| panic!("{name}, staged: {e}"));
        let got = match read_response_buffered(&mut &stream[..], &mut WireBuf::new()) {
            Ok(_) => "accepted",
            Err(NetError::Protocol(_)) => "refused",
            Err(_) => "waiting",
        };
        assert_eq!(got, verdict, "{name}");
    }
}
