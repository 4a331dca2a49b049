//! Property tests of the wire protocol: round trips and fuzz safety.

mod common;

use common::Command;
use proptest::prelude::*;
use proteus_net::{
    parse_raw_command, write_response_unflushed, NetError, RawCommand, Response, WireBuf,
};

/// One parse of `bytes`; the command borrows `bytes`. A command still
/// missing bytes is the end of input.
fn parse<'a>(bytes: &'a [u8], buf: &mut WireBuf) -> Result<RawCommand<'a>, NetError> {
    parse_raw_command(bytes, buf)?
        .map(|(cmd, _)| cmd)
        .ok_or_else(|| NetError::Io(std::io::ErrorKind::UnexpectedEof.into()))
}

fn read_response(mut bytes: &[u8]) -> Result<Response, NetError> {
    common::reply::read_response(&mut bytes)
}

/// Strategy for protocol-legal keys (printable, no whitespace, ≤250).
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(33u8..=126, 1..64).prop_filter("no DEL", |k| !k.contains(&127))
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..512)
}

fn command_strategy() -> impl Strategy<Value = Command> {
    prop_oneof![
        key_strategy().prop_map(|key| Command::Get { key }),
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
        Just(Command::FlushAll),
        Just(Command::Version),
        Just(Command::Quit),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    let stat_pair = ("[a-z_]{1,16}", "[a-zA-Z0-9._-]{1,16}").prop_map(|(k, v)| (k, v));
    prop_oneof![
        (key_strategy(), any::<u32>(), value_strategy()).prop_map(|(key, flags, data)| {
            Response::Value {
                key,
                flags,
                data: data.into(),
            }
        }),
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
    /// Every command the client can emit parses back identically.
    #[test]
    fn command_roundtrip(cmd in command_strategy()) {
        let mut buf = Vec::new();
        cmd.write_to(&mut buf);
        let mut wire = WireBuf::new();
        let parsed = parse(&buf, &mut wire).unwrap();
        prop_assert_eq!(parsed, cmd.raw());
    }

    /// Every response the server can emit parses back identically —
    /// modulo the CR/LF normalisation applied to free-text fields.
    #[test]
    fn response_roundtrip(resp in response_strategy()) {
        let mut buf = Vec::new();
        write_response_unflushed(&mut buf, &resp).unwrap();
        let parsed = read_response(&buf).unwrap();
        prop_assert_eq!(parsed, resp);
    }

    /// Arbitrary bytes never panic the command parser; they either
    /// parse or yield a structured error.
    #[test]
    fn command_parser_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse(&bytes, &mut WireBuf::new());
    }

    /// Arbitrary bytes never panic the response parser.
    #[test]
    fn response_parser_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_response(&bytes);
    }

    /// Arbitrary *text lines* (the realistic fuzz surface) never panic
    /// either parser.
    #[test]
    fn parsers_survive_text_lines(line in "[ -~]{0,120}") {
        let framed = format!("{line}\r\n");
        let _ = parse(framed.as_bytes(), &mut WireBuf::new());
        let _ = read_response(framed.as_bytes());
    }
}
