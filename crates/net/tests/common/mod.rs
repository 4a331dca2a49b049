//! What the command proptests generate. A strategy's value has to own
//! its bytes, and the crate's one command type borrows them, so the
//! tests keep this owned form — the type the pre-rewrite parser in
//! `parser_equivalence.rs` returns — and hand the crate its borrowed
//! view. [`reply`] holds the other direction's oracle, the reply reader
//! the client used before it parsed replies where they land.

// Each test crate generates its own subset of the verbs.
#![allow(dead_code)]

pub mod reply;

use proteus_net::{write_command_unflushed, RawCommand};

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Get {
        key: Vec<u8>,
    },
    MultiGet {
        keys: Vec<Vec<u8>>,
    },
    Set {
        key: Vec<u8>,
        flags: u32,
        exptime: u32,
        data: Vec<u8>,
    },
    Add {
        key: Vec<u8>,
        flags: u32,
        exptime: u32,
        data: Vec<u8>,
    },
    Replace {
        key: Vec<u8>,
        flags: u32,
        exptime: u32,
        data: Vec<u8>,
    },
    Delete {
        key: Vec<u8>,
    },
    Touch {
        key: Vec<u8>,
        exptime: u32,
    },
    Incr {
        key: Vec<u8>,
        delta: u64,
    },
    Decr {
        key: Vec<u8>,
        delta: u64,
    },
    Stats,
    StatsProteus,
    FlushAll,
    Version,
    Quit,
}

impl Command {
    /// The borrowed command the crate encodes and parses.
    pub fn raw(&self) -> RawCommand<'_> {
        match self {
            Command::Get { key } => RawCommand::Get { key },
            Command::MultiGet { keys } => RawCommand::MultiGet {
                keys: keys.iter().map(Vec::as_slice).collect(),
            },
            &Command::Set {
                ref key,
                flags,
                exptime,
                ref data,
            } => RawCommand::Set {
                key,
                flags,
                exptime,
                data,
            },
            &Command::Add {
                ref key,
                flags,
                exptime,
                ref data,
            } => RawCommand::Add {
                key,
                flags,
                exptime,
                data,
            },
            &Command::Replace {
                ref key,
                flags,
                exptime,
                ref data,
            } => RawCommand::Replace {
                key,
                flags,
                exptime,
                data,
            },
            Command::Delete { key } => RawCommand::Delete { key },
            &Command::Touch { ref key, exptime } => RawCommand::Touch { key, exptime },
            &Command::Incr { ref key, delta } => RawCommand::Incr { key, delta },
            &Command::Decr { ref key, delta } => RawCommand::Decr { key, delta },
            Command::Stats => RawCommand::Stats,
            Command::StatsProteus => RawCommand::StatsProteus,
            Command::FlushAll => RawCommand::FlushAll,
            Command::Version => RawCommand::Version,
            Command::Quit => RawCommand::Quit,
        }
    }

    /// Appends the command's wire bytes to `stream`.
    pub fn write_to(&self, stream: &mut Vec<u8>) {
        write_command_unflushed(stream, &self.raw()).unwrap();
    }
}
