//! The reply reader the client used before it parsed replies where they
//! land, kept verbatim as the oracle `reply_equivalence.rs` holds the
//! crate's reader to, and as the reader the live-wire harnesses read
//! replies with. It reads off a `BufRead`: each line into a staging
//! `Vec`, each data block into a second one, then into its
//! `SharedBytes`.

use std::io::BufRead;

use proteus_net::{NetError, Response, SharedBytes, ValueItem, MAX_GET_KEYS};

const MAX_VALUE_BYTES: usize = 64 << 20;
const MAX_LINE_BYTES: usize = 1 << 20;

fn parse_field<T: std::str::FromStr>(field: Option<&str>, name: &str) -> Result<T, NetError> {
    field
        .ok_or_else(|| NetError::Protocol(format!("missing {name}")))?
        .parse()
        .map_err(|_| NetError::Protocol(format!("malformed {name}")))
}

/// Reads a `<bytes>`-long data block into `scratch` and checks its CRLF
/// terminator.
fn read_data_block<R: BufRead>(
    reader: &mut R,
    scratch: &mut Vec<u8>,
    bytes: usize,
) -> Result<(), NetError> {
    scratch.clear();
    scratch.resize(bytes, 0);
    std::io::Read::read_exact(reader, scratch)?;
    let mut crlf = [0u8; 2];
    std::io::Read::read_exact(reader, &mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(NetError::Protocol("data block not CRLF-terminated".into()));
    }
    Ok(())
}

/// Reads one response, staging its lines in `line` and each value's
/// data block in `data` before promoting it to [`SharedBytes`].
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, NetError> {
    let (line, data) = (&mut Vec::new(), &mut Vec::new());
    read_line(reader, line)?;
    let text = std::str::from_utf8(line)
        .map_err(|_| NetError::Protocol("response line is not UTF-8".into()))?;
    if text == "END" {
        return Ok(Response::Miss);
    }
    if text == "STORED" {
        return Ok(Response::Stored);
    }
    if text == "NOT_STORED" {
        return Ok(Response::NotStored);
    }
    if text == "DELETED" {
        return Ok(Response::Deleted);
    }
    if text == "NOT_FOUND" {
        return Ok(Response::NotFound);
    }
    if text == "TOUCHED" {
        return Ok(Response::Touched);
    }
    if text == "OK" {
        return Ok(Response::Ok);
    }
    if let Some(v) = text.strip_prefix("VERSION ") {
        return Ok(Response::Version(v.to_string()));
    }
    if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
        let value = text
            .parse()
            .map_err(|_| NetError::Protocol("numeric response out of range".into()))?;
        return Ok(Response::Numeric(value));
    }
    if let Some(msg) = text.strip_prefix("ERROR ") {
        return Ok(Response::Error(msg.to_string()));
    }
    if text == "ERROR" {
        return Ok(Response::Error(String::new()));
    }
    let is_stats = text.starts_with("STAT ");
    let is_value = text.starts_with("VALUE ");
    if is_stats {
        let mut pairs = Vec::new();
        loop {
            if line.as_slice() == b"END" {
                return Ok(Response::Stats(pairs));
            }
            let current = std::str::from_utf8(line)
                .map_err(|_| NetError::Protocol("stats line is not UTF-8".into()))?;
            let rest = current
                .strip_prefix("STAT ")
                .ok_or_else(|| NetError::Protocol(format!("bad stats line {current:?}")))?;
            let (name, value) = rest
                .split_once(' ')
                .ok_or_else(|| NetError::Protocol("stats line missing value".into()))?;
            pairs.push((name.to_string(), value.to_string()));
            read_line(reader, line)?;
        }
    }
    if is_value {
        // One or more VALUE blocks, then a lone END. Zero blocks never
        // reach here (that is the bare-END Miss case above); one block
        // parses as Value, and only a second pays for the list.
        let first = read_value_block(reader, line, data)?;
        read_line(reader, line)?;
        if line.as_slice() == b"END" {
            let ValueItem { key, flags, data } = first;
            return Ok(Response::Value { key, flags, data });
        }
        let mut items = vec![first];
        loop {
            items.push(read_value_block(reader, line, data)?);
            if items.len() > MAX_GET_KEYS {
                return Err(NetError::Protocol("too many VALUE blocks".into()));
            }
            read_line(reader, line)?;
            if line.as_slice() == b"END" {
                return Ok(Response::Values(items));
            }
        }
    }
    // Neither loop ran, so `line` still holds the (UTF-8-validated)
    // response line; re-borrow it for the error message.
    let text = std::str::from_utf8(line).expect("validated above");
    Err(NetError::Protocol(format!(
        "unrecognized response {text:?}"
    )))
}

/// One block of a `get` reply: parses the `VALUE <key> <flags> <bytes>`
/// header held in `line`, then reads the data block through `scratch`
/// into the one [`SharedBytes`] the caller keeps.
fn read_value_block<R: BufRead>(
    reader: &mut R,
    line: &[u8],
    scratch: &mut Vec<u8>,
) -> Result<ValueItem, NetError> {
    let current = std::str::from_utf8(line)
        .map_err(|_| NetError::Protocol("value line is not UTF-8".into()))?;
    let rest = current
        .strip_prefix("VALUE ")
        .ok_or_else(|| NetError::Protocol(format!("bad value line {current:?}")))?;
    let mut parts = rest.split_ascii_whitespace();
    let key = parts
        .next()
        .ok_or_else(|| NetError::Protocol("VALUE missing key".into()))?
        .as_bytes()
        .to_vec();
    let flags: u32 = parse_field(parts.next(), "flags")?;
    let bytes: usize = parse_field(parts.next(), "bytes")?;
    if bytes > MAX_VALUE_BYTES {
        return Err(NetError::Protocol("value too large".into()));
    }
    read_data_block(reader, scratch, bytes)?;
    Ok(ValueItem {
        key,
        flags,
        data: SharedBytes::from(scratch.as_slice()),
    })
}

/// Reads a CRLF-terminated line (without the terminator) into `out`,
/// scanning the reader's internal buffer in chunks rather than one
/// byte at a time.
fn read_line<R: BufRead>(reader: &mut R, out: &mut Vec<u8>) -> Result<(), NetError> {
    out.clear();
    loop {
        let (found, used) = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                // A bare kind, not a boxed message: the event planes hit
                // this once per drained input buffer ("need more bytes").
                return Err(NetError::Io(std::io::ErrorKind::UnexpectedEof.into()));
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    out.extend_from_slice(&available[..pos]);
                    (true, pos + 1)
                }
                None => {
                    out.extend_from_slice(available);
                    (false, available.len())
                }
            }
        };
        reader.consume(used);
        // The cap counts every byte before the newline, including the
        // CR about to be stripped.
        if out.len() > MAX_LINE_BYTES {
            return Err(NetError::Protocol("line too long".into()));
        }
        if found {
            if out.last() == Some(&b'\r') {
                out.pop();
            }
            return Ok(());
        }
    }
}
