//! The deterministic binary [`Value`] codec and length-prefixed frame
//! format of the `LWMB1` wire protocol, and the FNV-1a checksum that
//! frames and segment records share.
//!
//! Encoding (all integers little-endian):
//!
//! ```text
//! value  = tag payload
//! tag    = 0x00 null | 0x01 false | 0x02 true | 0x03 int | 0x04 uint |
//!          0x05 float | 0x06 str | 0x07 array | 0x08 object
//! int    = i64           (8 bytes)
//! uint   = u64           (8 bytes)
//! float  = f64 bits      (8 bytes; bit-exact, NaN payloads included)
//! str    = u32 len, utf-8 bytes
//! array  = u32 count, count * value
//! object = u32 count, count * (str value)    (field order preserved)
//! ```
//!
//! The codec is a *bijection* on the vendored `Value` tree: every variant
//! keeps its identity (`Int(5)` never comes back as `UInt(5)`, float bits
//! are preserved exactly, object field order survives). That bijectivity is
//! what makes the binary wire protocol decode-equivalent to JSON-lines —
//! both encodings are projections of the same `Value`, so re-rendering a
//! decoded frame with `serde_json::to_string` reproduces the JSON line
//! byte-for-byte.
//!
//! Frames wrap an encoded buffer for the wire: `u32` length, `u64` FNV-1a
//! checksum of the body, body bytes. [`read_frame`] verifies the checksum
//! and bounds the length, so a corrupt or hostile peer produces a typed
//! `InvalidData` error instead of a huge allocation or a garbage decode.

use std::io::{self, Read, Write};

use serde::Value;

/// Hard cap on a single frame body; anything larger is rejected before
/// allocation. Generous: the largest corpus design encodes to well under
/// a megabyte.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_UINT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

/// FNV-1a over `bytes` — the checksum used by frames and segment records.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_parts(&[bytes])
}

/// FNV-1a over the concatenation of `parts`, without concatenating them.
pub(crate) fn fnv1a_parts(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in parts.iter().flat_map(|part| part.iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Appends the binary encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (name, val) in fields {
                put_str(out, name);
                encode_value(val, out);
            }
        }
    }
}

/// The binary encoding of `v` as a fresh buffer.
pub fn value_to_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_value(v, &mut out);
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated value: wanted {n} bytes at offset {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8 in string: {e}"))
    }

    fn value(&mut self, depth: u32) -> Result<Value, String> {
        // Bound recursion so a hostile frame cannot overflow the stack.
        if depth > 128 {
            return Err("value nesting exceeds 128 levels".to_owned());
        }
        match self.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_INT => Ok(Value::Int(self.u64()? as i64)),
            TAG_UINT => Ok(Value::UInt(self.u64()?)),
            TAG_FLOAT => Ok(Value::Float(f64::from_bits(self.u64()?))),
            TAG_STR => Ok(Value::Str(self.str()?)),
            TAG_ARRAY => {
                let n = self.u32()? as usize;
                // Cap the pre-allocation by what the buffer could possibly
                // hold (1 byte per element minimum).
                let mut items = Vec::with_capacity(n.min(self.buf.len() - self.pos));
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            TAG_OBJECT => {
                let n = self.u32()? as usize;
                let mut fields = Vec::with_capacity(n.min(self.buf.len() - self.pos));
                for _ in 0..n {
                    let name = self.str()?;
                    let val = self.value(depth + 1)?;
                    fields.push((name, val));
                }
                Ok(Value::Object(fields))
            }
            tag => Err(format!("unknown value tag 0x{tag:02x}")),
        }
    }
}

/// Decodes one binary value, requiring the buffer to be fully consumed.
///
/// # Errors
///
/// Returns a message for truncation, trailing garbage, unknown tags,
/// invalid UTF-8, or excessive nesting.
pub fn decode_value(buf: &[u8]) -> Result<Value, String> {
    let mut c = Cursor { buf, pos: 0 };
    let v = c.value(0)?;
    if c.pos != buf.len() {
        return Err(format!(
            "trailing garbage: {} of {} bytes unconsumed",
            buf.len() - c.pos,
            buf.len()
        ));
    }
    Ok(v)
}

/// Writes one frame: `u32` body length, `u64` FNV-1a of the body, body.
///
/// # Errors
///
/// Propagates write errors; rejects bodies over [`MAX_FRAME_LEN`].
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    let header = frame_header(body)?;
    w.write_all(&header)?;
    w.write_all(body)?;
    w.flush()
}

/// The 12-byte header ([`write_frame`]'s length + checksum prefix) for
/// `body`, computed separately so writers can put header and body on the
/// wire as two vectored slices instead of copying them into one buffer.
///
/// # Errors
///
/// Rejects bodies over [`MAX_FRAME_LEN`].
pub fn frame_header(body: &[u8]) -> io::Result<[u8; 12]> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame body of {} bytes exceeds the cap", body.len()),
            )
        })?;
    let mut header = [0u8; 12];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&fnv1a(body).to_le_bytes());
    Ok(header)
}

/// Reads one frame body, verifying length bound and checksum.
///
/// # Errors
///
/// `UnexpectedEof` on a cleanly closed peer (zero bytes read),
/// `InvalidData` on oversized frames or checksum mismatches, and any
/// underlying read error otherwise.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    read_frame_into(r, &mut body)?;
    Ok(body)
}

/// [`read_frame`] into a caller-owned buffer (cleared first), so a
/// connection loop reads every frame into one recycled allocation.
///
/// # Errors
///
/// Same conditions as [`read_frame`]; on error the buffer contents are
/// unspecified.
pub fn read_frame_into<R: Read>(r: &mut R, body: &mut Vec<u8>) -> io::Result<()> {
    let mut header = [0u8; 12];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let want = u64::from_le_bytes(header[4..].try_into().expect("8 header bytes"));
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    // Grow the buffer only as bytes arrive: the header's length is a
    // claim, and a peer that sends a 64 MiB header and then 16 bytes must
    // not cost a 64 MiB allocation.
    body.clear();
    r.take(u64::from(len)).read_to_end(body)?;
    if body.len() != len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame body truncated: {} of {len} bytes", body.len()),
        ));
    }
    let got = fnv1a(body);
    if got != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame checksum mismatch: stored {want:016x}, computed {got:016x}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Object(vec![
            ("id".to_owned(), Value::UInt(u64::MAX)),
            ("n".to_owned(), Value::Int(-42)),
            ("ok".to_owned(), Value::Bool(true)),
            ("x".to_owned(), Value::Float(0.1 + 0.2)),
            ("none".to_owned(), Value::Null),
            (
                "items".to_owned(),
                Value::Array(vec![
                    Value::Str("naïve".to_owned()),
                    Value::Bool(false),
                    Value::Object(vec![("k".to_owned(), Value::Int(i64::MIN))]),
                ]),
            ),
        ])
    }

    #[test]
    fn value_round_trips_exactly() {
        let v = sample();
        let bytes = value_to_bytes(&v);
        let back = decode_value(&bytes).unwrap();
        assert_eq!(back, v);
        // Variant identity is preserved, not just numeric equality.
        assert!(matches!(back.field("id"), Some(Value::UInt(_))));
        assert!(matches!(back.field("n"), Some(Value::Int(_))));
    }

    #[test]
    fn json_rendering_of_decoded_value_matches_the_original() {
        let v = sample();
        let back = decode_value(&value_to_bytes(&v)).unwrap();
        assert_eq!(serde_json::to_string(&back), serde_json::to_string(&v));
    }

    #[test]
    fn float_bits_survive_including_nan() {
        for f in [0.0, -0.0, 1.5e300, f64::NAN, f64::INFINITY, -1.0e-7] {
            let v = Value::Float(f);
            let back = decode_value(&value_to_bytes(&v)).unwrap();
            match back {
                Value::Float(g) => assert_eq!(g.to_bits(), f.to_bits()),
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_and_garbage_are_errors_not_panics() {
        let bytes = value_to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(decode_value(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_value(&padded).is_err(), "trailing byte accepted");
        assert!(decode_value(&[0xFF]).is_err(), "unknown tag accepted");
    }

    #[test]
    fn frames_round_trip_and_catch_corruption() {
        let body = value_to_bytes(&sample());
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let back = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(back, body);
        // Flip one body byte: checksum must catch it.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let err = read_frame(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Oversized length is rejected before allocation.
        let mut huge = wire;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut huge.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_short_body_behind_a_huge_header_is_eof_without_a_huge_buffer() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        wire.extend_from_slice(&[0xAB; 16]);
        let mut body = Vec::new();
        let err = read_frame_into(&mut wire.as_slice(), &mut body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            body.capacity() < 1024 * 1024,
            "a 16-byte body grew the buffer to {} bytes",
            body.capacity()
        );
    }

    #[test]
    fn nesting_bound_rejects_hostile_frames() {
        let mut deep = Value::Null;
        for _ in 0..200 {
            deep = Value::Array(vec![deep]);
        }
        let bytes = value_to_bytes(&deep);
        assert!(decode_value(&bytes)
            .unwrap_err()
            .contains("nesting exceeds"));
    }
}
