//! A minimal JSON value, writer, and recursive-descent parser.
//!
//! The on-disk formats of this workspace — attack checkpoints
//! (`fulllock-attacks`), campaign plans and manifests
//! ([`crate::plan`], [`crate::manifest`]) — need a stable
//! self-describing format, and the workspace deliberately carries no
//! serialization dependency. This module hand-rolls the subset of JSON
//! those schemas use: objects, arrays, strings, booleans, null, and
//! numbers split into unsigned integers (exact, for counters) and floats
//! (for ratios and seconds).

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep insertion order (no map — the
/// schemas are small and scanned linearly).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The `null` literal.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number that is a non-negative integer fitting `u64` (counters,
    /// versions). Kept exact — never round-tripped through `f64`.
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as ordered key/value members.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Exact unsigned integer value ([`Json::Int`] only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Boolean value ([`Json::Bool`] only).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value ([`Json::Str`] only).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items ([`Json::Array`] only).
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                // `f64::to_string` prints the shortest representation that
                // round-trips; non-finite values have no JSON form, so they
                // degrade to null.
                if x.is_finite() {
                    let text = x.to_string();
                    let is_integral = !text.contains(['.', 'e', 'E']);
                    out.push_str(&text);
                    if is_integral {
                        // Keep a float marker so the reader re-parses it as
                        // Float, not Int (e.g. 2.0 -> "2.0", not "2").
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", want as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "invalid \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "invalid \\u escape".to_string())?;
                        // Surrogate pairs are not needed by the checkpoint
                        // schema; reject rather than mis-decode.
                        let c = char::from_u32(code)
                            .ok_or_else(|| "unsupported \\u escape (surrogate)".to_string())?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one UTF-8 character (the input is a &str, so the
                // byte stream is valid UTF-8).
                let rest = &bytes[*pos..];
                let text = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_string())?;
                match text.chars().next() {
                    Some(c) => {
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                    None => return Err("unterminated string".to_string()),
                }
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number".to_string())?;
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    // Integers that fit u64 stay exact; everything else becomes f64.
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

/// FNV-1a 64-bit over raw bytes. Every step xors a byte then multiplies
/// by an odd prime — both bijective on the running state — so any
/// single-byte substitution changes the final hash, which is exactly the
/// torn-write/bit-rot class the sealed envelope defends against. Not
/// cryptographic: it detects corruption, not tampering.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const SEAL_PREFIX: &str = "{\"checksum\":";
const SEAL_MID: &str = ",\"payload\":";

/// Wraps serialized JSON `payload` in a checksummed envelope:
/// `{"checksum":<fnv1a(payload)>,"payload":<payload>}`. The payload text
/// is spliced verbatim, so [`unseal`] can verify the exact bytes that
/// were sealed. The result is itself valid JSON.
pub fn seal(payload: &str) -> String {
    format!(
        "{SEAL_PREFIX}{}{SEAL_MID}{payload}}}",
        fnv1a(payload.as_bytes())
    )
}

/// Opens a [`seal`]ed envelope.
///
/// * `Ok(Some(payload))` — a well-formed envelope whose checksum matches;
///   `payload` is the exact text that was sealed.
/// * `Ok(None)` — not an envelope (a legacy unsealed file); the caller
///   should parse `text` directly.
/// * `Err(_)` — an envelope that is torn or corrupt (checksum mismatch,
///   mangled frame): the content must not be trusted.
pub fn unseal(text: &str) -> Result<Option<&str>, String> {
    let Some(rest) = text.strip_prefix(SEAL_PREFIX) else {
        return Ok(None);
    };
    let Some(mid) = rest.find(SEAL_MID) else {
        return Err("sealed envelope without a payload member".to_string());
    };
    let stored: u64 = rest[..mid]
        .parse()
        .map_err(|_| format!("invalid envelope checksum {:?}", &rest[..mid]))?;
    let body = &rest[mid + SEAL_MID.len()..];
    let payload = body
        .trim_end_matches(['\n', '\r'])
        .strip_suffix('}')
        .ok_or_else(|| "sealed envelope is truncated".to_string())?;
    let actual = fnv1a(payload.as_bytes());
    if actual != stored {
        return Err(format!(
            "envelope checksum mismatch: stored {stored}, content hashes to {actual}"
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_checkpoint_shaped_values() {
        let value = Json::Object(vec![
            ("version".to_string(), Json::Int(1)),
            ("attack".to_string(), Json::Str("sat".to_string())),
            ("ratio".to_string(), Json::Float(3.25)),
            ("whole_float".to_string(), Json::Float(2.0)),
            (
                "pairs".to_string(),
                Json::Array(vec![Json::Object(vec![
                    ("x".to_string(), Json::Str("0101".to_string())),
                    ("y".to_string(), Json::Str("10".to_string())),
                ])]),
            ),
            ("none".to_string(), Json::Null),
            ("flag".to_string(), Json::Bool(true)),
        ]);
        let text = value.to_text();
        let back = Json::parse(&text).expect("own output must parse");
        assert_eq!(back, value);
        // Whole floats must stay floats across the round trip.
        assert_eq!(back.get("whole_float"), Some(&Json::Float(2.0)));
        assert_eq!(back.get("version"), Some(&Json::Int(1)));
    }

    #[test]
    fn big_counters_stay_exact() {
        let n = u64::MAX - 3;
        let text = Json::Int(n).to_text();
        assert_eq!(Json::parse(&text).expect("parses"), Json::Int(n));
    }

    #[test]
    fn escapes_round_trip() {
        let value = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        let back = Json::parse(&value.to_text()).expect("parses");
        assert_eq!(back, value);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "", "{", "[1,", "\"open", "{\"a\":}", "1 2", "{'a':1}", "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn seal_round_trips_and_stays_valid_json() {
        let payload = Json::Object(vec![
            ("version".to_string(), Json::Int(3)),
            ("name".to_string(), Json::Str("x\"y".to_string())),
        ])
        .to_text();
        let sealed = seal(&payload);
        assert_eq!(unseal(&sealed), Ok(Some(payload.as_str())));
        // A trailing newline (the atomic writers append one) is tolerated.
        assert_eq!(unseal(&format!("{sealed}\n")), Ok(Some(payload.as_str())));
        // The envelope itself parses as JSON.
        let envelope = Json::parse(&sealed).expect("envelope is JSON");
        assert_eq!(
            envelope.get("checksum").and_then(Json::as_u64),
            Some(fnv1a(payload.as_bytes()))
        );
    }

    #[test]
    fn unseal_passes_legacy_text_through() {
        assert_eq!(unseal("{\"version\":3}"), Ok(None));
        assert_eq!(unseal(""), Ok(None));
    }

    #[test]
    fn unseal_rejects_torn_and_corrupt_envelopes() {
        let sealed = seal("{\"a\":1}");
        // Torn write: the tail is missing.
        assert!(unseal(&sealed[..sealed.len() - 3]).is_err());
        // Flipped payload byte.
        let flipped = sealed.replace("\"a\"", "\"b\"");
        assert!(unseal(&flipped).is_err());
        // Mangled checksum digits.
        assert!(unseal("{\"checksum\":12x4,\"payload\":{}}").is_err());
        assert!(unseal("{\"checksum\":124}").is_err());
    }

    #[test]
    fn fnv1a_detects_any_single_byte_substitution() {
        let base = b"campaign manifest body";
        let h = fnv1a(base);
        for i in 0..base.len() {
            let mut mutated = base.to_vec();
            mutated[i] ^= 0x01;
            assert_ne!(fnv1a(&mutated), h, "byte {i}");
        }
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let text = " { \"a\" : [ 1 , 2.5 , { \"b\" : null } ] } ";
        let v = Json::parse(text).expect("parses");
        let arr = v.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(arr[0], Json::Int(1));
        assert_eq!(arr[1], Json::Float(2.5));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }
}
