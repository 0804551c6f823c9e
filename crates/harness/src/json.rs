//! A minimal JSON value, writer, recursive-descent parser, and the typed
//! field readers every document decoder in the workspace is built on.
//!
//! The workspace deliberately carries no serialization dependency, and
//! every format it persists or sends is JSON: attack checkpoints and
//! wire reports (`fulllock-attacks`), campaign plans and manifests
//! ([`crate::plan`], [`crate::manifest`]), the `serve` protocol lines and
//! queue shards ([`crate::service`]), sweep plans, leases and result
//! files ([`crate::sweep`]), and the `BENCH_*.json` guard records
//! (`fulllock-bench`). This module hand-rolls the subset of JSON those
//! schemas use: objects, arrays, strings, booleans, null, and numbers
//! split into unsigned integers (exact, for counters) and floats (for
//! ratios and seconds).
//!
//! # Read policy
//!
//! Decoders read object members only through the typed field readers,
//! which word every error one way (`missing field "x"`, `field "x" must
//! be an unsigned integer`) and apply one rule to each kind of field:
//!
//! * **required** ([`Json::field`], [`Json::u64_field`],
//!   [`Json::u32_field`], [`Json::f64_field`], [`Json::bool_field`],
//!   [`Json::str_field`], [`Json::array_field`], [`Json::field_as`]):
//!   absent or of another type is an error;
//! * **optional** ([`Json::opt_field`]): absent or `null` gives `None`,
//!   another type is an error;
//! * **late-added** ([`Json::late_field`]), a field that documents
//!   written before it existed lack: absent gives the default, present
//!   with another type (`null` included) is an error.
//!
//! Members a reader does not ask for are ignored, so a newer writer's
//! extra fields do not break an older reader. [`Json::nested_field`]
//! and [`Json::items_field`] decode a nested record or an array of them
//! and name where a failure sits (`solver: …`, `jobs[3]: …`).

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

    /// The member `name` of an object.
    ///
    /// # Errors
    ///
    /// `missing field "name"` when the member is absent (or `self` is not
    /// an object).
    pub fn field(&self, name: &str) -> Result<&Json, String> {
        self.get(name)
            .ok_or_else(|| format!("missing field {name:?}"))
    }

    /// A required member of type `T`.
    ///
    /// # Errors
    ///
    /// When the member is absent or holds another type.
    pub fn field_as<'a, T: FromJson<'a>>(&'a self, name: &str) -> Result<T, String> {
        typed(name, self.field(name)?)
    }

    /// A required unsigned integer member ([`Json::field_as`]).
    pub fn u64_field(&self, name: &str) -> Result<u64, String> {
        self.field_as(name)
    }

    /// A required unsigned integer member that fits `u32`.
    pub fn u32_field(&self, name: &str) -> Result<u32, String> {
        self.field_as(name)
    }

    /// A required number member; integers widen.
    pub fn f64_field(&self, name: &str) -> Result<f64, String> {
        self.field_as(name)
    }

    /// A required boolean member.
    pub fn bool_field(&self, name: &str) -> Result<bool, String> {
        self.field_as(name)
    }

    /// A required string member.
    pub fn str_field(&self, name: &str) -> Result<&str, String> {
        self.field_as(name)
    }

    /// A required array member.
    pub fn array_field(&self, name: &str) -> Result<&[Json], String> {
        self.field_as(name)
    }

    /// A required member that `decode` reads; its error is prefixed with
    /// the member's name (`name: …`).
    ///
    /// # Errors
    ///
    /// When the member is absent or `decode` fails.
    pub fn nested_field<'a, T>(
        &'a self,
        name: &str,
        decode: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        decode(self.field(name)?).map_err(|e| format!("{name}: {e}"))
    }

    /// A required array member whose items `decode` reads; an item's
    /// error is prefixed with its position (`name[3]: …`).
    ///
    /// # Errors
    ///
    /// When the member is absent or not an array, or an item fails.
    pub fn items_field<'a, T>(
        &'a self,
        name: &str,
        mut decode: impl FnMut(&'a Json) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.array_field(name)?
            .iter()
            .enumerate()
            .map(|(i, item)| decode(item).map_err(|e| format!("{name}[{i}]: {e}")))
            .collect()
    }

    /// An optional member: absent or `null` gives `None`.
    ///
    /// # Errors
    ///
    /// When the member is present, not `null`, and of another type.
    pub fn opt_field<'a, T: FromJson<'a>>(&'a self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => T::from_json(value)
                .map(Some)
                .ok_or_else(|| format!("field {name:?} must be {} or null", T::EXPECTED)),
        }
    }

    /// A member added after documents without it were written: absent
    /// gives `default`.
    ///
    /// # Errors
    ///
    /// When the member is present with another type (`null` included).
    pub fn late_field<'a, T: FromJson<'a>>(&'a self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(value) => typed(name, value),
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

/// Reads member `name`'s `value` as a `T`.
fn typed<'a, T: FromJson<'a>>(name: &str, value: &'a Json) -> Result<T, String> {
    T::from_json(value).ok_or_else(|| format!("field {name:?} must be {}", T::EXPECTED))
}

/// A type the field readers can read a JSON value as.
pub trait FromJson<'a>: Sized {
    /// What a value of the type is, for error messages ("a string").
    const EXPECTED: &'static str;

    /// The value `json` holds, or `None` when it holds another type.
    fn from_json(json: &'a Json) -> Option<Self>;
}

impl FromJson<'_> for u64 {
    const EXPECTED: &'static str = "an unsigned integer";

    fn from_json(json: &Json) -> Option<u64> {
        json.as_u64()
    }
}

impl FromJson<'_> for u32 {
    const EXPECTED: &'static str = "an unsigned 32-bit integer";

    fn from_json(json: &Json) -> Option<u32> {
        json.as_u64().and_then(|n| u32::try_from(n).ok())
    }
}

/// Signed integers. `Json::from(i64)` writes a negative value as a
/// float, so a float reads back truncated toward zero.
impl FromJson<'_> for i64 {
    const EXPECTED: &'static str = "an integer";

    fn from_json(json: &Json) -> Option<i64> {
        match json {
            Json::Int(n) => i64::try_from(*n).ok(),
            Json::Float(x) => Some(*x as i64),
            _ => None,
        }
    }
}

impl FromJson<'_> for f64 {
    const EXPECTED: &'static str = "a number";

    fn from_json(json: &Json) -> Option<f64> {
        json.as_f64()
    }
}

impl FromJson<'_> for bool {
    const EXPECTED: &'static str = "a boolean";

    fn from_json(json: &Json) -> Option<bool> {
        json.as_bool()
    }
}

impl<'a> FromJson<'a> for &'a str {
    const EXPECTED: &'static str = "a string";

    fn from_json(json: &'a Json) -> Option<&'a str> {
        json.as_str()
    }
}

impl FromJson<'_> for String {
    const EXPECTED: &'static str = "a string";

    fn from_json(json: &Json) -> Option<String> {
        json.as_str().map(str::to_string)
    }
}

impl<'a> FromJson<'a> for &'a [Json] {
    const EXPECTED: &'static str = "an array";

    fn from_json(json: &'a Json) -> Option<&'a [Json]> {
        json.as_array()
    }
}

impl<'a> FromJson<'a> for &'a [(String, Json)] {
    const EXPECTED: &'static str = "an object";

    fn from_json(json: &'a Json) -> Option<&'a [(String, Json)]> {
        match json {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }
}

impl FromJson<'_> for Vec<String> {
    const EXPECTED: &'static str = "an array of strings";

    fn from_json(json: &Json) -> Option<Vec<String>> {
        json.as_array()?.iter().map(String::from_json).collect()
    }
}

impl FromJson<'_> for Vec<u64> {
    const EXPECTED: &'static str = "an array of unsigned integers";

    fn from_json(json: &Json) -> Option<Vec<u64>> {
        json.as_array()?.iter().map(Json::as_u64).collect()
    }
}

impl FromJson<'_> for Vec<(String, String)> {
    const EXPECTED: &'static str = "an object of strings";

    fn from_json(json: &Json) -> Option<Vec<(String, String)>> {
        <&[(String, Json)]>::from_json(json)?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect()
    }
}

/// A present `T` reads as `Some`; `null` is another type. With
/// [`Json::late_field`] and a `None` default this reads an override that
/// documents may leave out.
impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    const EXPECTED: &'static str = T::EXPECTED;

    fn from_json(json: &'a Json) -> Option<Option<T>> {
        T::from_json(json).map(Some)
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

/// A negative value has no [`Json::Int`] form and is written as a float.
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        match u64::try_from(n) {
            Ok(n) => Json::Int(n),
            Err(_) => Json::Float(n as f64),
        }
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

/// `None` is written as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
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
    let mut hash = Fnv::new();
    hash.bytes(bytes);
    hash.finish()
}

/// Streaming FNV-1a 64-bit ([`fnv1a`] over the concatenated input), with
/// length-prefixed strings so field boundaries can't alias ("ab","c"
/// hashes differently from "a","bc").
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
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
    fn field_readers_apply_one_policy() {
        let doc = Json::parse(r#"{"n":7,"s":"x","z":null,"neg":-2.0,"items":[{"n":1},{"n":"2"}]}"#)
            .expect("parses");
        // Required: present with its type, or an error naming the field.
        assert_eq!(doc.u64_field("n"), Ok(7));
        assert_eq!(doc.u32_field("n"), Ok(7));
        assert_eq!(doc.field_as::<i64>("neg"), Ok(-2));
        assert_eq!(
            doc.str_field("gone"),
            Err("missing field \"gone\"".to_string())
        );
        assert_eq!(
            doc.u64_field("s"),
            Err("field \"s\" must be an unsigned integer".to_string())
        );
        // Optional: absent or null is None, another type an error.
        assert_eq!(doc.opt_field::<u64>("gone"), Ok(None));
        assert_eq!(doc.opt_field::<u64>("z"), Ok(None));
        assert_eq!(doc.opt_field::<&str>("s"), Ok(Some("x")));
        assert!(doc.opt_field::<u64>("s").is_err());
        // Late: absent is the default; null or another type an error.
        assert_eq!(doc.late_field("gone", 5u64), Ok(5));
        assert_eq!(doc.late_field("n", 5u64), Ok(7));
        assert!(doc.late_field("z", 5u64).is_err());
        assert!(doc.late_field("s", 5u64).is_err());
        assert_eq!(doc.late_field::<Option<u64>>("gone", None), Ok(None));
        // Nested failures name where they sit.
        assert_eq!(
            doc.items_field("items", |item| item.u64_field("n")),
            Err("items[1]: field \"n\" must be an unsigned integer".to_string())
        );
    }

    #[test]
    fn none_is_written_as_null() {
        assert_eq!(Json::from(None::<u64>), Json::Null);
        assert_eq!(Json::from(Some("a")), Json::Str("a".to_string()));
        assert_eq!(Json::from(-3i64).to_text(), "-3.0");
        assert_eq!(Json::from(3i64), Json::Int(3));
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
