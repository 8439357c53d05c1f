//! The workspace's one JSON implementation: a value tree with a
//! recursive-descent parser and a renderer, plus the string escaper the
//! push-style trace writer ([`crate::trace`]) shares with it. Lives in
//! this leaf crate so every layer above can use it. Deliberately tiny:
//! strict enough for our own wire format (UTF-8, no comments, no trailing
//! commas, nesting capped at [`MAX_DEPTH`]), not a general-purpose JSON
//! library.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64 — our protocol stays within 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; sorted keys give deterministic rendering.
    Obj(BTreeMap<String, Json>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses per level, so an uncapped frame of `[` would overflow the
/// stack of whichever thread parses it; our wire format nests 4 deep.
pub const MAX_DEPTH: usize = 128;

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was expected or found.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                at: pos,
                msg: "trailing data after document",
            });
        }
        Ok(value)
    }

    /// Render compactly (no whitespace), object keys in sorted order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as u64, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The number as f64, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from key/value pairs (convenience for replies).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
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

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn render_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; null is the least-wrong spelling
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append `s` as a JSON string literal, escaping per RFC 8259 — the
/// workspace's only escaper.
pub fn push_str(out: &mut String, s: &str) {
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

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(JsonError {
            at: *pos,
            msg: "unexpected end of input",
        });
    };
    if matches!(b, b'[' | b'{') && depth == MAX_DEPTH {
        return Err(JsonError {
            at: *pos,
            msg: "nesting deeper than MAX_DEPTH",
        });
    }
    match b {
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_str(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            msg: "expected ',' or ']' in array",
                        })
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_str(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError {
                        at: *pos,
                        msg: "expected ':' after object key",
                    });
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            msg: "expected ',' or '}' in object",
                        })
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_num(bytes, pos),
        _ => Err(JsonError {
            at: *pos,
            msg: "unexpected character",
        }),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError {
            at: *pos,
            msg: "invalid literal",
        })
    }
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError {
            at: *pos,
            msg: "expected '\"'",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(JsonError {
                at: *pos,
                msg: "unterminated string",
            });
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(JsonError {
                        at: *pos,
                        msg: "unterminated escape",
                    });
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or(JsonError {
                            at: *pos,
                            msg: "truncated \\u escape",
                        })?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(JsonError {
                                at: *pos,
                                msg: "invalid \\u escape",
                            })?;
                        *pos += 4;
                        // Surrogate pairs are not needed by our own wire
                        // format; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            msg: "unknown escape",
                        })
                    }
                }
            }
            _ => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe).
                let start = *pos;
                let mut end = start + 1;
                while end < bytes.len() && (bytes[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..end]).map_err(|_| JsonError {
                        at: start,
                        msg: "invalid UTF-8",
                    })?,
                );
                *pos = end;
            }
        }
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(JsonError {
            at: start,
            msg: "invalid number",
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let text = r#"{"cmd":"repair","stripes":4096,"policy":"fbf","json":true,"ids":[1,2,3],"nested":{"a":null}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("repair"));
        assert_eq!(v.get("stripes").and_then(Json::as_u64), Some(4096));
        assert_eq!(v.get("json").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("ids").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        let reparsed = Json::parse(&v.render()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        let text = v.render();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(
            Json::parse(r#""A\n""#).unwrap(),
            Json::Str("A\n".to_string())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"abc", "1 2", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_render_integrally_when_integral() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-1.5).render(), "-1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        // The frame that used to overflow the parsing thread's stack.
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.msg, "nesting deeper than MAX_DEPTH");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&objects).unwrap_err();
        assert_eq!(
            (err.at, err.msg),
            (MAX_DEPTH * 5, "nesting deeper than MAX_DEPTH")
        );
    }
}
