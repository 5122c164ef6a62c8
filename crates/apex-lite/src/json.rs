//! Minimal JSON value parser used by the trace validator.
//!
//! Validating an emitted Chrome trace needs a real parser. This one handles
//! the full JSON grammar (objects, arrays, strings with escapes, numbers,
//! literals) — enough to re-read anything `chrome::export` produces and to
//! reject malformed files in `trace_report`.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse `input` as a single JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: \uD800-\uDBFF must be followed
                            // by a low surrogate escape.
                            if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(c).ok_or_else(|| "bad codepoint".to_string())?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| "bad codepoint".to_string())?,
                                );
                            }
                            continue;
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other.map(|c| c as char)));
                        }
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err("raw control char in string".into()),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control character. All three are ASCII, so the run
                    // begins and ends on char boundaries of `text`.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
        self.pos = end;
        Ok(cp)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }
}

/// Escape `s` as a JSON string body (no surrounding quotes).
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":true,"d":null},"e":"x"}"#).unwrap();
        assert_eq!(v.get("e").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut body = String::new();
        escape_into(&mut body, "a\"b\\c\nd\te\u{1}");
        let doc = format!("{{\"k\":\"{body}\"}}");
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.get("k").and_then(Value::as_str),
            Some("a\"b\\c\nd\te\u{1}")
        );
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        let v = parse(r#""\u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("é 😀"));
    }

    /// A string used to cost a UTF-8 validation of the rest of the document
    /// per character: quadratic, 107 s for a 3.7 MB trace. Linear parsing
    /// takes tens of milliseconds here even unoptimized; the bound leaves
    /// two orders of magnitude for a slow machine and still fails the
    /// quadratic parser, which needs minutes.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let item = format!("\"{}é\\n{}\"", "x".repeat(2000), "y".repeat(2000));
        let doc = format!("[{}]", vec![item; 1100].join(","));
        assert!(doc.len() >= 4_000_000);
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 1100);
        let want = format!("{}é\n{}", "x".repeat(2000), "y".repeat(2000));
        assert!(arr.iter().all(|s| s.as_str() == Some(&want)));
        assert!(
            elapsed.as_secs_f64() < 5.0,
            "4 MB of strings took {elapsed:?}"
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"\\q\"").is_err());
        assert!(parse("01a").is_err());
    }
}
