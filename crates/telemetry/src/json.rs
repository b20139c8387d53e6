//! Minimal JSON value model, writer, and parser.
//!
//! The telemetry crate is deliberately dependency-free, so it carries its
//! own ~300-line JSON layer: enough to write Chrome `trace_event` files
//! and `metrics.json` snapshots, and to parse them back (the golden tests
//! and the `telemetry-diff` tool both re-read what the exporters wrote).
//! Objects preserve insertion order, which keeps traces diffable.

use std::fmt;

/// A JSON value. Objects are ordered key/value lists (insertion order is
/// preserved on write), numbers are `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn object() -> Self {
        Value::Obj(Vec::new())
    }

    /// An empty array.
    pub fn array() -> Self {
        Value::Arr(Vec::new())
    }

    /// Insert (or append) a field; panics if `self` is not an object.
    pub fn set(&mut self, key: impl Into<String>, v: impl Into<Value>) -> &mut Self {
        match self {
            Value::Obj(fields) => fields.push((key.into(), v.into())),
            _ => panic!("Value::set on a non-object"),
        }
        self
    }

    /// Append an element; panics if `self` is not an array.
    pub fn push(&mut self, v: impl Into<Value>) -> &mut Self {
        match self {
            Value::Arr(items) => items.push(v.into()),
            _ => panic!("Value::push on a non-array"),
        }
        self
    }

    /// Field lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Num(v as f64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Num(v as f64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Num(v as f64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Num(v as f64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Arr(v)
    }
}

/// Escape a string into a JSON string literal (without the quotes).
fn escape_into(out: &mut String, s: &str) {
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

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-surprising stand-in.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        // Integral values print without a fraction (counters, ids, ...).
        out.push_str(&format!("{}", n as i64));
    } else {
        // `{:?}` is the shortest representation that round-trips.
        out.push_str(&format!("{n:?}"));
    }
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(out, *n),
        Value::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(out, k);
                out.push_str("\":");
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

/// Serialize with two-space indentation, one field or element per line
/// — the form committed artifacts (`BENCH_<seq>.json`, the roofline
/// report, the conformance corpus) are written in, so they diff line by
/// line. Arrays holding only scalars stay on one line (edge lists).
/// Ends with a newline.
pub fn pretty(v: &Value) -> String {
    let mut out = String::new();
    write_pretty(v, 0, &mut out);
    out.push('\n');
    out
}

fn write_pretty(v: &Value, depth: usize, out: &mut String) {
    let is_scalar = |item: &Value| !matches!(item, Value::Arr(_) | Value::Obj(_));
    let (open, close, children): (_, _, Vec<(Option<&str>, &Value)>) = match v {
        Value::Obj(fields) if !fields.is_empty() => {
            let keyed = fields.iter().map(|(k, child)| (Some(k.as_str()), child));
            ('{', '}', keyed.collect())
        }
        Value::Arr(items) if !items.iter().all(is_scalar) => {
            ('[', ']', items.iter().map(|child| (None, child)).collect())
        }
        Value::Arr(items) if !items.is_empty() => {
            let flat: Vec<String> = items.iter().map(Value::to_string).collect();
            return out.push_str(&format!("[{}]", flat.join(", ")));
        }
        scalar_or_empty => return write_value(out, scalar_or_empty),
    };
    out.push(open);
    out.push('\n');
    for (i, (key, child)) in children.iter().enumerate() {
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            out.push('"');
            escape_into(out, key);
            out.push_str("\": ");
        }
        write_pretty(child, depth + 1, out);
        if i + 1 < children.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_value(&mut s, self);
        f.write_str(&s)
    }
}

/// Parse a JSON document. Returns a human-readable error with a byte
/// offset on malformed input.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
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
                other.map(|b| b as char),
                self.i
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require a paired \uXXXX.
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                c => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.i - 1;
                    let end = (start + len).min(self.b.len());
                    self.i = end;
                    match std::str::from_utf8(&self.b[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => out.push('\u{FFFD}'),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.b.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.b[self.i..self.i + 4]).map_err(|e| e.to_string())?;
        self.i += 4;
        u32::from_str_radix(text, 16).map_err(|e| format!("bad \\u escape: {e}"))
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.i,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.i,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let mut v = Value::object();
        v.set("name", "fused_gcn")
            .set("gpu_time_ms", 1.25)
            .set("launches", 3u64)
            .set("ok", true)
            .set("none", Value::Null);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("gpu_time_ms").unwrap().as_f64(), Some(1.25));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}f — π".to_string());
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integral_numbers_print_plain() {
        assert_eq!(Value::Num(42.0).to_string(), "42");
        assert_eq!(Value::Num(1.5).to_string(), "1.5");
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x","d":-1.5e2}"#).unwrap();
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-150.0));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn pretty_is_line_per_field_and_reparses() {
        let mut v = Value::object();
        v.set("name", "a\"b").set("edges", {
            let mut edges = Value::array();
            edges.push(vec![Value::from(0u32), Value::from(1u32)]);
            edges.push(vec![Value::from(2u32), Value::from(0u32)]);
            edges
        });
        v.set("empty", Value::array()).set("eps", 0.1f32 as f64);
        let text = pretty(&v);
        assert_eq!(
            text,
            "{\n  \"name\": \"a\\\"b\",\n  \"edges\": [\n    [0, 1],\n    [2, 0]\n  ],\n  \
             \"empty\": [],\n  \"eps\": 0.10000000149011612\n}\n"
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn surrogate_pair_roundtrip() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }
}
