//! Offline shim for `serde_json`: a JSON reader/writer over the simplified
//! `serde::Value` tree. Writes shortest-round-trip float literals (Rust's
//! `{}` formatting), so `f64` survives a text round trip bit-exactly.

#![forbid(unsafe_code)]
pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON (de)serialization error.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Self::new(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Self::new(e.to_string())
    }
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.msg)
    }
}

/// `Result` alias matching upstream.
pub type Result<T> = std::result::Result<T, Error>;

// ---- writing ---------------------------------------------------------------

/// Append `c`, escaped as JSON requires.
fn push_escaped_char(out: &mut String, c: char) {
    match c {
        '"' => out.push_str("\\\""),
        '\\' => out.push_str("\\\\"),
        '\n' => out.push_str("\\n"),
        '\r' => out.push_str("\\r"),
        '\t' => out.push_str("\\t"),
        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
        c => out.push(c),
    }
}

/// Append `s` as a JSON string literal. Only `"`, `\` and the control
/// characters need escaping, and all are ASCII, so every run between them
/// is copied with one `push_str`.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
        // The byte at `at` is ASCII, so both sides of it are char boundaries.
        let (run, tail) = rest.split_at(at);
        out.push_str(run);
        let mut tail = tail.chars();
        if let Some(c) = tail.next() {
            push_escaped_char(out, c);
        }
        rest = tail.as_str();
    }
    out.push_str(rest);
    out.push('"');
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{}` on f64 is shortest-round-trip; force a `.0` marker so
                // integral floats read back as floats where it matters not.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // JSON has no NaN/Inf; match upstream by writing null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                newline_indent(out, indent);
                write_value(out, item, indent.map(|d| d + 1));
            }
            if !items.is_empty() {
                newline_indent(out, indent.map(|d| d.saturating_sub(1)));
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (k, (key, val)) in fields.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                newline_indent(out, indent);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent.map(|d| d + 1));
            }
            if !fields.is_empty() {
                newline_indent(out, indent.map(|d| d.saturating_sub(1)));
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth * 2 {
            out.push(' ');
        }
    }
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), None);
    Ok(out)
}

/// Serialize to a human-readable (2-space indented) JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), Some(1));
    Ok(out)
}

/// Serialize compact JSON into a writer.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

/// Serialize pretty JSON into a writer.
pub fn to_writer_pretty<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    writer.write_all(to_string_pretty(value)?.as_bytes())?;
    Ok(())
}

/// Serialize to a `Value` tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.serialize_value())
}

/// Deserialize from a `Value` tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    Ok(T::deserialize_value(value)?)
}

// ---- reading ---------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end of input"))? {
            b'n' => {
                if self.consume_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b't' => {
                if self.consume_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'f' => {
                if self.consume_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'"' => self.parse_string().map(Value::Str),
            b'[' => self.parse_array(),
            b'{' => self.parse_object(),
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(self.err(&format!("unexpected byte `{}`", other as char))),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("non-ascii \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by this shim's
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape unsupported"))?;
                            out.push(c);
                        }
                        other => return Err(self.err(&format!("bad escape `\\{}`", other as char))),
                    }
                }
                lead if lead.is_ascii() => {
                    // A run of ASCII up to the next quote, backslash or
                    // non-ASCII byte needs no decoding: copy it at once.
                    let rest = self.bytes.get(self.pos..).unwrap_or_default();
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || !b.is_ascii())
                        .unwrap_or(rest.len());
                    let run = rest.split_at(len).0;
                    out.push_str(std::str::from_utf8(run).map_err(|_| self.err("invalid UTF-8"))?);
                    self.pos += len;
                }
                lead => {
                    // Consume one UTF-8 code point: its length comes from the
                    // lead byte, and only those bytes are validated (bad
                    // continuation bytes, overlongs and surrogates included)
                    // — never the rest of the input, which made long strings
                    // quadratic.
                    let len = match lead {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let point = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|seq| std::str::from_utf8(seq).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(point);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parse a `Value` tree from JSON bytes.
pub fn value_from_slice(bytes: &[u8]) -> Result<Value> {
    let mut p = Parser::new(bytes);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(v)
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    Ok(T::deserialize_value(&value_from_slice(bytes)?)?)
}

/// Deserialize from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    from_slice(s.as_bytes())
}

/// Deserialize from a reader (reads to end).
pub fn from_reader<R: std::io::Read, T: Deserialize>(mut reader: R) -> Result<T> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    from_slice(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for json in ["null", "true", "false", "0", "-17", "3.25", "\"hi\\n\""] {
            let v = value_from_slice(json.as_bytes()).unwrap();
            let back = value_from_slice(to_string(&Probe(v.clone())).unwrap().as_bytes()).unwrap();
            assert_eq!(v, back, "{json}");
        }
    }

    // Wrap a Value so the generic write path is exercised via Serialize.
    struct Probe(Value);
    impl serde::Serialize for Probe {
        fn serialize_value(&self) -> Value {
            self.0.clone()
        }
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for x in [std::f64::consts::PI, 1e-300, -2.5e17, 0.1 + 0.2, f64::MIN_POSITIVE] {
            let s = to_string(&x).unwrap();
            let y: f64 = from_str(&s).unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x} -> {s} -> {y}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let json = r#"{"a": [1, 2.5, {"b": "x"}], "c": {}, "d": []}"#;
        let v = value_from_slice(json.as_bytes()).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        let compact = to_string(&Probe(v.clone())).unwrap();
        assert_eq!(value_from_slice(compact.as_bytes()).unwrap(), v);
        let pretty = to_string_pretty(&Probe(v.clone())).unwrap();
        assert_eq!(value_from_slice(pretty.as_bytes()).unwrap(), v);
    }

    #[test]
    fn big_u64_round_trips() {
        let x = u64::MAX;
        let s = to_string(&x).unwrap();
        assert_eq!(s, u64::MAX.to_string());
        assert_eq!(from_str::<u64>(&s).unwrap(), x);
    }

    #[test]
    fn long_and_multibyte_strings_round_trip() {
        // 4 MiB of string body: linear now, quadratic when every character
        // re-validated the whole rest of the input.
        let long: String = "0123456789abcdef".repeat(4 << 16);
        let mixed = "aé€😀 — \u{10348}𐍈\u{7FF}߿\u{FFFF}".repeat(1000);
        for text in [long, mixed] {
            let json = to_string(&text).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), text);
        }
    }

    #[test]
    fn broken_utf8_in_strings_is_rejected() {
        let cases: [&[u8]; 8] = [
            b"\"\xE2\x82\"",     // 3-byte sequence cut short by the quote
            b"\"\xF0\x9F\x98\"", // 4-byte sequence cut short by the quote
            b"\"\xE2\x82",       // … by the end of input
            b"\"\xF0\x9F",       // … by the end of input
            b"\"\xC3\x28\"",     // bad continuation byte
            b"\"\x80\"",         // continuation byte as lead
            b"\"\xC0\xAF\"",     // overlong encoding
            b"\"\xED\xA0\x80\"", // UTF-16 surrogate
        ];
        for bytes in cases {
            let err = value_from_slice(bytes).unwrap_err();
            assert!(err.to_string().contains("invalid UTF-8"), "{bytes:?}: {err}");
        }
    }

    /// Reference writer: one `match` and one push per character.
    fn write_escaped_per_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn run_writer_matches_the_per_char_writer_and_round_trips() {
        let mut special: Vec<char> = (0u8..0x20).map(char::from).collect();
        // `/` needs no escape; 2-, 3- and 4-byte UTF-8; DEL and plain ASCII.
        special.extend(['"', '\\', '/', 'é', '\u{7FF}', '€', '\u{FFFF}', '😀', '\u{7F}', 'a']);
        let mut cases = vec![String::new(), special.iter().collect::<String>()];
        for c in &special {
            // Alone, and opening, inside and closing a run.
            cases.push(c.to_string());
            cases.push(format!("{c}ab{c}{c}cd/é{c}"));
        }
        for s in cases {
            let (mut runs, mut per_char) = (String::new(), String::new());
            write_escaped(&mut runs, &s);
            write_escaped_per_char(&mut per_char, &s);
            assert_eq!(runs, per_char, "{s:?}");
            assert_eq!(from_str::<String>(&runs).unwrap(), s, "{runs}");
        }
        // Escapes the writer never produces still read back.
        assert_eq!(from_str::<String>(r#""a\/b\u00e9\b\f""#).unwrap(), "a/bé\u{8}\u{c}");
        // An ASCII run stops at the first non-ASCII byte, which is validated.
        let err = value_from_slice(b"\"abc\xC3\x28def\"").unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8 at byte 4"), "{err}");
    }

    #[test]
    fn errors_carry_position() {
        let err = value_from_slice(b"{\"a\": }").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
        assert!(value_from_slice(b"[1, 2,]").is_err());
    }
}
