//! The workspace's JSON codec: one value tree, one strict parser, one
//! string escaper, one number formatter.
//!
//! The build environment has no crates-registry access, so `serde_json`
//! is unavailable. This module covers what the suite reads and writes —
//! the status protocol, `pdpa-snapshot/v1` files, `BENCH_pdpa.json`, the
//! exporters' documents — with objects kept in insertion order so output
//! is stable and diffable.
//!
//! [`parse`] is a recursive-descent parser over the RFC 8259 grammar: a
//! value starts with `{`, `[`, `"`, `-`, a digit or a literal; numbers
//! follow the strict JSON shape (no `+1`, `.5`, `1.` or `01`); `\u`
//! escapes decode surrogate pairs and reject lone surrogates. Nesting is
//! bounded by [`MAX_DEPTH`], so no input can exhaust the parsing
//! thread's stack, and strings are scanned in one linear pass. Numbers
//! are kept as `f64`, exact for every integer below 2^53.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts; deeper input is a
/// [`ParseError`], never a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup; `None` on a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
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

    /// Serializes with two-space indentation and a trailing newline.
    /// Integral numbers below 10^15 print without a fraction.
    ///
    /// # Panics
    ///
    /// Panics on non-finite numbers — the documents written this way
    /// carry wall times and counters, so a NaN here is a caller bug.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let inner_pad = "  ".repeat(indent + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                assert!(n.is_finite(), "non-finite number in JSON document");
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => push_str_escaped(out, s),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Value::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&inner_pad);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(&inner_pad);
                    push_str_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn push_str_escaped(out: &mut String, s: &str) {
    let _ = write_quoted(out, s);
}

/// `s` as a quoted, escaped JSON string inside `format!`/`write!`
/// arguments; the same escaping as [`push_str_escaped`].
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_quoted(f, self.0)
    }
}

/// The one escaper: `"` and `\` are backslash-escaped, `\n` `\r` `\t`
/// get their short forms, other controls `\u00XX`; everything else,
/// non-ASCII included, is copied through in unescaped runs.
fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if short.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(short)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Formats a float as a JSON number. Rust's shortest round-trip
/// `Display` is valid JSON for every finite value; non-finite values
/// (which JSON cannot carry) degrade to 0.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document. Whitespace may surround it; anything else
/// after it is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// One value, after optional leading whitespace.
    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(pairs));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run in one piece: it starts and ends at
            // ASCII bytes (or the input's end), so it is a valid `str`.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.err("unterminated string"));
            }
            let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                _ => return Err(self.err("unknown escape")),
            });
        }
    }

    /// Decodes the digits after `\u`, joining a high surrogate with the
    /// `\uDC00`–`\uDFFF` escape that must follow it.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            let low = if self.eat(b'\\') && self.eat(b'u') {
                self.hex4()?
            } else {
                0
            };
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("unpaired surrogate"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        (self.pos > start)
            .then_some(())
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn s(text: &str) -> Value {
        Value::Str(text.to_string())
    }

    #[test]
    fn grammar_table() {
        // (input, expected value; None = must be rejected)
        let cases: Vec<(&str, Option<Value>)> = vec![
            ("null", Some(Value::Null)),
            ("true", Some(Value::Bool(true))),
            (" false \n", Some(Value::Bool(false))),
            ("0", Some(Value::Num(0.0))),
            ("-0", Some(Value::Num(-0.0))),
            ("42", Some(Value::Num(42.0))),
            ("-2.5", Some(Value::Num(-2.5))),
            ("-3e2", Some(Value::Num(-300.0))),
            ("1E+3", Some(Value::Num(1000.0))),
            ("2.5e-1", Some(Value::Num(0.25))),
            ("9007199254740991", Some(Value::Num(9007199254740991.0))),
            ("\"\"", Some(s(""))),
            (r#""a\"b\nc""#, Some(s("a\"b\nc"))),
            (r#""\/\b\f\r\t\\""#, Some(s("/\u{8}\u{c}\r\t\\"))),
            (r#""\u0041\t""#, Some(s("A\t"))),
            ("\"é\"", Some(s("é"))),
            (r#""é😀""#, Some(s("é😀"))),
            (r#""😀""#, Some(s("😀"))),
            ("[]", Some(Value::Arr(vec![]))),
            ("{}", Some(Value::Obj(vec![]))),
            (
                r#" { "a" : [1, -2.5, 1e3], "b": {"c": false}, "n": null } "#,
                Some(Value::Obj(vec![
                    (
                        "a".into(),
                        Value::Arr(vec![Value::Num(1.0), Value::Num(-2.5), Value::Num(1e3)]),
                    ),
                    (
                        "b".into(),
                        Value::Obj(vec![("c".into(), Value::Bool(false))]),
                    ),
                    ("n".into(), Value::Null),
                ])),
            ),
            (
                r#"{"id": 3, "ok": true, "name": "a\"b\nc", "xs": [1, 2.5, -3e2], "none": null}"#,
                Some(Value::Obj(vec![
                    ("id".into(), Value::Num(3.0)),
                    ("ok".into(), Value::Bool(true)),
                    ("name".into(), s("a\"b\nc")),
                    (
                        "xs".into(),
                        Value::Arr(vec![Value::Num(1.0), Value::Num(2.5), Value::Num(-300.0)]),
                    ),
                    ("none".into(), Value::Null),
                ])),
            ),
            // Malformed structure.
            ("", None),
            ("{", None),
            ("{]", None),
            ("[1,", None),
            ("[1,]", None),
            ("{\"a\" 1}", None),
            ("{\"a\": 1} junk", None),
            ("12 34", None),
            ("nul", None),
            ("\"open", None),
            ("\"bad \\x escape\"", None),
            // Numbers outside the JSON grammar.
            ("+1", None),
            (".5", None),
            ("1.", None),
            ("01", None),
            ("-", None),
            ("-01", None),
            ("1e", None),
            ("1e+", None),
            ("[01]", None),
            ("inf", None),
            ("NaN", None),
            // Surrogates must pair up.
            (r#""\ud800""#, None),
            (r#""\ud800x""#, None),
            (r#""\ud800A""#, None),
            (r#""\udc00""#, None),
            (r#""\u+041""#, None),
            (r#""\u12""#, None),
        ];
        for (input, want) in cases {
            let got = parse(input);
            match want {
                Some(v) => assert_eq!(got.as_ref(), Ok(&v), "input {input:?}"),
                None => assert!(got.is_err(), "accepted {input:?}: {got:?}"),
            }
        }
    }

    #[test]
    fn errors_are_located() {
        let err = parse("[1, 2, x]").unwrap_err();
        assert_eq!(err.at, 7);
        assert_eq!(
            err.to_string(),
            "JSON parse error at byte 7: expected a value"
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"k\":"] {
            let deep = open.repeat(100_000);
            let err = parse(&deep).expect_err("too deep");
            assert!(err.message.contains("nesting"), "{err}");
        }
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let past_bound = format!("[{at_bound}]");
        assert!(parse(&past_bound).is_err());
    }

    #[test]
    fn pretty_output_is_a_parse_fixpoint() {
        let doc = Value::Obj(vec![
            ("name".into(), s("expt-all")),
            ("ok".into(), Value::Bool(true)),
            ("wall_secs".into(), Value::Num(12.25)),
            ("count".into(), Value::Num(3.0)),
            (
                "items".into(),
                Value::Arr(vec![Value::Null, s("a\"b\\c\nd")]),
            ),
            ("empty_obj".into(), Value::Obj(Vec::new())),
            ("empty_arr".into(), Value::Arr(Vec::new())),
        ]);
        let text = doc.to_pretty();
        let parsed = parse(&text).expect("parse back");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_pretty(), text);
        assert_eq!(Value::Num(42.0).to_pretty(), "42\n");
        assert_eq!(Value::Num(1.5).to_pretty(), "1.5\n");
        assert_eq!(
            parse("9007199254740991").unwrap().as_u64(),
            Some(9007199254740991)
        );
    }

    #[test]
    fn escaper_uses_short_forms_and_hex_for_other_controls() {
        let mut out = String::new();
        push_str_escaped(&mut out, "q\"b\\s\nnl\tt\r\u{1}∞");
        assert_eq!(out, r#""q\"b\\s\nnl\tt\r\u0001∞""#);
        assert_eq!(Quoted("a\"b").to_string(), r#""a\"b""#);
        for text in ["", "plain", "q\"b\\s\nnl\tt\r", "uni: ∞ λ", "\u{0001}ctl"] {
            let mut out = String::new();
            push_str_escaped(&mut out, text);
            assert_eq!(parse(&out), Ok(s(text)));
        }
    }

    #[test]
    fn fmt_f64_round_trips_finite_values() {
        for v in [0.0, -0.0, 1.5, 1e300, 1.0 / 3.0, -2.25e-8] {
            let text = fmt_f64(v);
            assert_eq!(text.parse::<f64>().unwrap().to_bits(), v.to_bits());
            assert!(parse(&text).is_ok(), "{text}");
        }
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
    }

    /// Random strings mixing ASCII, quotes, backslashes, controls and
    /// astral characters.
    struct Text;

    /// Random value trees over [`Text`] strings, integers and fractional
    /// numbers.
    struct Tree;

    fn text(rng: &mut TestRng) -> String {
        const CHARS: [char; 12] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '😀',
        ];
        (0..rng.below(12))
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }

    fn tree(rng: &mut TestRng, depth: u32) -> Value {
        match rng.below(if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Num(rng.below(1 << 53) as f64 - (1u64 << 52) as f64),
            3 => Value::Num((rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20)),
            4 => Value::Str(text(rng)),
            5 => Value::Arr((0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect()),
            _ => Value::Obj(
                (0..rng.below(4))
                    .map(|_| (text(rng), tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    impl Strategy for Text {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            text(rng)
        }
    }

    impl Strategy for Tree {
        type Value = Value;
        fn sample(&self, rng: &mut TestRng) -> Value {
            tree(rng, 4)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pretty_output_parses_back_to_the_tree(v in Tree) {
            prop_assert_eq!(parse(&v.to_pretty()), Ok(v));
        }

        #[test]
        fn escaped_strings_parse_back_to_themselves(original in Text) {
            let mut out = String::new();
            push_str_escaped(&mut out, &original);
            prop_assert_eq!(parse(&out), Ok(Value::Str(original)));
        }
    }
}
