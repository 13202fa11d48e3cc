//! A minimal JSON reader for `POST /jobs` bodies.
//!
//! The control API accepts small, flat documents (a job spec is a handful
//! of scalars and one stage array), so this is a straightforward
//! recursive-descent parser over the full grammar — objects, arrays,
//! strings with the standard escapes, numbers, booleans, null — with a
//! depth cap instead of a streaming interface. The workspace vendors no
//! JSON crate; everything that *writes* JSON here does so with `format!`,
//! and this module is the matching read side.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Duplicate keys keep the last value.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub(crate) fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Nesting deeper than this is rejected — far beyond any job spec, and it
/// bounds parser recursion against adversarial bodies.
const MAX_DEPTH: usize = 32;

/// Parses one JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, &'static str> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err("trailing bytes after the document");
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, &'static str> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep");
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input"),
        Some(b'{') => parse_obj(b, pos, depth),
        Some(b'[') => parse_arr(b, pos, depth),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(_) => Err("unexpected character"),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, &'static str> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err("malformed literal")
    }
}

/// Advances past a run of ASCII digits and returns its length.
fn digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

/// RFC 8259's `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, &'static str> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    match digits(b, pos) {
        0 => return Err("malformed number"),
        n if n > 1 && b[int_start] == b'0' => return Err("leading zero in number"),
        _ => {}
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(b, pos) == 0 {
            return Err("malformed number");
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(b, pos) == 0 {
            return Err("malformed number");
        }
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Value::Num)
        .ok_or("malformed number")
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, &'static str> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        // Exactly four hex digits: no sign, no shorter run.
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| {
                                h.iter().try_fold(0u32, |acc, &c| {
                                    Some(acc << 4 | (c as char).to_digit(16)?)
                                })
                            })
                            .ok_or("malformed \\u escape")?;
                        // Surrogates are rejected rather than paired: job
                        // specs have no business encoding astral-plane
                        // characters through UTF-16 escapes.
                        out.push(char::from_u32(hex).ok_or("surrogate in \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err("unknown escape"),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err("control byte in string"),
            Some(_) => {
                // Copy the whole run of plain bytes in one step. It ends
                // on a quote, a backslash, a control byte or the end of
                // the `&str` input — all char boundaries — so it is valid
                // UTF-8, and each byte is validated once.
                let start = *pos;
                while b
                    .get(*pos)
                    .is_some_and(|&c| c >= 0x20 && c != b'"' && c != b'\\')
                {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8")?);
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, &'static str> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err("expected ',' or ']'"),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, &'static str> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err("expected a string key");
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err("expected ':'");
        }
        *pos += 1;
        let value = parse_value(b, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err("expected ',' or '}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_job_spec_shape() {
        let v = parse(
            r#"{"name":"sort-a","tenant":"alice","weight":4,
               "stages":[{"kind":"spill","tasks":8,"records_per_task":1000,"seed":42}]}"#,
        )
        .unwrap();
        assert_eq!(v.get("tenant").and_then(Value::as_str), Some("alice"));
        assert_eq!(v.get("weight").and_then(Value::as_u64), Some(4));
        let stages = v.get("stages").and_then(Value::as_arr).unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].get("tasks").and_then(Value::as_u64), Some(8));
    }

    #[test]
    fn parses_scalars_and_escapes() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Value::Num(-250.0));
        assert_eq!(
            parse(r#""a\tb\u0041\"""#).unwrap(),
            Value::Str("a\tbA\"".into())
        );
        assert_eq!(parse("[1,[2],[]]").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\x\"",
            "{\"a\" 1}",
            "nan",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&deep).is_err(), "depth cap missing");
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        let unit = "plain ascii, then é and 𝄞: ";
        let run = unit.repeat((1 << 19) / unit.len());
        let body = format!("{{\"s\":\"{run}\\n{run}\"}}");
        let started = std::time::Instant::now();
        let v = parse(&body).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            v.get("s").and_then(Value::as_str),
            Some(&*format!("{run}\n{run}"))
        );
        // Linear work is milliseconds even unoptimised; re-validating the
        // rest of the body per character took seconds.
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn numbers_and_escapes_follow_rfc_8259() {
        for bad in [
            "01",
            "-01",
            "1.",
            "-",
            "1e",
            "1e+",
            ".5",
            "+1",
            "1.e5",
            "\"\\u+041\"",
            "\"\\u04\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        for (good, want) in [
            ("0", Value::Num(0.0)),
            ("-0.5", Value::Num(-0.5)),
            ("1e5", Value::Num(1e5)),
            ("2E-2", Value::Num(0.02)),
            ("10", Value::Num(10.0)),
            ("\"A\"", Value::Str("A".into())),
            ("\"\\u0041\\u00e9\"", Value::Str("A\u{e9}".into())),
        ] {
            assert_eq!(parse(good), Ok(want), "{good:?}");
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
    }
}
