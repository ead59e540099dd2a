//! Minimal dependency-free JSON parsing — just enough of the grammar for
//! the service wire format and the bench-trajectory reports (objects,
//! arrays, strings, numbers, booleans, null). No serde in the offline
//! dependency set.
//!
//! This began life in `dqma_bench` (which still re-exports it for the
//! `bench_compare` tooling) and moved here when the serving layer made it
//! load-bearing for request parsing: a hostile request body must produce a
//! structured `Err`, never a panic, and the parser is fully recursive-free
//! on strings/numbers with explicit bounds checks throughout.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Parsed {
    /// `null` (also what non-finite numbers serialise to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (digits only) that fits a `u64`, kept
    /// exact: an `f64` holds integers exactly only up to 2^53.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Parsed>),
    /// An object, in source order.
    Obj(Vec<(String, Parsed)>),
}

impl Parsed {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Parsed> {
        match self {
            Parsed::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one (a [`Parsed::Int`]
    /// above 2^53 rounds to the nearest `f64`).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Parsed::Int(n) => Some(*n as f64),
            Parsed::Num(x) if x.is_finite() => Some(*x),
            _ => None,
        }
    }

    /// The value as an exact `u64`: an integer literal within range, or a
    /// number in another notation (`1e3`, `7.0`) whose value is a
    /// non-negative integer below 2^53, where an `f64` still holds every
    /// integer. Anything else, including every literal above `u64::MAX`
    /// and every non-literal that an `f64` may have rounded, is `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Parsed::Int(n) => Some(n),
            Parsed::Num(x) if (0.0..9_007_199_254_740_992.0).contains(&x) && x.fract() == 0.0 => {
                Some(x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Parsed::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Parsed]> {
        match self {
            Parsed::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields in source order, if the value is an object.
    pub fn fields(&self) -> Option<&[(String, Parsed)]> {
        match self {
            Parsed::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Maximum container nesting depth accepted by [`parse`]. Deeply nested
/// hostile documents (`[[[[…]]]]`) would otherwise recurse the parser off
/// the stack — the wire format never nests more than a handful of levels.
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document.
pub fn parse(input: &str) -> Result<Parsed, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", ch as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Parsed, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Parsed::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Parsed::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Parsed::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Parsed::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Parsed::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Parsed::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Parsed::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Parsed::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Parsed,
) -> Result<Parsed, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Parsed, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or("");
    if text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Parsed::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Parsed::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    // Accumulate raw bytes and decode once: multi-byte UTF-8 sequences in
    // the source must pass through intact, not be widened byte-by-byte.
    let mut out: Vec<u8> = Vec::new();
    let push_char = |out: &mut Vec<u8>, c: char| {
        let mut buf = [0u8; 4];
        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
    };
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => return String::from_utf8(out).map_err(|_| "invalid UTF-8 string".to_string()),
            b'\\' => {
                let esc = bytes.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(8),
                    b'f' => out.push(12),
                    b'u' => {
                        let mut unit = parse_hex4(bytes, pos)?;
                        // Surrogate pair: a high surrogate must combine
                        // with an immediately following \uXXXX low half.
                        if (0xD800..0xDC00).contains(&unit)
                            && bytes.get(*pos) == Some(&b'\\')
                            && bytes.get(*pos + 1) == Some(&b'u')
                        {
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            if (0xDC00..0xE000).contains(&low) {
                                unit = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                            }
                        }
                        push_char(&mut out, char::from_u32(unit).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
            }
            _ => out.push(b),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = bytes
        .get(*pos..*pos + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or("invalid \\u escape")?;
    *pos += 4;
    Ok(hex)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let parsed = parse(r#"{"a": [1, -2.5e3, true, null], "b": "x\"y"}"#).unwrap();
        let arr = parsed.get("a").and_then(Parsed::as_arr).unwrap();
        assert_eq!(arr[1].as_num(), Some(-2500.0));
        assert_eq!(arr[2], Parsed::Bool(true));
        assert_eq!(parsed.get("b").and_then(Parsed::as_str), Some("x\"y"));
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn integer_literals_parse_exactly_up_to_u64_max() {
        let exact = |text: &str| parse(text).unwrap().as_u64();
        // 2^53 + 1 is the first integer an f64 cannot hold.
        assert_eq!(exact("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(exact("18446744073709551615"), Some(u64::MAX));
        assert_eq!(exact("0"), Some(0));
        // Other notations still read when their value is an exact integer.
        assert_eq!(exact("1e3"), Some(1000));
        assert_eq!(exact("7.0"), Some(7));
        // Out of range, negative, fractional, or a non-literal an f64 may
        // have rounded: no u64.
        assert_eq!(exact("18446744073709551616"), None);
        assert_eq!(exact("9007199254740993.0"), None);
        assert_eq!(exact("1e17"), None);
        assert_eq!(exact("-1"), None);
        assert_eq!(exact("2.5"), None);
        assert_eq!(exact("\"7\""), None);
        // Integers still read as numbers.
        assert_eq!(parse("12").unwrap().as_num(), Some(12.0));
    }

    #[test]
    fn parser_preserves_utf8_and_surrogate_pairs() {
        let parsed = parse("{\"name\": \"µs_per_op\"}").unwrap();
        assert_eq!(
            parsed.get("name").and_then(Parsed::as_str),
            Some("µs_per_op")
        );
        let parsed = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(parsed.as_str(), Some("😀"));
    }

    #[test]
    fn hostile_nesting_is_a_structured_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(32) + &"]".repeat(32);
        assert!(parse(&ok).is_ok());
    }
}
