//! Minimal JSON value formatting for ndjson lines.
//!
//! The workspace carries no serde; events are flat objects of scalar
//! fields, so a tiny escaping + number formatter is all that is
//! needed. Floats print via `Display` in the round-trip range and via
//! `{:e}` outside it (both are valid JSON numbers); non-finite floats
//! become `null` so every emitted line stays parseable.

use std::fmt::Write as _;

/// One scalar field value in an ndjson event.
#[derive(Clone, Copy, Debug)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite values serialize as `null`).
    F64(f64),
    /// String (escaped on output).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl Value<'_> {
    /// Appends this value's JSON representation to `out`.
    pub(crate) fn push_json(&self, out: &mut String) {
        match *self {
            Value::U64(v) => push_u64(out, v),
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => push_f64(out, v),
            Value::Str(s) => {
                out.push('"');
                push_escaped(out, s);
                out.push('"');
            }
            Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    }
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value<'_> {
    #[expect(clippy::as_conversions, reason = "usize widens losslessly to u64")]
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}

/// Appends `s` with JSON string escaping (quotes, backslash, control
/// characters).
#[expect(
    clippy::as_conversions,
    reason = "char-to-u32 is the lossless codepoint value"
)]
pub(crate) fn push_escaped(out: &mut String, s: &str) {
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
}

/// Appends an unsigned integer.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Appends a float as a valid JSON number (`null` when non-finite).
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == 0.0 {
        out.push('0');
    } else if v.abs() >= 1e-4 && v.abs() < 1e16 {
        let _ = write!(out, "{v}");
    } else {
        // Scientific notation keeps extreme magnitudes compact and is
        // still a valid JSON number.
        let _ = write!(out, "{v:e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(v: Value<'_>) -> String {
        let mut s = String::new();
        v.push_json(&mut s);
        s
    }

    #[test]
    fn scalars_format_as_json() {
        assert_eq!(fmt(Value::U64(7)), "7");
        assert_eq!(fmt(Value::I64(-3)), "-3");
        assert_eq!(fmt(Value::Bool(true)), "true");
        assert_eq!(fmt(Value::Str("a\"b\\c")), "\"a\\\"b\\\\c\"");
        assert_eq!(fmt(Value::Str("line\nbreak")), "\"line\\nbreak\"");
    }

    #[test]
    fn floats_stay_parseable() {
        assert_eq!(fmt(Value::F64(0.0)), "0");
        assert_eq!(fmt(Value::F64(1.5)), "1.5");
        assert_eq!(fmt(Value::F64(-53.25)), "-53.25");
        assert_eq!(fmt(Value::F64(f64::NAN)), "null");
        assert_eq!(fmt(Value::F64(f64::INFINITY)), "null");
        // Extremes use exponent form, which JSON accepts.
        assert!(fmt(Value::F64(1e-300)).contains('e'));
        assert!(fmt(Value::F64(4.2e21)).contains('e'));
    }

    #[test]
    fn from_impls_cover_common_types() {
        assert_eq!(fmt(Value::from(3usize)), "3");
        assert_eq!(fmt(Value::from(3u32)), "3");
        assert_eq!(fmt(Value::from(-1i64)), "-1");
        assert_eq!(fmt(Value::from(2.5f64)), "2.5");
        assert_eq!(fmt(Value::from("x")), "\"x\"");
        assert_eq!(fmt(Value::from(false)), "false");
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        assert_eq!(fmt(Value::Str("\u{1}")), "\"\\u0001\"");
    }
}
