//! Minimal JSON emission helpers.
//!
//! This crate must stay dependency-free (it is a dependency of the tensor
//! engine, below even the vendored serde stub), so the run report writes
//! its JSON by hand through these two functions.

/// Escapes and quotes `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_and_non_finite() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(0.0), "0");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn every_non_finite_shape_becomes_null() {
        // All the sentinel shapes that reach the RUNLOG/TRACE writers:
        // f64 specials, f32 specials widened the way health records
        // widen them, and NaNs produced by arithmetic.
        for bad in [
            f64::NEG_INFINITY,
            -f64::NAN,
            f64::from(f32::NAN),
            f64::from(f32::INFINITY),
            f64::from(f32::NEG_INFINITY),
            0.0 / 0.0,
            f64::INFINITY - f64::INFINITY,
        ] {
            assert_eq!(num(bad), "null", "{bad:?} must serialise as null");
        }
    }

    #[test]
    fn extreme_finite_magnitudes_stay_plain_decimal() {
        // Rust's `{}` for f64 never emits exponent syntax, so even the
        // extremes remain valid JSON number tokens (no `1e300`, no
        // `inf`); spot-check the round trip through the vendored parser.
        for v in [f64::MAX, f64::MIN_POSITIVE, -f64::MAX, 1e300, -1e-300] {
            let s = num(v);
            assert!(!s.contains('e') && !s.contains('E'), "{v}: {s}");
            let parsed: serde_json::Value = serde_json::from_str(&s).unwrap();
            match parsed {
                serde_json::Value::Num(x) => assert_eq!(x, v, "round trip of {v}"),
                other => panic!("{v} parsed as {other:?}"),
            }
        }
    }
}
