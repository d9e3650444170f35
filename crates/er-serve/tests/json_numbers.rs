//! The JSON reader's number scan against `str::parse` as the oracle, bit
//! for bit.
//!
//! The reader converts short plain decimals with one exact division
//! (Clinger's fast path) and hands every other token to `str::parse`. The
//! `wire_codec.rs` tree reference reads numbers through the same scan, so it
//! cannot catch an error of the fast path; these properties can. A token
//! without `.`, `e` or `E` is an integer token: it reads as `u64`, else as
//! `i64`, else (too large for 64 bits) as `f64`, exactly as the parse of
//! those types reads it. Every other token reads as `str::parse::<f64>`
//! reads it. A token the parse rejects is rejected with the error text
//! `invalid number "<token>"`.

use proptest::prelude::*;
use serde::json::{parse, Reader};
use serde::Value;

/// What the reader must return for a whole-document `token`.
fn oracle(token: &str) -> Result<Value, String> {
    let float = || {
        token
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("invalid number {token:?}"))
    };
    if token.contains(['.', 'e', 'E']) {
        float()
    } else if let Ok(u) = token.parse::<u64>() {
        Ok(Value::UInt(u))
    } else if let Ok(i) = token.parse::<i64>() {
        Ok(Value::Int(i))
    } else {
        float()
    }
}

/// The value as `f64` bits, integers folded as `Reader::f64` folds them.
fn bits(value: &Value) -> u64 {
    match *value {
        Value::Float(f) => f.to_bits(),
        Value::UInt(u) => (u as f64).to_bits(),
        Value::Int(i) => (i as f64).to_bits(),
        ref other => panic!("not a number: {other:?}"),
    }
}

/// Checks `token` as a document and as a `Reader::f64` read, against the
/// oracle.
fn check(token: &str) -> Result<(), String> {
    let read = parse(token).map_err(|e| e.to_string());
    match (&read, oracle(token)) {
        (Ok(value), Ok(expected)) => {
            let same = match (value, &expected) {
                (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                (a, b) => a == b,
            };
            if !same {
                return Err(format!("{token:?} read as {value:?}, the parse gives {expected:?}"));
            }
            let f64_read = Reader::new(token).f64().map_err(|e| e.to_string())?;
            if f64_read.map(f64::to_bits) != Ok(bits(&expected)) {
                return Err(format!("{token:?} read by Reader::f64 as {f64_read:?}"));
            }
        }
        (Err(error), Err(expected)) if *error == expected => {}
        (read, expected) => return Err(format!("{token:?}: read {read:?}, the parse gives {expected:?}")),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn printed_finite_floats_read_back_as_the_parse_reads_them(raw in 0u64..u64::MAX) {
        let f = f64::from_bits(raw);
        if f.is_finite() {
            check(&format!("{f:?}"))?;
            check(&format!("{f:e}"))?;
        }
    }

    #[test]
    fn digit_strings_read_as_the_parse_reads_them(
        sign in 0u8..2,
        digits in "[0-9]{1,25}",
        dot in 0usize..27,
        zeros in 0usize..4,
    ) {
        // Leading zeros after the sign, so the fraction can run past the
        // significant digits; a dot position past the end means none.
        let body = format!("{}{digits}", "0".repeat(zeros));
        let minus = if sign == 1 { "-" } else { "" };
        let token = match dot {
            // A token cannot start with `.`; after a `-` it can.
            0 if minus.is_empty() => format!("0.{body}"),
            at if at <= body.len() => format!("{minus}{}.{}", &body[..at], &body[at..]),
            _ => format!("{minus}{body}"),
        };
        check(&token)?;
    }
}

#[test]
fn fast_path_edges_read_as_the_parse_reads_them() {
    let edges = [
        // Mantissas 2^53 (fast) and 2^53 + 1 (the parse).
        "9007199254740992",
        "9007199254740993",
        "0.9007199254740992",
        "0.9007199254740993",
        "900719925474099.2",
        "-900719925474099.3",
        "9007199254740993.",
        // 19 and 20 significant digits.
        "1234567890123456789",
        "12345678901234567890",
        "0.1234567890123456789",
        "0.12345678901234567890",
        "0.000000000000000001",
        "0.0000000000000000001",
        "9999999999999999999",
        "-9999999999999999999",
        // 22 and 23 fraction digits.
        "0.0000000000000000000001",
        "0.00000000000000000000001",
        "0.0000000000000000000009",
        "-1.0000000000000000000001",
        "123.4567890123456789012",
        // Zeros and signs.
        "0",
        "-0",
        "0.0",
        "-0.0",
        "-0.",
        "-.5",
        "00.5",
        "0000000000000000000000000001",
        // Integers at and past the 64-bit edges.
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "-9223372036854775808",
        "-9223372036854775809",
        "-18446744073709551616",
        // Exponents go to the parse.
        "1e5",
        "1E+5",
        "2.5e-3",
        "1.e5",
        "-0e0",
        "1e400",
        "1e-400",
    ];
    for token in edges {
        check(token).unwrap_or_else(|e| panic!("{e}"));
    }
    let negative_zero = parse("-0.0").expect("reads");
    assert_eq!(negative_zero, Value::Float(-0.0));
    assert!(matches!(negative_zero, Value::Float(f) if f.is_sign_negative()));
}

#[test]
fn rejected_tokens_stay_rejected_with_the_same_error() {
    for token in [
        "-", "-.", "1.2.3", "1..2", "1e", "1e+", "-e5", "1.2-3", "1.-2", "0.5.", "1ee2", "1e5.0",
    ] {
        assert_eq!(
            parse(token).map_err(|e| e.to_string()),
            Err(format!("invalid number {token:?}")),
            "{token}"
        );
        check(token).unwrap_or_else(|e| panic!("{e}"));
    }
}
