//! Differential checks of the `/score` wire codec against the `Value`-tree
//! reference it replaced.
//!
//! `decode_score_body` reads requests straight off the JSON text; the
//! reference parses a `serde::Value` tree and runs the derived
//! `Deserialize`. Every body — seeded generated ones, their byte-level
//! mutations, and hand-written traps — must give an identical `Result`:
//! bit-identical requests, or the same error string. The encoder must write
//! the bytes `serde::json::to_string` writes.

use er_serve::engine::{decode_score_body, encode_score_response};
use er_serve::{parse_score_response, ScoreRequest};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Serialize, Value};

/// The tree path `/score` decoded with before the pull reader.
fn reference(body: &str) -> Result<Vec<ScoreRequest>, String> {
    let value = serde::json::parse(body).map_err(|e| format!("malformed JSON body: {e}"))?;
    match &value {
        Value::Seq(_) => serde::from_value::<Vec<ScoreRequest>>(&value).map_err(|e| e.to_string()),
        Value::Map(_) => serde::from_value::<ScoreRequest>(&value)
            .map(|r| vec![r])
            .map_err(|e| e.to_string()),
        other => Err(format!("expected a request object or array, found {}", other.kind())),
    }
}

/// A request with its floats as bit patterns, so NaN and -0.0 compare exactly.
type Bits = (u64, Vec<u64>, u64, bool);

fn bits(result: Result<Vec<ScoreRequest>, String>) -> Result<Vec<Bits>, String> {
    result.map(|requests| {
        requests
            .into_iter()
            .map(|r| {
                let row = r.metric_row.iter().map(|x| x.to_bits()).collect();
                (r.pair_id, row, r.classifier_output.to_bits(), r.machine_says_match)
            })
            .collect()
    })
}

fn assert_same(body: &str) -> Result<Vec<Bits>, String> {
    let want = bits(reference(body));
    assert_eq!(bits(decode_score_body(body)), want, "body {body:?}");
    want
}

const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "7",
    "-3",
    "0.5",
    "-0.0",
    "2.0",
    "1e3",
    "1E-3",
    "2.5e+2",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "123456789012345678901234567890",
    "5e-324",
    "2.2250738585072e-309",
    "1e400",
    "NaN",
    "Infinity",
    "-Infinity",
    "0.8235294117647058",
    "01",
];

const STRINGS: &[&str] = &[r#""""#, r#""abc""#, r#""é🦀""#, r#""a\"b\\c\n""#, r#""A🦀""#];

const KEYS: &[&str] = &[
    "pair_id",
    "metric_row",
    "classifier_output",
    "machine_says_match",
    "pair\\u005fid",
    "metric\\u005Frow",
    "extra",
    "Pair_id",
    "",
];

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

fn whitespace(rng: &mut StdRng, out: &mut String) {
    if rng.gen_bool(0.2) {
        out.push_str(pick(rng, &[" ", "\n", "\t ", "\r\n  "]));
    }
}

/// Any JSON value, nested at most `depth` more levels.
fn any_value(rng: &mut StdRng, out: &mut String, depth: usize) {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
        0 => out.push_str(pick(rng, NUMBERS)),
        1 => out.push_str(pick(rng, STRINGS)),
        2 => out.push_str(pick(rng, &["true", "false"])),
        3 => out.push_str("null"),
        4 => out.push_str(&f64::from_bits(rng.next_u64()).to_string().replace("inf", "Infinity")),
        5 => {
            out.push('[');
            for i in 0..rng.gen_range(0..4) {
                if i > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                any_value(rng, out, depth - 1);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.gen_range(0..3) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":", pick(rng, KEYS)));
                any_value(rng, out, depth - 1);
            }
            out.push('}');
        }
    }
}

/// A field value: usually of the right type, sometimes not.
fn field_value(rng: &mut StdRng, key: &str, out: &mut String) {
    if rng.gen_bool(0.1) {
        return any_value(rng, out, 2);
    }
    match key {
        "pair_id" => out.push_str(&rng.gen_range(0..1000u64).to_string()),
        "metric_row" => {
            out.push('[');
            for i in 0..rng.gen_range(0..8) {
                if i > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                if rng.gen_bool(0.2) {
                    out.push_str(pick(rng, NUMBERS));
                } else {
                    out.push_str(&format!("{:?}", rng.gen::<f64>()));
                }
            }
            out.push(']');
        }
        "classifier_output" => out.push_str(&format!("{:?}", rng.gen::<f64>())),
        "machine_says_match" => out.push_str(pick(rng, &["true", "false"])),
        _ => any_value(rng, out, 2),
    }
}

fn request(rng: &mut StdRng, out: &mut String) {
    let mut keys: Vec<&str> = ["pair_id", "metric_row", "classifier_output", "machine_says_match"]
        .into_iter()
        .filter(|_| rng.gen_bool(0.95))
        .collect();
    for _ in 0..rng.gen_range(0..3) {
        keys.push(pick(rng, KEYS));
    }
    // Shuffle: the wire order must not matter.
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    out.push('{');
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        whitespace(rng, out);
        out.push_str(&format!("\"{key}\":"));
        whitespace(rng, out);
        field_value(rng, key, out);
    }
    out.push('}');
}

fn body(rng: &mut StdRng) -> String {
    let mut out = String::new();
    whitespace(rng, &mut out);
    match rng.gen_range(0..10) {
        0 => any_value(rng, &mut out, 2),
        1..=3 => request(rng, &mut out),
        _ => {
            out.push('[');
            for i in 0..rng.gen_range(0..5) {
                if i > 0 {
                    out.push(',');
                }
                whitespace(rng, &mut out);
                request(rng, &mut out);
            }
            out.push(']');
        }
    }
    whitespace(rng, &mut out);
    out
}

/// A byte flip, a truncation or an insertion; `None` if the result is not
/// UTF-8 (a `/score` body is decoded only once it is).
fn mutate(rng: &mut StdRng, body: &str) -> Option<String> {
    const ALPHABET: &[u8] = b"{}[],:\"\\-+.eE0123456789 ntfuNI\x7f";
    let mut bytes = body.as_bytes().to_vec();
    let at = rng.gen_range(0..=bytes.len());
    let byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
    match rng.gen_range(0..3) {
        0 if at < bytes.len() => bytes[at] = byte,
        1 => bytes.truncate(at),
        _ => bytes.insert(at, byte),
    }
    String::from_utf8(bytes).ok()
}

#[test]
fn generated_and_mutated_bodies_decode_like_the_tree_reference() {
    let mut rng = StdRng::seed_from_u64(0x5C04E);
    let (mut ok, mut err) = (0usize, 0usize);
    for _ in 0..3_000 {
        let body = body(&mut rng);
        let mut outcomes = vec![assert_same(&body)];
        for _ in 0..12 {
            if let Some(mutant) = mutate(&mut rng, &body) {
                outcomes.push(assert_same(&mutant));
            }
        }
        for outcome in outcomes {
            match outcome {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
    }
    // Both sides of the contract are exercised, not just the error path.
    assert!(ok > 3_000 && err > 10_000, "ok {ok}, err {err}");
}

#[test]
fn trap_bodies_decode_like_the_tree_reference() {
    let row = r#""metric_row":[0.5],"classifier_output":0.25,"machine_says_match":true"#;
    let bomb = format!("{}{}", "[".repeat(200), "]".repeat(200));
    // `ROW` stands for the last three fields of a valid request, `BOMB` for
    // nesting past `MAX_DEPTH`.
    let traps: Vec<String> = [
        // `-0` is an integer token: +0.0 in a float field, 0 as a pair id.
        r#"{"pair_id":-0,"metric_row":[-0,-0.0],"classifier_output":-0,"machine_says_match":false}"#,
        // Integers past 2^53 and past u64::MAX in float fields.
        r#"{"pair_id":1,"metric_row":[9007199254740993,18446744073709551615,18446744073709551616],"classifier_output":-9223372036854775809,"machine_says_match":true}"#,
        r#"{"pair_id":18446744073709551616,ROW}"#,
        r#"{"pair_id":-1,ROW}"#,
        r#"{"pair_id":1.0,ROW}"#,
        r#"{"pair_id":1,"metric_row":[NaN,Infinity,-Infinity],"classifier_output":NaN,"machine_says_match":true}"#,
        r#"{"pair_id":1,"metric_row":[5e-324,2.2250738585072e-309,1e-400],"classifier_output":0.5,"machine_says_match":true}"#,
        // Escaped keys match their unescaped names.
        r#"{"pair\u005fid":3,ROW}"#,
        r#"[{"pair_id":3,ROW},{"pair_id":4,"metric_row":[1,"x"],"classifier_output":"y"}]"#,
        // A depth bomb inside an unknown key is still a syntax error.
        r#"{"pair_id":5,"junk":BOMB,ROW}"#,
        r#"[{"pair_id":"x",ROW},{"pair_id":1,"junk":BOMB}]"#,
        // Duplicates: the first wins, the later one is only validated.
        r#"{"pair_id":1,"pair_id":"two",ROW,"metric_row":[1,2]}"#,
        r#"{"pair_id":"one","pair_id":2,ROW}"#,
        // Declaration order, not wire order, names the failing field.
        r#"{"machine_says_match":1,"classifier_output":"x","metric_row":{},"pair_id":null}"#,
        r#"{"machine_says_match":1,"classifier_output":"x"}"#,
        // The first failing element wins; a later syntax error beats it.
        r#"[{"pair_id":1,ROW},{"pair_id":2},{"pair_id":-5}]"#,
        r#"[{"pair_id":1,ROW},{"pair_id":2},{"pair_id":-5}"#,
        r#"[{"pair_id":2},{"pair_id":1,"metric_row":[1,]}]"#,
        r#"[{"pair_id":2},7,"x"]"#,
        r#"{"pair_id":1,"metric_row":[1,"\u+041"]}"#,
        // Scalar and empty top levels.
        "5",
        "-0",
        "99999999999999999999",
        "1.5",
        r#""req""#,
        "null",
        "true",
        "[]",
        " [ ] ",
        "{}",
        "",
        "[1] 2",
        "-",
        "[1.2.3]",
    ]
    .iter()
    .map(|trap| trap.replace("ROW", row).replace("BOMB", &bomb))
    .collect();
    for trap in &traps {
        let _ = assert_same(trap);
    }
    let zero = decode_score_body(&traps[0]).expect("-0 decodes");
    assert_eq!(zero[0].pair_id, 0);
    assert_eq!(zero[0].metric_row[0].to_bits(), 0.0f64.to_bits(), "-0 folds to +0.0");
    assert_eq!(zero[0].metric_row[1].to_bits(), (-0.0f64).to_bits());
    assert_eq!(decode_score_body(&traps[7]).expect("escaped key")[0].pair_id, 3);
    assert_eq!(
        decode_score_body(&traps[13]).unwrap_err(),
        "ScoreRequest.pair_id: expected unsigned integer, found null"
    );
    assert!(decode_score_body(&traps[9]).unwrap_err().contains("maximum depth"));
    assert_eq!(decode_score_body("[]").map(|r| r.len()), Ok(0));
}

#[derive(Serialize)]
struct ScoreResponse {
    model_version: u64,
    scores: Vec<f64>,
}

#[test]
fn the_response_encoder_writes_the_tree_writer_bytes() {
    let mut rng = StdRng::seed_from_u64(7);
    let fixed = vec![
        -0.0,
        0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        2.0,
        0.1,
        1e300,
        -1.5e-10,
    ];
    let mut cases = vec![(0, Vec::new()), (u64::MAX, fixed)];
    for version in 1..200 {
        let scores = (0..rng.gen_range(0..40))
            .map(|_| f64::from_bits(rng.next_u64()))
            .collect();
        cases.push((version, scores));
    }
    for (model_version, scores) in cases {
        let body = encode_score_response(model_version, &scores);
        assert_eq!(
            body,
            serde::json::to_string(&ScoreResponse {
                model_version,
                scores: scores.clone()
            })
        );
        let (version, back) = parse_score_response(&body).expect("the judge parses the body");
        assert_eq!(version, model_version);
        let same = back
            .iter()
            .zip(&scores)
            .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
        assert!(same && back.len() == scores.len(), "{body}");
    }
}
