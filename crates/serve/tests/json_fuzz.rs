//! Property-style fuzzing of the `sibia_obs::json` parser the daemon reads
//! requests with, and of the request envelopes built on it.
//!
//! The daemon parses every request line straight off the network, so the
//! parser's contract — **error, never panic** — is load-bearing for
//! availability. These tests drive it with deterministic SynthRng streams
//! (reproducible without a fuzz corpus): random byte soup, structured
//! mutations (truncation, splicing, duplication) of valid documents,
//! pathological nesting, and a serialize-parse fixed-point check on
//! generated documents. One level up, mutated envelopes of every request
//! kind must parse to a request or a typed `bad_request` through
//! `parse_request`, and parsed `encode` payloads must come back from
//! `encode_stats`.

use sibia_nn::rng::SynthRng;
use sibia_obs::json::Json;
use sibia_serve::protocol::{encode_stats, parse_request, ErrorCode, Request};

/// A random JSON-ish document: valid shapes with random contents, so
/// mutations of it land near the parser's accepting paths.
fn random_doc(rng: &mut SynthRng, depth: usize) -> Json {
    let choice = (rng.unit_f64() * 7.0) as u32;
    match choice {
        0 if depth < 4 => Json::Array(
            (0..(rng.unit_f64() * 4.0) as usize)
                .map(|_| random_doc(rng, depth + 1))
                .collect(),
        ),
        1 if depth < 4 => Json::Object(
            (0..(rng.unit_f64() * 4.0) as usize)
                .map(|i| (format!("k{i}"), random_doc(rng, depth + 1)))
                .collect(),
        ),
        2 => Json::Str(random_string(rng)),
        3 => Json::Int((rng.unit_f64() * 2e12) as i64 - 1_000_000_000_000),
        4 => Json::Float(rng.unit_f64() * 1e6 - 5e5),
        5 => Json::Bool(rng.unit_f64() < 0.5),
        _ => Json::Null,
    }
}

fn random_string(rng: &mut SynthRng) -> String {
    // Includes quote, backslash, control and multi-byte characters: the
    // escaping paths are exactly where hand-rolled parsers break.
    const ALPHABET: [char; 12] = [
        'a', 'Z', '"', '\\', '\n', '\t', '\u{0}', 'é', '✓', '{', '}', ' ',
    ];
    (0..(rng.unit_f64() * 12.0) as usize)
        .map(|_| ALPHABET[(rng.unit_f64() * ALPHABET.len() as f64) as usize])
        .collect()
}

/// Asserts the invariant on one input: parsing returns — Ok or a typed
/// error — and an Ok result re-serializes to a stable fixed point.
fn must_not_panic(input: &str) {
    if let Ok(parsed) = Json::parse(input) {
        let canonical = parsed.to_string();
        let reparsed = Json::parse(&canonical)
            .unwrap_or_else(|e| panic!("canonical output must reparse: {e} on {canonical:?}"));
        assert_eq!(
            reparsed.to_string(),
            canonical,
            "serialize ∘ parse must be a fixed point"
        );
    }
}

#[test]
fn random_byte_soup_never_panics() {
    let mut rng = SynthRng::for_stream(0xF0220, 0);
    for _ in 0..2_000 {
        let len = (rng.unit_f64() * 64.0) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| (rng.unit_f64() * 256.0) as u8).collect();
        // Arbitrary bytes, lossily decoded — the daemon does the same to
        // its request lines.
        must_not_panic(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn json_flavoured_soup_never_panics() {
    // Soup drawn from JSON's own alphabet reaches much deeper parse paths
    // than uniform bytes.
    const TOKENS: [&str; 18] = [
        "{", "}", "[", "]", ":", ",", "\"", "\\", "null", "true", "false", "0", "-", "1e", ".5",
        "x", " ", "\u{7}",
    ];
    let mut rng = SynthRng::for_stream(0xF0221, 0);
    for _ in 0..2_000 {
        let n = (rng.unit_f64() * 24.0) as usize;
        let line: String = (0..n)
            .map(|_| TOKENS[(rng.unit_f64() * TOKENS.len() as f64) as usize])
            .collect();
        must_not_panic(&line);
    }
}

#[test]
fn mutated_valid_documents_never_panic() {
    let mut rng = SynthRng::for_stream(0xF0222, 0);
    for round in 0..500 {
        let mut doc_rng = SynthRng::for_stream(0xF0223, round);
        let text = random_doc(&mut doc_rng, 0).to_string();
        must_not_panic(&text); // the unmutated document first

        let bytes = text.as_bytes();
        for _ in 0..4 {
            let mutated = match (rng.unit_f64() * 3.0) as u32 {
                // Truncate: simulates a line cut mid-transmission.
                0 => {
                    let cut = (rng.unit_f64() * (bytes.len() + 1) as f64) as usize;
                    bytes[..cut.min(bytes.len())].to_vec()
                }
                // Splice a random byte over a random position.
                1 if !bytes.is_empty() => {
                    let mut b = bytes.to_vec();
                    let pos = ((rng.unit_f64() * b.len() as f64) as usize).min(b.len() - 1);
                    b[pos] = (rng.unit_f64() * 256.0) as u8;
                    b
                }
                // Duplicate the document (NDJSON framing violation).
                _ => {
                    let mut b = bytes.to_vec();
                    b.extend_from_slice(bytes);
                    b
                }
            };
            must_not_panic(&String::from_utf8_lossy(&mutated));
        }
    }
}

#[test]
fn pathological_nesting_errors_instead_of_blowing_the_stack() {
    // Far past the parser's depth bound, in every nesting flavour; the
    // contract is a typed error, not a stack overflow or a panic.
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        for depth in [65usize, 256, 10_000] {
            let text = format!("{}null{}", open.repeat(depth), close.repeat(depth));
            assert!(
                Json::parse(&text).is_err(),
                "depth {depth} with {open:?} must be rejected"
            );
        }
    }
    // Unclosed nesting (truncated deep documents) must error too.
    assert!(Json::parse(&"[".repeat(100_000)).is_err());
    // ...while depths inside the bound still parse.
    let ok = format!("{}1{}", "[".repeat(32), "]".repeat(32));
    assert!(Json::parse(&ok).is_ok());
}

#[test]
fn generated_documents_round_trip_to_a_fixed_point() {
    for stream in 0..200 {
        let mut rng = SynthRng::for_stream(0xF0224, stream);
        let doc = random_doc(&mut rng, 0);
        let text = doc.to_string();
        // Compare serialized bytes, not values: canonical text equality is
        // the property the protocol's byte-identity rests on.
        let reparsed = Json::parse(&text).expect("own serialization must parse");
        assert_eq!(reparsed.to_string(), text);
    }
}

/// One valid envelope of each request kind, together covering every
/// optional field of the grammar.
const ENVELOPES: [&str; 9] = [
    r#"{"id":1,"kind":"ping"}"#,
    r#"{"id":"v","kind":"version","timeout_ms":50}"#,
    r#"{"id":3,"kind":"encode","values":[0,-3,5,63,-63,21],"bits":7,"gsbr_width":3}"#,
    r#"{"id":4,"kind":"simulate","arch":"sibia","network":"dgcnn","seed":7,"sample_cap":512}"#,
    r#"{"id":5,"kind":"lookup","arch":"hnpu","network":"dgcnn","seed":2,"sample_cap":64}"#,
    r#"{"id":6,"kind":"sweep","archs":["sibia","bitfusion"],"networks":["dgcnn"],"seeds":[1,2],"stream":true}"#,
    r#"{"id":7,"kind":"metrics","trace":{"trace_id":"fs1","parent_span":9}}"#,
    r#"{"id":8,"kind":"spans","limit":4,"trace_id":"t3"}"#,
    r#"{"id":9,"kind":"stats","trace":{"trace_id":"t9"}}"#,
];

/// Integer fields of the grammar, arrays of integers included.
const INT_FIELDS: [&str; 8] = [
    "bits",
    "gsbr_width",
    "seed",
    "sample_cap",
    "timeout_ms",
    "limit",
    "values",
    "seeds",
];

/// Integers at and past the edges of every range the grammar checks.
const EDGE_INTS: [i64; 16] = [
    -1,
    0,
    1,
    2,
    8,
    9,
    16,
    17,
    32_767,
    -32_768,
    i32::MAX as i64,
    i32::MIN as i64,
    i32::MAX as i64 + 1,
    (1 << 53) + 1,
    i64::MAX,
    i64::MIN,
];

/// `trace` contexts the envelope rules must refuse, plus `null` (none).
fn malformed_context(rng: &mut SynthRng) -> Json {
    const FIXTURES: [&str; 10] = [
        "7",
        "[]",
        "\"t1\"",
        "{}",
        "{\"trace_id\":\"\"}",
        "{\"trace_id\":5}",
        "{\"trace_id\":\"t\",\"parent_span\":-2}",
        "{\"trace_id\":\"t\",\"parent_span\":1.5}",
        "{\"trace_id\":\"t\",\"parent_span\":\"9\"}",
        "null",
    ];
    match FIXTURES.get(pick(rng, FIXTURES.len() + 1)) {
        Some(text) => Json::parse(text).expect("context fixture parses"),
        // A trace id one byte over the cap.
        None => Json::obj(vec![("trace_id", Json::Str("x".repeat(129)))]),
    }
}

fn pick(rng: &mut SynthRng, n: usize) -> usize {
    ((rng.unit_f64() * n as f64) as usize).min(n - 1)
}

fn set(members: &mut Vec<(String, Json)>, key: &str, value: Json) {
    match members.iter_mut().find(|(k, _)| k == key) {
        Some(member) => member.1 = value,
        None => members.push((key.to_owned(), value)),
    }
}

/// One structural mutation of an envelope object: a field dropped,
/// retyped or duplicated, an integer pushed out of range, a malformed
/// `trace` context, or the retired `trace` kind.
fn mutate(rng: &mut SynthRng, members: &mut Vec<(String, Json)>) {
    match (rng.unit_f64() * 6.0) as u32 {
        0 if !members.is_empty() => {
            members.remove(pick(rng, members.len()));
        }
        1 if !members.is_empty() => {
            let i = pick(rng, members.len());
            members[i].1 = random_doc(rng, 2);
        }
        2 if !members.is_empty() => {
            let (key, value) = members[pick(rng, members.len())].clone();
            let value = if rng.unit_f64() < 0.5 {
                value
            } else {
                random_doc(rng, 2)
            };
            members.insert(pick(rng, members.len() + 1), (key, value));
        }
        3 => {
            let key = INT_FIELDS[pick(rng, INT_FIELDS.len())];
            let edge = Json::Int(EDGE_INTS[pick(rng, EDGE_INTS.len())]);
            let value = match key {
                "values" | "seeds" => Json::Array(vec![Json::Int(1), edge, Json::Int(0)]),
                _ => edge,
            };
            set(members, key, value);
        }
        4 => {
            let context = malformed_context(rng);
            set(members, "trace", context);
        }
        _ => set(members, "kind", Json::from("trace")),
    }
}

#[test]
fn mutated_envelopes_parse_or_fail_typed() {
    for (envelope, kind) in ENVELOPES.iter().zip([
        "ping", "version", "encode", "simulate", "lookup", "sweep", "metrics", "spans", "stats",
    ]) {
        let parsed = parse_request(envelope).unwrap_or_else(|e| panic!("{envelope}: {e:?}"));
        assert_eq!(parsed.request.kind(), kind);
    }

    let mut rng = SynthRng::for_stream(0xF0225, 0);
    let (mut parsed, mut encoded) = (0, 0);
    for round in 0..6_000 {
        let base = ENVELOPES[round % ENVELOPES.len()];
        let Ok(Json::Object(mut members)) = Json::parse(base) else {
            unreachable!("fixtures are objects");
        };
        let mutations = 1 + pick(&mut rng, 3);
        for _ in 0..mutations {
            mutate(&mut rng, &mut members);
        }
        let retired = members
            .iter()
            .find(|(k, _)| k == "kind")
            .is_some_and(|(_, v)| v.as_str() == Some("trace"));
        let line = Json::Object(members).to_string();
        match parse_request(&line) {
            Ok(envelope) => {
                assert!(!retired, "the retired trace verb parsed: {line}");
                parsed += 1;
                if let Request::Encode {
                    values,
                    bits,
                    gsbr_width,
                } = &envelope.request
                {
                    encoded += 1;
                    if let Err(e) = encode_stats(values, *bits, *gsbr_width) {
                        assert_eq!(e.code, ErrorCode::BadRequest, "{line}: {e:?}");
                    }
                }
            }
            Err(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest, "{line}: {e:?}");
                assert!(!e.message.is_empty(), "{line}");
            }
        }
    }
    // The mutations stay close enough to the grammar that many lines still
    // parse, encode payloads included.
    assert!(parsed > 600, "only {parsed} mutated envelopes parsed");
    assert!(
        encoded > 50,
        "only {encoded} encode payloads reached encode_stats"
    );
}
