//! Property-style fuzzing of the `sibia_obs::json` parser the daemon reads
//! requests with.
//!
//! The daemon parses every request line straight off the network, so the
//! parser's contract — **error, never panic** — is load-bearing for
//! availability. These tests drive it with deterministic SynthRng streams
//! (reproducible without a fuzz corpus): random byte soup, structured
//! mutations (truncation, splicing, duplication) of valid documents,
//! pathological nesting, and a serialize-parse fixed-point check on
//! generated documents.

use sibia_nn::rng::SynthRng;
use sibia_obs::json::Json;

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
