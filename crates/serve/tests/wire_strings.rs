//! The JSON string decoder every request line goes through: a seeded
//! round-trip property over awkward strings, and the error messages that
//! malformed strings answer with.

use localwm_prng::SplitMix64;
use localwm_serve::{Request, RequestKind};
use serde::Value;

/// Characters that exercise every branch of the decoder: plain runs,
/// the two characters JSON escapes by name, control characters, and
/// two-, three- and four-byte UTF-8.
const PIECES: &[&str] = &[
    "node a add\n",
    "edge data a b\n",
    "x",
    "\"",
    "\\",
    "\\\"",
    "/",
    "\u{0}",
    "\u{1f}",
    "\t",
    "\r\n",
    "\u{7f}",
    "é",
    "\u{80}",
    "中文",
    "\u{ffff}",
    "😀",
    "\u{10ffff}",
];

fn random_string(rng: &mut SplitMix64) -> String {
    let len = rng.below(40) as usize;
    let mut s = String::new();
    for _ in 0..len {
        // Long plain runs half the time, so runs cross 8-byte words.
        if rng.below(2) == 0 {
            let run = rng.below(20) as usize;
            s.extend(std::iter::repeat_n('p', run));
        }
        s.push_str(PIECES[rng.below(PIECES.len() as u64) as usize]);
    }
    s
}

#[test]
fn seeded_strings_round_trip_through_the_decoder() {
    let mut rng = SplitMix64::new(0x5eed_0025);
    for case in 0..2_000 {
        let s = random_string(&mut rng);
        let json = serde_json::to_string(&Value::Str(s.clone())).unwrap();
        assert_eq!(
            serde_json::from_str_value(&json).unwrap(),
            Value::Str(s.clone()),
            "case {case}: {json}"
        );
        // The same text as a request's design survives the wire line.
        let mut req = Request::new(RequestKind::Timing);
        req.design = Some(s.clone());
        let back = Request::from_line(&req.to_line()).unwrap();
        assert_eq!(back.design.as_deref(), Some(s.as_str()), "case {case}");
    }
}

#[test]
fn malformed_strings_keep_their_error_messages() {
    let err = |line: &str| Request::from_line(line).unwrap_err();
    assert_eq!(
        err(r#"{"kind":"timing","design":"\u00zz"}"#),
        "json error: bad \\u escape"
    );
    assert_eq!(
        err(r#"{"kind":"timing","design":"\ud83d"}"#),
        "json error: bad codepoint"
    );
    assert_eq!(
        err(r#"{"kind":"timing","design":"node a add"#),
        "json error: unterminated string"
    );
    assert_eq!(
        err(r#"{"kind":"timing","design":"\x41"}"#),
        "json error: unknown escape"
    );
}
