//! Request decoding never panics: arbitrary text and single-byte
//! mutations of valid request and spec lines each decode to a value or
//! a [`WireError`](advm::wire::WireError), and every spec that decodes
//! round-trips through its own rendering.

use advm_serve::{JobSpec, Request};
use proptest::prelude::*;

/// Valid request lines, as the protocol, job and socket tests send them.
const REQUESTS: &[&str] = &[
    r#"{"cmd":"status"}"#,
    r#"{"cmd":"list"}"#,
    r#"{"cmd":"watch","job":7}"#,
    r#"{"cmd":"cancel","job":0}"#,
    r#"{"cmd":"shutdown"}"#,
    r#"{"cmd":"submit","job":{"kind":"regress","dir":"envs","env":"PAGE","platforms":["rtl"],"all_platforms":false,"fuel":500}}"#,
    r#"{"cmd":"submit","job":{"kind":"fuzz","programs":1024}}"#,
];

/// Valid spec lines, one or more per job kind.
const SPECS: &[&str] = &[
    r#"{"kind":"regress","dir":"/tmp/envs","env":"PAGE","platforms":["golden","rtl"],"all_platforms":false,"workers":2}"#,
    r#"{"kind":"audit","platforms":[],"all_platforms":true,"scenarios":4,"seed":7,"fuel":2000}"#,
    r#"{"kind":"explore","all_platforms":false,"rounds":2,"batch":3,"derivative":"SC88-B"}"#,
    r#"{"kind":"fuzz","mine":true,"platforms":["golden","rtl"],"all_platforms":false,"programs":8,"seed":11,"workers":2}"#,
    r#"{"kind":"fuzz","mine":false,"platforms":[],"all_platforms":true}"#,
    r#"{"kind":"explore","rounds":32,"batch":256}"#,
];

/// What arbitrary text is built from, split on `|`: JSON punctuation
/// and whitespace, escapes, the protocol's keys and values, and numbers
/// at the edges of what decodes.
const PIECES: &str = "{|}|[|]|,|:|\"|\\|\\u|D800| |\n|\u{0}|é|cmd|submit|status|watch|job|\
    kind|regress|audit|explore|fuzz|dir|env|platforms|all_platforms|rtl|golden|derivative|\
    SC88-A|programs|rounds|batch|scenarios|seed|workers|fuel|mine|true|false|null|0|-1|1.5|\
    1e400|9007199254740993|18446744073709551616";

/// Arbitrary text: a mix of protocol pieces and arbitrary chars.
fn arbitrary_text() -> impl Strategy<Value = String> {
    let pieces: Vec<&str> = PIECES.split('|').collect();
    let piece = prop_oneof![
        (0..pieces.len()).prop_map(move |i| pieces[i].to_owned()),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000)
            .unwrap_or(char::REPLACEMENT_CHARACTER)
            .to_string()),
    ];
    proptest::collection::vec(piece, 0..48).prop_map(|pieces| pieces.concat())
}

/// One valid line from `lines` with one byte replaced, deleted or
/// inserted; a result that is not UTF-8 is read lossily.
fn mutated(lines: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..lines.len(), any::<u64>(), 0u8..3, any::<u8>()).prop_map(move |(line, at, op, byte)| {
        let mut bytes = lines[line].as_bytes().to_vec();
        let at = at as usize % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Decodes `text` both as a request and as a spec. Either may fail with
/// a `WireError`; whatever decodes must round-trip.
fn decode(text: &str) {
    if let Ok(request) = Request::from_json(text) {
        let line = request.to_json();
        assert_eq!(
            Request::from_json(&line).ok().as_ref(),
            Some(&request),
            "{text:?}"
        );
        if let Request::Submit(spec) = request {
            round_trips(&spec, text);
        }
    }
    if let Ok(spec) = JobSpec::from_json(text) {
        round_trips(&spec, text);
    }
}

fn round_trips(spec: &JobSpec, text: &str) {
    let json = spec.to_json();
    match JobSpec::from_json(&json) {
        Ok(back) => assert_eq!(&back, spec, "{text:?} rendered as {json}"),
        Err(e) => panic!("{text:?} rendered as {json}, which fails to decode: {e}"),
    }
}

#[test]
fn the_valid_lines_decode() {
    for line in REQUESTS {
        assert!(Request::from_json(line).is_ok(), "{line}");
    }
    for line in SPECS {
        assert!(JobSpec::from_json(line).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_text_decodes_or_errs(text in arbitrary_text()) {
        decode(&text);
    }

    #[test]
    fn mutated_requests_decode_or_err(text in mutated(REQUESTS)) {
        decode(&text);
    }

    #[test]
    fn mutated_specs_decode_or_err(text in mutated(SPECS)) {
        decode(&text);
    }
}
