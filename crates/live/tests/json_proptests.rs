//! Property tests for the job server's JSON reader (`POST /jobs` bodies
//! arrive from the network): any input is answered with a value or an
//! error, never a panic, every `u32` reads back as itself, and a flat
//! object of string and integer members reads back exactly as written.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sae_live::server::json::{parse, Value};

/// Characters the generators draw from: JSON's structural bytes, escape
/// starters and number characters most of the time, so inputs get deep
/// into the grammar, then control bytes and arbitrary scalars.
const JSONISH: &[u8] = b"{}[]:,\"\\ \t\n/0123456789-+.eEtrufalsn";

fn char_from(x: u32) -> char {
    match x % 4 {
        0 | 1 => JSONISH[(x / 4) as usize % JSONISH.len()] as char,
        2 => char::from_u32((x / 4) % 0x20).expect("control bytes are scalars"),
        _ => char::from_u32((x / 4) % 0x11_0000).unwrap_or('\u{fffd}'),
    }
}

fn text(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..max_len)
        .prop_map(|xs| xs.into_iter().map(char_from).collect())
}

/// `s` as a JSON string literal: the mandatory escapes, and every other
/// character raw.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A member value: a string, or an integer JSON numbers hold exactly.
#[derive(Debug, Clone, PartialEq)]
enum Member {
    Str(String),
    Int(i64),
}

fn member() -> impl Strategy<Value = Member> {
    (any::<bool>(), text(24), -(1i64 << 53)..(1i64 << 53)).prop_map(|(is_str, s, n)| {
        if is_str {
            Member::Str(s)
        } else {
            Member::Int(n)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_input_never_panics(input in text(64)) {
        let _ = parse(&input);
    }

    #[test]
    fn every_u32_parses_back_to_itself(n in any::<u32>()) {
        let text = n.to_string();
        prop_assert_eq!(parse(&text).ok().and_then(|v| v.as_u64()), Some(u64::from(n)));
    }

    #[test]
    fn a_flat_object_parses_back_to_its_members(
        members in prop::collection::vec((text(12), member()), 0..8),
        ws in prop::collection::vec(0usize..4, 4),
    ) {
        let pad = |i: usize| [" ", "", "\n\t", "  "][ws[i]];
        let body = members
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    Member::Str(s) => quote(s),
                    Member::Int(n) => n.to_string(),
                };
                format!("{}{}{}:{}{}", pad(0), quote(k), pad(1), pad(2), v)
            })
            .collect::<Vec<_>>()
            .join(",");
        let doc = format!("{{{body}{}}}", pad(3));
        // Duplicate keys keep the last value.
        let expected: BTreeMap<&str, &Member> =
            members.iter().map(|(k, v)| (k.as_str(), v)).collect();

        let Ok(Value::Obj(got)) = parse(&doc) else {
            return Err(TestCaseError::fail(format!("not an object: {doc:?}")));
        };
        prop_assert_eq!(got.len(), expected.len(), "keys of {:?}", doc);
        for (key, want) in expected {
            let matches = match (got.get(key), want) {
                (Some(Value::Str(s)), Member::Str(w)) => s == w,
                (Some(Value::Num(n)), Member::Int(w)) => *n == *w as f64,
                _ => false,
            };
            prop_assert!(matches, "member {key:?}: got {:?}, wrote {want:?}", got.get(key));
        }
    }
}
