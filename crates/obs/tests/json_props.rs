//! One writer, one reader: whatever the JSON module or the push-style
//! trace writer renders, `Json::parse` reads back.

use fbf_obs::{render_chrome_line, Event, EventKind, Json, TraceCtx, Value};
use proptest::prelude::*;

/// Characters that exercise every escaper arm plus multi-byte UTF-8.
const ALPHABET: [char; 12] = [
    'a', 'Z', '9', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é',
];

fn string(draws: &mut impl Iterator<Item = u64>) -> String {
    let len = draws.next().unwrap() % 8;
    (0..len)
        .map(|_| ALPHABET[(draws.next().unwrap() % 12) as usize])
        .collect()
}

/// A finite number: small integers, fractions, and raw bit patterns.
fn number(draws: &mut impl Iterator<Item = u64>) -> f64 {
    let raw = draws.next().unwrap();
    let n = match raw % 3 {
        0 => (raw >> 8) as i32 as f64,
        1 => (raw >> 8) as f64 / 1024.0,
        _ => f64::from_bits(raw),
    };
    if n.is_finite() {
        n
    } else {
        0.5
    }
}

fn tree(draws: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let kinds = if depth < 4 { 6 } else { 4 };
    match draws.next().unwrap() % kinds {
        0 => Json::Null,
        1 => Json::Bool(draws.next().unwrap() & 1 == 1),
        2 => Json::Num(number(draws)),
        3 => Json::Str(string(draws)),
        4 => {
            let len = draws.next().unwrap() % 4;
            Json::Arr((0..len).map(|_| tree(draws, depth + 1)).collect())
        }
        _ => {
            let len = draws.next().unwrap() % 4;
            Json::Obj(
                (0..len)
                    .map(|_| (string(draws), tree(draws, depth + 1)))
                    .collect(),
            )
        }
    }
}

/// The random words a case builds its value from (cycled if it needs more).
fn entropy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..u64::MAX, 96..97)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rendered_trees_parse_back_equal(draws in entropy()) {
        let v = tree(&mut draws.iter().copied().cycle(), 0);
        prop_assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn chrome_lines_parse_with_the_tree_parser(draws in entropy()) {
        let mut draws = draws.iter().copied().cycle();
        // Category, name and keys are `'static` in every event (emission
        // sites pass literals); a drawn one is leaked to stand in for it.
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        let (cat, name, key, text) = (
            leak(string(&mut draws)),
            leak(string(&mut draws)),
            leak(string(&mut draws)),
            string(&mut draws),
        );
        let pick = draws.next().unwrap();
        let event = Event {
            cat,
            name,
            kind: match pick % 3 {
                0 => EventKind::Instant,
                1 => EventKind::Counter,
                _ => EventKind::Complete { dur_us: number(&mut draws).abs() },
            },
            ts_us: number(&mut draws).abs(),
            tid: pick >> 32,
            ctx: (pick & 1 == 1).then_some(TraceCtx { trace: pick, span: pick % 5, parent: 1 }),
            args: &[
                (key, Value::Str(&text)),
                ("n", Value::U64(pick)),
                ("i", Value::I64(-(pick as i64 >> 1))),
                ("f", Value::F64(f64::from_bits(draws.next().unwrap()))),
            ],
        };
        let line = render_chrome_line(&event);
        let parsed = Json::parse(&line).unwrap();
        prop_assert_eq!(parsed.get("name").and_then(Json::as_str), Some(name));
        prop_assert_eq!(parsed.get("cat").and_then(Json::as_str), Some(cat));
        if !["n", "i", "f"].contains(&key) {
            let arg = parsed.get("args").and_then(|a| a.get(key));
            prop_assert_eq!(arg.and_then(Json::as_str), Some(text.as_str()));
        }
    }
}
