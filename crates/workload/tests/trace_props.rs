//! Property tests for the plain-text error-trace parser.
//!
//! Two families: well-formed campaigns must survive a render → parse
//! round trip exactly, and structurally corrupted text must come back as
//! `Err`, never a panic or a silently different campaign.

use fbf_codes::{CodeSpec, StripeCode};
use fbf_recovery::{ErrorGroup, PartialStripeError};
use fbf_workload::{parse_trace, render_trace, validate_against};
use proptest::prelude::*;

fn to_group(tuples: Vec<(u32, u16, u16, u16)>) -> ErrorGroup {
    let mut g = ErrorGroup::new();
    for (stripe, col, first_row, len) in tuples {
        g.push(PartialStripeError {
            stripe,
            col,
            first_row,
            len,
        });
    }
    g
}

/// Arbitrary *geometry-valid* error groups for the TIP code at p = 7
/// (6 rows, 8 columns, runs capped at p - 1 = 6 rows).
fn group_strategy() -> impl Strategy<Value = ErrorGroup> {
    proptest::collection::vec((0u32..200, 0u16..8, 0u16..6, 1u16..=6), 0..40).prop_map(|tuples| {
        to_group(
            tuples
                .into_iter()
                .map(|(s, c, r, l)| (s, c, r, l.min(6 - r)))
                .collect(),
        )
    })
}

/// Arbitrary structurally-valid trace *values*, unconstrained by any
/// code's geometry — parse_trace must accept these; validate_against
/// decides separately.
fn raw_group_strategy(min: usize) -> impl Strategy<Value = ErrorGroup> {
    proptest::collection::vec((0u32..=u32::MAX, 0u16..64, 0u16..64, 1u16..64), min..40)
        .prop_map(to_group)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// render → parse is the identity on any structurally valid group,
    /// whatever the geometry.
    #[test]
    fn roundtrip_is_identity(group in raw_group_strategy(0)) {
        let text = render_trace(&group);
        let parsed = parse_trace(&text).expect("rendered traces always parse");
        prop_assert_eq!(parsed, group);
    }

    /// Geometry-valid groups also pass validate_against after the trip.
    #[test]
    fn roundtrip_validates(group in group_strategy()) {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let parsed = parse_trace(&render_trace(&group)).unwrap();
        validate_against(&parsed, &code, 200).expect("geometry-valid group validates");
    }

    /// Interleaving comments, blank lines, and stray whitespace around a
    /// rendered trace never changes what parses out of it.
    #[test]
    fn noise_lines_are_transparent(group in raw_group_strategy(0), seed in 0u64..u64::MAX) {
        let text = render_trace(&group);
        let mut noisy = String::new();
        let mut s = seed;
        for line in text.lines() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            match s >> 60 {
                0 => noisy.push_str("# interjection\n"),
                1 => noisy.push('\n'),
                2 => noisy.push_str("   \n"),
                _ => {}
            }
            noisy.push_str("  ");
            noisy.push_str(line);
            noisy.push('\n');
        }
        prop_assert_eq!(parse_trace(&noisy).unwrap(), group);
    }

    /// Wrong field counts are rejected with a line number, never a panic.
    /// (Arity 4 is the valid shape; 0 fields would be a blank line — both
    /// are mapped out of the generated range.)
    #[test]
    fn wrong_arity_rejected(
        arity in (1usize..7).prop_map(|n| if n >= 4 { n + 1 } else { n }),
        value in 0usize..100,
    ) {
        let line = vec![value.to_string(); arity].join(" ");
        let err = parse_trace(&line).unwrap_err();
        prop_assert!(err.contains("line 1"), "{}", err);
    }

    /// Non-numeric garbage in any field is an error naming the line.
    #[test]
    fn garbage_fields_rejected(which in 0usize..4, junk_idx in 0usize..6) {
        const JUNK: [&str; 6] = ["zero", "-1", "3.5", "0x10", "NaN", "!!"];
        let mut fields = ["1", "2", "3", "2"];
        fields[which] = JUNK[junk_idx];
        let line = fields.join(" ");
        let err = parse_trace(&line).unwrap_err();
        prop_assert!(err.contains("line 1"), "{}", err);
    }

    /// Zero-length runs and stripe numbers past u32 are always rejected.
    #[test]
    fn semantic_nonsense_rejected(stripe in 0u64..u64::MAX, col in 0usize..16) {
        let zero_len = format!("{stripe} {col} 0 0\n");
        prop_assert!(parse_trace(&zero_len).is_err());
        let too_big = format!("{} {col} 0 1\n", (u32::MAX as u64) + 1 + (stripe >> 33));
        let err = parse_trace(&too_big).unwrap_err();
        prop_assert!(err.contains("u32::MAX"), "{}", err);
    }

    /// A bad line anywhere poisons the whole parse — no partial groups
    /// leak out of a corrupt file.
    #[test]
    fn corruption_rejects_whole_file(group in raw_group_strategy(1), pos_seed in 0u64..u64::MAX) {
        let text = render_trace(&group);
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        // Corrupt one real (non-comment) line, chosen by the seed.
        let real: Vec<usize> = (0..lines.len())
            .filter(|&i| !lines[i].trim_start().starts_with('#') && !lines[i].trim().is_empty())
            .collect();
        let idx = real[(pos_seed as usize) % real.len()];
        lines[idx] = "0 0 zero 1".to_string();
        let corrupt = lines.join("\n");
        prop_assert!(parse_trace(&corrupt).is_err());
    }
}
