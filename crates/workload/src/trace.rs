//! Plain-text error-trace serialisation.
//!
//! One line per error: `stripe col first_row len`, `#`-comments and blank
//! lines allowed. Keeps campaigns archivable/replayable without pulling a
//! serialisation dependency beyond what the workspace already approves.

use fbf_codes::StripeCode;
use fbf_recovery::{ErrorGroup, PartialStripeError};

/// Render a campaign as trace text.
pub fn render_trace(group: &ErrorGroup) -> String {
    let mut out = String::with_capacity(group.len() * 16 + 64);
    out.push_str("# fbf partial-stripe error trace v1\n");
    out.push_str("# stripe col first_row len\n");
    for e in &group.errors {
        out.push_str(&format!(
            "{} {} {} {}\n",
            e.stripe, e.col, e.first_row, e.len
        ));
    }
    out
}

/// Parse trace text back into a campaign. Validation against a specific
/// code's geometry is [`validate_against`]'s job (traces themselves are
/// geometry-agnostic), but structural nonsense — malformed lines,
/// zero-length errors, stripe numbers past `u32`, columns or rows past a
/// cell's `u16` — is rejected here.
pub fn parse_trace(text: &str) -> Result<ErrorGroup, String> {
    let mut group = ErrorGroup::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(format!(
                "line {}: expected 4 fields, got {}",
                lineno + 1,
                fields.len()
            ));
        }
        let parse = |i: usize| -> Result<usize, String> {
            fields[i]
                .parse::<usize>()
                .map_err(|e| format!("line {}: field {}: {e}", lineno + 1, i + 1))
        };
        // Checked, not `as u32`: a stripe number past u32::MAX must be an
        // error, not a silent truncation onto some unrelated stripe.
        let stripe = u32::try_from(parse(0)?)
            .map_err(|_| format!("line {}: stripe {} exceeds u32::MAX", lineno + 1, fields[0]))?;
        // Columns and rows are a cell's u16; the run's last row must fit
        // too.
        let narrow = |i: usize| -> Result<u16, String> {
            u16::try_from(parse(i)?).map_err(|_| {
                let field = ["stripe", "col", "first_row", "len"][i];
                format!(
                    "line {}: {field} {} exceeds u16::MAX",
                    lineno + 1,
                    fields[i]
                )
            })
        };
        let (col, first_row, len) = (narrow(1)?, narrow(2)?, narrow(3)?);
        if len == 0 {
            return Err(format!("line {}: zero-length error", lineno + 1));
        }
        if first_row.checked_add(len - 1).is_none() {
            return Err(format!(
                "line {}: rows {first_row}..{} exceed u16::MAX",
                lineno + 1,
                u32::from(first_row) + u32::from(len)
            ));
        }
        group.push(PartialStripeError {
            stripe,
            col,
            first_row,
            len,
        });
    }
    Ok(group)
}

/// Check every error of a parsed trace against `code`'s geometry, using
/// the same constructor the synthetic generator goes through
/// ([`PartialStripeError::new`]): column in range, the run of rows within
/// the stripe, length under `p - 1`. `stripes` bounds the stripe index
/// (the campaign being replayed must fit the configured array).
pub fn validate_against(
    group: &ErrorGroup,
    code: &StripeCode,
    stripes: usize,
) -> Result<(), String> {
    for (i, e) in group.errors.iter().enumerate() {
        if e.stripe as usize >= stripes {
            return Err(format!(
                "error {}: stripe {} out of range (campaign has {} stripes)",
                i + 1,
                e.stripe,
                stripes
            ));
        }
        PartialStripeError::new(
            code,
            e.stripe,
            usize::from(e.col),
            usize::from(e.first_row),
            usize::from(e.len),
        )
        .map_err(|msg| format!("error {}: {msg}", i + 1))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::{generate_errors, ErrorGenConfig};
    use fbf_codes::CodeSpec;

    #[test]
    fn roundtrip() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let g = generate_errors(&code, &ErrorGenConfig::paper_default(100, 40, 21));
        let text = render_trace(&g);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(g, parsed);
        validate_against(&parsed, &code, 100).unwrap();
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n3 0 1 2\n   \n# tail\n";
        let g = parse_trace(text).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.errors[0].stripe, 3);
        assert_eq!(g.errors[0].len, 2);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_trace("1 2 3").is_err());
        assert!(parse_trace("a b c d").is_err());
        assert!(parse_trace("1 2 3 0").is_err(), "zero length rejected");
    }

    #[test]
    fn oversized_stripe_is_an_error_not_a_truncation() {
        // 2^32 used to truncate to stripe 0 via `as u32`; it must fail.
        let text = "4294967296 0 0 1\n";
        let err = parse_trace(text).unwrap_err();
        assert!(err.contains("u32::MAX"), "{err}");
        // u32::MAX itself still parses (the type's full range is legal).
        assert!(parse_trace("4294967295 0 0 1\n").is_ok());
    }

    #[test]
    fn oversized_column_or_row_is_an_error_not_a_truncation() {
        // 65 536 would wrap to 0 as a u16.
        for (text, field) in [
            ("0 65536 0 1\n", "col 65536"),
            ("0 0 65536 1\n", "first_row 65536"),
            ("0 0 0 65536\n", "len 65536"),
        ] {
            let err = parse_trace(text).unwrap_err();
            assert!(err.contains(field) && err.contains("u16::MAX"), "{err}");
        }
        // The run's last row must be a row too: 65 535 + 2 chunks is not.
        let err = parse_trace("0 0 65535 2\n").unwrap_err();
        assert!(err.contains("rows 65535..65537"), "{err}");
        // The type's full range is legal: the last row is 65 535.
        let g = parse_trace("0 65535 65535 1\n0 0 0 65535\n").unwrap();
        assert_eq!((g.errors[0].col, g.errors[1].len), (65535, 65535));
    }

    #[test]
    fn out_of_geometry_traces_rejected() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        // TIP p=7 has 7 data columns (0..7) and 7 rows; len < p - 1.
        let bad_col = parse_trace("0 99 0 1\n").unwrap();
        assert!(validate_against(&bad_col, &code, 10).is_err());
        let bad_run = parse_trace("0 0 6 3\n").unwrap();
        assert!(validate_against(&bad_run, &code, 10).is_err());
        let bad_stripe = parse_trace("10 0 0 1\n").unwrap();
        assert!(validate_against(&bad_stripe, &code, 10).is_err());
        let fine = parse_trace("9 0 0 1\n").unwrap();
        assert!(validate_against(&fine, &code, 10).is_ok());
    }

    #[test]
    fn empty_trace_is_empty_group() {
        assert!(parse_trace("# nothing\n").unwrap().is_empty());
    }
}
