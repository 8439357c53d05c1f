//! Stripe encoding.
//!
//! Encoding a stripe means computing every parity cell from the data cells.
//! All four codes are encoded by the same routine: walk the chain list in
//! direction order (horizontal, then the first diagonal family, then the
//! second) and set each chain's parity cell to the XOR of its members.
//! Constructors guarantee that a chain's members only reference parity
//! cells of *strictly earlier* directions, so this order is well-defined.

use crate::codes::StripeCode;
use crate::stripe::Stripe;
use crate::xor::xor_into;
use crate::Result;

/// Compute all parity cells of `stripe` in place. A parity buffer that no
/// clone of the stripe shares is overwritten; a shared one is replaced.
pub fn encode(code: &StripeCode, stripe: &mut Stripe) -> Result<()> {
    // Chains are stored grouped by direction (all H, then D, then A) by the
    // ChainBuilder; rely on that to encode in one pass.
    for chain in code.chains() {
        stripe.set_xor(code.layout(), chain.parity, &chain.members);
    }
    Ok(())
}

/// Verify that every chain's equation holds (XOR of members equals parity).
/// Returns the ids of violated chains; empty means the stripe is consistent.
/// One chunk-sized accumulator serves every chain.
pub fn verify(code: &StripeCode, stripe: &Stripe) -> Vec<crate::ChainId> {
    let layout = code.layout();
    let mut acc = vec![0u8; stripe.chunk_size()];
    let mut bad = Vec::new();
    for chain in code.chains() {
        acc.copy_from_slice(stripe.get(layout, chain.parity));
        for &cell in &chain.members {
            xor_into(&mut acc, stripe.get(layout, cell));
        }
        if !crate::xor::is_zero(&acc) {
            bad.push(chain.id);
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::CodeSpec;

    #[test]
    fn encode_makes_all_chains_consistent() {
        for spec in CodeSpec::ALL {
            let code = StripeCode::build(spec, 7).unwrap();
            let mut stripe = Stripe::patterned(code.layout(), 64);
            encode(&code, &mut stripe).unwrap();
            assert!(
                verify(&code, &stripe).is_empty(),
                "{spec} inconsistent after encode"
            );
        }
    }

    #[test]
    fn verify_detects_corruption() {
        let code = StripeCode::build(CodeSpec::Tip, 5).unwrap();
        let mut stripe = Stripe::patterned(code.layout(), 32);
        encode(&code, &mut stripe).unwrap();
        // Corrupt one data cell.
        let victim = crate::layout::Cell::new(0, 0);
        let mut buf = stripe.get(code.layout(), victim).to_vec();
        buf[0] ^= 0xFF;
        stripe.set(code.layout(), victim, buf.into());
        let bad = verify(&code, &stripe);
        assert!(!bad.is_empty());
        // Every violated chain must actually cover the victim.
        for id in bad {
            assert!(code.chain(id).covers(victim));
        }
    }

    #[test]
    fn encode_reuses_its_own_buffers_and_leaves_clones_alone() {
        let code = StripeCode::build(CodeSpec::Tip, 5).unwrap();
        let layout = code.layout();
        let mut stripe = Stripe::patterned_seeded(layout, 16, 1);
        encode(&code, &mut stripe).unwrap();
        let parity: Vec<_> = layout.parity_cells().collect();
        let ptrs = |s: &Stripe| {
            parity
                .iter()
                .map(|&c| s.get(layout, c).as_ptr())
                .collect::<Vec<_>>()
        };
        let owned = ptrs(&stripe);

        // Unshared: a refill and re-encode write the same buffers.
        stripe.refill_seeded(layout, 2);
        encode(&code, &mut stripe).unwrap();
        assert_eq!(ptrs(&stripe), owned);
        assert!(verify(&code, &stripe).is_empty());

        // Shared with a clone: the clone keeps its bytes.
        let clone = stripe.clone();
        stripe.refill_seeded(layout, 3);
        encode(&code, &mut stripe).unwrap();
        assert!(verify(&code, &stripe).is_empty());
        assert!(verify(&code, &clone).is_empty());
        assert_eq!(ptrs(&clone), owned);
        assert_ne!(clone.get(layout, parity[0]), stripe.get(layout, parity[0]));
    }

    #[test]
    fn zero_stripe_encodes_to_zero_parity() {
        let code = StripeCode::build(CodeSpec::Star, 5).unwrap();
        let mut stripe = Stripe::zeroed(code.layout(), 16);
        encode(&code, &mut stripe).unwrap();
        for cell in code.layout().parity_cells() {
            assert!(crate::xor::is_zero(stripe.get(code.layout(), cell)));
        }
    }
}
