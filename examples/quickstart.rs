//! Quickstart: build a 3DFT code, break a stripe, recover it with FBF.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! Walks the whole public API in one sitting:
//! 1. build TIP-code for a 6-disk array (the paper's Fig. 1 setup);
//! 2. encode a stripe of real bytes;
//! 3. inject a partial stripe error (3 chunks on disk 0);
//! 4. generate the FBF recovery scheme and its priority dictionary;
//! 5. repair the stripe and verify the recovered bytes;
//! 6. run the same campaign through the disk simulator with the FBF cache
//!    and print the metrics.

use fbf::codes::encode::encode;
use fbf::recovery::{apply_scheme, scheme::generate, PartialStripeError, SchemeKind};
use fbf::PolicyKind;
use fbf::{run_experiment, ExperimentConfig};
use fbf::{CodeSpec, Stripe, StripeCode};

fn main() {
    // 1. TIP-code over p = 5: 6 disks, 4 rows per stripe (paper Fig. 1).
    let code = StripeCode::build(CodeSpec::Tip, 5).expect("5 is prime");
    println!("built {}:", code.describe());
    println!("{}", code.layout().ascii_art());

    // 2. Encode a stripe of distinct patterned payloads (32 KB chunks).
    let mut stripe = Stripe::patterned(code.layout(), 32 << 10);
    encode(&code, &mut stripe).expect("encode");
    let pristine = stripe.clone();

    // 3. A partial stripe error: chunks rows 0..3 of disk 0 go bad.
    let error = PartialStripeError::new(&code, 0, 0, 0, 3).expect("in bounds");
    for cell in error.cells() {
        stripe.erase(code.layout(), cell);
    }
    println!("injected error: {error}");

    // 4. FBF recovery scheme + priorities.
    let scheme = generate(&code, &error, SchemeKind::FbfCycling).expect("schedulable");
    println!(
        "scheme reads {} distinct chunks ({} slots, {} saved by sharing)",
        scheme.unique_reads(),
        scheme.total_read_slots(),
        scheme.shared_savings()
    );
    for prio in (1..=3).rev() {
        let cells = scheme.cells_with(prio);
        if !cells.is_empty() {
            let names: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
            println!("  priority {prio}: {}", names.join(", "));
        }
    }

    // 5. Repair and verify.
    apply_scheme(&code, &mut stripe, &scheme).expect("apply");
    for cell in error.cells() {
        assert_eq!(
            stripe.get(code.layout(), cell),
            pristine.get(code.layout(), cell),
            "recovered bytes must match"
        );
    }
    println!("all lost chunks recovered bit-for-bit ✓");

    // 6. The same scenario at campaign scale, through the simulator.
    let cfg = ExperimentConfig::builder()
        .code(CodeSpec::Tip)
        .p(5)
        .policy(PolicyKind::Fbf)
        .cache_mb(16)
        .stripes(512)
        .error_count(128)
        .workers(16)
        .build()
        .expect("valid configuration");
    let metrics = run_experiment(&cfg).expect("simulation");
    println!("\nsimulated campaign ({}):", cfg.describe());
    println!("  {metrics}");
}
