//! Golden-file test pinning the `roofline.json` schema: field names,
//! per-workload entry layout, and the exact numbers the deterministic
//! smoke suite produces (classes, limiters, agreement, intensities and
//! roof fractions). CI and external tooling parse this layout (and the
//! simulator is deterministic, so the *values* are part of the contract
//! too — any drift is a real cost/counter-model change, not noise). It is
//! the one test that runs the smoke suite through the classifier.
//!
//! Regenerate after an intentional change with:
//! `TLPGNN_BLESS=1 cargo test -p tlpgnn-perfgate --test roofline_golden`

use tlpgnn_perfgate::roofline;
use tlpgnn_perfgate::suite::{self, Suite};

#[test]
fn roofline_json_schema_is_pinned() {
    let s = Suite::smoke();
    let runs = suite::run_profiled(&s);
    let points = roofline::classify_all(&runs, &s.device);
    let rendered = roofline::report_pretty_string(&s.device.name, &points);
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/roofline.json");
    if std::env::var("TLPGNN_BLESS").is_ok() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
        std::fs::write(golden, &rendered).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(golden).expect("golden file present");
    assert_eq!(
        rendered, expected,
        "roofline.json drifted from tests/golden/roofline.json; \
         if intentional, re-bless with TLPGNN_BLESS=1"
    );
    // The golden pins every value, `"agrees": true` included; these two
    // are what equality with a file does not imply: the record parses,
    // and the function `perf_gate` exits on reads the same verdict.
    telemetry::json::parse(&rendered).expect("roofline.json parses");
    assert_eq!(roofline::check_agreement(&points), Vec::<String>::new());
}
