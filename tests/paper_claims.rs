//! The paper's claims, one test per artifact of the
//! [`ev_bench::claims`] ledger: each test fails with every claim that
//! does not hold. `validate_repro` prints the same checks.
//!
//! Absolute numbers are platform-model outputs, pinned by the conformance
//! goldens in `specs/golden/`; these tests pin down the claims that must
//! not regress.

use ev_bench::claims::{self, Check};
use ev_bench::experiments::{
    figure1, figure10, figure3, figure5, figure8, figure9, table1, Fig8Row,
};
use std::sync::OnceLock;

fn assert_all_hold(checks: Vec<Check>) {
    assert!(!checks.is_empty(), "the ledger checks nothing here");
    let failed: Vec<String> = checks
        .iter()
        .filter(|c| !c.passed)
        .map(Check::to_string)
        .collect();
    assert!(
        failed.is_empty(),
        "claims that do not hold:\n{}",
        failed.join("\n")
    );
}

#[test]
fn table1_reproduces_exactly() {
    assert_all_hold(claims::table1(&table1().expect("experiment runs")));
}

#[test]
fn figure1_dense_processing_wastes_most_operations() {
    assert_all_hold(claims::figure1(&figure1(true).expect("experiment runs")));
}

#[test]
fn figure3_density_spread_spans_orders_of_magnitude() {
    assert_all_hold(claims::figure3(&figure3(true).expect("experiment runs")));
}

#[test]
fn figure5_flying_sequence_is_bursty() {
    assert_all_hold(claims::figure5(&figure5(true).expect("experiment runs")));
}

/// The quick Figure 8 rows, computed once for both tests that read them.
fn figure8_rows() -> &'static [Fig8Row] {
    static ROWS: OnceLock<Vec<Fig8Row>> = OnceLock::new();
    ROWS.get_or_init(|| figure8(true).expect("experiment runs"))
}

#[test]
fn figure8_optimizations_compound_and_land_in_band() {
    assert_all_hold(claims::figure8(figure8_rows()));
}

/// Table 2 is read off the Figure 8 runs.
#[test]
fn figure8_accuracy_stays_within_table2_bands() {
    assert_all_hold(claims::table2(figure8_rows()));
}

#[test]
fn figure9_nmp_beats_round_robin() {
    assert_all_hold(claims::figure9(&figure9(true).expect("experiment runs")));
}

#[test]
fn figure10_evolution_beats_random_search() {
    assert_all_hold(claims::figure10(&figure10(true).expect("experiment runs")));
}
