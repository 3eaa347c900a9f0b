//! The smallest read-then-upgrade input that once deadlocked
//! `li_hudak_fixed`: a unit's home parked a read request behind its own
//! fetch while another node parked the home's request behind its fetch, and
//! neither fetch reached the owner. The home now forwards at once; both
//! protocols run the input clean. `verify_gate`'s `home_defers_reads`
//! mutant re-introduces the bug.

use dsmpm2_verify::scenario::{self, READ_THEN_UPGRADE_ORDERS};
use dsmpm2_verify::{run_scenario, RunConfig};

#[test]
fn li_hudak_fixed_runs_the_smallest_read_then_upgrade_clean() {
    let scenario = scenario::read_then_upgrade(&READ_THEN_UPGRADE_ORDERS);
    assert!(scenario.threads.iter().all(|t| t.ops.len() == 14));
    let outcome = run_scenario(&scenario, &RunConfig::plain("li_hudak_fixed"));
    assert_eq!(outcome.error, None);
    assert!(outcome.expectation_findings(&scenario).is_empty());
    assert_eq!(outcome.final_words, vec![2; 9]);
}

#[test]
fn li_hudak_runs_the_smallest_read_then_upgrade_clean() {
    let scenario = scenario::read_then_upgrade(&READ_THEN_UPGRADE_ORDERS);
    let outcome = run_scenario(&scenario, &RunConfig::plain("li_hudak"));
    assert_eq!(outcome.error, None);
    assert!(outcome.expectation_findings(&scenario).is_empty());
    assert_eq!(outcome.final_words, vec![2; 9]);
}
