//! The smallest reproducer of the `li_hudak_fixed` read-then-upgrade
//! deadlock (ROADMAP "Known red", direction 1), pinned the way
//! `tests/read_then_upgrade.rs` pins the 4-node one: as it behaves today.
//! Direction 1 inverts the first test: the fixed protocol must run this
//! input clean.

use dsmpm2_sim::{SimError, SimTime};
use dsmpm2_verify::scenario::{self, READ_THEN_UPGRADE_ORDERS};
use dsmpm2_verify::{run_scenario, RunConfig};

#[test]
fn li_hudak_fixed_deadlocks_on_the_smallest_read_then_upgrade() {
    let scenario = scenario::read_then_upgrade(&READ_THEN_UPGRADE_ORDERS);
    assert!(scenario.threads.iter().all(|t| t.ops.len() == 14));
    let outcome = run_scenario(&scenario, &RunConfig::plain("li_hudak_fixed"));
    let Some(SimError::Deadlock {
        at,
        parked_threads,
        events,
    }) = &outcome.error
    else {
        panic!("li_hudak_fixed no longer deadlocks: {:?}", outcome.error);
    };
    // The instant and the parked set ROADMAP "Known red" records: both
    // application threads that read first and the request handlers serving
    // them wait on page faults, node 2's thread waits on its barrier call,
    // and the barrier's handler on node 0 at the barrier.
    assert_eq!(*at, SimTime::from_nanos(2_828_714));
    assert_eq!(
        parked(parked_threads),
        [
            "read_then_upgrade-t0 blocked on PageFault",
            "read_then_upgrade-t1 blocked on PageFault",
            "read_then_upgrade-t2 blocked on Rpc",
            "rpc-dsm@N0 blocked on PageFault",
            "rpc-dsm@N1 blocked on PageFault",
            "rpc-dsm_barrier@N0 blocked on Barrier",
        ]
    );
    assert_eq!(*events, outcome.events);
    assert!(outcome.events > 0, "a deadlocked run reports its events");
    assert_eq!(
        outcome.expectation_findings(&scenario).len(),
        1,
        "the failed run is one final-memory finding"
    );
}

/// Each parked thread as `name blocked on reason`, its thread id dropped.
fn parked(threads: &[String]) -> Vec<String> {
    let without_id = |t: &String| {
        let (name, rest) = t.split_once(" (").expect("name (id) ...");
        let (_, reason) = rest.split_once(") ").expect("(id) blocked on ...");
        format!("{name} {reason}")
    };
    threads.iter().map(without_id).collect()
}

#[test]
fn li_hudak_runs_the_smallest_read_then_upgrade_clean() {
    let scenario = scenario::read_then_upgrade(&READ_THEN_UPGRADE_ORDERS);
    let outcome = run_scenario(&scenario, &RunConfig::plain("li_hudak"));
    assert_eq!(outcome.error, None);
    assert!(outcome.expectation_findings(&scenario).is_empty());
    assert_eq!(outcome.final_words_at, vec![2; 9]);
}
