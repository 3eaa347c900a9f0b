//! The smallest reproducer of the `li_hudak_fixed` read-then-upgrade
//! deadlock (ROADMAP "Known red", direction 1), pinned the way
//! `tests/read_then_upgrade.rs` pins the 4-node one: as it behaves today.
//! Direction 1 inverts the first test: the fixed protocol must run this
//! input clean.

use dsmpm2_verify::scenario;
use dsmpm2_verify::{run_scenario, RunConfig};

#[test]
fn li_hudak_fixed_deadlocks_on_the_smallest_read_then_upgrade() {
    let scenario = scenario::read_then_upgrade();
    assert!(scenario.threads.iter().all(|t| t.ops.len() == 14));
    let outcome = run_scenario(&scenario, &RunConfig::plain("li_hudak_fixed"));
    let error = outcome.error.as_deref().expect("li_hudak_fixed deadlocks");
    // The instant and the parked set ROADMAP "Known red" records, thread ids
    // aside: both application threads that read first and the request
    // handlers serving them wait on page faults, node 2's thread waits on
    // its barrier call, and the barrier's handler on node 0 at the barrier.
    assert_eq!(
        without_thread_ids(error),
        "Deadlock { at: 2828.714us, parked_threads: [\
         \"read_then_upgrade-t0 blocked on PageFault\", \
         \"read_then_upgrade-t1 blocked on PageFault\", \
         \"read_then_upgrade-t2 blocked on Rpc\", \
         \"rpc-dsm@N0 blocked on PageFault\", \
         \"rpc-dsm@N1 blocked on PageFault\", \
         \"rpc-dsm_barrier@N0 blocked on Barrier\"], \
         events: EVENTS }"
            .replace("EVENTS", &outcome.events.to_string()),
    );
    assert!(outcome.events > 0, "a deadlocked run reports its events");
    assert_eq!(
        outcome.expectation_findings(&scenario).len(),
        1,
        "the failed run is one final-memory finding"
    );
}

/// `text` without the ` (T<id>)` after each thread name.
fn without_thread_ids(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(" (T") {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 3..];
        let digits = tail.len() - tail.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        rest = tail[digits..].strip_prefix(')').expect("(T<id>)");
    }
    out.push_str(rest);
    out
}

#[test]
fn li_hudak_runs_the_smallest_read_then_upgrade_clean() {
    let scenario = scenario::read_then_upgrade();
    let outcome = run_scenario(&scenario, &RunConfig::plain("li_hudak"));
    assert_eq!(outcome.error, None);
    assert!(outcome.expectation_findings(&scenario).is_empty());
    assert_eq!(outcome.final_words_at, vec![2; 9]);
}
