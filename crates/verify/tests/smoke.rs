//! Smoke tests for the verify harness: the checkers find what they should
//! and stay silent where they must.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dsmpm2_verify::scenario;
use dsmpm2_verify::{explore, run_scenario, ExploreConfig, FindingKind, RunConfig};

#[test]
fn locked_counter_is_clean_under_every_builtin() {
    for protocol in ["li_hudak", "erc_sw", "hbrc_mw", "java_pf", "migrate_thread"] {
        let scenario = scenario::locked_counter();
        let outcome = run_scenario(&scenario, &RunConfig::checked(protocol));
        assert_eq!(outcome.error, None, "{protocol}");
        let findings = outcome.all_findings(&scenario);
        assert!(findings.is_empty(), "{protocol}: {findings:?}");
        assert_eq!(outcome.final_words, vec![2], "{protocol}");
    }
}

/// Every run holds one process-wide gate. A run that panics while holding
/// it poisons it, and the next run must still take it: one failing scenario
/// may not fail every later one.
#[test]
fn a_run_that_panics_does_not_block_the_next_one() {
    let scenario = scenario::locked_counter();
    let unknown = RunConfig::plain("no_such_protocol");
    let panicked = catch_unwind(AssertUnwindSafe(|| run_scenario(&scenario, &unknown)));
    assert!(panicked.is_err(), "an unknown protocol must panic");
    let outcome = run_scenario(&scenario, &RunConfig::checked("li_hudak"));
    assert_eq!(outcome.error, None);
    assert_eq!(outcome.final_words, vec![2]);
}

#[test]
fn unsynchronized_sharing_is_a_race_under_relaxed_models_only() {
    let scenario = scenario::unsynced_pair();
    let relaxed = run_scenario(&scenario, &RunConfig::checked("erc_sw"));
    let races: Vec<_> = relaxed
        .race_findings()
        .into_iter()
        .filter(|f| f.kind == FindingKind::DataRace)
        .collect();
    assert!(!races.is_empty(), "erc_sw must report the race");

    let sc = run_scenario(&scenario, &RunConfig::checked("li_hudak"));
    let races: Vec<_> = sc
        .race_findings()
        .into_iter()
        .filter(|f| f.kind == FindingKind::DataRace)
        .collect();
    assert!(races.is_empty(), "li_hudak serializes accesses: {races:?}");
}

#[test]
fn explorer_finds_every_schedule_of_the_locked_counter_clean() {
    let scenario = scenario::locked_counter();
    let base = RunConfig::checked("li_hudak");
    let (stats, findings) = explore(
        &scenario,
        &base,
        &ExploreConfig {
            max_schedules: 64,
            preemption_budget: 1,
        },
        &mut |_path, outcome| outcome.all_findings(&scenario),
    );
    assert!(stats.schedules_run >= 2, "{stats:?}");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn stale_done_injection_is_gated_on_head() {
    let scenario = scenario::stale_done_injection();
    let outcome = run_scenario(&scenario, &RunConfig::checked("li_hudak"));
    assert_eq!(outcome.error, None);
    let findings = outcome.all_findings(&scenario);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn line_exclusive_writers_hold_per_line_exclusivity() {
    for protocol in ["li_hudak_fixed", "erc_sw", "hbrc_mw"] {
        let scenario = scenario::line_exclusive_writers();
        let outcome = run_scenario(&scenario, &RunConfig::checked(protocol));
        assert_eq!(outcome.error, None, "{protocol}");
        let findings = outcome.all_findings(&scenario);
        assert!(findings.is_empty(), "{protocol}: {findings:?}");
        assert_eq!(outcome.final_words_at, vec![2, 2], "{protocol}");
    }
    // A protocol without sub-page support clamps the scenario's granularity
    // back to whole pages: the page ping-pongs between the writers instead
    // of the lines staying put, but the final memory is identical and every
    // invariant still holds at the page unit.
    let scenario = scenario::line_exclusive_writers();
    let outcome = run_scenario(&scenario, &RunConfig::checked("li_hudak"));
    assert_eq!(outcome.error, None);
    let findings = outcome.all_findings(&scenario);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(outcome.final_words_at, vec![2, 2]);
}

#[test]
fn line_copyset_coverage_keeps_readers_visible_and_lines_independent() {
    for protocol in ["li_hudak_fixed", "erc_sw", "hbrc_mw"] {
        let scenario = scenario::line_copyset_coverage();
        let outcome = run_scenario(&scenario, &RunConfig::checked(protocol));
        assert_eq!(outcome.error, None, "{protocol}");
        let findings = outcome.all_findings(&scenario);
        assert!(findings.is_empty(), "{protocol}: {findings:?}");
        assert_eq!(outcome.final_words_at, vec![9, 40], "{protocol}");
        // Node 1 re-reads line 0 after the writer's barrier: the update
        // must have reached it (copyset coverage made the invalidation
        // land), and node 2's copy of line 1 must have survived line 0's
        // traffic untouched.
        assert_eq!(outcome.observed[1].last().copied(), Some(9), "{protocol}");
        assert_eq!(outcome.observed[2].last().copied(), Some(40), "{protocol}");
    }
}

#[test]
fn a_read_racing_an_acquisition_never_escapes_coherence() {
    let scenario = scenario::read_races_acquisition();
    let outcome = run_scenario(&scenario, &RunConfig::checked("li_hudak_fixed"));
    assert_eq!(outcome.error, None);
    let findings = outcome.all_findings(&scenario);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(outcome.final_words, vec![5]);
    // After the closing barrier the reader must observe the writer's value:
    // a serve that handed out a copy without registering it in the copyset
    // would leave the reader pinned at the stale 3 forever.
    assert_eq!(outcome.observed[1].last().copied(), Some(5));
}

#[test]
fn explorer_finds_every_read_race_schedule_coherent() {
    let scenario = scenario::read_races_acquisition();
    let base = RunConfig::checked("li_hudak_fixed");
    let (stats, findings) = explore(
        &scenario,
        &base,
        &ExploreConfig {
            max_schedules: 48,
            preemption_budget: 1,
        },
        &mut |_path, outcome| {
            let mut findings = outcome.all_findings(&scenario);
            if outcome.error.is_none() && outcome.observed[1].last().copied() != Some(5) {
                findings.push(dsmpm2_verify::Finding {
                    kind: FindingKind::FinalMemory,
                    detail: format!(
                        "reader's post-barrier read observed {:?}, expected 5",
                        outcome.observed[1].last()
                    ),
                });
            }
            findings
        },
    );
    assert!(stats.schedules_run >= 2, "{stats:?}");
    assert!(findings.is_empty(), "{findings:?}");
}
