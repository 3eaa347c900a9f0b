//! CI gate for the verify layer.
//!
//! Modes (first CLI argument, default `all`):
//!
//! * `explorer` — exhaustively explore the smoke scenarios' schedule spaces
//!   and assert every schedule is finding-free; prints pruning statistics.
//! * `races` — run the workload sweep (shared counter, Jacobi, map
//!   colouring across the registered protocols) with the race detector and
//!   invariant oracle attached and assert it comes back clean; then run the
//!   unsynchronised-seeding scenario and assert the detector finds its race.
//! * `inputs` — run `read_then_upgrade` on every one of its 6⁶ page-order
//!   assignments under `li_hudak_fixed` and `li_hudak`; print each
//!   protocol's deadlock count and a fingerprint of every run's outcome,
//!   and fail on a wrong final word in a run that did not deadlock, on any
//!   other error, or on a deadlock count other than the pinned one.
//! * `mutants` — run the kill battery. With `DSM_MUTANT=<name>` set (and
//!   the binary built with `RUSTFLAGS=--cfg dsm_mutant`) the battery must
//!   catch the mutant (exit 0 on catch, 1 on escape); with no mutant
//!   selected it must come back clean.
//!
//! Exit status 0 = gate passed.

use std::process::ExitCode;

use dsmpm2_verify::scenario;
use dsmpm2_verify::{
    explore, run_scenario, with_recording, ExploreConfig, Finding, LogRecord, RunConfig, RunOutcome,
};

use dsmpm2_core::{PermutedConfig, Pm2Config, TransportTuning};
use dsmpm2_sim::SimError;
use dsmpm2_workloads::jacobi::{run_jacobi, JacobiConfig};
use dsmpm2_workloads::map_coloring::{run_map_coloring, solve_sequential, ColoringConfig};
use dsmpm2_workloads::micro::run_shared_counter;

/// Protocols the micro/colouring workloads can select (the builtin set).
const BUILTIN: [&str; 6] = [
    "li_hudak",
    "migrate_thread",
    "erc_sw",
    "hbrc_mw",
    "java_ic",
    "java_pf",
];

/// Protocols the Jacobi kernel can select (everything except `entry_sw`,
/// which needs explicit lock/region binding).
const JACOBI: [&str; 8] = [
    "li_hudak",
    "li_hudak_fixed",
    "migrate_thread",
    "erc_sw",
    "hbrc_mw",
    "hlrc_notices",
    "java_ic",
    "java_pf",
];

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let ok = match mode.as_str() {
        "explorer" => explorer_gate(),
        "races" => race_gate(),
        "inputs" => input_gate(),
        "mutants" => mutant_gate(),
        "all" => {
            // Run every stage even if an earlier one fails, so CI logs show
            // the full picture.
            let explorer = explorer_gate();
            let races = race_gate();
            let inputs = input_gate();
            let mutants = mutant_gate();
            explorer && races && inputs && mutants
        }
        other => {
            eprintln!("unknown mode {other}; expected explorer|races|inputs|mutants|all");
            false
        }
    };
    if ok {
        println!("verify_gate({mode}): PASS");
        ExitCode::SUCCESS
    } else {
        println!("verify_gate({mode}): FAIL");
        ExitCode::FAILURE
    }
}

fn permuted(options: u8) -> TransportTuning {
    TransportTuning::Permuted(PermutedConfig { options })
}

/// The schedule-exploration smoke set: every schedule of each configuration
/// must be free of findings.
fn explorer_gate() -> bool {
    let mut ok = true;
    let configs: Vec<(scenario::Scenario, &str, TransportTuning, usize)> = vec![
        (
            scenario::locked_counter(),
            "li_hudak",
            TransportTuning::ideal(),
            2,
        ),
        (scenario::locked_counter(), "erc_sw", permuted(3), 1),
        (scenario::stale_release(), "hbrc_mw", permuted(4), 1),
        (
            scenario::migratory_increment(),
            "migrate_thread",
            TransportTuning::ideal(),
            2,
        ),
        (scenario::reader_flock(), "li_hudak", permuted(3), 1),
    ];
    for (scn, protocol, transport, budget) in configs {
        let base = RunConfig {
            transport,
            ..RunConfig::checked(protocol)
        };
        let explore_cfg = ExploreConfig {
            max_schedules: 400,
            preemption_budget: budget,
        };
        let (stats, findings) = explore(&scn, &base, &explore_cfg, &mut |_path, outcome| {
            outcome.all_findings(&scn)
        });
        println!(
            "explorer {}/{protocol} ({}): {} schedules, {} choice points, \
             {} budget-pruned, {} dedup hits{}",
            scn.name,
            base.transport.name(),
            stats.schedules_run,
            stats.choice_points,
            stats.pruned_by_budget,
            stats.dedup_hits,
            if stats.capped { " (CAPPED)" } else { "" },
        );
        for finding in &findings {
            println!("  FINDING {finding}");
        }
        ok &= findings.is_empty();
    }
    ok
}

/// The workload sweep: every (workload, protocol) pair must be free of
/// invariant findings and data races — they are all lock- or
/// barrier-synchronized programs.
fn race_gate() -> bool {
    let mut ok = true;
    for protocol in BUILTIN {
        let (total, log, step) =
            with_recording(|| run_shared_counter(&Pm2Config::bip_myrinet(2), 2, protocol));
        ok &= report_workload("shared_counter", protocol, &log, &step, total == 4);
    }
    for protocol in JACOBI {
        let (result, log, step) = with_recording(|| run_jacobi(&JacobiConfig::small(2), protocol));
        ok &= report_workload("jacobi", protocol, &log, &step, result.checksum.is_finite());
    }
    // The colouring heap requires a Java-consistency protocol.
    for protocol in ["java_ic", "java_pf"] {
        let config = ColoringConfig::small(2, 6);
        let (result, log, step) = with_recording(|| run_map_coloring(&config, protocol));
        let oracle = solve_sequential(config.num_states);
        ok &= report_workload(
            "map_coloring",
            protocol,
            &log,
            &step,
            result.best_cost == oracle,
        );
    }
    // The canary: a seeding race the detector must find, under the same two
    // protocols, as the same DataRace findings on every run.
    let scn = scenario::unsynced_seeding();
    for protocol in ["java_ic", "java_pf"] {
        let runs: Vec<RunOutcome> = (0..2)
            .map(|_| run_scenario(&scn, &RunConfig::checked(protocol)))
            .collect();
        let races: Vec<Vec<Finding>> = runs.iter().map(RunOutcome::race_findings).collect();
        let expected = runs
            .iter()
            .all(|run| run.step_findings.is_empty() && run.expectation_findings(&scn).is_empty())
            && !races[0].is_empty()
            && races[0] == races[1]
            && races[0]
                .iter()
                .all(|f| f.kind == dsmpm2_verify::FindingKind::DataRace);
        println!(
            "races {}/{protocol}: {} log records, {} step findings, {} race findings \
             (unsynchronised seeding — expected true positive)",
            scn.name,
            runs[0].log.len(),
            runs[0].step_findings.len(),
            races[0].len(),
        );
        if !expected {
            for finding in runs.iter().flat_map(|run| run.all_findings(&scn)) {
                println!("  FINDING {finding}");
            }
        }
        ok &= expected;
    }
    ok
}

/// Deadlocks of `read_then_upgrade` over all its page orders, per protocol:
/// what ROADMAP's "Known red" measured. Fixing the read-then-upgrade
/// deadlock takes `li_hudak_fixed`'s count to 0.
const PINNED_DEADLOCKS: [(&str, usize); 2] = [("li_hudak_fixed", 5_040), ("li_hudak", 0)];

/// The six orders of three pages, lexicographic.
const PERMUTATIONS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Page orders number `index` of the 6⁶: base-6 digits, thread 0's round 1
/// the least significant.
fn page_orders(mut index: usize) -> scenario::PageOrders {
    let mut orders = [[[0; 3]; 2]; 3];
    for order in orders.iter_mut().flatten() {
        *order = PERMUTATIONS[index % 6];
        index /= 6;
    }
    orders
}

/// FNV-1a, continued over `bytes`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every page-order assignment of `read_then_upgrade`, under each protocol
/// of [`PINNED_DEADLOCKS`]: a run either completes with every slot's final
/// word right or deadlocks, and the deadlocks number as pinned. The
/// fingerprint folds each run's final time, event count, final words and,
/// for a deadlock, its instant and parked threads with the reasons they
/// parked on, so any change to what a run computes shows in it.
fn input_gate() -> bool {
    let inputs = PERMUTATIONS.len().pow(6);
    let mut ok = true;
    for (protocol, pinned) in PINNED_DEADLOCKS {
        let config = RunConfig::plain(protocol);
        let (mut deadlocks, mut wrong) = (0, 0);
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        for index in 0..inputs {
            let scn = scenario::read_then_upgrade(&page_orders(index));
            let outcome = run_scenario(&scn, &config);
            fingerprint = fnv(fingerprint, &outcome.final_time_ns.to_le_bytes());
            fingerprint = fnv(fingerprint, &outcome.events.to_le_bytes());
            match &outcome.error {
                None => {
                    let findings = outcome.expectation_findings(&scn);
                    if !findings.is_empty() {
                        wrong += 1;
                        println!("  input {index}: {}", findings[0]);
                    }
                    for &word in &outcome.final_words_at {
                        fingerprint = fnv(fingerprint, &word.to_le_bytes());
                    }
                }
                Some(SimError::Deadlock {
                    at, parked_threads, ..
                }) => {
                    deadlocks += 1;
                    fingerprint = fnv(fingerprint, &at.as_nanos().to_le_bytes());
                    for thread in parked_threads {
                        fingerprint = fnv(fingerprint, thread.as_bytes());
                    }
                }
                Some(error) => {
                    wrong += 1;
                    println!("  input {index}: {error:?}");
                }
            }
        }
        println!(
            "inputs read_then_upgrade/{protocol}: {inputs} page orders, {deadlocks} deadlock \
             (pinned {pinned}), {wrong} wrong, fingerprint {fingerprint:016x}"
        );
        ok &= deadlocks == pinned && wrong == 0;
    }
    ok
}

fn report_workload(
    workload: &str,
    protocol: &str,
    log: &[LogRecord],
    step_findings: &[Finding],
    result_ok: bool,
) -> bool {
    let races = dsmpm2_verify::hb::analyze(log);
    let clean = step_findings.is_empty() && races.is_empty() && result_ok;
    println!(
        "races {workload}/{protocol}: {} log records, {} step findings, {} race findings{}",
        log.len(),
        step_findings.len(),
        races.len(),
        if result_ok { "" } else { " (WRONG RESULT)" },
    );
    for finding in step_findings.iter().chain(races.iter()) {
        println!("  FINDING {finding}");
    }
    clean
}

/// The mutant kill battery: a fixed set of checker configurations that is
/// clean on HEAD and must produce at least one finding under each of the
/// four re-introduced bugs of `dsmpm2_core::mutant`.
fn battery() -> Vec<Finding> {
    let mut findings = Vec::new();

    // copyset_wipe: readers forgotten from the copyset surface as a
    // copyset-coverage (or stale final value) violation in reader_flock.
    let scn = scenario::reader_flock();
    let outcome = run_scenario(&scn, &RunConfig::checked("li_hudak"));
    findings.extend(tag("reader_flock/li_hudak", outcome.all_findings(&scn)));

    // pre_revoke_diff_push: a release that returns before its diffs landed
    // loses an increment on some delivery schedule of stale_release.
    let scn = scenario::stale_release();
    let base = RunConfig {
        transport: permuted(4),
        ..RunConfig::checked("hbrc_mw")
    };
    let cfg = ExploreConfig {
        max_schedules: 400,
        preemption_budget: 1,
    };
    let (_, explored) = explore(&scn, &base, &cfg, &mut |_path, outcome: &RunOutcome| {
        outcome.all_findings(&scn)
    });
    findings.extend(tag("stale_release/hbrc_mw", explored));

    // hint_rewind: the forged stale AcquireDone must be ignored by the
    // version gate; without it the monotonicity oracle fires.
    let scn = scenario::stale_done_injection();
    let outcome = run_scenario(&scn, &RunConfig::checked("li_hudak"));
    findings.extend(tag(
        "stale_done_injection/li_hudak",
        outcome.all_findings(&scn),
    ));

    // doomed_frame_write: the protocol switch must consolidate remote
    // frames before evicting them.
    let scn = scenario::switch_survivor("migrate_thread");
    let outcome = run_scenario(&scn, &RunConfig::checked("li_hudak"));
    findings.extend(tag("switch_survivor/li_hudak", outcome.all_findings(&scn)));

    findings
}

fn tag(label: &str, findings: Vec<Finding>) -> Vec<Finding> {
    findings
        .into_iter()
        .map(|f| Finding {
            detail: format!("{label}: {}", f.detail),
            ..f
        })
        .collect()
}

fn mutant_gate() -> bool {
    let selected = std::env::var("DSM_MUTANT").ok();
    let findings = battery();
    match selected.as_deref() {
        None | Some("") => {
            for finding in &findings {
                println!("  FINDING {finding}");
            }
            println!(
                "mutants: HEAD battery: {} findings (expected 0)",
                findings.len()
            );
            findings.is_empty()
        }
        Some(name) => {
            if !dsmpm2_core::mutant::MUTANTS.contains(&name) {
                println!("mutants: unknown mutant {name}");
                return false;
            }
            if !dsmpm2_core::mutant::active(name) {
                println!(
                    "mutants: {name} selected but not compiled in — rebuild with \
                     RUSTFLAGS=\"--cfg dsm_mutant\""
                );
                return false;
            }
            if findings.is_empty() {
                println!("mutants: {name}: 0 findings — ESCAPED");
                false
            } else {
                println!(
                    "mutants: {name}: {} findings — CAUGHT (first: {})",
                    findings.len(),
                    findings[0]
                );
                true
            }
        }
    }
}
