//! Mutation gate: re-introduced historical protocol bugs.
//!
//! Seven bugs found and fixed in the protocol library and the generic core
//! are kept compilable behind `--cfg dsm_mutant`, each selected at
//! runtime by the `DSM_MUTANT` environment variable. The `dsmpm2-verify`
//! mutation gate rebuilds with the cfg, activates each mutant in turn, and
//! asserts that the schedule explorer, race detector, or invariant oracle
//! catches every one while an unmutated build passes clean — evidence the
//! checkers have teeth rather than vacuously succeeding.
//!
//! In a normal build (no `--cfg dsm_mutant`) [`active`] is a `const`-foldable
//! `false` and every mutant arm compiles out entirely.
//!
//! The mutants, and the checker expected to kill each:
//!
//! | name | defect | killed by |
//! |------|--------|-----------|
//! | `copyset_wipe` | home's read server wipes the copyset before inserting the new reader, forgetting earlier readers | copyset ⊇ readers invariant |
//! | `pre_revoke_diff_push` | release-time diff flush skips ack bookkeeping and returns before homes applied the diffs | stale-read race under `Permuted` delivery |
//! | `hint_rewind` | home applies `AcquireDone` version updates unconditionally, letting a duplicated stale notice rewind the succession record | owner-version monotonicity oracle under `Lossy` duplication |
//! | `doomed_frame_write` | protocol switch evicts remote frames before consolidating their modified contents | final-memory divergence on the switch scenario |
//! | `sync_scope_leak` | every lock hook gets the node's whole modified set and frame list, read anew per hook, not its own protocol's part | wrong final word on the mixed-protocol release scenario |
//! | `home_defers_reads` | a unit's home parks a read request behind its own in-flight fetch, closing a wait-for cycle with a node that parks the home's request | deadlock on `read_then_upgrade` under `li_hudak_fixed`, explored under `Permuted` delivery |
//! | `stale_copy_installed` | a node installs a read copy whose owner was succeeded by the one whose invalidation it already applied, leaving a copy the new owner's copyset does not list | copyset ⊇ readers invariant on `read_then_upgrade`, explored under `Permuted` delivery |

/// Mutant names the gate can activate via `DSM_MUTANT`.
pub const MUTANTS: &[&str] = &[
    "copyset_wipe",
    "pre_revoke_diff_push",
    "hint_rewind",
    "doomed_frame_write",
    "sync_scope_leak",
    "home_defers_reads",
    "stale_copy_installed",
];

/// True if the named mutant is compiled in (`--cfg dsm_mutant`) and selected
/// by the `DSM_MUTANT` environment variable (read once per process).
#[cfg(dsm_mutant)]
pub fn active(name: &str) -> bool {
    use std::sync::OnceLock;
    static SELECTED: OnceLock<Option<String>> = OnceLock::new();
    SELECTED
        .get_or_init(|| std::env::var("DSM_MUTANT").ok())
        .as_deref()
        == Some(name)
}

/// True if the named mutant is compiled in (`--cfg dsm_mutant`) and selected
/// by the `DSM_MUTANT` environment variable (read once per process).
#[cfg(not(dsm_mutant))]
#[inline(always)]
pub fn active(_name: &str) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutant_names_are_distinct() {
        let mut names = MUTANTS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MUTANTS.len());
    }

    #[cfg(not(dsm_mutant))]
    #[test]
    fn mutants_compile_out_of_normal_builds() {
        for name in MUTANTS {
            assert!(!active(name));
        }
    }
}
