//! Bounded schedule-space exploration.
//!
//! The explorer drives the engine's [`ScheduleController`] seam with a
//! [`ReplayController`]: a run is identified by its *decision path* — the
//! choice taken at every choice point, in encounter order, with 0 the
//! canonical choice — and replaying a path reproduces the run bit for bit.
//! A DFS over paths enumerates the schedule space:
//!
//! * the canonical path (all zeros) runs first;
//! * every completed run contributes candidate deviations: flip one
//!   recorded decision at or past the end of its own path, keep the
//!   prefix, let everything after fall back to canonical, and trim the
//!   trailing canonical choices. Two runs with distinct paths never yield
//!   the same candidate, so every path runs once without a set of seen
//!   ones — as long as each run takes the decisions of its path, which the
//!   explorer asserts: a replay that departs from its path is a
//!   determinism bug and panics;
//! * a **preemption budget** bounds the number of non-canonical decisions
//!   per path (bounded-preemption search: most protocol bugs need only one
//!   or two adversarial deviations, and the budget turns an exponential
//!   space into a small polynomial one). It is the only pruning.

use std::sync::Arc;

use dsmpm2_sim::{EventChoice, ScheduleController, SimTime, SliceCell};

use crate::log::Finding;
use crate::runner::{run_scenario, RunConfig, RunOutcome};
use crate::scenario::Scenario;

/// One recorded decision of a controlled run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Choice {
    /// Number of alternatives that were available.
    pub arity: u32,
    /// The alternative taken (after clamping).
    pub picked: u32,
    /// True for a transport delivery-slot choice, false for an event-order
    /// choice.
    pub is_delivery: bool,
}

/// A [`ScheduleController`] that replays a decision path and records every
/// choice point it encounters. Positions beyond the path fall back to the
/// canonical choice 0; requested picks are clamped into range.
pub struct ReplayController {
    path: Vec<u32>,
    recorded: SliceCell<Vec<Choice>>,
}

impl ReplayController {
    /// A controller replaying `path`.
    pub fn new(path: Vec<u32>) -> Self {
        ReplayController {
            path,
            recorded: SliceCell::new(Vec::new()),
        }
    }

    /// The decisions the controlled run actually took, in encounter order.
    pub fn recorded(&self) -> Vec<Choice> {
        self.recorded.borrow().clone()
    }

    fn next_pick(&self, arity: u32, is_delivery: bool) -> u32 {
        let mut recorded = self.recorded.borrow();
        let requested = self.path.get(recorded.len()).copied().unwrap_or(0);
        let picked = requested.min(arity.saturating_sub(1));
        recorded.push(Choice {
            arity,
            picked,
            is_delivery,
        });
        picked
    }
}

impl ScheduleController for ReplayController {
    fn choose_event(&self, _now: SimTime, choices: &[EventChoice]) -> usize {
        self.next_pick(choices.len() as u32, false) as usize
    }

    fn choose_delivery(&self, _now: SimTime, _from: u64, _to: u64, options: u32) -> u32 {
        self.next_pick(options, true)
    }
}

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Hard cap on schedules run (the explorer reports if it was hit).
    pub max_schedules: usize,
    /// Maximum non-canonical decisions per path.
    pub preemption_budget: usize,
}

/// Exploration statistics (printed by the CI gate).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreStats {
    /// Schedules actually executed.
    pub schedules_run: usize,
    /// Total choice points encountered across all runs.
    pub choice_points: u64,
    /// Candidate paths pruned by the preemption budget.
    pub pruned_by_budget: u64,
    /// True if `max_schedules` cut the search short.
    pub capped: bool,
}

/// Explore `scenario`'s schedule space under `base` (whose `controller`
/// field is overridden per run). `on_run` judges each completed
/// schedule and returns its findings; the explorer tags them with the
/// decision path that produced them. Panics if a run does not take the
/// decisions of its path.
pub fn explore(
    scenario: &Scenario,
    base: &RunConfig,
    cfg: &ExploreConfig,
    on_run: &mut dyn FnMut(&[u32], &RunOutcome) -> Vec<Finding>,
) -> (ExploreStats, Vec<Finding>) {
    let mut stats = ExploreStats::default();
    let mut findings = Vec::new();
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];

    while let Some(path) = stack.pop() {
        if stats.schedules_run >= cfg.max_schedules {
            stats.capped = true;
            break;
        }
        let controller = Arc::new(ReplayController::new(path.clone()));
        let mut run_cfg = base.clone();
        run_cfg.controller = Some(controller.clone());
        let outcome = run_scenario(scenario, &run_cfg);
        stats.schedules_run += 1;
        let recorded = controller.recorded();
        assert_replayed(&path, &recorded);
        stats.choice_points += recorded.len() as u64;
        for finding in on_run(&path, &outcome) {
            findings.push(Finding {
                detail: format!("[path {path:?}] {}", finding.detail),
                ..finding
            });
        }
        // Deviate only at positions at or beyond this path's frontier:
        // alternatives at earlier positions were enqueued when the prefix
        // itself was explored.
        for position in path.len()..recorded.len() {
            let choice = recorded[position];
            for alt in 0..choice.arity {
                if alt == choice.picked {
                    continue;
                }
                let mut candidate: Vec<u32> =
                    recorded[..position].iter().map(|c| c.picked).collect();
                candidate.push(alt);
                while candidate.last() == Some(&0) {
                    candidate.pop();
                }
                let preemptions = candidate.iter().filter(|&&pick| pick != 0).count();
                if preemptions > cfg.preemption_budget {
                    stats.pruned_by_budget += 1;
                    continue;
                }
                stack.push(candidate);
            }
        }
    }
    (stats, findings)
}

/// Panics unless `recorded`, what a [`ReplayController`] replaying `path`
/// recorded, took every decision of `path`: the explorer only builds paths
/// that a run took up to their last pick, so a difference means a replay
/// diverged.
fn assert_replayed(path: &[u32], recorded: &[Choice]) {
    let taken = |position: usize| recorded.get(position).map(|c| c.picked);
    if let Some(position) = (0..path.len()).find(|&p| taken(p) != Some(path[p])) {
        panic!(
            "replay of path {path:?} diverged at position {position}: requested {}, took {:?}",
            path[position],
            taken(position)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A controller that replays `path` over delivery choices of `arities`,
    /// and what it recorded.
    fn replay(path: Vec<u32>, arities: &[u32]) -> Vec<Choice> {
        let controller = ReplayController::new(path);
        for &options in arities {
            controller.choose_delivery(SimTime::ZERO, 0, 1, options);
        }
        controller.recorded()
    }

    #[test]
    fn a_faithful_replay_passes() {
        let path = vec![0, 2, 1];
        assert_replayed(&path, &replay(path.clone(), &[2, 3, 2, 4]));
    }

    #[test]
    #[should_panic(
        expected = "replay of path [0, 3] diverged at position 1: requested 3, took Some(1)"
    )]
    fn a_clamped_pick_fails_the_replay() {
        let path = vec![0, 3];
        assert_replayed(&path, &replay(path.clone(), &[2, 2]));
    }

    #[test]
    #[should_panic(expected = "diverged at position 1: requested 1, took None")]
    fn a_run_that_ends_before_its_path_fails_the_replay() {
        let path = vec![0, 1];
        assert_replayed(&path, &replay(path.clone(), &[2]));
    }
}
