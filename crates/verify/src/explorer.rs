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
//!   recorded decision, keep the prefix, let everything after fall back to
//!   canonical;
//! * candidates are normalized (trailing canonical choices trimmed) and
//!   deduplicated, so equivalent paths run once — the sleep-set-lite half
//!   of the pruning;
//! * a **preemption budget** bounds the number of non-canonical decisions
//!   per path (bounded-preemption search: most protocol bugs need only one
//!   or two adversarial deviations, and the budget turns an exponential
//!   space into a small polynomial one).

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dsmpm2_sim::{EventChoice, ScheduleController, SimTime};

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
    path: Vec<u8>,
    cursor: AtomicUsize,
    recorded: Mutex<Vec<Choice>>,
}

impl ReplayController {
    /// A controller replaying `path`.
    pub fn new(path: Vec<u8>) -> Self {
        ReplayController {
            path,
            cursor: AtomicUsize::new(0),
            recorded: Mutex::new(Vec::new()),
        }
    }

    /// The canonical controller (replays the all-zeros path).
    pub fn canonical() -> Self {
        Self::new(Vec::new())
    }

    /// The decisions the controlled run actually took, in encounter order.
    pub fn recorded(&self) -> Vec<Choice> {
        self.recorded.lock().clone()
    }

    fn next_pick(&self, arity: u32, is_delivery: bool) -> u32 {
        let position = self.cursor.fetch_add(1, Ordering::SeqCst);
        let requested = self.path.get(position).copied().unwrap_or(0) as u32;
        let picked = requested.min(arity.saturating_sub(1));
        self.recorded.lock().push(Choice {
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

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 512,
            preemption_budget: 1,
        }
    }
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
    /// Candidate paths skipped because an equivalent path already ran.
    pub dedup_hits: u64,
    /// True if `max_schedules` cut the search short.
    pub capped: bool,
}

/// Explore `scenario`'s schedule space under `base` (whose `controller`
/// field is overridden per run). `on_run` judges each completed
/// schedule and returns its findings; the explorer tags them with the
/// decision path that produced them.
pub fn explore(
    scenario: &Scenario,
    base: &RunConfig,
    cfg: &ExploreConfig,
    on_run: &mut dyn FnMut(&[u8], &RunOutcome) -> Vec<Finding>,
) -> (ExploreStats, Vec<Finding>) {
    let mut stats = ExploreStats::default();
    let mut findings = Vec::new();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut stack: Vec<Vec<u8>> = vec![Vec::new()];
    seen.insert(Vec::new());

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
                let mut candidate: Vec<u8> = recorded[..position]
                    .iter()
                    .map(|c| c.picked.min(255) as u8)
                    .collect();
                candidate.push(alt.min(255) as u8);
                while candidate.last() == Some(&0) {
                    candidate.pop();
                }
                let preemptions = candidate.iter().filter(|&&pick| pick != 0).count();
                if preemptions > cfg.preemption_budget {
                    stats.pruned_by_budget += 1;
                    continue;
                }
                if !seen.insert(candidate.clone()) {
                    stats.dedup_hits += 1;
                    continue;
                }
                stack.push(candidate);
            }
        }
    }
    (stats, findings)
}
