//! Scenario execution harness.
//!
//! [`run_scenario`] builds an engine and a DSM runtime for a [`Scenario`],
//! interprets its thread op lists, and returns a [`RunOutcome`] capturing
//! everything the checkers compare between runs: final memory, final
//! virtual time, event count, per-thread observations, the recorded
//! verification log and any per-step invariant findings.
//!
//! Global-hook installations must not overlap, and an uninstrumented
//! runtime constructed while hooks are installed would capture them; every
//! run therefore serializes on one process-wide gate.

use std::sync::{Arc, Mutex, PoisonError};

use dsmpm2_core::{
    install_global_verify_hooks, line_of_offset, DsmAttr, DsmRuntime, DsmScalar, Engine,
    HomePolicy, NodeId, Pm2Config, TransportTuning, PAGE_SIZE,
};
use dsmpm2_protocols::register_all_protocols;
use dsmpm2_sim::{ScheduleController, SimError, SliceCell};

use crate::log::{Finding, FindingKind, LogRecord, RecordingHooks};
use crate::scenario::{Op, Scenario};

/// Held for the whole of one run. A run that panics poisons it, but the
/// gate guards no data, so the next run takes it anyway.
static RUN_GATE: Mutex<()> = Mutex::new(());

/// How much observation a run carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instrument {
    /// No hooks installed: the baseline the conformance suite compares
    /// instrumented runs against.
    Off,
    /// Record the event log, skip per-step invariant probes.
    Record,
    /// Record the event log and probe per-step invariants.
    Check,
}

/// Event budget of one scenario run: exceeding it fails the run (the
/// livelock detector).
const EVENT_LIMIT: u64 = 2_000_000;

/// Configuration of one scenario run.
#[derive(Clone)]
pub struct RunConfig {
    /// Default protocol name for every page.
    pub protocol: String,
    /// Wire-level transport selection.
    pub transport: TransportTuning,
    /// Schedule controller.
    pub controller: Option<Arc<dyn ScheduleController>>,
    /// Observation level.
    pub instrument: Instrument,
}

impl RunConfig {
    /// A plain uninstrumented run of `protocol` on the default transport.
    pub fn plain(protocol: &str) -> Self {
        RunConfig {
            protocol: protocol.to_string(),
            transport: TransportTuning::default(),
            controller: None,
            instrument: Instrument::Off,
        }
    }

    /// Same, with log recording and per-step invariant checking on.
    pub fn checked(protocol: &str) -> Self {
        RunConfig {
            instrument: Instrument::Check,
            ..Self::plain(protocol)
        }
    }
}

/// Everything observable about one completed scenario run.
#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    /// Final authoritative word of each page.
    pub final_words: Vec<u64>,
    /// Final authoritative words at the scenario's `expected_at` offsets
    /// (parallel to `scenario.expected_at`; empty when it is).
    pub final_words_at: Vec<u64>,
    /// Virtual time at which the run finished.
    pub final_time_ns: u64,
    /// Events the engine processed, also when the run deadlocked or a
    /// thread panicked.
    pub events: u64,
    /// Engine error, if the run did not complete (e.g. the event budget).
    pub error: Option<SimError>,
    /// Per-thread sequence of values observed by `Read` and `Add` ops.
    pub observed: Vec<Vec<u64>>,
    /// Recorded verification log (empty when uninstrumented).
    pub log: Vec<LogRecord>,
    /// Per-step invariant findings (empty unless [`Instrument::Check`]).
    pub step_findings: Vec<Finding>,
}

impl RunOutcome {
    /// Race-detector findings over this run's log.
    pub fn race_findings(&self) -> Vec<Finding> {
        crate::hb::analyze(&self.log)
    }

    /// Findings from comparing final memory against `scenario.expected`.
    pub fn expectation_findings(&self, scenario: &Scenario) -> Vec<Finding> {
        let mut findings = Vec::new();
        if let Some(error) = &self.error {
            findings.push(Finding {
                kind: FindingKind::FinalMemory,
                detail: format!("{}: run failed: {error:?}", scenario.name),
            });
            return findings;
        }
        for (page, expected) in scenario.expected.iter().enumerate() {
            if let Some(expected) = expected {
                let got = self.final_words.get(page).copied().unwrap_or(0);
                if got != *expected {
                    findings.push(Finding {
                        kind: FindingKind::FinalMemory,
                        detail: format!(
                            "{}: page {page} finished at {got}, expected {expected}",
                            scenario.name
                        ),
                    });
                }
            }
        }
        for (ix, &(page, offset, expected)) in scenario.expected_at.iter().enumerate() {
            let got = self.final_words_at.get(ix).copied().unwrap_or(0);
            if got != expected {
                findings.push(Finding {
                    kind: FindingKind::FinalMemory,
                    detail: format!(
                        "{}: page {page} offset {offset} finished at {got}, expected {expected}",
                        scenario.name
                    ),
                });
            }
        }
        findings
    }

    /// Step findings plus race findings plus expectation findings, sorted.
    pub fn all_findings(&self, scenario: &Scenario) -> Vec<Finding> {
        let mut findings = self.step_findings.clone();
        findings.extend(self.race_findings());
        findings.extend(self.expectation_findings(scenario));
        findings.sort();
        findings.dedup();
        findings
    }

    /// The deterministic fingerprint compared by replay/conformance tests:
    /// final memory, final virtual time, event count and every value any
    /// thread observed.
    pub fn fingerprint(&self) -> (Vec<u64>, u64, u64, Vec<Vec<u64>>) {
        (
            [self.final_words.clone(), self.final_words_at.clone()].concat(),
            self.final_time_ns,
            self.events,
            self.observed.clone(),
        )
    }
}

/// Run `scenario` once under `cfg`.
pub fn run_scenario(scenario: &Scenario, cfg: &RunConfig) -> RunOutcome {
    let _gate = RUN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let hooks = match cfg.instrument {
        Instrument::Off => None,
        Instrument::Record => Some(Arc::new(RecordingHooks::recorder())),
        Instrument::Check => Some(Arc::new(RecordingHooks::checker())),
    };
    let _guard = hooks
        .as_ref()
        .map(|h| install_global_verify_hooks(h.clone() as Arc<dyn dsmpm2_core::VerifyHooks>));

    let mut config = Pm2Config::bip_myrinet(scenario.nodes).with_transport_tuning(cfg.transport);
    config.granularity = (scenario.granularity > 0).then_some(scenario.granularity);
    let engine = Engine::with_event_limit(EVENT_LIMIT);
    if let Some(controller) = &cfg.controller {
        engine.set_controller(controller.clone());
    }
    let rt = DsmRuntime::new(&engine, config);
    let (_builtins, ext) = register_all_protocols(&rt);
    let protocol = rt
        .protocol_by_name(&cfg.protocol)
        .unwrap_or_else(|| panic!("unknown protocol {}", cfg.protocol));
    rt.set_default_protocol(protocol);

    let home = NodeId(scenario.home);
    let attr = DsmAttr::default().home(HomePolicy::Fixed(home));
    let pages: Vec<_> = (0..scenario.pages)
        .map(|_| rt.dsm_malloc(PAGE_SIZE as u64, attr))
        .collect();
    let lock = rt.create_lock(Some(NodeId(scenario.lock_manager)));
    if cfg.protocol == "entry_sw" {
        for &addr in &pages {
            ext.entry.bind(lock, addr, PAGE_SIZE as u64);
        }
    }
    let parties = scenario.barrier_parties();
    let barrier = rt.create_barrier(parties.max(1), None);

    let observed = Arc::new(SliceCell::new(vec![Vec::new(); scenario.threads.len()]));
    for (index, spec) in scenario.threads.iter().enumerate() {
        let ops = spec.ops.clone();
        let pages = pages.clone();
        let observed = observed.clone();
        let rt_for_thread = rt.clone();
        rt.spawn_dsm_thread(
            NodeId(spec.node),
            format!("{}-t{index}", scenario.name),
            move |ctx| {
                for op in &ops {
                    match *op {
                        Op::Read { page } => {
                            let v = ctx.read::<u64>(pages[page]);
                            observed.borrow()[index].push(v);
                        }
                        Op::Write { page, value } => ctx.write::<u64>(pages[page], value),
                        Op::Add { page, delta } => {
                            let v = ctx.read::<u64>(pages[page]);
                            observed.borrow()[index].push(v);
                            ctx.write::<u64>(pages[page], v + delta);
                        }
                        Op::ReadAt { page, offset } => {
                            let v = ctx.read::<u64>(pages[page].add(offset as u64));
                            observed.borrow()[index].push(v);
                        }
                        Op::WriteAt {
                            page,
                            offset,
                            value,
                        } => ctx.write::<u64>(pages[page].add(offset as u64), value),
                        Op::AddAt {
                            page,
                            offset,
                            delta,
                        } => {
                            let addr = pages[page].add(offset as u64);
                            let v = ctx.read::<u64>(addr);
                            observed.borrow()[index].push(v);
                            ctx.write::<u64>(addr, v + delta);
                        }
                        Op::Acquire => ctx.dsm_lock(lock),
                        Op::Release => ctx.dsm_unlock(lock),
                        Op::Barrier => ctx.dsm_barrier(barrier),
                        Op::Switch { page, protocol } => {
                            let to = rt_for_thread
                                .protocol_by_name(protocol)
                                .unwrap_or_else(|| panic!("unknown protocol {protocol}"));
                            rt_for_thread.switch_region_protocol(pages[page], PAGE_SIZE as u64, to);
                        }
                        Op::Migrate { to } => ctx.pm2.migrate_to(NodeId(to)),
                        Op::InjectStaleDone {
                            page,
                            owner,
                            version,
                        } => {
                            let node = ctx.node();
                            let page_id = pages[page].page();
                            let home = rt_for_thread.page_meta(page_id).home;
                            rt_for_thread.send_acquire_done(
                                ctx.pm2.sim,
                                node,
                                home,
                                dsmpm2_core::Unit::whole(page_id),
                                NodeId(owner),
                                version,
                            );
                        }
                    }
                }
            },
        );
    }

    let mut engine = engine;
    let result = engine.run();
    let mut outcome = RunOutcome::default();
    match result {
        Ok(report) => {
            outcome.final_time_ns = report.final_time.as_nanos();
            outcome.events = report.events;
        }
        Err(error) => {
            // A failed run still says how far it got.
            if let SimError::Deadlock { events, .. } | SimError::ThreadPanic { events, .. } = error
            {
                outcome.events = events;
            }
            outcome.error = Some(error);
        }
    }
    outcome.final_words = pages
        .iter()
        .map(|&addr| read_authoritative_word(&rt, addr.page(), 0))
        .collect();
    outcome.final_words_at = scenario
        .expected_at
        .iter()
        .map(|&(page, offset, _)| read_authoritative_word(&rt, pages[page].page(), offset))
        .collect();
    outcome.observed = std::mem::take(&mut observed.borrow());
    if let Some(hooks) = hooks {
        outcome.log = hooks.take_log();
        outcome.step_findings = hooks.take_findings();
    }
    outcome
}

/// Install checking hooks, run `f` (which may construct any number of
/// runtimes — e.g. a workload), and return its result together with the
/// recorded log and per-step findings. Serialized on the same gate as
/// [`run_scenario`].
pub fn with_recording<R>(f: impl FnOnce() -> R) -> (R, Vec<LogRecord>, Vec<Finding>) {
    let _gate = RUN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let hooks = Arc::new(RecordingHooks::checker());
    let guard = install_global_verify_hooks(hooks.clone() as Arc<dyn dsmpm2_core::VerifyHooks>);
    let result = f();
    drop(guard);
    (result, hooks.take_log(), hooks.take_findings())
}

/// The authoritative final value of the word at `offset` of a page: the
/// home frame for multiple-writer protocols (diffs consolidate there),
/// otherwise the frame of the node owning the coherence unit covering the
/// offset — the line at sub-page granularity, the whole page otherwise —
/// falling back to the home copy.
fn read_authoritative_word(rt: &DsmRuntime, page: dsmpm2_core::PageId, offset: usize) -> u64 {
    let meta = rt.page_meta(page);
    let multiple_writers = rt.protocol(meta.protocol).multiple_writers();
    let mut source = meta.home;
    if !multiple_writers {
        let unit = dsmpm2_core::Unit::new(page, line_of_offset(offset, meta.line_size));
        for node in rt.cluster().topology().nodes() {
            let owned = rt.page_table(node).read(unit, |e| e.owned);
            if owned && rt.frames(node).has(page) {
                source = node;
                break;
            }
        }
    }
    if !rt.frames(source).has(page) {
        return 0;
    }
    rt.frames(source)
        .with_bytes(page, offset, 8, false, |b| u64::load_le(b))
}
