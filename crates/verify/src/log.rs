//! Event log and per-step invariant checking.
//!
//! [`RecordingHooks`] implements the core's [`VerifyHooks`] seam: every
//! reported access, synchronization event and ownership-version update is
//! appended to an in-memory log, and a battery of per-step protocol
//! invariants is probed against the live page tables at the instant of each
//! application access. Violations become [`Finding`]s.
//!
//! The hooks charge no virtual time and mutate no DSM state, so an
//! instrumented run is bit-identical to an uninstrumented one.

use std::fmt;

use dsmpm2_core::{
    Access, ConsistencyModel, DsmRuntime, MemAccess, NodeId, PageId, SimTime, SyncEvent, Unit,
    VerifyHooks,
};
use dsmpm2_sim::SliceCell;

/// One entry of the recorded verification event stream.
#[derive(Clone, Debug)]
pub enum LogRecord {
    /// An application-level shared-memory access, together with the
    /// consistency-model declaration of the accessed page's protocol at the
    /// instant of the access.
    Access {
        /// The access itself.
        access: MemAccess,
        /// Declared model of the page's protocol when the access happened.
        model: ConsistencyModel,
    },
    /// A synchronization event.
    Sync(SyncEvent),
    /// An ownership-succession version update at a page's home manager.
    OwnerVersion {
        /// Virtual time of the update.
        time: SimTime,
        /// The home node applying the update.
        node: NodeId,
        /// The page whose succession record changed.
        page: PageId,
        /// Version before the notice was processed.
        old: u64,
        /// Version after the notice was processed.
        new: u64,
    },
}

impl LogRecord {
    /// Virtual time of the record.
    pub fn time(&self) -> SimTime {
        match self {
            LogRecord::Access { access, .. } => access.time,
            LogRecord::Sync(event) => event.time(),
            LogRecord::OwnerVersion { time, .. } => *time,
        }
    }

    /// Node the record belongs to (shard key of the event that produced it).
    pub fn node(&self) -> NodeId {
        match self {
            LogRecord::Access { access, .. } => access.node,
            LogRecord::Sync(event) => event.node(),
            LogRecord::OwnerVersion { node, .. } => *node,
        }
    }
}

/// Kinds of checker findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingKind {
    /// Two nodes held write access to one single-writer page at once.
    WriteExclusivity,
    /// A node had access to a single-writer page while absent from the
    /// writer's copyset at a write instant.
    CopysetCoverage,
    /// A page's home owner-succession version moved backwards.
    OwnerVersionRewind,
    /// An application access hit a page with no local frame installed.
    MissingFrame,
    /// Conflicting accesses unordered by happens-before on a page whose
    /// protocol promises a relaxed model.
    DataRace,
    /// A run's final memory diverged from the expected (or canonical) value.
    FinalMemory,
}

/// One checker finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// Human-readable description, stable across reruns of the same
    /// schedule (no addresses, no wall-clock data).
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// The recording and invariant-checking implementation of [`VerifyHooks`].
#[derive(Default)]
pub struct RecordingHooks {
    log: SliceCell<Vec<LogRecord>>,
    findings: SliceCell<Vec<Finding>>,
}

impl RecordingHooks {
    /// Drain the recorded log.
    pub fn take_log(&self) -> Vec<LogRecord> {
        std::mem::take(&mut self.log.borrow())
    }

    /// Drain the per-step invariant findings.
    pub fn take_findings(&self) -> Vec<Finding> {
        std::mem::take(&mut self.findings.borrow())
    }

    fn report(&self, kind: FindingKind, detail: String) {
        self.findings.borrow().push(Finding { kind, detail });
    }

    /// Per-step invariants, probed at the instant of an application access.
    ///
    /// Anchoring at access instants matters: mid-protocol table states
    /// legitimately violate instantaneous predicates (invalidations in
    /// flight), but by the time an application access is *performed* the
    /// protocol has granted rights, so the cross-node picture must be
    /// coherent for single-writer protocols.
    fn check_access_invariants(&self, rt: &DsmRuntime, access: &MemAccess) {
        // No read (or write) of a doomed frame: the access just went through
        // the typed accessors, so the node must hold an installed frame.
        if !rt.frames(access.node).has(access.page) {
            self.report(
                FindingKind::MissingFrame,
                format!(
                    "{} accessed on node {} with no frame installed",
                    access.page, access.node.0
                ),
            );
        }
        if rt.protocol_for_page(access.page).multiple_writers() {
            return;
        }
        // The invariants are properties of the *coherence unit* the access
        // fell into, as the accessing node's own table resolves it — two
        // nodes legitimately hold write access to different lines of one
        // page at once.
        let line = rt
            .page_table(access.node)
            .resolve(access.page, access.addr.offset())
            .expect("the access went through the typed accessors: its page is registered")
            .line;
        let unit = Unit::new(access.page, line);
        // Single-writer exclusivity: at most one node may hold write access
        // to the line.
        let mut writers: Vec<NodeId> = Vec::new();
        let mut others: Vec<NodeId> = Vec::new();
        for node in rt.cluster().topology().nodes() {
            match rt.page_table(node).access(unit) {
                Access::Write => writers.push(node),
                Access::Read => others.push(node),
                Access::None => {}
            }
        }
        if writers.len() > 1 {
            self.report(
                FindingKind::WriteExclusivity,
                format!(
                    "{} line {} writable on nodes {:?} simultaneously (single-writer protocol)",
                    access.page,
                    line.0,
                    writers.iter().map(|n| n.0).collect::<Vec<_>>()
                ),
            );
        }
        // Copyset coverage, checked at write instants: every other node that
        // still holds any access to the line must be visible in the writer's
        // copyset for that line, otherwise the next invalidation round will
        // miss it and it will read stale data forever.
        if access.is_write {
            let copyset = rt.page_table(access.node).read(unit, |e| e.copyset.clone());
            for node in others.iter().chain(writers.iter()) {
                if *node != access.node && !copyset.contains(node) {
                    self.report(
                        FindingKind::CopysetCoverage,
                        format!(
                            "node {} holds access to {} line {} but is missing from writer \
                             node {}'s copyset",
                            node.0, access.page, line.0, access.node.0
                        ),
                    );
                }
            }
        }
    }
}

impl VerifyHooks for RecordingHooks {
    fn mem_access(&self, rt: &DsmRuntime, access: MemAccess) {
        self.check_access_invariants(rt, &access);
        let model = rt.protocol_for_page(access.page).consistency();
        self.log.borrow().push(LogRecord::Access { access, model });
    }

    fn sync_event(&self, _rt: &DsmRuntime, event: SyncEvent) {
        self.log.borrow().push(LogRecord::Sync(event));
    }

    fn owner_version_update(
        &self,
        _rt: &DsmRuntime,
        time: SimTime,
        node: NodeId,
        page: PageId,
        old: u64,
        new: u64,
    ) {
        if new < old {
            self.report(
                FindingKind::OwnerVersionRewind,
                format!(
                    "home node {} rewound {}'s owner version {} -> {}",
                    node.0, page, old, new
                ),
            );
        }
        self.log.borrow().push(LogRecord::OwnerVersion {
            time,
            node,
            page,
            old,
            new,
        });
    }
}
