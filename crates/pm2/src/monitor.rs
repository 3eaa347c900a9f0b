//! Post-mortem monitoring.
//!
//! The paper highlights PM2's "very precise post-mortem monitoring tools,
//! providing the user with valuable information on the time spent within each
//! elementary function". This module provides the equivalent for the
//! simulated runtime: named counters and timers that every layer (RPC, DSM
//! page manager, protocols, locks) feeds, plus a printable report used by the
//! examples and the benchmark harness.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use dsmpm2_sim::{SimDuration, SliceCell};

/// Statistics recorded for one named operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStat {
    /// Number of occurrences.
    pub count: u64,
    /// Total virtual time spent.
    pub total: SimDuration,
    /// Largest single occurrence.
    pub max: SimDuration,
}

impl OpStat {
    /// Mean virtual time per occurrence (zero if the operation never ran).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.total / self.count
        }
    }
}

/// One operation's row in a [`Monitor`], resolved once by name
/// ([`Monitor::slot`]) so that a hot path records into it without a lookup.
/// Cheap to clone; all clones feed the same row. The row is an [`OpStat`] in
/// a [`SliceCell`]: fed by slices and scheduler events, read by the host
/// thread after the run.
#[derive(Clone, Default)]
pub struct MonitorSlot(Arc<SliceCell<OpStat>>);

impl MonitorSlot {
    /// Record one occurrence taking `elapsed` of virtual time.
    pub fn record(&self, elapsed: SimDuration) {
        let mut stat = self.0.borrow();
        stat.count += 1;
        stat.total += elapsed;
        stat.max = stat.max.max(elapsed);
    }

    /// Record one occurrence with no associated time (pure counter).
    pub fn incr(&self) {
        self.0.borrow().count += 1;
    }

    fn stat(&self) -> OpStat {
        *self.0.borrow()
    }

    fn clear(&self) {
        *self.0.borrow() = OpStat::default();
    }
}

/// A monitoring sink shared by every layer of one cluster.
#[derive(Default)]
pub struct Monitor {
    ops: SliceCell<HashMap<String, MonitorSlot>>,
}

impl Monitor {
    /// New, empty monitor.
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Run `f` on the row of `name`, created empty on first use: only the
    /// first occurrence of a name allocates.
    fn with_slot<R>(&self, name: &str, f: impl FnOnce(&MonitorSlot) -> R) -> R {
        let mut ops = self.ops.borrow();
        match ops.get(name) {
            Some(slot) => f(slot),
            None => f(ops.entry(name.to_string()).or_default()),
        }
    }

    /// The row of `name`. An operation that never occurs does not show up in
    /// the report.
    pub fn slot(&self, name: &str) -> MonitorSlot {
        self.with_slot(name, MonitorSlot::clone)
    }

    /// Record one occurrence of `name` taking `elapsed` of virtual time.
    pub fn record(&self, name: &str, elapsed: SimDuration) {
        self.with_slot(name, |slot| slot.record(elapsed));
    }

    /// Record one occurrence of `name` with no associated time (pure counter).
    pub fn incr(&self, name: &str) {
        self.record(name, SimDuration::ZERO);
    }

    /// Statistics for one operation.
    pub fn get(&self, name: &str) -> OpStat {
        self.ops
            .borrow()
            .get(name)
            .map(MonitorSlot::stat)
            .unwrap_or_default()
    }

    /// Number of occurrences of one operation.
    pub fn count(&self, name: &str) -> u64 {
        self.get(name).count
    }

    /// A snapshot of every operation that occurred, sorted by total time
    /// (descending).
    pub fn report(&self) -> MonitorReport {
        let mut rows: Vec<(String, OpStat)> = self
            .ops
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.stat()))
            .filter(|(_, stat)| stat.count > 0)
            .collect();
        rows.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(&b.0)));
        MonitorReport { rows }
    }

    /// Reset every counter (used between benchmark iterations). Rows resolved
    /// through [`Monitor::slot`] stay valid.
    pub fn reset(&self) {
        self.ops.borrow().values().for_each(MonitorSlot::clear);
    }
}

/// Sorted snapshot of a [`Monitor`], printable as a post-mortem table.
#[derive(Clone, Debug)]
pub struct MonitorReport {
    /// Rows of `(operation name, statistics)`, sorted by total time.
    pub rows: Vec<(String, OpStat)>,
}

impl MonitorReport {
    /// Statistics for one operation in the snapshot, if present.
    pub fn get(&self, name: &str) -> Option<OpStat> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
    }
}

impl fmt::Display for MonitorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<36} {:>10} {:>14} {:>14} {:>14}",
            "operation", "count", "total (us)", "mean (us)", "max (us)"
        )?;
        for (name, stat) in &self.rows {
            writeln!(
                f,
                "{:<36} {:>10} {:>14.1} {:>14.2} {:>14.1}",
                name,
                stat.count,
                stat.total.as_micros_f64(),
                stat.mean().as_micros_f64(),
                stat.max.as_micros_f64()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_count_total_and_max() {
        let m = Monitor::new();
        m.record("page_fault", SimDuration::from_micros(11));
        m.record("page_fault", SimDuration::from_micros(15));
        m.incr("rpc");
        let stat = m.get("page_fault");
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total, SimDuration::from_micros(26));
        assert_eq!(stat.max, SimDuration::from_micros(15));
        assert_eq!(stat.mean(), SimDuration::from_micros(13));
        assert_eq!(m.count("rpc"), 1);
        assert_eq!(m.count("unknown"), 0);
    }

    #[test]
    fn report_is_sorted_by_total_time() {
        let m = Monitor::new();
        m.record("cheap", SimDuration::from_micros(1));
        m.record("expensive", SimDuration::from_micros(100));
        let report = m.report();
        assert_eq!(report.rows[0].0, "expensive");
        assert!(report.get("cheap").is_some());
        assert!(report.get("missing").is_none());
        let rendered = report.to_string();
        assert!(rendered.contains("expensive"));
        assert!(rendered.contains("operation"));
    }

    #[test]
    fn reset_clears_everything() {
        let m = Monitor::new();
        m.incr("x");
        m.reset();
        assert_eq!(m.count("x"), 0);
        assert!(m.report().rows.is_empty());
    }

    #[test]
    fn a_resolved_slot_feeds_its_named_row_and_survives_reset() {
        let m = Monitor::new();
        let slot = m.slot("rpc_call:dsm");
        assert!(
            m.report().rows.is_empty(),
            "a row that never ran is not reported"
        );
        slot.record(SimDuration::from_micros(7));
        m.record("rpc_call:dsm", SimDuration::from_micros(3));
        let stat = m.get("rpc_call:dsm");
        assert_eq!((stat.count, stat.max), (2, SimDuration::from_micros(7)));
        assert_eq!(stat.total, SimDuration::from_micros(10));
        m.reset();
        slot.incr();
        assert_eq!(m.count("rpc_call:dsm"), 1);
    }

    #[test]
    fn mean_of_empty_stat_is_zero() {
        assert_eq!(OpStat::default().mean(), SimDuration::ZERO);
    }
}
