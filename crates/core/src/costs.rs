//! DSM software-path cost constants.
//!
//! These constants model the parts of the fault path that are *not*
//! communication: catching the page-fault signal and extracting fault
//! information, updating the distributed page table, installing the received
//! page and setting access rights. They are calibrated from the paper's
//! Tables 3 and 4:
//!
//! * page-fault detection: 11 µs on every platform (it is a purely local,
//!   CPU-bound cost on the 450 MHz PII nodes);
//! * protocol overhead of the page-transfer policy: 26 µs (request processing
//!   on the owner plus page installation on the requester);
//! * protocol overhead of the thread-migration policy: ~1 µs (a single call
//!   into the runtime's migration primitive).

use dsmpm2_sim::SimDuration;

/// Cost constants of the DSM generic core and protocol library, held as
/// virtual durations: the µs calibration values are converted once, here, so
/// the per-access charges are plain loads.
#[derive(Clone, Debug, PartialEq)]
pub struct DsmCosts {
    /// Catching a page fault and extracting fault information.
    pub page_fault: SimDuration,
    /// Requester-side half of the page-transfer protocol overhead: page
    /// installation and page-table update.
    pub install_overhead: SimDuration,
    /// Owner-side half of the page-transfer protocol overhead: request
    /// processing.
    pub serve_overhead: SimDuration,
    /// Protocol overhead of a thread-migration fault (the handler merely
    /// calls the PM2 migration primitive).
    pub migration_overhead: SimDuration,
    /// One access to data already available locally with sufficient rights
    /// (the common fast path).
    pub local_access: SimDuration,
    /// One explicit inline locality check (the `java_ic` get/put path).
    pub inline_check: SimDuration,
    /// Creating a twin (copying a 4 kB page locally).
    pub twin_create: SimDuration,
    /// Scanning one page to compute a diff.
    pub diff_compute: SimDuration,
    /// Applying a diff at the home node, per modified byte, in µs (a rate,
    /// not a duration: sub-nanosecond values are meaningful).
    pub diff_apply_per_byte_us: f64,
    /// Page-table bookkeeping when updating an entry (owner change, copyset
    /// update, access-right change).
    pub table_update: SimDuration,
}

impl Default for DsmCosts {
    fn default() -> Self {
        let us = SimDuration::from_micros_f64;
        DsmCosts {
            page_fault: us(11.0),
            install_overhead: us(13.0),
            serve_overhead: us(13.0),
            migration_overhead: us(1.0),
            local_access: us(0.04),
            inline_check: us(0.25),
            twin_create: us(6.0),
            diff_compute: us(9.0),
            diff_apply_per_byte_us: 0.002,
            table_update: us(0.5),
        }
    }
}

impl DsmCosts {
    /// Diff application cost for `bytes` modified bytes.
    pub fn diff_apply(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros_f64(self.diff_apply_per_byte_us * bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_constants() {
        let c = DsmCosts::default();
        assert_eq!(c.page_fault.as_micros_f64(), 11.0);
        assert_eq!(
            (c.install_overhead + c.serve_overhead).as_micros_f64(),
            26.0
        );
        assert_eq!(c.migration_overhead.as_micros_f64(), 1.0);
    }

    #[test]
    fn fast_path_is_orders_of_magnitude_cheaper_than_faults() {
        let c = DsmCosts::default();
        assert!(c.local_access.as_nanos() * 100 < c.page_fault.as_nanos());
        assert!(c.inline_check > c.local_access);
    }

    #[test]
    fn diff_costs_scale_with_size() {
        let c = DsmCosts::default();
        assert!(c.diff_apply(4096) > c.diff_apply(4));
        assert_eq!(c.diff_apply(0), SimDuration::ZERO);
    }
}
