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
//!
//! Each is a constant, held as a virtual duration so the per-access charges
//! are plain loads. The one exception is the page-transfer overhead, which
//! the overhead sweep (ablation 1 of the bench crate) varies: it is the one
//! field of [`DsmCosts`], a runtime's setting.

use dsmpm2_sim::SimDuration;

/// Catching a page fault and extracting fault information.
pub const PAGE_FAULT: SimDuration = SimDuration::from_nanos(11_000);
/// Protocol overhead of a thread-migration fault (the handler merely calls
/// the PM2 migration primitive).
pub const MIGRATION_OVERHEAD: SimDuration = SimDuration::from_nanos(1_000);
/// One access to data already available locally with sufficient rights (the
/// common fast path).
pub const LOCAL_ACCESS: SimDuration = SimDuration::from_nanos(40);
/// One explicit inline locality check (the `java_ic` get/put path).
pub const INLINE_CHECK: SimDuration = SimDuration::from_nanos(250);
/// Creating a twin (copying a 4 kB page locally).
pub const TWIN_CREATE: SimDuration = SimDuration::from_nanos(6_000);
/// Scanning one page to compute a diff.
pub const DIFF_COMPUTE: SimDuration = SimDuration::from_nanos(9_000);
/// Page-table bookkeeping when updating an entry (owner change, copyset
/// update, access-right change).
pub const TABLE_UPDATE: SimDuration = SimDuration::from_nanos(500);
/// Applying a diff at the home node, per modified byte, in µs (a rate, not a
/// duration: sub-nanosecond values are meaningful).
pub const DIFF_APPLY_PER_BYTE_US: f64 = 0.002;

/// Diff application cost for `bytes` modified bytes.
pub fn diff_apply(bytes: usize) -> SimDuration {
    SimDuration::from_micros_f64(DIFF_APPLY_PER_BYTE_US * bytes as f64)
}

/// The runtime's one settable cost.
#[derive(Clone, Debug, PartialEq)]
pub struct DsmCosts {
    /// Each side's half of the page-transfer protocol overhead, charged
    /// once on the owner (request processing) and once on the requester
    /// (page installation and page-table update).
    pub transfer_overhead: SimDuration,
}

impl Default for DsmCosts {
    fn default() -> Self {
        DsmCosts {
            transfer_overhead: SimDuration::from_nanos(13_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each cost is its µs calibration value: Tables 3 and 4 give the 11 µs
    /// fault, the 26 µs page-transfer overhead (13 µs a side) and the 1 µs
    /// migration overhead.
    #[test]
    fn constants_equal_their_microsecond_calibration() {
        let us = SimDuration::from_micros_f64;
        assert_eq!(
            [
                PAGE_FAULT,
                MIGRATION_OVERHEAD,
                LOCAL_ACCESS,
                INLINE_CHECK,
                TWIN_CREATE,
                DIFF_COMPUTE,
                TABLE_UPDATE,
                DsmCosts::default().transfer_overhead,
            ],
            [
                us(11.0),
                us(1.0),
                us(0.04),
                us(0.25),
                us(6.0),
                us(9.0),
                us(0.5),
                us(13.0)
            ]
        );
    }

    #[test]
    fn fast_path_is_orders_of_magnitude_cheaper_than_faults() {
        assert!(LOCAL_ACCESS.as_nanos() * 100 < PAGE_FAULT.as_nanos());
        assert!(INLINE_CHECK > LOCAL_ACCESS);
    }

    #[test]
    fn diff_costs_scale_with_size() {
        assert!(diff_apply(4096) > diff_apply(4));
        assert_eq!(diff_apply(0), SimDuration::ZERO);
    }
}
