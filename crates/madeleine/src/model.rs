//! Network cost models.
//!
//! The original Madeleine library hides the differences between BIP, SISCI,
//! VIA, TCP and MPI behind one message-passing API. In this reproduction the
//! hardware itself is replaced by a cost model: every network interface is
//! described by a [`NetworkModel`] which converts message sizes into
//! virtual-time transfer durations. The models are calibrated directly from
//! the constants reported in the DSM-PM2 paper (Tables 3 and 4 and §2.1), so
//! that the microbenchmark tables are reproduced by construction and the
//! application-level figures emerge from protocol behaviour on top of them.

use dsmpm2_sim::SimDuration;

/// Size in bytes accounted for a small control message (page request,
/// invalidation, acknowledgement, lock message).
pub const CONTROL_MESSAGE_BYTES: usize = 64;

/// Cost model for one network interface / interconnect combination.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkModel {
    /// Human-readable name, e.g. `"BIP/Myrinet"`.
    pub name: String,
    /// Minimal latency of a PM2 RPC carrying no arguments (paper §2.1:
    /// 8 µs over BIP/Myrinet, 6 µs over SISCI/SCI), in microseconds.
    pub rpc_min_latency_us: f64,
    /// One-way latency of a DSM control message, including the software path
    /// through Madeleine and the RPC dispatch on the remote node (fitted to
    /// the "Request page" row of Table 3), in microseconds.
    pub control_latency_us: f64,
    /// Sustained transfer bandwidth seen by the DSM layer, in bytes per
    /// microsecond (fitted to the difference between the 4 kB "Page transfer"
    /// and "Request page" rows of Table 3).
    pub bandwidth_bytes_per_us: f64,
    /// Cost of migrating a PM2 thread with a minimal (~1 kB) stack and no
    /// attached data (Table 4 / §2.1), in microseconds.
    pub thread_migration_base_us: f64,
}

impl NetworkModel {
    /// Time to move a message of `bytes` payload bytes from one node to
    /// another, including the protocol software path on both ends.
    pub fn message_time(&self, bytes: usize) -> SimDuration {
        let us = self.control_latency_us + bytes as f64 / self.bandwidth_bytes_per_us;
        SimDuration::from_micros_f64(us)
    }

    /// Time for a small DSM control message (page request, invalidation, ack).
    pub fn control_time(&self) -> SimDuration {
        self.message_time(CONTROL_MESSAGE_BYTES)
    }

    /// Time to transfer a full page of `page_bytes` bytes (plus the control
    /// header carried with it).
    pub fn page_transfer_time(&self, page_bytes: usize) -> SimDuration {
        self.message_time(page_bytes + CONTROL_MESSAGE_BYTES)
    }

    /// Time to migrate a thread with the paper's minimal (~1 kB) stack: the
    /// calibrated base cost.
    pub fn thread_migration_time(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.thread_migration_base_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn message_time_is_latency_plus_size_over_bandwidth() {
        let m = NetworkModel {
            name: "test".into(),
            rpc_min_latency_us: 5.0,
            control_latency_us: 10.0,
            bandwidth_bytes_per_us: 100.0,
            thread_migration_base_us: 50.0,
        };
        assert_eq!(m.message_time(1000), SimDuration::from_micros_f64(20.0));
        assert_eq!(m.thread_migration_time(), SimDuration::from_micros(50));
    }

    #[test]
    fn larger_messages_take_longer() {
        for m in profiles::all() {
            assert!(m.page_transfer_time(4096) > m.control_time());
            assert!(m.message_time(0) <= m.message_time(1));
        }
    }
}
