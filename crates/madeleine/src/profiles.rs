//! Calibrated network profiles.
//!
//! The four profiles correspond to the four platforms of the paper's
//! evaluation (Section 4): a cluster of 450 MHz Pentium II nodes running
//! Linux 2.2.13 connected by a Myrinet network driven either through BIP or
//! TCP, by Fast Ethernet under TCP, and by an SCI network through the SISCI
//! API.
//!
//! Calibration: with `L` the control-message latency and `B` the bandwidth,
//! the paper's Table 3 gives the "Request page" row as `L + 64/B` (a small
//! control message) and the "Page transfer" row as `L + (4096+64)/B`
//! (a 4 kB page plus header). Solving the two equations per platform yields
//! the constants below; the thread-migration base costs come from Table 4 and
//! §2.1.

use crate::model::NetworkModel;

/// BIP over Myrinet (the fastest software path of the evaluation).
pub fn bip_myrinet() -> NetworkModel {
    NetworkModel {
        name: "BIP/Myrinet".to_string(),
        rpc_min_latency_us: 8.0,
        control_latency_us: 21.2,
        bandwidth_bytes_per_us: 35.6,
        thread_migration_base_us: 75.0,
    }
}

/// TCP over Myrinet (same hardware as BIP/Myrinet, kernel TCP stack).
pub fn tcp_myrinet() -> NetworkModel {
    NetworkModel {
        name: "TCP/Myrinet".to_string(),
        rpc_min_latency_us: 110.0,
        control_latency_us: 218.1,
        bandwidth_bytes_per_us: 33.3,
        thread_migration_base_us: 280.0,
    }
}

/// TCP over Fast Ethernet (commodity 100 Mb/s network).
pub fn tcp_fast_ethernet() -> NetworkModel {
    NetworkModel {
        name: "TCP/FastEthernet".to_string(),
        rpc_min_latency_us: 120.0,
        control_latency_us: 211.9,
        bandwidth_bytes_per_us: 7.9,
        thread_migration_base_us: 373.0,
    }
}

/// SISCI over SCI (remote-memory-access interconnect).
pub fn sisci_sci() -> NetworkModel {
    NetworkModel {
        name: "SISCI/SCI".to_string(),
        rpc_min_latency_us: 6.0,
        control_latency_us: 36.7,
        bandwidth_bytes_per_us: 50.6,
        thread_migration_base_us: 62.0,
    }
}

/// All four evaluation platforms, in the order the paper's tables list them.
pub fn all() -> Vec<NetworkModel> {
    vec![
        bip_myrinet(),
        tcp_myrinet(),
        tcp_fast_ethernet(),
        sisci_sci(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CONTROL_MESSAGE_BYTES;

    /// The calibration must reproduce the paper's Table 3 "Request page" and
    /// "Page transfer" rows to within a microsecond or two.
    #[test]
    fn calibration_matches_table3_rows() {
        let cases = [
            (bip_myrinet(), 23.0, 138.0),
            (tcp_myrinet(), 220.0, 343.0),
            (tcp_fast_ethernet(), 220.0, 736.0),
            (sisci_sci(), 38.0, 119.0),
        ];
        for (model, request_us, transfer_us) in cases {
            let req = model.control_time().as_micros_f64();
            let tra = model.page_transfer_time(4096).as_micros_f64();
            assert!(
                (req - request_us).abs() < 2.0,
                "{}: request {req} vs paper {request_us}",
                model.name
            );
            assert!(
                (tra - transfer_us).abs() < 4.0,
                "{}: transfer {tra} vs paper {transfer_us}",
                model.name
            );
        }
    }

    /// Table 4: thread migration of a ~1 kB stack.
    #[test]
    fn calibration_matches_table4_migration_row() {
        let cases = [
            (bip_myrinet(), 75.0),
            (tcp_myrinet(), 280.0),
            (tcp_fast_ethernet(), 373.0),
            (sisci_sci(), 62.0),
        ];
        for (model, paper_us) in cases {
            let t = model.thread_migration_time().as_micros_f64();
            assert!(
                (t - paper_us).abs() < 1.0,
                "{}: migration {t} vs paper {paper_us}",
                model.name
            );
        }
    }

    /// §2.1: RPC minimal latency 8 µs (BIP) and 6 µs (SCI).
    #[test]
    fn calibration_matches_rpc_micro() {
        assert_eq!(bip_myrinet().rpc_min_latency_us, 8.0);
        assert_eq!(sisci_sci().rpc_min_latency_us, 6.0);
    }

    #[test]
    fn ordering_between_networks_matches_paper() {
        // SCI has the best page-transfer path, Fast Ethernet the worst.
        let page = 4096;
        assert!(sisci_sci().page_transfer_time(page) < bip_myrinet().page_transfer_time(page));
        assert!(bip_myrinet().page_transfer_time(page) < tcp_myrinet().page_transfer_time(page));
        assert!(
            tcp_myrinet().page_transfer_time(page) < tcp_fast_ethernet().page_transfer_time(page)
        );
        // But migration is cheapest on SCI, then BIP.
        assert!(sisci_sci().thread_migration_time() < bip_myrinet().thread_migration_time());
    }

    #[test]
    fn all_profiles_are_distinct() {
        let names: Vec<String> = all().into_iter().map(|m| m.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn control_message_size_is_small() {
        const { assert!(CONTROL_MESSAGE_BYTES <= 128) }
    }
}
