//! Regenerates **Table 3** of the paper: processing a read fault under the
//! page-transfer (page-migration) policy, broken down into page fault,
//! request, 4 kB page transfer and protocol overhead, on the four network
//! profiles.

use dsmpm2_bench::markdown_table;
use dsmpm2_madeleine::profiles;
use dsmpm2_workloads::{measure_read_fault, FaultPolicy};

fn main() {
    println!("Table 3: Processing a read fault under page-migration policy (us)\n");
    let paper = [
        ("BIP/Myrinet", 198.0),
        ("TCP/Myrinet", 600.0),
        ("TCP/FastEthernet", 993.0),
        ("SISCI/SCI", 194.0),
    ];
    let mut rows = Vec::new();
    for net in profiles::all() {
        let b = measure_read_fault(net.clone(), FaultPolicy::PageTransfer);
        let paper_total = paper
            .iter()
            .find(|(n, _)| *n == net.name)
            .map(|(_, t)| *t)
            .unwrap_or(f64::NAN);
        let drift_pct = (b.total_us - paper_total) / paper_total * 100.0;
        rows.push(vec![
            net.name.clone(),
            format!("{:.0}", b.page_fault_us),
            format!("{:.0}", b.request_us),
            format!("{:.0}", b.transfer_us),
            format!("{:.0}", b.overhead_us),
            format!("{:.0}", b.total_us),
            format!("{paper_total:.0}"),
            format!("{drift_pct:+.1}%"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "Network",
                "Page fault",
                "Request page",
                "Page transfer",
                "Protocol overhead",
                "Total (measured)",
                "Total (paper)",
                "Drift"
            ],
            &rows
        )
    );
    println!(
        "Note (calibration drift): measured totals sit ~1-3% below the paper's because the\n\
         component constants (request, transfer, protocol overhead) were fitted to each row\n\
         independently from Tables 3/4, while the paper's totals were measured end-to-end and\n\
         include cross-component effects the breakdown does not attribute. The drift is stable\n\
         and per-row (see the Drift column); it is accepted as documented calibration error\n\
         rather than re-fitted, so the component rows keep matching the paper's breakdown\n\
         exactly."
    );
}
