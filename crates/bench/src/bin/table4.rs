//! Regenerates **Table 4** of the paper: processing a read fault under the
//! thread-migration policy (page fault, thread migration, protocol overhead)
//! on the four network profiles.

use dsmpm2_bench::markdown_table;
use dsmpm2_madeleine::profiles;
use dsmpm2_workloads::{measure_read_fault, FaultPolicy};

fn main() {
    println!("Table 4: Processing a read fault under thread-migration policy (us)\n");
    let paper = [
        ("BIP/Myrinet", 87.0),
        ("TCP/Myrinet", 292.0),
        ("TCP/FastEthernet", 385.0),
        ("SISCI/SCI", 74.0),
    ];
    let mut rows = Vec::new();
    for net in profiles::all() {
        let b = measure_read_fault(net.clone(), FaultPolicy::ThreadMigration);
        let paper_total = paper
            .iter()
            .find(|(n, _)| *n == net.name)
            .map(|(_, t)| *t)
            .unwrap_or(f64::NAN);
        rows.push(vec![
            net.name.clone(),
            format!("{:.0}", b.page_fault_us),
            format!("{:.0}", b.migration_us),
            format!("{:.0}", b.overhead_us),
            format!("{:.0}", b.total_us),
            format!("{paper_total:.0}"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "Network",
                "Page fault",
                "Thread migration",
                "Protocol overhead",
                "Total (measured)",
                "Total (paper)"
            ],
            &rows
        )
    );
}
