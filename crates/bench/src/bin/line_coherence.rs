//! `line_coherence` — the coherence-granularity benchmark.
//!
//! Measures, in virtual time, what sub-page coherence lines buy on the
//! false-sharing kernel, and records the numbers machine-readably:
//!
//! * `results/line_coherence.json` — like every other harness binary;
//! * `BENCH_pr10.json` (working directory, next to `BENCH_seed.json`) —
//!   the baseline the `compare` gate reads for context while enforcing the
//!   granularity envelope (line granularity moves ≥2× fewer wire bytes in
//!   strictly less virtual time with identical memory).
//!
//! These are *virtual-time* measurements of a deterministic simulation, so
//! they are bit-stable across machines.
//!
//! Usage: `line_coherence [--quick]`.

use dsmpm2_bench::{markdown_table, write_json};
use dsmpm2_workloads::false_sharing::{run_false_sharing, FalseSharingConfig};
use serde::Serialize;

/// One protocol's page-vs-line comparison on the false-sharing kernel.
#[derive(Serialize)]
struct GranularityRow {
    protocol: String,
    granularity: usize,
    wire_messages: u64,
    envelope_bytes: u64,
    envelopes: u64,
    elapsed_ns: u64,
    bytes_ratio_vs_page: f64,
    time_ratio_vs_page: f64,
}

#[derive(Serialize)]
struct Pr10Baseline {
    false_sharing_granularity: Vec<GranularityRow>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let nodes = 4;
    let iterations = if quick { 8 } else { 32 };

    println!(
        "line_coherence: false-sharing kernel, {nodes} nodes, 64-byte stride, {iterations} \
         rounds (virtual time)\n"
    );
    let mut rows = Vec::new();
    let mut granularity_rows = Vec::new();
    for proto in ["li_hudak_fixed", "erc_sw", "hbrc_mw"] {
        let mut page_baseline: Option<(Vec<u64>, u64, u64)> = None;
        for granularity in [0usize, 256, 64] {
            let mut config = FalseSharingConfig::small(nodes);
            config.iterations = iterations;
            config.tuning = config.tuning.with_granularity(granularity);
            let r = run_false_sharing(&config, proto);
            let (bytes_ratio, time_ratio) = match &page_baseline {
                None => {
                    page_baseline = Some((
                        r.final_slots.clone(),
                        r.wire.envelope_bytes,
                        r.elapsed.as_nanos(),
                    ));
                    (1.0, 1.0)
                }
                Some((slots, page_bytes, page_ns)) => {
                    assert_eq!(
                        &r.final_slots, slots,
                        "{proto}: granularity {granularity} changed the final counters"
                    );
                    assert!(
                        r.wire.envelope_bytes * 2 <= *page_bytes,
                        "{proto} at {granularity} B moved {} wire bytes vs {page_bytes} at page \
                         granularity (>=2x reduction required)",
                        r.wire.envelope_bytes
                    );
                    assert!(
                        r.elapsed.as_nanos() < *page_ns,
                        "{proto} at {granularity} B took {} ns vs {page_ns} ns at page \
                         granularity (strict reduction required)",
                        r.elapsed.as_nanos()
                    );
                    (
                        *page_bytes as f64 / r.wire.envelope_bytes.max(1) as f64,
                        *page_ns as f64 / r.elapsed.as_nanos().max(1) as f64,
                    )
                }
            };
            rows.push(vec![
                proto.to_string(),
                if granularity == 0 {
                    "page".to_string()
                } else {
                    format!("{granularity} B")
                },
                r.wire_messages.to_string(),
                r.wire.envelope_bytes.to_string(),
                format!("{:.1}", r.elapsed.as_micros_f64() / 1000.0),
                format!("{bytes_ratio:.1}x"),
                format!("{time_ratio:.1}x"),
            ]);
            granularity_rows.push(GranularityRow {
                protocol: proto.to_string(),
                granularity,
                wire_messages: r.wire_messages,
                envelope_bytes: r.wire.envelope_bytes,
                envelopes: r.wire.envelopes,
                elapsed_ns: r.elapsed.as_nanos(),
                bytes_ratio_vs_page: bytes_ratio,
                time_ratio_vs_page: time_ratio,
            });
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "Protocol",
                "Granularity",
                "Wire messages",
                "Wire bytes",
                "Run time (ms)",
                "Bytes vs page",
                "Time vs page"
            ],
            &rows
        )
    );
    println!(
        "Identical final counters at every granularity; every sub-page run moves >=2x fewer \
         wire bytes in strictly less virtual time (all asserted above)."
    );

    let baseline = Pr10Baseline {
        false_sharing_granularity: granularity_rows,
    };
    write_json("line_coherence", &baseline);
    match serde_json::to_string_pretty(&baseline) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_pr10.json", json + "\n") {
                eprintln!("warning: could not write BENCH_pr10.json: {e}");
            } else {
                println!("\nRecorded baseline in BENCH_pr10.json.");
            }
        }
        Err(e) => eprintln!("warning: could not serialize baseline: {e}"),
    }
}
