//! `line_coherence` — the PR 10 granularity and one-sided-read benchmark.
//!
//! Measures, in virtual time, what sub-page coherence lines buy on the
//! false-sharing kernel and what the one-sided home-read fast path buys on
//! its read-mostly variant, and records the numbers machine-readably:
//!
//! * `results/line_coherence.json` — like every other harness binary;
//! * `BENCH_pr10.json` (working directory, next to `BENCH_seed.json`) —
//!   the baseline the `compare` gate reads for context while enforcing the
//!   two PR 10 envelopes (line granularity moves ≥2× fewer wire bytes in
//!   strictly less virtual time with identical memory; the one-sided path
//!   serves ≥90% of uncontended remote read fetches with zero handler
//!   wakes).
//!
//! Both halves are *virtual-time* measurements of a deterministic
//! simulation, so they are bit-stable across machines.
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

/// The one-sided read-path measurement on the read-mostly kernel.
#[derive(Serialize)]
struct OneSidedRow {
    one_sided: bool,
    remote_read_fetches: u64,
    one_sided_serves: u64,
    one_sided_busy: u64,
    fetch_handler_wakes: u64,
    serve_fraction: f64,
    elapsed_ns: u64,
}

#[derive(Serialize)]
struct Pr10Baseline {
    false_sharing_granularity: Vec<GranularityRow>,
    one_sided_reads: Vec<OneSidedRow>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let nodes = 4;
    let iterations = if quick { 8 } else { 32 };

    // ----- half 1: false sharing, page vs line granularity ------------------
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

    // ----- half 2: one-sided home reads on the read-mostly kernel -----------
    println!("\nOne-sided home reads: read-mostly kernel, {nodes} nodes, li_hudak_fixed\n");
    let mut rows = Vec::new();
    let mut one_sided_rows = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    for one_sided in [false, true] {
        let mut config = FalseSharingConfig::read_mostly(nodes);
        config.iterations = iterations;
        if one_sided {
            config.tuning = config.tuning.with_one_sided_reads();
        }
        let r = run_false_sharing(&config, "li_hudak_fixed");
        match &reference {
            None => reference = Some(r.final_slots.clone()),
            Some(slots) => assert_eq!(
                &r.final_slots, slots,
                "the one-sided read path changed the final counters"
            ),
        }
        let fetches = r.stats.one_sided_serves + r.stats.one_sided_busy;
        let serve_fraction = if fetches == 0 {
            0.0
        } else {
            r.stats.one_sided_serves as f64 / fetches as f64
        };
        if one_sided {
            assert!(
                fetches > 0 && serve_fraction >= 0.9,
                "uncontended read-mostly sharing must serve >=90% of fetches one-sided \
                 ({} of {fetches})",
                r.stats.one_sided_serves
            );
            assert_eq!(
                r.stats.fetch_handler_wakes, r.stats.one_sided_busy,
                "every refused fetch (and only those) must wake the fallback handler"
            );
        }
        rows.push(vec![
            if one_sided {
                "one-sided"
            } else {
                "handler path"
            }
            .to_string(),
            fetches.to_string(),
            r.stats.one_sided_serves.to_string(),
            r.stats.fetch_handler_wakes.to_string(),
            format!("{:.0}%", serve_fraction * 100.0),
            format!("{:.1}", r.elapsed.as_micros_f64() / 1000.0),
        ]);
        one_sided_rows.push(OneSidedRow {
            one_sided,
            remote_read_fetches: fetches,
            one_sided_serves: r.stats.one_sided_serves,
            one_sided_busy: r.stats.one_sided_busy,
            fetch_handler_wakes: r.stats.fetch_handler_wakes,
            serve_fraction,
            elapsed_ns: r.elapsed.as_nanos(),
        });
    }
    println!(
        "{}",
        markdown_table(
            &[
                "Configuration",
                "Read fetches",
                "One-sided serves",
                "Handler wakes",
                "Served one-sided",
                "Run time (ms)"
            ],
            &rows
        )
    );
    println!(
        "Identical final memory; >=90% of the uncontended remote read fetches are served at \
         message-delivery instant with zero handler-thread wakes (asserted above)."
    );

    let baseline = Pr10Baseline {
        false_sharing_granularity: granularity_rows,
        one_sided_reads: one_sided_rows,
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
