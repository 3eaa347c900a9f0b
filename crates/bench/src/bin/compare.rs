//! Perf-regression gate: re-measures the Table 3 / Table 4 read-fault
//! totals on every network profile and compares them against the recorded
//! seed baseline (`BENCH_seed.json`). Exits non-zero when any total deviates
//! from the baseline by more than 10% — in *either* direction: the numbers
//! are calibrated against the paper, so an unexplained speed-up is as
//! suspicious as a slow-down in a virtual-time simulation.
//!
//! Every envelope here is a virtual-time measurement, bit-stable on every
//! machine. (Wall-clock costs, the scheduler hand-off among them, are the
//! benchmark's layer probes: `sim.yield_ns` and friends.)
//!
//! Usage: `compare [path/to/BENCH_seed.json]` (default: `BENCH_seed.json` in
//! the working directory — the repository root under `cargo run`).
//!
//! Run in CI on every PR so perf-affecting changes must either stay inside
//! the envelope or consciously regenerate the baseline.

use dsmpm2_bench::{markdown_table, probe_fan_in, probe_single_transfer};
use dsmpm2_madeleine::{profiles, LossyConfig, TransportBackend, TransportTuning};
use dsmpm2_workloads::false_sharing::{run_false_sharing, FalseSharingConfig};
use dsmpm2_workloads::{measure_read_fault, FaultPolicy};
use serde::Value;

const THRESHOLD: f64 = 0.10;
/// Line granularity on the false-sharing kernel must move at least this
/// many times fewer wire bytes than whole pages (PR 10 acceptance: ≥2×).
/// Virtual-time measurement, so the margin is machine-independent; the
/// measured ratio is ~40× for the single-writer protocols.
const GRANULARITY_MIN_BYTES_RATIO: f64 = 2.0;
fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_seed.json".to_string());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read seed baseline {path}: {e}"));
    let seed = serde_json::from_str_value(&text)
        .unwrap_or_else(|e| panic!("cannot parse seed baseline {path}: {e}"));

    let tables = [
        (
            "table3_read_fault_page_migration_us",
            FaultPolicy::PageTransfer,
        ),
        (
            "table4_read_fault_thread_migration_us",
            FaultPolicy::ThreadMigration,
        ),
    ];

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (key, policy) in tables {
        let Some(Value::Array(seed_rows)) = seed.get(key) else {
            panic!("seed baseline {path} has no array field '{key}'");
        };
        for seed_row in seed_rows {
            let network = match seed_row.get("network") {
                Some(Value::String(name)) => name.clone(),
                other => panic!("row of '{key}' has no network name: {other:?}"),
            };
            let seed_total = seed_row
                .get("total_us")
                .and_then(number)
                .unwrap_or_else(|| panic!("row '{network}' of '{key}' has no total_us"));
            let profile = profiles::all()
                .into_iter()
                .find(|p| p.name == network)
                .unwrap_or_else(|| panic!("unknown network profile '{network}' in baseline"));
            let measured = measure_read_fault(profile, policy).total_us;
            let drift = (measured - seed_total) / seed_total;
            let verdict = if drift.abs() > THRESHOLD {
                failures.push(format!(
                    "{key} / {network}: measured {measured:.1} us vs seed {seed_total:.1} us \
                     ({:+.1}% > ±{:.0}%)",
                    drift * 100.0,
                    THRESHOLD * 100.0
                ));
                "FAIL"
            } else {
                "ok"
            };
            rows.push(vec![
                key.split('_').next().unwrap_or(key).to_string(),
                network,
                format!("{seed_total:.1}"),
                format!("{measured:.1}"),
                format!("{:+.2}%", drift * 100.0),
                verdict.to_string(),
            ]);
        }
    }

    println!("Perf gate: read-fault totals vs {path} (threshold ±10%)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "Table",
                "Network",
                "Seed (us)",
                "Measured (us)",
                "Drift",
                "Gate"
            ],
            &rows
        )
    );

    // ----- transport backend envelope (virtual time) ------------------------
    //
    // The `Ideal` backend *is* the calibrated cost model: a single
    // uncontended page transfer must take exactly
    // `model.page_transfer_time(4096)` — zero drift allowed, so a transport
    // refactor can never silently change the calibrated costs. The
    // `Contended` backend and a loss-free `Lossy` backend must agree on the
    // uncontended case (their queues are empty); the contended fan-in
    // column shows where they stop agreeing, informationally.
    let lossless = TransportTuning {
        backend: TransportBackend::Lossy(LossyConfig {
            drop_per_mille: 0,
            dup_per_mille: 0,
            ..LossyConfig::default()
        }),
    };
    let mut transport_rows = Vec::new();
    for model in profiles::all() {
        let expected = model.page_transfer_time(4096);
        let mut cells = vec![
            model.name.clone(),
            format!("{:.1}", expected.as_micros_f64()),
        ];
        let mut verdict = "ok";
        for tuning in [
            TransportTuning::ideal(),
            TransportTuning::contended(),
            lossless,
        ] {
            let probed = probe_single_transfer(&model, tuning);
            cells.push(format!("{:.1}", probed.as_micros_f64()));
            if probed != expected {
                verdict = "FAIL";
                failures.push(format!(
                    "transport / {} / {}: uncontended 4 kB transfer took {} vs model {} \
                     (exact match required)",
                    model.name,
                    tuning.backend.name(),
                    probed,
                    expected
                ));
            }
        }
        let fan_in = probe_fan_in(&model, TransportTuning::contended(), 3, 2);
        cells.push(format!("{:.1}", fan_in.as_micros_f64()));
        cells.push(verdict.to_string());
        transport_rows.push(cells);
    }
    println!("Transport gate: uncontended 4 kB transfer must match the model exactly\n");
    println!(
        "{}",
        markdown_table(
            &[
                "Network",
                "Model (us)",
                "Ideal (us)",
                "Contended (us)",
                "Lossless (us)",
                "Fan-in 3x2 contended (us)",
                "Gate"
            ],
            &transport_rows
        )
    );

    // ----- coherence granularity envelope (virtual time) --------------------
    //
    // Deterministic virtual-time measurements: the ratios are bit-stable on
    // every machine. `BENCH_pr10.json` records the same numbers from the
    // `line_coherence` binary for context.
    let fs_nodes = 4;
    let fs_proto = "li_hudak_fixed";
    let page_run = run_false_sharing(&FalseSharingConfig::small(fs_nodes), fs_proto);
    let line_run = {
        let mut config = FalseSharingConfig::small(fs_nodes);
        config.tuning = config.tuning.with_granularity(64);
        run_false_sharing(&config, fs_proto)
    };
    let bytes_ratio =
        page_run.wire.envelope_bytes as f64 / line_run.wire.envelope_bytes.max(1) as f64;
    println!(
        "Granularity gate ({fs_proto}, false sharing, {fs_nodes} nodes): page {} wire bytes \
         in {} — 64 B lines {} wire bytes in {} ({bytes_ratio:.1}x fewer bytes, required \
         ≥{GRANULARITY_MIN_BYTES_RATIO:.1}x; strictly less virtual time and identical memory \
         required)",
        page_run.wire.envelope_bytes,
        page_run.elapsed,
        line_run.wire.envelope_bytes,
        line_run.elapsed
    );
    if line_run.final_slots != page_run.final_slots {
        failures.push(format!(
            "granularity: 64 B lines changed the false-sharing kernel's final counters \
             ({fs_proto}, {fs_nodes} nodes)"
        ));
    }
    if bytes_ratio < GRANULARITY_MIN_BYTES_RATIO {
        failures.push(format!(
            "granularity: 64 B lines moved only {bytes_ratio:.2}x fewer wire bytes than whole \
             pages ({} vs {}, required ≥{GRANULARITY_MIN_BYTES_RATIO:.1}x)",
            line_run.wire.envelope_bytes, page_run.wire.envelope_bytes
        ));
    }
    if line_run.elapsed.as_nanos() >= page_run.elapsed.as_nanos() {
        failures.push(format!(
            "granularity: 64 B lines took {} vs {} at page granularity (strictly less virtual \
             time required)",
            line_run.elapsed, page_run.elapsed
        ));
    }
    match std::fs::read_to_string("BENCH_pr10.json")
        .ok()
        .and_then(|text| serde_json::from_str_value(&text).ok())
    {
        Some(baseline) => {
            let line_row = baseline
                .get("false_sharing_granularity")
                .and_then(|rows| match rows {
                    Value::Array(rows) => rows
                        .iter()
                        .find(|r| {
                            r.get("granularity").and_then(number) == Some(64.0)
                                && matches!(r.get("protocol"),
                                            Some(Value::String(p)) if p == fs_proto)
                        })
                        .and_then(|r| r.get("bytes_ratio_vs_page"))
                        .and_then(number),
                    _ => None,
                });
            if let Some(recorded) = line_row {
                println!(
                    "  recorded in BENCH_pr10.json: {recorded:.1}x fewer bytes at 64 B lines \
                     (virtual-time numbers; machine-independent)"
                );
            }
        }
        None => println!(
            "  note: no readable BENCH_pr10.json; regenerate it with the line_coherence binary"
        ),
    }
    println!();

    if failures.is_empty() {
        println!("All totals within the ±10% envelope.");
    } else {
        eprintln!("Perf gate FAILED:");
        for failure in &failures {
            eprintln!("  {failure}");
        }
        eprintln!(
            "If the change is intentional, regenerate BENCH_seed.json with the table3/table4 \
             binaries and commit it."
        );
        std::process::exit(1);
    }
}
