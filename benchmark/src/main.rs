//! The repository's benchmark: five fixed-work DSM kernels measured on both
//! clocks, layer probes, and an outside-in trace. See `README.md`.
//!
//! ```text
//! dsm-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! dsm-benchmark --probes | --selfcheck | --aa [--workload <name>]
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod probes;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use host::{at_nominal_pace, max, median, metric, min, Calib, Metric};
use trace::{Span, Tracer, HOST_THREAD, NO_SPAN};
use workloads::{run_once, Counts, Input, Workload};

/// Times the inputs are generated, checked by the oracle and warmed up by one
/// full-scale repeat; `setup_s` is the median.
const SETUPS: usize = 3;
/// `wall_s` is a median of at least this many timed repeats, however short
/// `--seconds` is and however slow the host.
const MIN_REPEATS: usize = 5;
/// Above this, tracing disturbs what it observes and the traced run says so.
const MAX_TRACE_OVERHEAD_PCT: f64 = 10.0;

/// Measured full-scale / half-scale pairs of `--selfcheck` (one more warms up).
const SELFCHECK_PAIRS: usize = 5;

/// Invocations in each of the two sets of `--aa`: the driver's set size.
const AA_RUNS: usize = 10;
/// `--seconds` of the two traced invocations `--aa` compares count by count.
const AA_TRACED_SECONDS: f64 = 3.0;

/// The one place the end-to-end metrics and their bounds are declared.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Name and regression bound of every end-to-end metric in [`MANIFEST`].
fn end_to_end() -> Vec<(String, f64)> {
    let section = MANIFEST.split("\"end_to_end\"").nth(1).unwrap_or("");
    let section = section.split(']').next().unwrap_or("");
    let entries = section.split('{').skip(1).filter_map(|entry| {
        let field = |key: &str| {
            let rest = entry.split(&format!("\"{key}\":")).nth(1)?;
            let value = rest.split([',', '}']).next()?;
            Some(value.trim().trim_matches('"').to_string())
        };
        Some((field("name")?, field("bound")?.parse().ok()?))
    });
    entries.collect()
}

// ----- one repeat ------------------------------------------------------------

struct Repeat {
    /// Host seconds to build the cluster, run the engine and tear down.
    wall_s: f64,
    /// Host seconds inside `engine.run()`.
    run_s: f64,
    counts: Option<Counts>,
    checked: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// Run the workload once and check its output against the oracle. A repeat
/// that deadlocks or panics fails all of its words instead of taking the
/// benchmark down with it.
fn repeat(input: &Arc<Input>, traced: bool) -> Repeat {
    let tracer = Arc::new(Tracer::new(traced));
    let root = tracer.begin("repeat", NO_SPAN, HOST_THREAD);
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_once(input, &tracer, root)))
        .unwrap_or_else(|_| Err("the harness thread panicked".to_string()));
    let wall_s = started.elapsed().as_secs_f64();

    let checked = input.expected.len() as u64;
    let verify = tracer.begin("verify", root, HOST_THREAD);
    let (failed, run_s, counts) = match result {
        Ok(outcome) => {
            let wrong = outcome
                .words
                .iter()
                .zip(&input.expected)
                .filter(|(got, want)| got != want)
                .count() as u64;
            (wrong, outcome.run_s, Some(outcome.counts))
        }
        Err(error) => {
            eprintln!("repeat failed: {error}");
            (checked, 0.0, None)
        }
    };
    tracer.end(verify);
    tracer.end(root);
    Repeat {
        wall_s,
        run_s,
        counts,
        checked,
        failed,
        spans: tracer.take_spans(),
    }
}

/// Accounting over the repeats of one invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Repeats whose counts differ from the first repeat's.
    count_mismatches: u64,
    first: Option<Counts>,
}

impl Tally {
    fn add(&mut self, r: &Repeat) {
        self.attempted += r.checked;
        self.failed += r.failed;
        match (&self.first, &r.counts) {
            (None, Some(counts)) => self.first = Some(counts.clone()),
            (Some(first), Some(counts)) if first != counts => {
                // Same input, different traffic or virtual time: the run is
                // not the deterministic program the numbers claim to describe.
                eprintln!(
                    "counts differ from the first repeat:\n first {first:?}\n  this {counts:?}"
                );
                self.count_mismatches += 1;
                self.failed += r.checked - r.failed;
            }
            _ => {}
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.count_mismatches == 0 && self.first.is_some()
    }
}

// ----- the measured run ------------------------------------------------------

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Run,
    Probes,
    Selfcheck,
    Aa,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        mode: Mode::Run,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload {name}; one of: {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                // `--trace` alone, or `--trace 0|1` as the driver passes it.
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") | Some("1") => argv.next().as_deref() == Some("1"),
                    _ => true,
                }
            }
            "--probes" => args.mode = Mode::Probes,
            "--selfcheck" => args.mode = Mode::Selfcheck,
            "--aa" => args.mode = Mode::Aa,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.mode == Mode::Run && args.workload.is_none() {
        return Err("--workload <name> is required".to_string());
    }
    Ok(args)
}

/// What the timed repeats of one invocation gave.
struct Measured {
    /// Host seconds of each untraced repeat, as the clock read them...
    wall: Vec<f64>,
    /// ...and at the reference host's quiet pace: the samples of `wall_s`.
    paced: Vec<f64>,
    run: Vec<f64>,
    traced_wall: Vec<f64>,
    shares: Vec<trace::Shares>,
    last_spans: Vec<Span>,
    calib: Vec<f64>,
    /// Process CPU seconds of each untraced repeat.
    cpu: Vec<f64>,
}

/// Timed repeats for about `seconds`, with the noise reference before and
/// after each. With `traced`, untraced and traced repeats alternate.
fn measure(
    input: &Arc<Input>,
    seconds: f64,
    traced: bool,
    calib: &mut Calib,
    tally: &mut Tally,
) -> Measured {
    let mut m = Measured {
        wall: Vec::new(),
        paced: Vec::new(),
        run: Vec::new(),
        traced_wall: Vec::new(),
        shares: Vec::new(),
        last_spans: Vec::new(),
        calib: vec![calib.time()],
        cpu: Vec::new(),
    };
    let started = Instant::now();
    let mut round = 0;
    while m.wall.len() < MIN_REPEATS || started.elapsed().as_secs_f64() < seconds {
        // A process slows down as it ages (every repeat leaves memory
        // behind), so traced and untraced repeats swap places every round:
        // otherwise the later of the pair would always look slower.
        let order: &[bool] = match (traced, round % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        round += 1;
        for &with_spans in order {
            let calib_before = *m.calib.last().expect("a reading precedes every repeat");
            let cpu = host::cpu_seconds();
            let r = repeat(input, with_spans);
            let cpu = host::cpu_seconds() - cpu;
            let calib_after = calib.time();
            m.calib.push(calib_after);
            tally.add(&r);
            if with_spans {
                m.traced_wall.push(r.wall_s);
                m.shares.push(trace::shares(&r.spans));
                m.last_spans = r.spans;
            } else {
                m.wall.push(r.wall_s);
                m.paced
                    .push(at_nominal_pace(r.wall_s, calib_before, calib_after));
                m.run.push(r.run_s);
                m.cpu.push(cpu);
            }
        }
    }
    m
}

fn run_workload(args: &Args, workload: Workload, process_start: Instant) -> ExitCode {
    let mut tally = Tally::default();

    // Set-up: inputs from the seed, the oracle, one untimed full-scale
    // repeat. Done several times so that its time is a median too, each
    // between two readings of the noise reference like a timed repeat. What
    // the process did before the first reading belongs to the first set-up.
    let mut setups = Vec::new();
    let mut input = None;
    let mut lead = process_start.elapsed().as_secs_f64();
    let mut calib = Calib::new();
    let mut calib_before = calib.time();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let started = Instant::now();
        let generated = Arc::new(Input::generate(workload, args.seed, false));
        tally.add(&repeat(&generated, false));
        input = Some(generated);
        let seconds = lead + started.elapsed().as_secs_f64();
        let calib_after = calib.time();
        setups.push(at_nominal_pace(seconds, calib_before, calib_after));
        (lead, calib_before) = (0.0, calib_after);
    }
    let input = input.expect("at least one set-up");
    // Memory is read here, after a fixed number of full-scale repeats: the
    // timed loop below runs as many as the host manages, and every repeat
    // leaves memory behind, so a later reading would follow the host's speed.
    let peak_rss_mb = host::peak_rss_mb();

    let probes = args.trace.then(probes::run_all);
    let m = measure(&input, args.seconds, args.trace, &mut calib, &mut tally);
    let counts = tally.first.clone().unwrap_or_default();
    // `metrics` go into the result line; `also` is what the timed run measures
    // besides its end-to-end metrics (the traced run has them by layer name).
    let (metrics, also) = match probes {
        Some((probes, units, exact)) => {
            if !exact {
                tally.failed += 1;
            }
            let mut metrics = per_layer_metrics(workload, &counts, &tally, &m, probes, &units);
            metrics.push(metric("harness.peak_rss_mb", peak_rss_mb, "MB"));
            (metrics, Vec::new())
        }
        None => (
            vec![
                metric("wall_s", median(&m.paced), "s"),
                metric("setup_s", median(&setups), "s"),
            ],
            vec![
                metric("wall_clock_s", median(&m.wall), "s"),
                metric("virtual_us", counts.virtual_ns as f64 / 1000.0, "us"),
                metric("wire_bytes", counts.wire_bytes as f64, "bytes"),
                metric("peak_rss_mb", peak_rss_mb, "MB"),
            ],
        ),
    };

    println!("{}", host::describe());
    println!(
        "workload: {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let spread = |v: &[f64]| {
        format!(
            "median {:.4} min {:.4} max {:.4}",
            median(v),
            min(v),
            max(v)
        )
    };
    println!(
        "wall_s: {} over {} repeats",
        spread(&m.paced),
        m.paced.len()
    );
    println!("  as the clock read it: {}", spread(&m.wall));
    println!(
        "  calib_s (nominal {}): {}",
        host::CALIB_NOMINAL_S,
        spread(&m.calib)
    );
    println!("  wall_s of each repeat: {:.3?}", m.paced);
    println!("  as the clock read it: {:.3?}", m.wall);
    println!("  calib_s around them:  {:.3?}", m.calib);
    if args.trace {
        println!(
            "traced wall_s: median {:.4} min {:.4} max {:.4} over {} repeats",
            median(&m.traced_wall),
            min(&m.traced_wall),
            max(&m.traced_wall),
            m.traced_wall.len()
        );
        let path = trace_path(workload);
        match trace::write_jsonl(&path, &m.last_spans) {
            Ok(()) => println!("trace: {} spans in {}", m.last_spans.len(), path.display()),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
    }

    let print = |m: &Metric| println!("{:<42} {:>16.6} {}", m.name, m.value, m.unit);
    metrics.iter().for_each(print);
    if !also.is_empty() {
        println!("measured as well, outside the result line (README: why not end to end):");
        also.iter().for_each(print);
    }
    let overhead = metrics.iter().find(|m| m.name == "trace.overhead_pct");
    if let Some(overhead) = overhead.filter(|m| m.value > MAX_TRACE_OVERHEAD_PCT) {
        println!(
            "WARNING: trace.overhead_pct {:.1} is above {MAX_TRACE_OVERHEAD_PCT}: read the trace.* and attrib.* shares of this run with that in mind",
            overhead.value
        );
    }
    println!(
        "ops_total={} ops_failed={} count_mismatches={}",
        tally.attempted, tally.failed, tally.count_mismatches
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A ratio over a repeat that failed has no JSON form.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    exit_code(tally.correct())
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where the spans go: next to the executable, i.e. inside the build
/// directory, which every checkout ignores.
fn trace_path(workload: Workload) -> std::path::PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    dir.join(format!("trace_{}.jsonl", workload.name()))
}

fn per_layer_metrics(
    workload: Workload,
    counts: &Counts,
    tally: &Tally,
    m: &Measured,
    probes: Vec<Metric>,
    units: &probes::Units,
) -> Vec<Metric> {
    let wall = median(&m.wall);
    let run = median(&m.run);
    let mut out = vec![metric(
        "sim.virtual_us",
        counts.virtual_ns as f64 / 1000.0,
        "us",
    )];
    for (name, value) in counts.named() {
        let unit = if name.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        out.push(metric(name, value as f64, unit));
    }
    out.push(metric(
        "sim.ns_per_event",
        wall * 1e9 / counts.events.max(1) as f64,
        "ns",
    ));
    out.push(metric(
        "madeleine.messages_per_envelope",
        counts.messages as f64 / counts.envelopes.max(1) as f64,
        "count",
    ));
    out.extend(probes);

    let share = |f: fn(&trace::Shares) -> f64| median(&m.shares.iter().map(f).collect::<Vec<_>>());
    out.push(metric("trace.app_share", share(|s| s.app), "share"));
    out.push(metric("trace.fault_share", share(|s| s.fault), "share"));
    out.push(metric("trace.runtime_share", share(|s| s.sync), "share"));
    // Pair by pair, so that the drift of an ageing process cancels (the
    // order within a pair alternates).
    let overhead: Vec<f64> = m
        .traced_wall
        .iter()
        .zip(&m.wall)
        .map(|(traced, plain)| (traced / plain - 1.0) * 100.0)
        .collect();
    out.push(metric("trace.overhead_pct", median(&overhead), "%"));
    for (name, value) in units.attribute(workload.protocol(), counts, run * 1e9) {
        out.push(metric(name, value, "share"));
    }
    out.push(metric("harness.wall_s", wall, "s"));
    out.push(metric("harness.run_s", run, "s"));
    out.push(metric("harness.calib_s", median(&m.calib), "s"));
    out.push(metric("harness.cpu_s", median(&m.cpu), "s"));
    out.push(metric(
        "harness.count_mismatches",
        tally.count_mismatches as f64,
        "count",
    ));
    out
}

// ----- --probes --------------------------------------------------------------

fn run_probes() -> ExitCode {
    println!("{}", host::describe());
    let (probes, _, exact) = probes::run_all();
    for p in &probes {
        println!("{:<42} {:>16.3} {}", p.name, p.value, p.unit);
    }
    println!("accuracy probes equal the repo's table3/table4 totals: {exact}");
    exit_code(exact)
}

// ----- --selfcheck -----------------------------------------------------------

/// Does `wall_s` track the work? Run each workload at full and at half scale:
/// the time must about halve and the workload's own work count must halve.
fn run_selfcheck(args: &Args) -> ExitCode {
    println!("{}", host::describe());
    let mut ok = true;
    for workload in selected(args) {
        let full = Arc::new(Input::generate(workload, args.seed, false));
        let half = Arc::new(Input::generate(workload, args.seed, true));
        let mut tally = [Tally::default(), Tally::default()];
        let mut wall = [Vec::new(), Vec::new()];
        for _ in 0..=SELFCHECK_PAIRS {
            for (i, input) in [&full, &half].into_iter().enumerate() {
                let r = repeat(input, false);
                tally[i].add(&r);
                wall[i].push(r.wall_s);
            }
        }
        // The first pair warmed up. The two runs of a pair are neighbours in
        // time, so their ratio holds when the host changes pace.
        let ratios: Vec<f64> = wall[1][1..]
            .iter()
            .zip(&wall[0][1..])
            .map(|(half, full)| half / full)
            .collect();
        let ratio = median(&ratios);
        let mut pass = (0.4..=0.6).contains(&ratio) && tally.iter().all(Tally::correct);
        let mut line = format!("{:<15} wall_s(1/2)/wall_s(1) = {ratio:.3}", workload.name());
        if let [Some(full), Some(half)] = [&tally[0].first, &tally[1].first] {
            for name in workload.work_counts() {
                let r = half.get(name) as f64 / full.get(name).max(1) as f64;
                pass &= (r - 0.5).abs() <= 0.01;
                line += &format!("  {name} = {r:.4}");
            }
        }
        println!("{line}  {}", if pass { "ok" } else { "FAIL" });
        ok &= pass;
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    exit_code(ok)
}

fn selected(args: &Args) -> Vec<Workload> {
    args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

// ----- --aa ------------------------------------------------------------------

/// The metrics of a result line this program printed: (name, value, unit).
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    let body = line.split("\"metrics\": {").nth(1).unwrap_or("");
    body.split("}, ")
        .filter_map(|item| {
            let (name, rest) = item.split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            Some((
                name.trim_start_matches('"').to_string(),
                value.parse().ok()?,
                unit.trim_end_matches(['"', '}']).to_string(),
            ))
        })
        .collect()
}

/// One invocation of this same binary: what it printed, when it exited with
/// success and a correct result line (the last one).
fn invoke(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed])
        .args(["--seconds", &seconds, "--trace", trace])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let correct = result_line(&stdout).contains("\"correct\": true");
    (output.status.success() && correct).then_some(stdout)
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or("")
}

/// A value an invocation printed as `name value unit` above its result line.
fn printed(stdout: &str, name: &str) -> Option<f64> {
    stdout.lines().find_map(|line| {
        let mut tokens = line.split_whitespace();
        (tokens.next()? == name).then(|| tokens.next()?.parse().ok())?
    })
}

/// The same code against itself, the way the driver judges a benchmark: two
/// back-to-back sets of invocations, one seed each. Every end-to-end spread
/// (interquartile range over the median) and the shift between the two
/// medians must stay within the metric's bound, and with the same seed the
/// virtual time, the wire bytes and every count must repeat exactly.
fn run_aa(args: &Args) -> ExitCode {
    println!("{}", host::describe());
    let end_to_end = end_to_end();
    let mut ok = !end_to_end.is_empty();
    let verdict = |pass: bool| if pass { "ok" } else { "FAIL" };
    let spread = |v: &[f64]| {
        let (q1, q3) = host::quartiles(v);
        (q3 - q1) / median(v)
    };
    for workload in selected(args) {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for run in 0..AA_RUNS {
                match invoke(workload, args.seed + run as u64, args.seconds, false) {
                    Some(stdout) => set.push(stdout),
                    None => {
                        println!("{:<15} an invocation failed", workload.name());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (name, bound) in &end_to_end {
            let values = |set: &Vec<String>| -> Vec<f64> {
                set.iter()
                    .flat_map(|stdout| parse_metrics(result_line(stdout)))
                    .filter(|(n, _, _)| n == name)
                    .map(|(_, v, _)| v)
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let shift = (median(&b) - median(&a)) / median(&a);
            // Set-up time is bounded on its median only, as by the driver.
            let steady = name == "setup_s" || spread(&a).max(spread(&b)) <= *bound;
            let pass = steady && shift.abs() <= *bound;
            println!(
                "{:<15} {name:<12} medians {:.4} {:.4} shift {:+.2}% spreads {:.2}% {:.2}% bound {:.0}%  {}",
                workload.name(),
                median(&a),
                median(&b),
                shift * 100.0,
                spread(&a) * 100.0,
                spread(&b) * 100.0,
                bound * 100.0,
                verdict(pass)
            );
            ok &= pass;
        }
        // The other clock: the invocations of one seed, one from each set,
        // must agree exactly on the virtual time and on the wire bytes.
        let same_model = ["virtual_us", "wire_bytes"].iter().all(|name| {
            sets[0].iter().zip(&sets[1]).all(|(a, b)| {
                let (a, b) = (printed(a, name), printed(b, name));
                a.is_some() && a == b
            })
        });
        println!(
            "{:<15} virtual_us and wire_bytes bit-identical in both sets, seed by seed: {}",
            workload.name(),
            verdict(same_model)
        );
        ok &= same_model;
        // Shown, not judged: `wall_s` before it was scaled by the noise
        // reference, and memory, which repeats too loosely for a bound.
        for name in ["wall_clock_s", "peak_rss_mb"] {
            let values = |set: &Vec<String>| -> Vec<f64> {
                set.iter().filter_map(|out| printed(out, name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            println!(
                "{:<15} {name:<12} medians {:.4} {:.4} shift {:+.2}% spreads {:.2}% {:.2}% (not judged)",
                workload.name(),
                median(&a),
                median(&b),
                (median(&b) - median(&a)) / median(&a) * 100.0,
                spread(&a) * 100.0,
                spread(&b) * 100.0,
            );
        }
        // Every count: two traced invocations with one seed. Counts, bytes
        // and virtual microseconds are the program's own arithmetic.
        let exact = |stdout: &str| -> Vec<(String, f64)> {
            parse_metrics(result_line(stdout))
                .into_iter()
                .filter(|(_, _, unit)| ["count", "bytes", "us"].contains(&unit.as_str()))
                .map(|(name, value, _)| (name, value))
                .collect()
        };
        let traced: Vec<_> = (0..2)
            .map(|_| invoke(workload, args.seed, AA_TRACED_SECONDS, true))
            .collect();
        let same = match (&traced[0], &traced[1]) {
            (Some(a), Some(b)) => !exact(a).is_empty() && exact(a) == exact(b),
            _ => false,
        };
        println!(
            "{:<15} every count and the virtual time bit-identical across traced invocations: {}",
            workload.name(),
            verdict(same)
        );
        ok &= same;
    }
    println!("aa: {}", if ok { "passed" } else { "FAILED" });
    exit_code(ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    host::scrub_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("dsm-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::Run => run_workload(
            &args,
            args.workload.expect("checked by parse_args"),
            process_start,
        ),
        Mode::Probes => run_probes(),
        Mode::Selfcheck => run_selfcheck(&args),
        Mode::Aa => run_aa(&args),
    }
}
