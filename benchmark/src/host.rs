//! What the harness knows about the host it runs on: environment hygiene,
//! the seeded generator, memory and CPU accounting, the noise-reference
//! kernel and the small statistics every mode shares.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Variables that silently change how the simulator runs. The benchmark
/// measures the shipped defaults, so they are removed before anything reads
/// them (the sim crate caches them on first use).
const SCRUBBED_ENV: [&str; 4] = [
    "DSM_SIM_HANDOFF",
    "DSM_SIM_WORKERS",
    "DSMPM2_TRACE",
    "DSM_MUTANT",
];

/// Remove every tuning variable from the environment. Must run before the
/// first engine is built.
pub fn scrub_env() {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
}

/// SplitMix64: the benchmark's only source of randomness, driven by `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// CPU time (user + system) consumed by this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name, in clock ticks (USER_HZ is 100 on every Linux ABI).
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    let Some(rest) = stat.rsplit(')').next() else {
        return f64::NAN;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(f64::NAN);
    let stime: f64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(f64::NAN);
    (utime + stime) / 100.0
}

/// What [`Calib::time`] reads on the reference host in a quiet phase.
pub const CALIB_NOMINAL_S: f64 = 0.1;

/// The noise reference: a fixed mixed compute/memory kernel (~0.1 s on the
/// reference host). It does the same work on every call, so a change in its
/// time is the host's doing, not the program's.
///
/// Half of it is a chain of dependent integer arithmetic that touches no
/// memory; the other half is a small discrete-event loop — a binary heap of
/// timers, 256 mailboxes of boxed 64-byte messages, 1 MiB of per-actor state
/// touched at random. The shared reference host takes away processor
/// throughput in some phases and cache and memory in others, and this pair is
/// what the workloads were measured to follow through both (README, "Is it
/// steady?"): either half alone, a pointer chase or scattered writes over a
/// 16 MiB buffer all tracked them worse.
pub struct Calib {
    state: Vec<[u64; 512]>,
}

impl Calib {
    const COMPUTE_STEPS: usize = 25_000_000;
    const EVENTS: usize = 660_000;
    const ACTORS: usize = 256;

    pub fn new() -> Self {
        Calib {
            state: vec![[0; 512]; Self::ACTORS],
        }
    }

    /// Run the kernel once and return its host time in seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let (mut x, mut y) = (0x2545_F491_4F6C_DD1Du64, 1u64);
        let step = |x: &mut u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
        };
        for _ in 0..Self::COMPUTE_STEPS {
            step(&mut x);
            y = y.wrapping_mul(x | 1).rotate_left(7);
        }

        let mut timers: BinaryHeap<Reverse<(u64, usize)>> = (0..4 * Self::ACTORS)
            .map(|id| Reverse((id as u64, id)))
            .collect();
        let mut mailboxes: Vec<VecDeque<Box<[u64; 8]>>> =
            (0..Self::ACTORS).map(|_| VecDeque::new()).collect();
        for _ in 0..Self::EVENTS {
            let Reverse((now, id)) = timers.pop().expect("every timer is re-armed");
            step(&mut x);
            let (actor, peer) = (id % Self::ACTORS, (x >> 8) as usize % Self::ACTORS);
            let word = &mut self.state[actor][(x >> 20) as usize % 512];
            *word = word.wrapping_add(now);
            if let Some(message) = mailboxes[actor].pop_front() {
                y = y.wrapping_add(message[3]);
            }
            mailboxes[peer].push_back(Box::new([now; 8]));
            timers.push(Reverse((now + 1 + (x & 1023), id)));
        }
        black_box((x, y, &self.state));
        start.elapsed().as_secs_f64()
    }
}

/// Host seconds taken between two readings of the noise reference, at the
/// reference host's quiet pace: scaled by what the reference should read over
/// what it read before and after.
pub fn at_nominal_pace(seconds: f64, calib_before: f64, calib_after: f64) -> f64 {
    seconds * CALIB_NOMINAL_S / ((calib_before + calib_after) / 2.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line describing where the numbers were taken: CPUs, CPU model,
/// compiler and commit. Wall-clock numbers mean nothing without it.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host: nproc={nproc} cpu=\"{model}\" rustc=\"{}\" commit={}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// A measured value under its metric name.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}
