//! The five fixed-work kernels, their seeded inputs and their host-side
//! oracles.
//!
//! Every kernel is a closed loop of 4 simulated nodes x 1 thread on
//! BIP/Myrinet with default tunings, written against the public facade only.
//! The seed drives the input generator and nothing else: the program receives
//! the generated arrays. Each kernel was chosen because it loads a different
//! set of layers (see [`Workload`]), so that a change that helps one and hurts
//! another shows.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dsm_pm2::core::DsmStatsSnapshot;
use dsm_pm2::hyperion::HyperionHeap;
use dsm_pm2::prelude::*;

use crate::host::Rng;
use crate::trace::{SpanId, Tracer, NO_SPAN};

const NODES: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Jacobi on two block-homed grids under `hbrc_mw`: more than 99% of the
    /// accesses hit locally, so the `core` typed-access fast path does nearly
    /// all the work and the engine and the transport almost none.
    StencilLocal,
    /// 4 nodes read-modify-write their own slot of 4 shared pages under
    /// `li_hudak_fixed`: ownership transfer and invalidation on every access.
    /// The fault path, `protocols`, `pm2` RPC and handler threads, `madeleine`
    /// and `sim` do the work; the access fast path does none.
    WritePingpong,
    /// One writer, three readers on 8 pages under `li_hudak_fixed`: the same
    /// fault and transport layers as `write_pingpong`, used for read
    /// replication and invalidation fan-out instead of ownership migration, so
    /// a gain for writers that costs readers (or the reverse) shows.
    ReadFanout,
    /// Every node dirties its stripe of 8 round-robin-homed pages under
    /// `hbrc_mw`: twins, diff compute/apply and release-time invalidation,
    /// which neither `li_hudak_fixed` workload touches.
    DiffRelease,
    /// `java_ic` Hyperion heap, 7 `get` : 1 `put` on the thread's own objects,
    /// rare remote gets, a monitor-protected shared counter: inline checks
    /// in-slice dominate, with properly synchronised seeding.
    ObjectChecks,
}

// Frozen sizes: one repeat takes 1-2 s on the 2-vCPU reference host.
const STENCIL_GRID: usize = 512;
const STENCIL_SWEEPS: usize = 6;
const PINGPONG_PAGES: usize = 4;
const PINGPONG_ROUNDS: usize = 4000;
const FANOUT_PAGES: usize = 8;
const FANOUT_ROUNDS: usize = 3000;
const DIFF_PAGES: usize = 8;
const DIFF_ROUNDS: usize = 2000;
const DIFF_WORDS: usize = 8;
const OBJECTS: usize = 64;
const FIELDS: usize = 8;
const OBJECT_OPS: usize = 560 * MONITOR_EVERY;
const REMOTE_EVERY: usize = 64;
const MONITOR_EVERY: usize = 4096;

/// A 64-byte slot: the unit the li_hudak kernels read and write at once.
const SLOT_BYTES: usize = 64;
const SLOT_WORDS: usize = SLOT_BYTES / 8;
const SLOTS_PER_PAGE: usize = PAGE_SIZE / SLOT_BYTES;
/// Each node's stripe of a `diff_release` page.
const STRIPE_BYTES: usize = PAGE_SIZE / NODES;
const STRIPE_WORDS: usize = STRIPE_BYTES / 8;

const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

fn fold(acc: u64, v: u64) -> u64 {
    acc.rotate_left(5) ^ v.wrapping_mul(MUL)
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::StencilLocal,
        Workload::WritePingpong,
        Workload::ReadFanout,
        Workload::DiffRelease,
        Workload::ObjectChecks,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StencilLocal => "stencil_local",
            Workload::WritePingpong => "write_pingpong",
            Workload::ReadFanout => "read_fanout",
            Workload::DiffRelease => "diff_release",
            Workload::ObjectChecks => "object_checks",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Protocol the workload's shared memory is managed by.
    pub fn protocol(self) -> &'static str {
        match self {
            Workload::StencilLocal | Workload::DiffRelease => "hbrc_mw",
            Workload::WritePingpong | Workload::ReadFanout => "li_hudak_fixed",
            Workload::ObjectChecks => "java_ic",
        }
    }

    /// Sweeps, rounds or operations per thread at full scale.
    fn full_rounds(self) -> usize {
        match self {
            Workload::StencilLocal => STENCIL_SWEEPS,
            Workload::WritePingpong => PINGPONG_ROUNDS,
            Workload::ReadFanout => FANOUT_ROUNDS,
            Workload::DiffRelease => DIFF_ROUNDS,
            Workload::ObjectChecks => OBJECT_OPS,
        }
    }

    /// The count that is this workload's work: `--selfcheck` requires it to
    /// halve when the rounds do.
    pub fn work_counts(self) -> &'static [&'static str] {
        match self {
            Workload::StencilLocal => &["core.local_accesses"],
            Workload::ObjectChecks => &["hyperion.inline_checks"],
            _ => &["madeleine.messages", "madeleine.bytes", "sim.events"],
        }
    }
}

/// Inputs of one workload, generated from the seed, plus the output the
/// host-side oracle expects. `words` and `picks` are laid out per workload
/// (see the `generate_*` functions).
pub struct Input {
    pub workload: Workload,
    /// Sweeps, rounds or operations per thread.
    rounds: usize,
    words: Vec<u64>,
    picks: Vec<u16>,
    pub expected: Vec<u64>,
}

impl Input {
    /// Generate the inputs for `workload` from `seed` and run the oracle.
    /// `halve` runs half the rounds (the `--selfcheck` scale).
    pub fn generate(workload: Workload, seed: u64, halve: bool) -> Input {
        let rounds = workload.full_rounds() / if halve { 2 } else { 1 };
        let mut input = Input {
            workload,
            rounds,
            words: Vec::new(),
            picks: Vec::new(),
            expected: Vec::new(),
        };
        let mut rng = Rng::new(seed, workload as u64 + 1);
        match workload {
            Workload::StencilLocal => generate_stencil(&mut input, &mut rng),
            Workload::WritePingpong => generate_pingpong(&mut input, &mut rng),
            Workload::ReadFanout => generate_fanout(&mut input, &mut rng),
            Workload::DiffRelease => generate_diff(&mut input, &mut rng),
            Workload::ObjectChecks => generate_objects(&mut input, &mut rng),
        }
        input
    }
}

/// Everything the layers counted during one repeat. Two repeats of the same
/// input must agree on every field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub virtual_ns: u64,
    pub events: u64,
    pub context_switches: u64,
    pub threads_spawned: u64,
    pub messages: u64,
    pub envelopes: u64,
    pub wire_bytes: u64,
    pub dsm: DsmStatsSnapshot,
}

impl Counts {
    /// The counts under their metric names (layer = crate name).
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        let d = &self.dsm;
        vec![
            ("sim.events", self.events),
            ("sim.context_switches", self.context_switches),
            ("sim.threads_spawned", self.threads_spawned),
            ("madeleine.messages", self.messages),
            ("madeleine.bytes", self.wire_bytes),
            ("madeleine.envelopes", self.envelopes),
            ("core.read_faults", d.read_faults),
            ("core.write_faults", d.write_faults),
            ("core.page_transfers", d.page_transfers),
            ("core.invalidations", d.invalidations),
            ("core.local_accesses", d.local_accesses),
            ("core.barriers", d.barriers),
            ("core.lock_acquires", d.lock_acquires),
            ("core.one_sided_serves", d.one_sided_serves),
            ("core.fetch_handler_wakes", d.fetch_handler_wakes),
            ("core.coherence_batches", d.coherence_batches),
            ("core.twins_created", d.twins_created),
            ("core.diffs_sent", d.diffs_sent),
            ("core.diff_bytes", d.diff_bytes),
            ("hyperion.inline_checks", d.inline_checks),
        ]
    }

    pub fn get(&self, name: &str) -> u64 {
        self.named()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| v)
    }
}

/// Result of one repeat.
pub struct Outcome {
    /// Output words, to be compared with `Input::expected`.
    pub words: Vec<u64>,
    pub counts: Counts,
    /// Host seconds spent inside `engine.run()`.
    pub run_s: f64,
}

/// What a simulated thread needs to record its spans and hand back output.
struct Thread {
    tracer: Arc<Tracer>,
    node: usize,
    out: Arc<Mutex<Vec<u64>>>,
}

/// An open `access_block` span and the global virtual clock when it began.
struct Block(SpanId, SimTime);

impl Thread {
    /// Begin a batch of typed accesses.
    fn open(&self, ctx: &mut DsmThreadCtx<'_, '_>) -> Block {
        Block(
            self.tracer.thread_begin("access_block", self.node),
            ctx.sim().global_now(),
        )
    }

    /// Whether the thread blocked since `block` began: the global virtual
    /// clock only moves when the running thread yields.
    fn yielded(&self, ctx: &mut DsmThreadCtx<'_, '_>, block: &Block) -> bool {
        ctx.sim().global_now() != block.1
    }

    fn close(&self, ctx: &mut DsmThreadCtx<'_, '_>, block: Block) {
        if block.0 != NO_SPAN {
            self.tracer.end_block(block.0, self.yielded(ctx, &block));
        }
    }

    fn block<R>(
        &self,
        ctx: &mut DsmThreadCtx<'_, '_>,
        f: impl FnOnce(&mut DsmThreadCtx<'_, '_>) -> R,
    ) -> R {
        let block = self.open(ctx);
        let r = f(ctx);
        self.close(ctx, block);
        r
    }

    fn barrier(&self, ctx: &mut DsmThreadCtx<'_, '_>, barrier: BarrierId) {
        let span = self.tracer.thread_begin("barrier", self.node);
        ctx.dsm_barrier(barrier);
        self.tracer.end(span);
    }

    /// Publish this thread's output words at `at` (no DSM access while the
    /// host mutex is held: a DSM access may park the thread).
    fn publish(&self, at: usize, words: &[u64]) {
        let mut out = self.out.lock().expect("output poisoned");
        out[at..at + words.len()].copy_from_slice(words);
    }
}

/// A BIP/Myrinet DSM cluster of `nodes` nodes with default tunings, every
/// protocol registered and `protocol` as the default.
pub fn dsm_cluster(nodes: usize, protocol: &str) -> (Engine, DsmRuntime, ProtocolId) {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(nodes));
    let _ = register_all_protocols(&rt);
    let id = rt
        .protocol_by_name(protocol)
        .unwrap_or_else(|| panic!("protocol {protocol} is not registered"));
    rt.set_default_protocol(id);
    (engine, rt, id)
}

/// Build a 4-node cluster, run the workload once on `input`, tear it down.
/// The caller times the whole call: it is one repeat's `wall_s`. A deadlock
/// or a panic of a simulated thread comes back as `Err`.
pub fn run_once(input: &Arc<Input>, tracer: &Arc<Tracer>, root: SpanId) -> Result<Outcome, String> {
    let (engine, rt, protocol) = tracer.scope("build", root, || {
        dsm_cluster(NODES, input.workload.protocol())
    });
    let out = Arc::new(Mutex::new(vec![0u64; input.expected.len()]));
    let spawn = |node: usize, body: Body| {
        let thread = Thread {
            tracer: tracer.clone(),
            node,
            out: out.clone(),
        };
        rt.spawn_dsm_thread(
            NodeId(node),
            format!("{}-{node}", input.workload.name()),
            move |ctx| body(&thread, ctx),
        );
    };
    match input.workload {
        Workload::StencilLocal => setup_stencil(input, tracer, root, &rt, protocol, &spawn),
        Workload::WritePingpong => setup_pingpong(input, tracer, root, &rt, protocol, &spawn),
        Workload::ReadFanout => setup_fanout(input, tracer, root, &rt, protocol, &spawn),
        Workload::DiffRelease => setup_diff(input, tracer, root, &rt, protocol, &spawn),
        Workload::ObjectChecks => setup_objects(input, tracer, root, &rt, protocol, &spawn),
    }

    let mut engine = engine;
    let run_span = tracer.begin_run(root);
    let started = Instant::now();
    let report = engine.run();
    let run_s = started.elapsed().as_secs_f64();
    tracer.end(run_span);

    tracer.scope("teardown", root, || {
        let report = report.map_err(|e| e.to_string())?;
        let wire = rt.cluster().network().wire_stats();
        let counts = Counts {
            virtual_ns: report.final_time.as_nanos(),
            events: report.events,
            context_switches: report.context_switches,
            threads_spawned: report.threads_spawned,
            messages: wire.messages,
            envelopes: wire.envelopes,
            wire_bytes: rt.cluster().network().stats().bytes(),
            dsm: rt.stats().snapshot(),
        };
        let words = std::mem::take(&mut *out.lock().expect("output poisoned"));
        drop(rt);
        drop(engine);
        Ok(Outcome {
            words,
            counts,
            run_s,
        })
    })
}

/// The body of one simulated thread, and the function a kernel's set-up uses
/// to start it on a node.
type Body = Box<dyn FnOnce(&Thread, &mut DsmThreadCtx<'_, '_>) + Send>;
type Spawn<'a> = &'a dyn Fn(usize, Body);

fn le_words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
}

// ----- stencil_local ---------------------------------------------------------
//
// words: the boundary of the grid as f64 bits: top row, bottom row, left
// column, right column (GRID values each).

fn stencil_boundary(input: &Input, row: usize, col: usize) -> Option<f64> {
    let n = STENCIL_GRID;
    let at = |side: usize, i: usize| f64::from_bits(input.words[side * n + i]);
    if row == 0 {
        Some(at(0, col))
    } else if row == n - 1 {
        Some(at(1, col))
    } else if col == 0 {
        Some(at(2, row))
    } else if col == n - 1 {
        Some(at(3, row))
    } else {
        None
    }
}

fn generate_stencil(input: &mut Input, rng: &mut Rng) {
    let n = STENCIL_GRID;
    input.words = (0..4 * n)
        .map(|_| (rng.below(100_000) as f64 / 1000.0).to_bits())
        .collect();
    // Oracle: the same sweeps, sequentially, with the same expression.
    let mut src = vec![0.0f64; n * n];
    for row in 0..n {
        for col in 0..n {
            if let Some(v) = stencil_boundary(input, row, col) {
                src[row * n + col] = v;
            }
        }
    }
    let mut dst = src.clone();
    for _ in 0..input.rounds {
        for row in 1..n - 1 {
            for col in 1..n - 1 {
                let (up, down) = (src[(row - 1) * n + col], src[(row + 1) * n + col]);
                let (left, right) = (src[row * n + col - 1], src[row * n + col + 1]);
                dst[row * n + col] = (up + down + left + right) / 4.0;
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    input.expected = src.iter().map(|v| v.to_bits()).collect();
}

fn setup_stencil(
    input: &Arc<Input>,
    tracer: &Tracer,
    root: SpanId,
    rt: &DsmRuntime,
    protocol: ProtocolId,
    spawn: Spawn<'_>,
) {
    let n = STENCIL_GRID;
    let (grid_a, grid_b, barrier) = tracer.scope("alloc", root, || {
        let attr = DsmAttr::with_protocol(protocol).home(HomePolicy::Block);
        let bytes = (n * n * 8) as u64;
        (
            rt.dsm_malloc(bytes, attr),
            rt.dsm_malloc(bytes, attr),
            rt.create_barrier(NODES, None),
        )
    });
    let cell = move |grid: DsmAddr, row: usize, col: usize| grid.add(((row * n + col) * 8) as u64);
    tracer.scope("spawn", root, || {
        for node in 0..NODES {
            let input = input.clone();
            spawn(
                node,
                Box::new(move |th, ctx| {
                    let rows = n / NODES;
                    let (first, last) = (node * rows, (node + 1) * rows);
                    // Shared memory starts zeroed: only the boundary is written.
                    th.block(ctx, |ctx| {
                        let mut set = |row: usize, col: usize| {
                            let v = stencil_boundary(&input, row, col).expect("boundary cell");
                            ctx.write::<f64>(cell(grid_a, row, col), v);
                            ctx.write::<f64>(cell(grid_b, row, col), v);
                        };
                        for row in first..last {
                            if row == 0 || row == n - 1 {
                                (0..n).for_each(|col| set(row, col));
                            } else {
                                set(row, 0);
                                set(row, n - 1);
                            }
                        }
                    });
                    th.barrier(ctx, barrier);

                    let (mut src, mut dst) = (grid_a, grid_b);
                    let (lo, hi) = (first.max(1), last.min(n - 1));
                    for _ in 0..input.rounds {
                        // The first and the last row read a neighbour's halo
                        // row and may fault; the interior cannot. Keeping them
                        // in separate blocks keeps the interior's time exact.
                        for (r0, r1) in [(lo, lo + 1), (lo + 1, hi - 1), (hi - 1, hi)] {
                            th.block(ctx, |ctx| {
                                for row in r0..r1 {
                                    for col in 1..n - 1 {
                                        let up = ctx.read::<f64>(cell(src, row - 1, col));
                                        let down = ctx.read::<f64>(cell(src, row + 1, col));
                                        let left = ctx.read::<f64>(cell(src, row, col - 1));
                                        let right = ctx.read::<f64>(cell(src, row, col + 1));
                                        ctx.write::<f64>(
                                            cell(dst, row, col),
                                            (up + down + left + right) / 4.0,
                                        );
                                    }
                                }
                            });
                        }
                        th.barrier(ctx, barrier);
                        std::mem::swap(&mut src, &mut dst);
                    }

                    // Output: this node's rows of the final grid, a row (one
                    // page) per access.
                    let words = th.block(ctx, |ctx| {
                        let mut words = Vec::with_capacity(rows * n);
                        let mut buf = vec![0u8; n * 8];
                        for row in first..last {
                            ctx.read_bytes(cell(src, row, 0), &mut buf);
                            words.extend(le_words(&buf));
                        }
                        words
                    });
                    th.publish(first * n, &words);
                }),
            );
        }
    });
}

// ----- write_pingpong --------------------------------------------------------
//
// Per (round, node): picks[4] = the order in which the node visits the pages,
// words[1] = the addend of that round.

fn generate_pingpong(input: &mut Input, rng: &mut Rng) {
    for _ in 0..input.rounds * NODES {
        let mut order: [u16; PINGPONG_PAGES] = std::array::from_fn(|p| p as u16);
        for i in (1..PINGPONG_PAGES).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        input.picks.extend(order);
        input.words.push(rng.next_u64());
    }
    // Oracle: each slot word is a chain over the rounds, whatever the order.
    for page in 0..PINGPONG_PAGES {
        for node in 0..NODES {
            for w in 0..SLOT_WORDS {
                let mut v = 0u64;
                for round in 0..input.rounds {
                    v = pingpong_step(v, input.words[round * NODES + node], page, w);
                }
                input.expected.push(v);
            }
        }
    }
}

fn pingpong_step(old: u64, addend: u64, page: usize, word: usize) -> u64 {
    old.wrapping_mul(MUL)
        .wrapping_add(addend)
        .wrapping_add((page * SLOT_WORDS + word) as u64)
}

fn setup_pingpong(
    input: &Arc<Input>,
    tracer: &Tracer,
    root: SpanId,
    rt: &DsmRuntime,
    protocol: ProtocolId,
    spawn: Spawn<'_>,
) {
    let (base, barrier) = tracer.scope("alloc", root, || {
        let attr = DsmAttr::with_protocol(protocol).home(HomePolicy::Fixed(NodeId(0)));
        (
            rt.dsm_malloc((PINGPONG_PAGES * PAGE_SIZE) as u64, attr),
            rt.create_barrier(NODES, None),
        )
    });
    let slot =
        move |page: usize, node: usize| base.add((page * PAGE_SIZE + node * SLOT_BYTES) as u64);
    tracer.scope("spawn", root, || {
        for node in 0..NODES {
            let input = input.clone();
            spawn(
                node,
                Box::new(move |th, ctx| {
                    let mut buf = [0u8; SLOT_BYTES];
                    for round in 0..input.rounds {
                        let i = round * NODES + node;
                        th.block(ctx, |ctx| {
                            for &page in &input.picks[i * PINGPONG_PAGES..(i + 1) * PINGPONG_PAGES]
                            {
                                let page = page as usize;
                                // A read-modify-write faults once, as a write.
                                ctx.ensure_access(slot(page, node), Access::Write);
                                ctx.read_bytes(slot(page, node), &mut buf);
                                for w in 0..SLOT_WORDS {
                                    let range = w * 8..(w + 1) * 8;
                                    let old = u64::from_le_bytes(
                                        buf[range.clone()].try_into().expect("word"),
                                    );
                                    let new = pingpong_step(old, input.words[i], page, w);
                                    buf[range].copy_from_slice(&new.to_le_bytes());
                                }
                                ctx.write_bytes(slot(page, node), &buf);
                            }
                        });
                        th.barrier(ctx, barrier);
                    }
                    if node == 0 {
                        let words = th.block(ctx, |ctx| {
                            let mut words = Vec::new();
                            for page in 0..PINGPONG_PAGES {
                                for owner in 0..NODES {
                                    ctx.read_bytes(slot(page, owner), &mut buf);
                                    words.extend(le_words(&buf));
                                }
                            }
                            words
                        });
                        th.publish(0, &words);
                    }
                }),
            );
        }
    });
}

// ----- read_fanout -----------------------------------------------------------
//
// Per round: picks[8] = the slot rewritten in each page, words[1] = the base
// of the values written that round.

fn fanout_word(base: u64, page: usize, word: usize) -> u64 {
    base.wrapping_add((page * SLOT_WORDS + word) as u64)
        .wrapping_mul(MUL)
}

fn generate_fanout(input: &mut Input, rng: &mut Rng) {
    for _ in 0..input.rounds {
        for _ in 0..FANOUT_PAGES {
            input.picks.push(rng.below(SLOTS_PER_PAGE as u64) as u16);
        }
        input.words.push(rng.next_u64());
    }
    // Oracle: every reader folds every slot it reads, page by page.
    let mut acc = [0u64; FANOUT_PAGES];
    for round in 0..input.rounds {
        for (page, acc) in acc.iter_mut().enumerate() {
            for w in 0..SLOT_WORDS {
                *acc = fold(*acc, fanout_word(input.words[round], page, w));
            }
        }
    }
    for _reader in 1..NODES {
        input.expected.extend(acc);
    }
}

fn setup_fanout(
    input: &Arc<Input>,
    tracer: &Tracer,
    root: SpanId,
    rt: &DsmRuntime,
    protocol: ProtocolId,
    spawn: Spawn<'_>,
) {
    let (base, barrier) = tracer.scope("alloc", root, || {
        let attr = DsmAttr::with_protocol(protocol).home(HomePolicy::Fixed(NodeId(0)));
        (
            rt.dsm_malloc((FANOUT_PAGES * PAGE_SIZE) as u64, attr),
            rt.create_barrier(NODES, None),
        )
    });
    tracer.scope("spawn", root, || {
        for node in 0..NODES {
            let input = input.clone();
            spawn(
                node,
                Box::new(move |th, ctx| {
                    let mut buf = [0u8; SLOT_BYTES];
                    let mut acc = [0u64; FANOUT_PAGES];
                    for round in 0..input.rounds {
                        let slots = &input.picks[round * FANOUT_PAGES..(round + 1) * FANOUT_PAGES];
                        let addr = |page: usize| {
                            base.add((page * PAGE_SIZE + slots[page] as usize * SLOT_BYTES) as u64)
                        };
                        if node == 0 {
                            th.block(ctx, |ctx| {
                                for page in 0..FANOUT_PAGES {
                                    for w in 0..SLOT_WORDS {
                                        let v = fanout_word(input.words[round], page, w);
                                        buf[w * 8..(w + 1) * 8].copy_from_slice(&v.to_le_bytes());
                                    }
                                    ctx.write_bytes(addr(page), &buf);
                                }
                            });
                        }
                        th.barrier(ctx, barrier);
                        if node != 0 {
                            th.block(ctx, |ctx| {
                                for (page, acc) in acc.iter_mut().enumerate() {
                                    ctx.read_bytes(addr(page), &mut buf);
                                    *acc = le_words(&buf).fold(*acc, fold);
                                }
                            });
                        }
                        th.barrier(ctx, barrier);
                    }
                    if node != 0 {
                        th.publish((node - 1) * FANOUT_PAGES, &acc);
                    }
                }),
            );
        }
    });
}

// ----- diff_release ----------------------------------------------------------
//
// Per (round, node): picks[DIFF_WORDS] = the words of its stripe the node
// dirties (in every page), words[1] = the base of the values it writes.

fn diff_word(base: u64, page: usize, k: usize) -> u64 {
    base.wrapping_add((page * DIFF_WORDS + k) as u64)
        .wrapping_mul(MUL)
}

fn generate_diff(input: &mut Input, rng: &mut Rng) {
    for _ in 0..input.rounds * NODES {
        for _ in 0..DIFF_WORDS {
            input.picks.push(rng.below(STRIPE_WORDS as u64) as u16);
        }
        input.words.push(rng.next_u64());
    }
    // Oracle. Output layout: per node, one accumulator per page of what it
    // read from its neighbour, then its own stripe of every page.
    let mut memory = vec![0u64; NODES * DIFF_PAGES * STRIPE_WORDS];
    let mut acc = vec![0u64; NODES * DIFF_PAGES];
    let stripe = |node: usize, page: usize| (node * DIFF_PAGES + page) * STRIPE_WORDS;
    for round in 0..input.rounds {
        for node in 0..NODES {
            let i = round * NODES + node;
            for page in 0..DIFF_PAGES {
                for k in 0..DIFF_WORDS {
                    let w = input.picks[i * DIFF_WORDS + k] as usize;
                    memory[stripe(node, page) + w] = diff_word(input.words[i], page, k);
                }
            }
        }
        for node in 0..NODES {
            let neighbour = (node + 1) % NODES;
            let i = round * NODES + neighbour;
            for page in 0..DIFF_PAGES {
                for k in 0..DIFF_WORDS {
                    let w = input.picks[i * DIFF_WORDS + k] as usize;
                    let a = &mut acc[node * DIFF_PAGES + page];
                    *a = fold(*a, memory[stripe(neighbour, page) + w]);
                }
            }
        }
    }
    for node in 0..NODES {
        input
            .expected
            .extend(&acc[node * DIFF_PAGES..(node + 1) * DIFF_PAGES]);
        input
            .expected
            .extend(&memory[stripe(node, 0)..stripe(node + 1, 0)]);
    }
}

fn setup_diff(
    input: &Arc<Input>,
    tracer: &Tracer,
    root: SpanId,
    rt: &DsmRuntime,
    protocol: ProtocolId,
    spawn: Spawn<'_>,
) {
    let (base, barrier) = tracer.scope("alloc", root, || {
        let attr = DsmAttr::with_protocol(protocol).home(HomePolicy::RoundRobin);
        (
            rt.dsm_malloc((DIFF_PAGES * PAGE_SIZE) as u64, attr),
            rt.create_barrier(NODES, None),
        )
    });
    let word = move |page: usize, node: usize, w: usize| {
        base.add((page * PAGE_SIZE + node * STRIPE_BYTES + w * 8) as u64)
    };
    tracer.scope("spawn", root, || {
        for node in 0..NODES {
            let input = input.clone();
            spawn(
                node,
                Box::new(move |th, ctx| {
                    let neighbour = (node + 1) % NODES;
                    let mut acc = [0u64; DIFF_PAGES];
                    let picks = |round: usize, node: usize| {
                        let i = round * NODES + node;
                        &input.picks[i * DIFF_WORDS..(i + 1) * DIFF_WORDS]
                    };
                    for round in 0..input.rounds {
                        th.block(ctx, |ctx| {
                            let base = input.words[round * NODES + node];
                            for page in 0..DIFF_PAGES {
                                for (k, &w) in picks(round, node).iter().enumerate() {
                                    ctx.write::<u64>(
                                        word(page, node, w as usize),
                                        diff_word(base, page, k),
                                    );
                                }
                            }
                        });
                        th.barrier(ctx, barrier);
                        th.block(ctx, |ctx| {
                            for (page, acc) in acc.iter_mut().enumerate() {
                                for &w in picks(round, neighbour) {
                                    *acc = fold(
                                        *acc,
                                        ctx.read::<u64>(word(page, neighbour, w as usize)),
                                    );
                                }
                            }
                        });
                        th.barrier(ctx, barrier);
                    }
                    let mut words = acc.to_vec();
                    th.block(ctx, |ctx| {
                        let mut buf = vec![0u8; STRIPE_BYTES];
                        for page in 0..DIFF_PAGES {
                            ctx.read_bytes(word(page, node, 0), &mut buf);
                            words.extend(le_words(&buf));
                        }
                    });
                    th.publish(node * words.len(), &words);
                }),
            );
        }
    });
}

// ----- object_checks ---------------------------------------------------------
//
// Per thread: picks[rounds] = its operation stream. Bits 0-3 choose one of the
// thread's 16 objects, bits 4-6 a field 1..=7 (field 0 is written once, before
// the first barrier, and is the only field other nodes read), bits 7-9 are
// zero for a put (1 in 8), bits 10-15 choose the remote object read at the
// head of a group of REMOTE_EVERY operations.

const OWN_OBJECTS: usize = OBJECTS / NODES;

fn object_init(object: usize) -> u64 {
    (object as u64 + 1).wrapping_mul(MUL)
}

fn put_value(node: usize, op: usize) -> u64 {
    ((node * OBJECT_OPS + op) as u64 + 1).wrapping_mul(MUL)
}

/// The remote object a group of operations starts by reading: never one of
/// the thread's own.
fn remote_object(node: usize, pick: u16) -> usize {
    let object = (pick >> 10) as usize % OBJECTS;
    if object % NODES == node {
        (object + 1) % OBJECTS
    } else {
        object
    }
}

fn generate_objects(input: &mut Input, rng: &mut Rng) {
    input.picks = (0..NODES * input.rounds)
        .map(|_| rng.next_u64() as u16)
        .collect();
    // Oracle. Output layout: per node, its accumulator then the fields of its
    // objects; last, the shared counter.
    for node in 0..NODES {
        let mut fields = vec![0u64; OWN_OBJECTS * FIELDS];
        for o in 0..OWN_OBJECTS {
            fields[o * FIELDS] = object_init(o * NODES + node);
        }
        let mut acc = 0u64;
        for op in 0..input.rounds {
            let pick = input.picks[node * input.rounds + op];
            if op % REMOTE_EVERY == 0 {
                acc = fold(acc, object_init(remote_object(node, pick)));
            }
            let at = (pick & 15) as usize * FIELDS + 1 + (pick >> 4 & 7) as usize % (FIELDS - 1);
            if pick >> 7 & 7 == 0 {
                fields[at] = put_value(node, op);
            } else {
                acc = fold(acc, fields[at]);
            }
        }
        input.expected.push(acc);
        input.expected.extend(fields);
    }
    input
        .expected
        .push((NODES * (input.rounds / MONITOR_EVERY)) as u64);
}

fn setup_objects(
    input: &Arc<Input>,
    tracer: &Tracer,
    root: SpanId,
    rt: &DsmRuntime,
    protocol: ProtocolId,
    spawn: Spawn<'_>,
) {
    let (heap, objects, counter, monitor, barrier) = tracer.scope("alloc", root, || {
        let heap = HyperionHeap::new(rt, protocol);
        let objects = Arc::new(heap.alloc_distributed(OBJECTS, FIELDS));
        let counter = heap.alloc_object_on(NodeId(0), 1);
        let monitor = heap.create_monitor(Some(NodeId(0)));
        (
            heap,
            objects,
            counter,
            monitor,
            rt.create_barrier(NODES, None),
        )
    });
    tracer.scope("spawn", root, || {
        for node in 0..NODES {
            let (input, heap, objects) = (input.clone(), heap.clone(), objects.clone());
            spawn(
                node,
                Box::new(move |th, ctx| {
                    let own = |o: usize| objects[o * NODES + node];
                    th.block(ctx, |ctx| {
                        for o in 0..OWN_OBJECTS {
                            heap.put(ctx, own(o), 0, object_init(o * NODES + node));
                        }
                    });
                    th.barrier(ctx, barrier);

                    let picks = &input.picks[node * input.rounds..(node + 1) * input.rounds];
                    let mut acc = 0u64;
                    for (group, ops) in picks.chunks(REMOTE_EVERY).enumerate() {
                        // The remote get is the only operation of the group
                        // that can miss. When it did, the block so far was the
                        // fault path and what follows is not: start afresh.
                        let mut block = th.open(ctx);
                        let remote = objects[remote_object(node, ops[0])];
                        acc = fold(acc, heap.get(ctx, remote, 0));
                        if th.yielded(ctx, &block) {
                            th.close(ctx, block);
                            block = th.open(ctx);
                        }
                        for (k, &pick) in ops.iter().enumerate() {
                            let object = own((pick & 15) as usize);
                            let field = 1 + (pick >> 4 & 7) as usize % (FIELDS - 1);
                            if pick >> 7 & 7 == 0 {
                                let op = group * REMOTE_EVERY + k;
                                heap.put(ctx, object, field, put_value(node, op));
                            } else {
                                acc = fold(acc, heap.get(ctx, object, field));
                            }
                        }
                        th.close(ctx, block);
                        if (group + 1) % (MONITOR_EVERY / REMOTE_EVERY) == 0 {
                            let span = th.tracer.thread_begin("monitor", node);
                            heap.monitor_enter(ctx, monitor);
                            let seen = heap.get(ctx, counter, 0);
                            heap.put(ctx, counter, 0, seen + 1);
                            heap.monitor_exit(ctx, monitor);
                            th.tracer.end(span);
                            th.barrier(ctx, barrier);
                        }
                    }

                    let mut words = vec![acc];
                    th.block(ctx, |ctx| {
                        for o in 0..OWN_OBJECTS {
                            for field in 0..FIELDS {
                                words.push(heap.get(ctx, own(o), field));
                            }
                        }
                    });
                    th.publish(node * words.len(), &words);
                    if node == 0 {
                        let span = th.tracer.thread_begin("monitor", node);
                        heap.monitor_enter(ctx, monitor);
                        let total = heap.get(ctx, counter, 0);
                        heap.monitor_exit(ctx, monitor);
                        th.tracer.end(span);
                        th.publish(NODES * words.len(), &[total]);
                    }
                }),
            );
        }
    });
}
