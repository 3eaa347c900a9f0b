//! Property test: the FIFO-no-overtake invariant of the Madeleine transport
//! holds per directed link under *all four* wire backends.
//!
//! Each sampled case drives a 3-node network through a random message
//! program — random payload sizes (tiny control frames through multi-page
//! transfers), random inter-send gaps and two concurrent senders whose link
//! choices interleave — under a randomly chosen backend (`Ideal`,
//! `Contended`, `Lossy` with a random seed and an aggressive drop rate, or
//! `Permuted` under a seeded schedule controller that picks a random
//! delivery slot for every message and a random order among same-instant
//! events). Every message carries its (link, sequence) tag; the receivers
//! must observe, per directed link, exactly the sent sequence: nothing lost,
//! nothing duplicated, nothing overtaken — for `Lossy` that means the
//! retransmission + reorder machinery must reconstruct the FIFO stream
//! across drops and duplications, for `Permuted` that the link clocks hold
//! on every explored schedule.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;

use dsm_pm2::madeleine::{
    profiles, LossyConfig, Network, NodeId, PermutedConfig, Topology, TransportTuning,
};
use dsm_pm2::sim::{Engine, EventChoice, ScheduleController, SimDuration, SimTime};

const NODES: usize = 3;

/// One sampled send: (sender 0..2, destination offset 1..=2, payload bytes,
/// gap to the next send in µs).
type Send = (usize, usize, usize, u32);

/// Tag carried by every message: (from, to, per-link sequence number).
type Tag = (usize, usize, u64);

fn backend_for(idx: usize, seed: u64) -> TransportTuning {
    match idx {
        0 => TransportTuning::ideal(),
        1 => TransportTuning::contended(),
        2 => TransportTuning::Lossy(LossyConfig {
            seed,
            drop_per_mille: 250,
            dup_per_mille: 100,
            rto_factor: 2,
        }),
        3 => TransportTuning::Lossy(LossyConfig {
            seed,
            drop_per_mille: 600,
            dup_per_mille: 300,
            rto_factor: 1,
        }),
        _ => TransportTuning::Permuted(PermutedConfig { options: 4 }),
    }
}

/// A schedule controller that answers every choice from a seeded xorshift
/// stream: a random delivery slot per message, a random same-instant event.
struct SeededController(Mutex<u64>);

impl SeededController {
    fn next(&self, below: u64) -> u64 {
        let mut x = self.0.lock();
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x % below
    }
}

impl ScheduleController for SeededController {
    fn choose_event(&self, _now: SimTime, choices: &[EventChoice]) -> usize {
        self.next(choices.len() as u64) as usize
    }

    fn choose_delivery(&self, _now: SimTime, _from: u64, _to: u64, options: u32) -> u32 {
        self.next(u64::from(options)) as u32
    }
}

/// Run the message program and return, per directed link, the sequence
/// numbers in the order the destination observed them.
fn observed_orders(
    sends: &[Send],
    tuning: TransportTuning,
    seed: u64,
) -> Vec<((usize, usize), Vec<u64>)> {
    let mut engine = Engine::new();
    if let TransportTuning::Permuted(_) = tuning {
        // Any nonzero state: xorshift never leaves zero.
        let state = Mutex::new(seed | 1 << 32);
        engine.set_controller(Arc::new(SeededController(state)));
    }
    let net: Network<Tag> = Network::with_transport(
        engine.ctl(),
        profiles::bip_myrinet(),
        Topology::flat(NODES),
        tuning,
    );

    // Assign per-link sequence numbers in program order and split the
    // program by sender.
    let mut link_seq = std::collections::HashMap::<(usize, usize), u64>::new();
    let mut programs: Vec<Vec<(usize, usize, u64, u32)>> = vec![Vec::new(); NODES];
    let mut expected_per_node = [0usize; NODES];
    for &(sender, dest_off, bytes, gap_us) in sends {
        let to = (sender + dest_off) % NODES;
        let seq = link_seq.entry((sender, to)).or_insert(0);
        programs[sender].push((to, bytes, *seq, gap_us));
        *seq += 1;
        expected_per_node[to] += 1;
    }

    // Receivers: each node consumes exactly the number of messages addressed
    // to it and records the tags in arrival order.
    let observed = Arc::new(Mutex::new(Vec::<Tag>::new()));
    for (node, &count) in expected_per_node.iter().enumerate() {
        let rx = net.endpoint(NodeId(node));
        let obs = observed.clone();
        engine.spawn(format!("rx{node}"), move |h| {
            for _ in 0..count {
                let env = rx.recv(h);
                obs.lock().push(env.msg);
            }
        });
    }

    // Senders: fire the program with the sampled gaps.
    for (sender, program) in programs.into_iter().enumerate() {
        if program.is_empty() {
            continue;
        }
        let net = net.clone();
        engine.spawn(format!("tx{sender}"), move |h| {
            for (to, bytes, seq, gap_us) in program {
                net.send(h, NodeId(sender), NodeId(to), (sender, to, seq), bytes);
                h.sleep(SimDuration::from_micros(u64::from(gap_us)));
            }
        });
    }

    engine.run().expect("message program must terminate");
    let observed = observed.lock().clone();
    let mut per_link = std::collections::HashMap::<(usize, usize), Vec<u64>>::new();
    for (from, to, seq) in observed {
        per_link.entry((from, to)).or_default().push(seq);
    }
    let mut out: Vec<_> = per_link.into_iter().collect();
    out.sort_by_key(|(link, _)| *link);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Per directed link, every backend delivers exactly the sent sequence:
    /// in order, exactly once — including across drops, retransmissions and
    /// wire duplicates under the lossy backend.
    #[test]
    fn fifo_no_overtake_holds_under_every_backend(
        sends in proptest::collection::vec(
            (0usize..NODES, 1usize..NODES, 0usize..9000, 0u32..60),
            1..40,
        ),
        backend_idx in 0usize..5,
        seed in 0u64..1024,
    ) {
        let tuning = backend_for(backend_idx, seed);
        // Expected: per link, sequences 0..n in order.
        let mut expected = std::collections::HashMap::<(usize, usize), u64>::new();
        for &(sender, dest_off, _, _) in &sends {
            let to = (sender + dest_off) % NODES;
            *expected.entry((sender, to)).or_insert(0) += 1;
        }
        let mut expected: Vec<((usize, usize), Vec<u64>)> = expected
            .into_iter()
            .map(|(link, n)| (link, (0..n).collect()))
            .collect();
        expected.sort_by_key(|(link, _)| *link);

        let observed = observed_orders(&sends, tuning, seed);
        prop_assert_eq!(
            observed,
            expected,
            "per-link delivery diverged from the send order under the {} backend",
            tuning.name()
        );
    }
}
