//! Application-thread context and preemptive thread migration.
//!
//! A PM2 application thread can be migrated transparently between nodes
//! during its execution: its stack and descriptor are copied to the
//! destination node at the same iso-address. In the simulation, the backing
//! execution context never moves (it is an OS thread of the host process);
//! what migration changes is (a) the thread's *location*, which every DSM
//! access consults, and (b) the virtual clock, which is charged the
//! calibrated cost of migrating a [`THREAD_STACK_BYTES`] stack.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use dsmpm2_madeleine::NodeId;
use dsmpm2_sim::{SimDuration, SimHandle, SimTime};

use crate::cluster::Pm2Cluster;
use crate::rpc::{RpcClass, RpcPayload, ServiceKey};

/// The stack a migrating thread carries to its new node: the ~1 kB of the
/// paper's migration measurement (Table 4), which the profiles' migration
/// cost covers. Each migration records this many bytes on its link.
pub const THREAD_STACK_BYTES: usize = 1024;

/// Shared, externally observable state of one PM2 application thread.
#[derive(Debug)]
pub struct Pm2ThreadState {
    name: String,
    /// Index of the node the thread executes on. Written only by the thread
    /// itself when it migrates (Release), read on every DSM access (Acquire).
    node: AtomicUsize,
    migrations: AtomicU64,
    finished: AtomicBool,
}

impl Pm2ThreadState {
    pub(crate) fn new(name: String, node: NodeId) -> Self {
        Pm2ThreadState {
            name,
            node: AtomicUsize::new(node.index()),
            migrations: AtomicU64::new(0),
            finished: AtomicBool::new(false),
        }
    }

    /// Thread name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Node the thread currently executes on.
    #[inline]
    pub fn node(&self) -> NodeId {
        NodeId(self.node.load(Ordering::Acquire))
    }

    /// Number of times the thread has migrated.
    pub fn migrations(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// True once the thread body has returned.
    pub fn finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }
}

/// Execution context handed to every PM2 application thread body.
pub struct Pm2Context<'a> {
    /// The underlying simulation handle (virtual clock, sleeping, spawning).
    pub sim: &'a mut SimHandle,
    cluster: Pm2Cluster,
    state: Arc<Pm2ThreadState>,
}

impl<'a> Pm2Context<'a> {
    pub(crate) fn new(
        sim: &'a mut SimHandle,
        cluster: Pm2Cluster,
        state: Arc<Pm2ThreadState>,
    ) -> Self {
        Pm2Context {
            sim,
            cluster,
            state,
        }
    }

    pub(crate) fn mark_finished(&self) {
        self.state.finished.store(true, Ordering::Relaxed);
    }

    /// The cluster this thread runs in.
    pub fn cluster(&self) -> &Pm2Cluster {
        &self.cluster
    }

    /// The node this thread currently executes on.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.state.node()
    }

    /// Shared state handle (usable from outside the thread).
    pub fn state(&self) -> Arc<Pm2ThreadState> {
        Arc::clone(&self.state)
    }

    /// Current local virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Charge local compute time (folded into the clock at the next yield).
    /// This models compute that is private to the thread and does not contend
    /// for the node's CPU (bookkeeping, protocol overheads).
    pub fn compute(&mut self, d: SimDuration) {
        self.sim.charge(d);
    }

    /// Execute `d` of compute on the node's single CPU, contending with every
    /// other thread currently located on the same node. The thread resumes
    /// when its reservation completes; if other threads queued ahead of it,
    /// that is later than `now + d`.
    pub fn compute_shared(&mut self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        self.sim.flush();
        let now = self.sim.global_now();
        let node = self.node();
        let end = self.cluster.reserve_cpu(node, now, d);
        self.sim.sleep(end - now);
    }

    /// Preemptively migrate this thread to `dest`.
    ///
    /// The virtual clock is charged the interconnect's calibrated migration
    /// cost, and the link carries the thread's stack; afterwards the thread
    /// continues executing with `dest` as its location, so subsequent DSM
    /// accesses are evaluated against `dest`'s page table.
    pub fn migrate_to(&mut self, dest: NodeId) {
        let from = self.node();
        if from == dest {
            return;
        }
        assert!(
            self.cluster.topology().contains(dest),
            "cannot migrate to unknown node {dest}"
        );
        let network = self.cluster.network();
        let cost = network.model().thread_migration_time();
        network.stats().record(THREAD_STACK_BYTES);
        // Re-home the thread onto the destination node's scheduler shard
        // *before* sleeping, so the post-migration wake-up (and everything
        // the thread does afterwards) is in program order with the
        // destination node's other events.
        self.sim.set_shard(dest.index() as u64);
        self.sim.sleep(cost);
        self.state.node.store(dest.index(), Ordering::Release);
        let migrations = self.state.migrations.load(Ordering::Relaxed);
        self.state
            .migrations
            .store(migrations + 1, Ordering::Relaxed);
    }

    /// Blocking RPC issued from this thread's current node.
    pub fn rpc_call(
        &mut self,
        to: NodeId,
        service: impl ServiceKey,
        payload: RpcPayload,
        class: RpcClass,
    ) -> RpcPayload {
        let from = self.node();
        self.cluster
            .rpc_call(self.sim, from, to, service, payload, class)
    }

    /// One-way RPC issued from this thread's current node.
    pub fn rpc_oneway(
        &mut self,
        to: NodeId,
        service: impl ServiceKey,
        payload: RpcPayload,
        class: RpcClass,
    ) {
        let from = self.node();
        self.cluster
            .rpc_oneway(self.sim, from, to, service, payload, class)
    }
}

impl std::fmt::Debug for Pm2Context<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pm2Context('{}' on {} at {})",
            self.state.name(),
            self.node(),
            self.sim.now()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Pm2Config;
    use dsmpm2_madeleine::profiles;
    use dsmpm2_sim::Engine;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    #[test]
    fn migration_charges_the_calibrated_cost_and_moves_the_thread() {
        let mut engine = Engine::new();
        let cluster = Pm2Cluster::new(&engine, Pm2Config::bip_myrinet(2));
        let elapsed = Arc::new(StdAtomicU64::new(0));
        let e = elapsed.clone();
        let state = cluster.spawn_thread_on(NodeId(0), "mover", move |ctx| {
            let start = ctx.now();
            ctx.migrate_to(NodeId(1));
            assert_eq!(ctx.node(), NodeId(1));
            e.store(ctx.now().since(start).as_nanos(), Ordering::SeqCst);
        });
        engine.run().unwrap();
        let expected = profiles::bip_myrinet().thread_migration_time();
        assert_eq!(elapsed.load(Ordering::SeqCst), expected.as_nanos());
        assert_eq!(state.node(), NodeId(1));
        assert_eq!(state.migrations(), 1);
        assert!(state.finished());
        let net = cluster.network().stats();
        assert_eq!(
            (net.messages(), net.bytes()),
            (1, THREAD_STACK_BYTES as u64)
        );
    }

    #[test]
    fn migration_to_current_node_is_free() {
        let mut engine = Engine::new();
        let cluster = Pm2Cluster::new(&engine, Pm2Config::bip_myrinet(2));
        cluster.spawn_thread_on(NodeId(0), "stay", |ctx| {
            let start = ctx.now();
            ctx.migrate_to(NodeId(0));
            assert_eq!(ctx.now().since(start), SimDuration::ZERO);
        });
        engine.run().unwrap();
        assert_eq!(cluster.app_threads()[0].migrations(), 0);
        assert_eq!(cluster.network().stats().messages(), 0);
    }

    #[test]
    fn compute_advances_local_clock() {
        let mut engine = Engine::new();
        let cluster = Pm2Cluster::new(&engine, Pm2Config::bip_myrinet(1));
        cluster.spawn_thread_on(NodeId(0), "worker", |ctx| {
            ctx.compute(SimDuration::from_micros(500));
            assert_eq!(ctx.now(), SimTime::from_micros(500));
        });
        engine.run().unwrap();
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn migrating_to_unknown_node_panics() {
        let mut engine = Engine::new();
        let cluster = Pm2Cluster::new(&engine, Pm2Config::bip_myrinet(2));
        cluster.spawn_thread_on(NodeId(0), "bad", |ctx| {
            ctx.migrate_to(NodeId(5));
        });
        if let Err(dsmpm2_sim::SimError::ThreadPanic { message, .. }) = engine.run() {
            panic!("{}", message);
        }
    }
}
