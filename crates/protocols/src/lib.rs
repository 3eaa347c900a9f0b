//! # dsmpm2-protocols — the built-in DSM-PM2 consistency protocols
//!
//! This crate provides the six built-in protocols of Table 2 of the paper
//! (a hybrid of §2.3, assembled from library routines by user code, is the
//! `custom_protocol` example):
//!
//! | Protocol | Consistency | Features |
//! |---|---|---|
//! | [`LiHudak`] | Sequential | MRSW, page replication on read / migration on write, dynamic distributed manager |
//! | [`MigrateThread`] | Sequential | Thread migration on read and write faults, fixed distributed manager |
//! | [`ErcSw`] | Release | MRSW eager release consistency, dynamic distributed manager |
//! | [`HbrcMw`] | Release | MRMW home-based lazy release consistency, twins and on-release diffing |
//! | [`JavaConsistency::inline_check`] (`java_ic`) | Java | Home-based MRMW, explicit inline locality checks, on-the-fly diff recording |
//! | [`JavaConsistency::page_fault`] (`java_pf`) | Java | Home-based MRMW, page-fault access detection, on-the-fly diff recording |
//!
//! Register them all with [`register_builtin_protocols`], then select one per
//! program (`set_default_protocol`) or per allocation (`DsmAttr`).
//!
//! Beyond the paper's Table 2, the crate also ships three *extension*
//! protocols written on the same toolbox — precisely the kind of protocol
//! experiment the platform exists to make cheap (register them with
//! [`register_extension_protocols`]):
//!
//! | Protocol | Consistency | Features |
//! |---|---|---|
//! | [`LiHudakFixed`] | Sequential | MRSW with a *fixed* distributed manager (all requests routed through the page's home) |
//! | [`EntryConsistency`] (`entry_sw`) | Entry | Midway-style: regions bound to locks, fetched at acquire, published at release |
//! | [`HlrcNotices`] | Release | Home-based *lazy* release consistency: write notices consumed at acquire instead of eager invalidation |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod entry_sw;
mod erc_sw;
mod hbrc_mw;
mod hlrc_notices;
#[cfg(test)]
mod hybrid;
mod java;
mod li_hudak;
mod li_hudak_fixed;
mod migrate_thread;

use std::sync::Arc;

use dsmpm2_core::{DsmRuntime, ProtocolId};

pub use entry_sw::EntryConsistency;
pub use erc_sw::ErcSw;
pub use hbrc_mw::HbrcMw;
pub use hlrc_notices::HlrcNotices;
pub use java::{JavaConsistency, JavaDetection};
pub use li_hudak::LiHudak;
pub use li_hudak_fixed::LiHudakFixed;
pub use migrate_thread::MigrateThread;

/// Identifiers of the built-in protocols after registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuiltinProtocols {
    /// Sequential consistency, page replication/migration (Li & Hudak).
    pub li_hudak: ProtocolId,
    /// Sequential consistency through thread migration.
    pub migrate_thread: ProtocolId,
    /// Eager release consistency, single writer.
    pub erc_sw: ProtocolId,
    /// Home-based release consistency, multiple writers.
    pub hbrc_mw: ProtocolId,
    /// Java consistency with inline locality checks.
    pub java_ic: ProtocolId,
    /// Java consistency with page-fault detection.
    pub java_pf: ProtocolId,
}

/// Register the six built-in protocols on `runtime` and return their ids.
/// Does not change the default protocol.
pub fn register_builtin_protocols(runtime: &DsmRuntime) -> BuiltinProtocols {
    BuiltinProtocols {
        li_hudak: runtime.register_protocol(Arc::new(LiHudak::new())),
        migrate_thread: runtime.register_protocol(Arc::new(MigrateThread::new())),
        erc_sw: runtime.register_protocol(Arc::new(ErcSw::new())),
        hbrc_mw: runtime.register_protocol(Arc::new(HbrcMw::new())),
        java_ic: runtime.register_protocol(Arc::new(JavaConsistency::inline_check())),
        java_pf: runtime.register_protocol(Arc::new(JavaConsistency::page_fault())),
    }
}

/// Identifiers (and shared handles) of the extension protocols after
/// registration with [`register_extension_protocols`].
#[derive(Clone)]
pub struct ExtensionProtocols {
    /// Sequential consistency with a fixed distributed manager.
    pub li_hudak_fixed: ProtocolId,
    /// Entry consistency (Midway-style).
    pub entry_sw: ProtocolId,
    /// Home-based lazy release consistency with write notices.
    pub hlrc_notices: ProtocolId,
    /// Handle used to bind shared regions to their guarding locks
    /// ([`EntryConsistency::bind`]).
    pub entry: Arc<EntryConsistency>,
    /// Handle used to inspect the lazy protocol's write-notice state.
    pub hlrc: Arc<HlrcNotices>,
}

impl std::fmt::Debug for ExtensionProtocols {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtensionProtocols")
            .field("li_hudak_fixed", &self.li_hudak_fixed)
            .field("entry_sw", &self.entry_sw)
            .field("hlrc_notices", &self.hlrc_notices)
            .finish()
    }
}

/// Register the three extension protocols on `runtime` and return their ids
/// together with the handles needed to configure them. Does not change the
/// default protocol.
pub fn register_extension_protocols(runtime: &DsmRuntime) -> ExtensionProtocols {
    let entry = Arc::new(EntryConsistency::new());
    let hlrc = Arc::new(HlrcNotices::new());
    ExtensionProtocols {
        li_hudak_fixed: runtime.register_protocol(Arc::new(LiHudakFixed::new())),
        entry_sw: runtime.register_protocol(entry.clone()),
        hlrc_notices: runtime.register_protocol(hlrc.clone()),
        entry,
        hlrc,
    }
}

/// Register every protocol this crate knows about — the six of the paper's
/// Table 2 plus the three extensions — and return both id sets.
pub fn register_all_protocols(runtime: &DsmRuntime) -> (BuiltinProtocols, ExtensionProtocols) {
    (
        register_builtin_protocols(runtime),
        register_extension_protocols(runtime),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmpm2_core::{
        Access, DsmAttr, DsmRuntime, Engine, HomePolicy, NodeId, Pm2Config, SimDuration, Unit,
    };
    use std::sync::Arc as StdArc;
    use std::sync::Mutex;

    fn setup(nodes: usize) -> (Engine, DsmRuntime, BuiltinProtocols) {
        let engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(nodes));
        let builtins = register_builtin_protocols(&rt);
        (engine, rt, builtins)
    }

    #[test]
    fn builtin_registration_exposes_paper_names() {
        let (_engine, rt, b) = setup(2);
        let names = [
            "li_hudak",
            "migrate_thread",
            "erc_sw",
            "hbrc_mw",
            "java_ic",
            "java_pf",
        ];
        let ids = [
            b.li_hudak,
            b.migrate_thread,
            b.erc_sw,
            b.hbrc_mw,
            b.java_ic,
            b.java_pf,
        ];
        assert_eq!(names.map(|n| rt.protocol_by_name(n)), ids.map(Some));
        assert_eq!(rt.protocol_by_name("nope"), None);
    }

    /// li_hudak: a value written on the home node is read correctly from a
    /// remote node via a read fault + page replication.
    #[test]
    fn li_hudak_read_replication() {
        let (mut engine, rt, builtins) = setup(2);
        rt.set_default_protocol(builtins.li_hudak);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let barrier = rt.create_barrier(2, None);
        let seen = StdArc::new(Mutex::new(0u64));

        rt.spawn_dsm_thread(NodeId(0), "writer", move |ctx| {
            ctx.write::<u64>(addr, 42);
            ctx.dsm_barrier(barrier);
        });
        let seen2 = seen.clone();
        rt.spawn_dsm_thread(NodeId(1), "reader", move |ctx| {
            ctx.dsm_barrier(barrier);
            *seen2.lock().unwrap() = ctx.read::<u64>(addr);
        });
        engine.run().unwrap();
        assert_eq!(*seen.lock().unwrap(), 42);
        let stats = rt.stats().snapshot();
        assert_eq!(stats.read_faults, 1, "one remote read fault expected");
        assert_eq!(stats.page_transfers, 1);
        assert_eq!(stats.thread_migrations, 0);
    }

    /// li_hudak: write ownership migrates and other copies are invalidated, so
    /// the single-writer invariant holds and subsequent readers see the data.
    #[test]
    fn li_hudak_write_migrates_ownership_and_invalidates() {
        let (mut engine, rt, builtins) = setup(3);
        rt.set_default_protocol(builtins.li_hudak);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let b = rt.create_barrier(3, None);
        let results = StdArc::new(Mutex::new(Vec::new()));

        // Node 1 and 2 first read (get copies), then node 2 writes, then all read.
        for node in 0..3usize {
            let results = results.clone();
            rt.spawn_dsm_thread(NodeId(node), format!("t{node}"), move |ctx| {
                // Everyone reads the initial value (0).
                let v0 = ctx.read::<u64>(addr);
                ctx.dsm_barrier(b);
                if node == 2 {
                    ctx.write::<u64>(addr, 7);
                }
                ctx.dsm_barrier(b);
                let v1 = ctx.read::<u64>(addr);
                results.lock().unwrap().push((node, v0, v1));
            });
        }
        engine.run().unwrap();
        let results = results.lock().unwrap();
        for &(_, v0, v1) in results.iter() {
            assert_eq!(v0, 0);
            assert_eq!(v1, 7, "sequential consistency: all readers see the write");
        }
        // Ownership is now at node 2 and node 2 only.
        let unit = Unit::whole(addr.page());
        let owners: Vec<bool> = (0..3)
            .map(|n| rt.page_table(NodeId(n)).get(unit).owned)
            .collect();
        assert_eq!(owners, vec![false, false, true]);
        // After the final round of reads the other nodes requested read
        // copies, so the owner's own copy was downgraded to read-only (MRSW:
        // a single writer *or* multiple readers) — but it must still be
        // readable and the owner must know about the replicas it handed out.
        assert!(rt.page_table(NodeId(2)).access(unit).permits(Access::Read));
        assert!(rt.page_table(NodeId(2)).get(unit).copyset.len() >= 2);
        let stats = rt.stats().snapshot();
        assert!(
            stats.invalidations >= 1,
            "copies must have been invalidated"
        );
    }

    /// migrate_thread: the faulting thread moves to the data; no page ever
    /// travels.
    #[test]
    fn migrate_thread_moves_threads_not_pages() {
        let (mut engine, rt, builtins) = setup(2);
        rt.set_default_protocol(builtins.migrate_thread);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let final_node = StdArc::new(Mutex::new(NodeId(99)));

        let f = final_node.clone();
        let state = rt.spawn_dsm_thread(NodeId(1), "roamer", move |ctx| {
            ctx.write::<u32>(addr, 5);
            assert_eq!(ctx.read::<u32>(addr), 5);
            *f.lock().unwrap() = ctx.node();
        });
        engine.run().unwrap();
        assert_eq!(
            *final_node.lock().unwrap(),
            NodeId(0),
            "thread migrated to the data"
        );
        assert_eq!(state.migrations(), 1);
        let stats = rt.stats().snapshot();
        assert_eq!(stats.page_transfers, 0);
        assert_eq!(stats.thread_migrations, 1);
        assert_eq!(stats.write_faults, 1);
        assert_eq!(
            stats.read_faults, 0,
            "second access is local after migration"
        );
    }

    /// erc_sw: invalidations happen at release, and a reader that
    /// re-synchronizes afterwards sees the new value.
    #[test]
    fn erc_sw_invalidates_at_release() {
        let (mut engine, rt, builtins) = setup(2);
        rt.set_default_protocol(builtins.erc_sw);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let lock = rt.create_lock(Some(NodeId(0)));
        let b = rt.create_barrier(2, None);
        let observed = StdArc::new(Mutex::new((0u64, 0u64)));

        rt.spawn_dsm_thread(NodeId(0), "writer", move |ctx| {
            ctx.dsm_barrier(b); // phase 1: reader takes its copy first
            ctx.dsm_lock(lock);
            ctx.write::<u64>(addr, 99);
            ctx.dsm_unlock(lock); // eager RC: invalidate copies now
            ctx.dsm_barrier(b);
        });
        let obs = observed.clone();
        rt.spawn_dsm_thread(NodeId(1), "reader", move |ctx| {
            let before = ctx.read::<u64>(addr); // takes a read copy
            ctx.dsm_barrier(b);
            ctx.dsm_barrier(b); // wait for the writer's release
            ctx.dsm_lock(lock);
            let after = ctx.read::<u64>(addr);
            ctx.dsm_unlock(lock);
            *obs.lock().unwrap() = (before, after);
        });
        engine.run().unwrap();
        let (before, after) = *observed.lock().unwrap();
        assert_eq!(before, 0);
        assert_eq!(after, 99, "release-consistent value visible after acquire");
        let stats = rt.stats().snapshot();
        assert!(stats.invalidations >= 1);
    }

    /// hbrc_mw: two nodes write different words of the same page concurrently
    /// (multiple writers); after both release, the home holds the merge.
    #[test]
    fn hbrc_mw_merges_concurrent_writers_through_diffs() {
        let (mut engine, rt, builtins) = setup(3);
        rt.set_default_protocol(builtins.hbrc_mw);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let lock1 = rt.create_lock(Some(NodeId(0)));
        let lock2 = rt.create_lock(Some(NodeId(0)));
        let b = rt.create_barrier(3, None);
        let merged = StdArc::new(Mutex::new((0u64, 0u64)));

        for (node, lock, offset, value) in [(1usize, lock1, 0u64, 11u64), (2, lock2, 8, 22)] {
            rt.spawn_dsm_thread(NodeId(node), format!("writer{node}"), move |ctx| {
                ctx.dsm_lock(lock);
                ctx.write::<u64>(addr.add(offset), value);
                ctx.dsm_unlock(lock);
                ctx.dsm_barrier(b);
            });
        }
        let m = merged.clone();
        rt.spawn_dsm_thread(NodeId(0), "home-reader", move |ctx| {
            ctx.dsm_barrier(b);
            *m.lock().unwrap() = (ctx.read::<u64>(addr), ctx.read::<u64>(addr.add(8)));
        });
        engine.run().unwrap();
        assert_eq!(
            *merged.lock().unwrap(),
            (11, 22),
            "home merged both writers' diffs"
        );
        let stats = rt.stats().snapshot();
        assert!(stats.twins_created >= 2);
        assert!(stats.diffs_sent >= 2);
    }

    /// java_pf: modifications recorded with put-granularity reach main memory
    /// at monitor exit and are observed after a monitor entry elsewhere.
    #[test]
    fn java_pf_flushes_recorded_writes_at_monitor_exit() {
        let (mut engine, rt, builtins) = setup(2);
        rt.set_default_protocol(builtins.java_pf);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let monitor = rt.create_lock(Some(NodeId(0)));
        let b = rt.create_barrier(2, None);
        let seen = StdArc::new(Mutex::new(0u32));

        rt.spawn_dsm_thread(NodeId(1), "mutator", move |ctx| {
            ctx.dsm_lock(monitor);
            ctx.write::<u32>(addr.add(16), 1234);
            ctx.dsm_unlock(monitor);
            ctx.dsm_barrier(b);
        });
        let s = seen.clone();
        rt.spawn_dsm_thread(NodeId(0), "observer", move |ctx| {
            ctx.dsm_barrier(b);
            ctx.dsm_lock(monitor);
            *s.lock().unwrap() = ctx.read::<u32>(addr.add(16));
            ctx.dsm_unlock(monitor);
        });
        engine.run().unwrap();
        assert_eq!(*seen.lock().unwrap(), 1234);
        assert!(rt.stats().snapshot().diffs_sent >= 1);
    }

    /// The hybrid protocol of §2.3: reads replicate, writes migrate the thread.
    #[test]
    fn hybrid_protocol_combines_replication_and_migration() {
        let (mut engine, rt, _builtins) = setup(2);
        let hybrid = rt.register_protocol(hybrid::replicate_read_migrate_write());
        rt.set_default_protocol(hybrid);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let where_after_read = StdArc::new(Mutex::new(NodeId(9)));
        let where_after_write = StdArc::new(Mutex::new(NodeId(9)));

        let r = where_after_read.clone();
        let w = where_after_write.clone();
        rt.spawn_dsm_thread(NodeId(1), "mixed", move |ctx| {
            let _ = ctx.read::<u64>(addr); // replicates the page to node 1
            *r.lock().unwrap() = ctx.node();
            ctx.write::<u64>(addr, 3); // migrates the thread to node 0
            *w.lock().unwrap() = ctx.node();
        });
        engine.run().unwrap();
        assert_eq!(*where_after_read.lock().unwrap(), NodeId(1));
        assert_eq!(*where_after_write.lock().unwrap(), NodeId(0));
        let stats = rt.stats().snapshot();
        assert_eq!(stats.page_transfers, 1);
        assert_eq!(stats.thread_migrations, 1);
    }

    /// Different DSM protocols can manage different memory areas of the same
    /// application simultaneously (per-allocation protocol attribute).
    #[test]
    fn different_protocols_per_allocation() {
        let (mut engine, rt, builtins) = setup(2);
        rt.set_default_protocol(builtins.li_hudak);
        let a_lh = rt.dsm_malloc(
            4096,
            DsmAttr::with_protocol(builtins.li_hudak).home(HomePolicy::Fixed(NodeId(0))),
        );
        let a_mt = rt.dsm_malloc(
            4096,
            DsmAttr::with_protocol(builtins.migrate_thread).home(HomePolicy::Fixed(NodeId(0))),
        );
        let end_node = StdArc::new(Mutex::new(NodeId(9)));

        let e = end_node.clone();
        rt.spawn_dsm_thread(NodeId(1), "worker", move |ctx| {
            // li_hudak page: replicated, thread stays on node 1.
            let _ = ctx.read::<u64>(a_lh);
            assert_eq!(ctx.node(), NodeId(1));
            // migrate_thread page: the access drags the thread to node 0.
            let _ = ctx.read::<u64>(a_mt);
            *e.lock().unwrap() = ctx.node();
        });
        engine.run().unwrap();
        assert_eq!(*end_node.lock().unwrap(), NodeId(0));
        assert_eq!(rt.protocols_in_use().len(), 2);
    }

    /// Thread-safety: many threads on several nodes hammer the same page
    /// under a lock; the final counter equals the number of increments
    /// (no lost updates under li_hudak).
    #[test]
    fn li_hudak_concurrent_lock_protected_increments() {
        let (mut engine, rt, builtins) = setup(4);
        rt.set_default_protocol(builtins.li_hudak);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let lock = rt.create_lock(Some(NodeId(0)));
        let per_thread = 5u64;
        let threads = 8usize;
        let b = rt.create_barrier(threads, None);
        let finals = StdArc::new(Mutex::new(Vec::new()));

        for t in 0..threads {
            let finals = finals.clone();
            rt.spawn_dsm_thread(NodeId(t % 4), format!("inc{t}"), move |ctx| {
                for _ in 0..per_thread {
                    ctx.dsm_lock(lock);
                    let v = ctx.read::<u64>(addr);
                    ctx.compute(SimDuration::from_micros(3));
                    ctx.write::<u64>(addr, v + 1);
                    ctx.dsm_unlock(lock);
                }
                ctx.dsm_barrier(b);
                ctx.dsm_lock(lock);
                finals.lock().unwrap().push(ctx.read::<u64>(addr));
                ctx.dsm_unlock(lock);
            });
        }
        engine.run().unwrap();
        let finals = finals.lock().unwrap();
        assert_eq!(finals.len(), threads);
        for &v in finals.iter() {
            assert_eq!(v, per_thread * threads as u64, "no lost updates");
        }
    }

    /// The same program runs unchanged on every network profile (portability).
    #[test]
    fn same_program_runs_on_every_network_profile() {
        for profile in dsmpm2_pm2::profiles::all() {
            let engine = Engine::new();
            let rt = DsmRuntime::new(&engine, dsmpm2_core::Pm2Config::new(2, profile.clone()));
            let builtins = register_builtin_protocols(&rt);
            rt.set_default_protocol(builtins.li_hudak);
            let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
            let b = rt.create_barrier(2, None);
            let ok = StdArc::new(Mutex::new(false));
            rt.spawn_dsm_thread(NodeId(0), "w", move |ctx| {
                ctx.write::<u64>(addr, 5);
                ctx.dsm_barrier(b);
            });
            let ok2 = ok.clone();
            rt.spawn_dsm_thread(NodeId(1), "r", move |ctx| {
                ctx.dsm_barrier(b);
                *ok2.lock().unwrap() = ctx.read::<u64>(addr) == 5;
            });
            let mut engine = engine;
            engine.run().unwrap();
            assert!(*ok.lock().unwrap(), "failed on {}", profile.name);
        }
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use dsmpm2_core::{
        DsmAttr, DsmRuntime, Engine, HomePolicy, NodeId, Pm2Config, SimDuration, Unit,
    };
    use std::sync::Arc as StdArc;
    use std::sync::Mutex;

    fn setup(nodes: usize) -> (Engine, DsmRuntime, BuiltinProtocols, ExtensionProtocols) {
        let engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(nodes));
        let (builtins, extensions) = register_all_protocols(&rt);
        (engine, rt, builtins, extensions)
    }

    #[test]
    fn extension_registration_exposes_names() {
        let (_engine, rt, _b, ext) = setup(2);
        assert_eq!(
            rt.protocol_by_name("li_hudak_fixed"),
            Some(ext.li_hudak_fixed)
        );
        assert_eq!(rt.protocol_by_name("entry_sw"), Some(ext.entry_sw));
        assert_eq!(rt.protocol_by_name("hlrc_notices"), Some(ext.hlrc_notices));
        assert!(format!("{ext:?}").contains("ExtensionProtocols"));
    }

    /// li_hudak_fixed: same observable behaviour as li_hudak (sequential
    /// consistency, read replication, write ownership migration), but every
    /// request from a node that is not the manager goes through the manager.
    #[test]
    fn li_hudak_fixed_replicates_reads_and_migrates_write_ownership() {
        let (mut engine, rt, _b, ext) = setup(3);
        rt.set_default_protocol(ext.li_hudak_fixed);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let b = rt.create_barrier(3, None);
        let results = StdArc::new(Mutex::new(Vec::new()));

        for node in 0..3usize {
            let results = results.clone();
            rt.spawn_dsm_thread(NodeId(node), format!("t{node}"), move |ctx| {
                let v0 = ctx.read::<u64>(addr);
                ctx.dsm_barrier(b);
                if node == 2 {
                    ctx.write::<u64>(addr, 31);
                }
                ctx.dsm_barrier(b);
                let v1 = ctx.read::<u64>(addr);
                results.lock().unwrap().push((v0, v1));
            });
        }
        engine.run().unwrap();
        for &(v0, v1) in results.lock().unwrap().iter() {
            assert_eq!(v0, 0);
            assert_eq!(v1, 31, "all readers observe the single writer's value");
        }
        // Ownership ended up at node 2; the manager (node 0) records it.
        let unit = Unit::whole(addr.page());
        assert!(rt.page_table(NodeId(2)).get(unit).owned);
        assert_eq!(
            rt.page_table(NodeId(0)).get(unit).prob_owner,
            NodeId(2),
            "the fixed manager tracks the current owner"
        );
        // Non-manager nodes keep routing through the manager.
        assert_eq!(rt.page_table(NodeId(1)).get(unit).prob_owner, NodeId(0));
    }

    /// li_hudak_fixed routes requests through the manager: when the owner is
    /// not the manager, requests take one forwarding hop.
    #[test]
    fn li_hudak_fixed_routes_through_the_manager() {
        let (mut engine, rt, _b, ext) = setup(3);
        rt.set_default_protocol(ext.li_hudak_fixed);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let b = rt.create_barrier(2, None);

        // Node 1 takes write ownership away from the manager, then node 2
        // reads: its request must go to the manager (node 0) and be forwarded
        // to the owner (node 1).
        rt.spawn_dsm_thread(NodeId(1), "owner", move |ctx| {
            ctx.write::<u64>(addr, 77);
            ctx.dsm_barrier(b);
        });
        let seen = StdArc::new(Mutex::new(0u64));
        let s = seen.clone();
        rt.spawn_dsm_thread(NodeId(2), "reader", move |ctx| {
            ctx.dsm_barrier(b);
            *s.lock().unwrap() = ctx.read::<u64>(addr);
        });
        engine.run().unwrap();
        assert_eq!(*seen.lock().unwrap(), 77);
        let stats = rt.stats().snapshot();
        assert!(
            stats.request_forwards >= 1,
            "the manager must have forwarded the reader's request to the owner"
        );
    }

    /// entry_sw: data bound to a lock is made consistent by acquiring that
    /// lock and published by releasing it.
    #[test]
    fn entry_consistency_publishes_bound_region_at_release() {
        let (mut engine, rt, _b, ext) = setup(3);
        rt.set_default_protocol(ext.entry_sw);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let lock = rt.create_lock(Some(NodeId(0)));
        ext.entry.bind(lock, addr, 4096);
        assert_eq!(ext.entry.bound_pages(lock), vec![addr.page()]);
        let b = rt.create_barrier(3, None);
        let observed = StdArc::new(Mutex::new(Vec::new()));

        // Node 1 writes under the lock, then nodes 0 and 2 read under the lock.
        rt.spawn_dsm_thread(NodeId(1), "writer", move |ctx| {
            ctx.dsm_lock(lock);
            ctx.write::<u64>(addr, 4242);
            ctx.dsm_unlock(lock);
            ctx.dsm_barrier(b);
        });
        for node in [0usize, 2] {
            let observed = observed.clone();
            rt.spawn_dsm_thread(NodeId(node), format!("reader{node}"), move |ctx| {
                ctx.dsm_barrier(b);
                ctx.dsm_lock(lock);
                observed.lock().unwrap().push(ctx.read::<u64>(addr));
                ctx.dsm_unlock(lock);
            });
        }
        engine.run().unwrap();
        let observed = observed.lock().unwrap();
        assert_eq!(observed.len(), 2);
        for &v in observed.iter() {
            assert_eq!(
                v, 4242,
                "acquiring the lock makes the bound region consistent"
            );
        }
        let stats = rt.stats().snapshot();
        assert!(stats.diffs_sent >= 1, "release publishes through a diff");
        assert!(stats.twins_created >= 1);
    }

    /// entry_sw: the guarded data is brought in at acquire time, so the
    /// accesses inside the critical section do not fault.
    #[test]
    fn entry_consistency_prefetches_at_acquire() {
        let (mut engine, rt, _b, ext) = setup(2);
        rt.set_default_protocol(ext.entry_sw);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let lock = rt.create_lock(Some(NodeId(0)));
        ext.entry.bind(lock, addr, 4096);
        let faults_inside = StdArc::new(Mutex::new(0u64));

        let f = faults_inside.clone();
        let rt2 = rt.clone();
        rt.spawn_dsm_thread(NodeId(1), "writer", move |ctx| {
            ctx.dsm_lock(lock);
            let before = rt2.stats().snapshot().total_faults();
            ctx.write::<u64>(addr, 9);
            ctx.write::<u64>(addr.add(8), 10);
            let after = rt2.stats().snapshot().total_faults();
            ctx.dsm_unlock(lock);
            *f.lock().unwrap() = after - before;
        });
        engine.run().unwrap();
        assert_eq!(
            *faults_inside.lock().unwrap(),
            0,
            "no page fault inside the critical section: the acquire prefetched the bound page"
        );
    }

    /// entry_sw: an access to a bound page outside the guarding lock still
    /// works (it falls back to a home-based fetch).
    #[test]
    fn entry_consistency_tolerates_unguarded_access() {
        let (mut engine, rt, _b, ext) = setup(2);
        rt.set_default_protocol(ext.entry_sw);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let lock = rt.create_lock(Some(NodeId(0)));
        ext.entry.bind(lock, addr, 4096);
        let b = rt.create_barrier(2, None);
        let seen = StdArc::new(Mutex::new(0u32));

        rt.spawn_dsm_thread(NodeId(0), "home-writer", move |ctx| {
            ctx.write::<u32>(addr, 5);
            ctx.dsm_barrier(b);
        });
        let s = seen.clone();
        rt.spawn_dsm_thread(NodeId(1), "unguarded-reader", move |ctx| {
            ctx.dsm_barrier(b);
            *s.lock().unwrap() = ctx.read::<u32>(addr);
        });
        engine.run().unwrap();
        assert_eq!(*seen.lock().unwrap(), 5);
    }

    /// hlrc_notices: no eager invalidation is ever sent; a stale copy is only
    /// refreshed when its holder synchronizes on the lock.
    #[test]
    fn hlrc_is_lazy_but_consistent_after_acquire() {
        let (mut engine, rt, _b, ext) = setup(3);
        rt.set_default_protocol(ext.hlrc_notices);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let lock = rt.create_lock(Some(NodeId(0)));
        let b = rt.create_barrier(3, None);
        let observed = StdArc::new(Mutex::new((0u64, 0u64)));

        // Node 2 takes a read copy first, then node 1 writes under the lock.
        let obs = observed.clone();
        rt.spawn_dsm_thread(NodeId(2), "late-reader", move |ctx| {
            let before = ctx.read::<u64>(addr); // stale copy taken
            ctx.dsm_barrier(b);
            ctx.dsm_barrier(b); // writer has released by now
                                // Without synchronizing, the stale copy is still visible (lazy).
            let still_stale = ctx.read::<u64>(addr);
            assert_eq!(still_stale, before, "no eager invalidation reached us");
            ctx.dsm_lock(lock);
            let after = ctx.read::<u64>(addr);
            ctx.dsm_unlock(lock);
            *obs.lock().unwrap() = (before, after);
        });
        rt.spawn_dsm_thread(NodeId(1), "writer", move |ctx| {
            ctx.dsm_barrier(b);
            ctx.dsm_lock(lock);
            ctx.write::<u64>(addr, 1001);
            ctx.dsm_unlock(lock);
            ctx.dsm_barrier(b);
        });
        rt.spawn_dsm_thread(NodeId(0), "home", move |ctx| {
            ctx.dsm_barrier(b);
            ctx.dsm_barrier(b);
        });
        engine.run().unwrap();
        let (before, after) = *observed.lock().unwrap();
        assert_eq!(before, 0);
        assert_eq!(
            after, 1001,
            "the acquire consumed the write notice and refetched"
        );
        let stats = rt.stats().snapshot();
        assert_eq!(
            stats.invalidations, 0,
            "lazy release consistency sends no invalidation messages"
        );
        assert!(stats.diffs_sent >= 1);
        assert!(ext.hlrc.retained_notices() >= 1);
    }

    /// hlrc_notices vs hbrc_mw: on a producer/consumer pattern where a third
    /// node never resynchronizes, the lazy protocol sends strictly fewer
    /// invalidations (none at all).
    #[test]
    fn hlrc_sends_fewer_invalidations_than_eager_home_based_rc() {
        fn run(proto_name: &'static str) -> u64 {
            let engine = Engine::new();
            let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(3));
            register_all_protocols(&rt);
            rt.set_default_protocol(rt.protocol_by_name(proto_name).unwrap());
            let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
            let lock = rt.create_lock(Some(NodeId(0)));
            let b = rt.create_barrier(3, None);
            // Node 2 takes a copy and never synchronizes again.
            rt.spawn_dsm_thread(NodeId(2), "bystander", move |ctx| {
                let _ = ctx.read::<u64>(addr);
                ctx.dsm_barrier(b);
                ctx.compute(SimDuration::from_micros(500));
            });
            // Node 1 repeatedly updates the shared datum under the lock.
            rt.spawn_dsm_thread(NodeId(1), "producer", move |ctx| {
                ctx.dsm_barrier(b);
                for i in 0..5u64 {
                    ctx.dsm_lock(lock);
                    ctx.write::<u64>(addr, i);
                    ctx.dsm_unlock(lock);
                }
            });
            rt.spawn_dsm_thread(NodeId(0), "home", move |ctx| {
                ctx.dsm_barrier(b);
            });
            let mut engine = engine;
            engine.run().unwrap();
            rt.stats().snapshot().invalidations
        }
        let eager = run("hbrc_mw");
        let lazy = run("hlrc_notices");
        assert!(eager >= 1, "the eager protocol invalidates the bystander");
        assert_eq!(lazy, 0, "the lazy protocol never invalidates anybody");
    }

    /// The extension protocols produce the same application results as the
    /// built-in ones on a lock-protected shared counter.
    #[test]
    fn extension_protocols_agree_with_builtins_on_a_shared_counter() {
        fn run(select: impl Fn(&BuiltinProtocols, &ExtensionProtocols) -> ProtocolId) -> u64 {
            let engine = Engine::new();
            let rt = DsmRuntime::new(&engine, Pm2Config::sisci_sci(4));
            let (builtins, extensions) = register_all_protocols(&rt);
            rt.set_default_protocol(select(&builtins, &extensions));
            let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
            let lock = rt.create_lock(Some(NodeId(0)));
            extensions.entry.bind(lock, addr, 4096);
            let parties = 4usize;
            let b = rt.create_barrier(parties, None);
            let out = StdArc::new(Mutex::new(0u64));
            for t in 0..parties {
                let out = out.clone();
                rt.spawn_dsm_thread(NodeId(t), format!("inc{t}"), move |ctx| {
                    for _ in 0..3 {
                        ctx.dsm_lock(lock);
                        let v = ctx.read::<u64>(addr);
                        ctx.write::<u64>(addr, v + 1);
                        ctx.dsm_unlock(lock);
                    }
                    ctx.dsm_barrier(b);
                    if t == 0 {
                        ctx.dsm_lock(lock);
                        *out.lock().unwrap() = ctx.read::<u64>(addr);
                        ctx.dsm_unlock(lock);
                    }
                });
            }
            let mut engine = engine;
            engine.run().unwrap();
            let v = *out.lock().unwrap();
            v
        }
        let expected = 12;
        assert_eq!(run(|b, _| b.li_hudak), expected);
        assert_eq!(run(|_, e| e.li_hudak_fixed), expected);
        assert_eq!(run(|_, e| e.entry_sw), expected);
        assert_eq!(run(|_, e| e.hlrc_notices), expected);
    }
}
