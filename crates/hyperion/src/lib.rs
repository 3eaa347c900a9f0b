//! # dsmpm2-hyperion — the object layer used by the Java-consistency protocols
//!
//! The Hyperion system compiles multithreaded Java bytecode to native code
//! and runs it on clusters on top of DSM-PM2; its memory module was
//! co-designed with the `java_ic` / `java_pf` protocols. This crate models
//! the part of Hyperion the protocols interact with:
//!
//! * an **object heap**: objects are fixed-width field records stored in DSM
//!   pages, each object having a *home node* ("main memory");
//! * **`get` / `put` access primitives**: depending on the selected protocol,
//!   they either perform an explicit inline locality check and bypass the
//!   page-fault mechanism (`java_ic`), or rely on ordinary page-fault
//!   detection (`java_pf`); `put` records modifications with field
//!   granularity for the on-the-fly diffing;
//! * **monitors**: entering a monitor flushes the node's object cache,
//!   exiting transmits the recorded modifications to main memory — both
//!   through the protocol's lock hooks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Arc;

use dsmpm2_core::{
    DsmAddr, DsmAttr, DsmRuntime, DsmThreadCtx, HomePolicy, LockId, NodeId, ProtocolId, PAGE_SIZE,
};
use dsmpm2_protocols::{JavaConsistency, JavaDetection};
use dsmpm2_sim::SliceCell;

/// Width of one object field, in bytes (Java longs/references).
pub const FIELD_BYTES: usize = 8;

/// A reference to a Hyperion object stored in DSM memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObjectRef {
    /// Address of the object's first field.
    pub addr: DsmAddr,
    /// Number of fields.
    pub fields: usize,
}

impl ObjectRef {
    /// Address of field `index`.
    pub fn field_addr(&self, index: usize) -> DsmAddr {
        assert!(index < self.fields, "field {index} out of bounds");
        self.addr.add((index * FIELD_BYTES) as u64)
    }
}

/// A monitor (Java `synchronized` object): a DSM lock whose acquire/release
/// trigger the Java-consistency cache flush / main-memory update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Monitor(pub LockId);

/// The page a home node's objects are currently packed into.
struct NodeBump {
    page_base: DsmAddr,
    used: usize,
}

/// What allocation changes: each home node's current page (indexed by
/// node, `None` until its first object).
struct Allocator {
    bumps: Vec<Option<NodeBump>>,
}

struct HeapInner {
    runtime: DsmRuntime,
    protocol: ProtocolId,
    detection: JavaDetection,
    alloc: SliceCell<Allocator>,
}

/// The Hyperion object heap.
pub struct HyperionHeap {
    inner: Arc<HeapInner>,
}

impl Clone for HyperionHeap {
    fn clone(&self) -> Self {
        HyperionHeap {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl HyperionHeap {
    /// Create a heap whose objects are managed by `protocol`, which must be
    /// one of the two Java-consistency protocols (`java_ic` or `java_pf`).
    pub fn new(runtime: &DsmRuntime, protocol: ProtocolId) -> Self {
        let name = runtime.protocol(protocol).name().to_string();
        let detection = match name.as_str() {
            "java_ic" => JavaDetection::InlineCheck,
            "java_pf" => JavaDetection::PageFault,
            other => panic!("HyperionHeap requires a Java-consistency protocol, got '{other}'"),
        };
        HyperionHeap {
            inner: Arc::new(HeapInner {
                runtime: runtime.clone(),
                protocol,
                detection,
                alloc: SliceCell::new(Allocator {
                    bumps: (0..runtime.num_nodes()).map(|_| None).collect(),
                }),
            }),
        }
    }

    /// The access-detection flavour used by this heap's protocol.
    pub fn detection(&self) -> JavaDetection {
        self.inner.detection
    }

    /// The DSM runtime backing the heap.
    pub fn runtime(&self) -> &DsmRuntime {
        &self.inner.runtime
    }

    /// Allocate an object of `fields` fields homed on `home` ("main memory"
    /// location). Objects are packed into pages homed on that node.
    pub fn alloc_object_on(&self, home: NodeId, fields: usize) -> ObjectRef {
        assert!(fields > 0, "objects need at least one field");
        let bytes = fields * FIELD_BYTES;
        assert!(
            bytes <= PAGE_SIZE,
            "objects larger than a page are not supported"
        );
        let rt = &self.inner.runtime;
        let fresh_page = || NodeBump {
            page_base: rt.dsm_malloc(
                PAGE_SIZE as u64,
                DsmAttr::with_protocol(self.inner.protocol).home(HomePolicy::Fixed(home)),
            ),
            used: 0,
        };
        let mut alloc = self.inner.alloc.borrow();
        let bump = alloc.bumps[home.0].get_or_insert_with(fresh_page);
        if bump.used + bytes > PAGE_SIZE {
            *bump = fresh_page();
        }
        let addr = bump.page_base.add(bump.used as u64);
        bump.used += bytes;
        ObjectRef { addr, fields }
    }

    /// Allocate `count` objects of `fields` fields, homed round-robin across
    /// the cluster nodes (the "good distribution of the objects" the paper
    /// credits for the low remote-access rate in the map-colouring run).
    pub fn alloc_distributed(&self, count: usize, fields: usize) -> Vec<ObjectRef> {
        let nodes = self.inner.runtime.num_nodes();
        (0..count)
            .map(|i| self.alloc_object_on(NodeId(i % nodes), fields))
            .collect()
    }

    /// Hyperion's `get` primitive: read field `field` of `obj`.
    pub fn get(&self, ctx: &mut DsmThreadCtx<'_, '_>, obj: ObjectRef, field: usize) -> u64 {
        let addr = obj.field_addr(field);
        match self.inner.detection {
            // Explicit locality check and access in one resolve; on a miss,
            // call directly into the protocol to bring the page into the
            // node cache (bypassing the page-fault machinery entirely).
            JavaDetection::InlineCheck => loop {
                if let Some(value) = ctx.checked_read::<u64>(addr) {
                    return value;
                }
                JavaConsistency::cache_page(ctx, addr.page());
            },
            JavaDetection::PageFault => ctx.read::<u64>(addr),
        }
    }

    /// Hyperion's `put` primitive: write field `field` of `obj`. Both Java
    /// protocols record writes ([`dsmpm2_core::DsmProtocol::records_writes`]),
    /// so the modification is recorded with field granularity and the
    /// main-memory update at monitor exit only ships what changed.
    pub fn put(&self, ctx: &mut DsmThreadCtx<'_, '_>, obj: ObjectRef, field: usize, value: u64) {
        let addr = obj.field_addr(field);
        match self.inner.detection {
            JavaDetection::InlineCheck => {
                while !ctx.checked_write::<u64>(addr, value) {
                    JavaConsistency::cache_page(ctx, addr.page());
                }
            }
            JavaDetection::PageFault => ctx.write::<u64>(addr, value),
        }
    }

    /// Create a monitor managed by `manager`.
    pub fn create_monitor(&self, manager: Option<NodeId>) -> Monitor {
        Monitor(self.inner.runtime.create_lock(manager))
    }

    /// Enter a monitor (acquires the lock, flushes the node's object cache).
    pub fn monitor_enter(&self, ctx: &mut DsmThreadCtx<'_, '_>, monitor: Monitor) {
        ctx.dsm_lock(monitor.0);
    }

    /// Exit a monitor (transmits recorded modifications to main memory, then
    /// releases the lock).
    pub fn monitor_exit(&self, ctx: &mut DsmThreadCtx<'_, '_>, monitor: Monitor) {
        ctx.dsm_unlock(monitor.0);
    }
}

impl std::fmt::Debug for HyperionHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HyperionHeap({:?})", self.inner.detection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmpm2_core::{Engine, Pm2Config};
    use dsmpm2_protocols::register_builtin_protocols;
    use std::sync::Arc as StdArc;

    fn setup(nodes: usize, ic: bool) -> (Engine, DsmRuntime, HyperionHeap) {
        let engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::sisci_sci(nodes));
        let protos = register_builtin_protocols(&rt);
        let pid = if ic { protos.java_ic } else { protos.java_pf };
        rt.set_default_protocol(pid);
        let heap = HyperionHeap::new(&rt, pid);
        (engine, rt, heap)
    }

    #[test]
    fn object_allocation_packs_pages_and_respects_homes() {
        let (_engine, rt, heap) = setup(3, false);
        let objs = heap.alloc_distributed(9, 4);
        assert_eq!(objs.len(), 9);
        for (i, obj) in objs.iter().enumerate() {
            assert_eq!(rt.page_meta(obj.addr.page()).home, NodeId(i % 3));
        }
        // Objects homed on the same node share pages while they fit, packed
        // back to back.
        assert_eq!(objs[0].addr.page(), objs[3].addr.page());
        assert_eq!(objs[3].addr.offset(), 4 * FIELD_BYTES);
    }

    #[test]
    fn an_object_that_does_not_fit_starts_a_fresh_page_on_its_home() {
        let (_engine, rt, heap) = setup(2, false);
        let home = NodeId(1);
        // Leaves one field free on the home's first page; a one-field object
        // then fills it exactly.
        let big = heap.alloc_object_on(home, PAGE_SIZE / FIELD_BYTES - 1);
        let last = heap.alloc_object_on(home, 1);
        assert_eq!(last.addr.page(), big.addr.page());
        assert_eq!(last.addr.offset() + FIELD_BYTES, PAGE_SIZE);
        let other = heap.alloc_object_on(NodeId(0), 1);
        // Nothing is left: the next object starts a fresh page, homed on the
        // same node, and the one after packs into it.
        let rolled = heap.alloc_object_on(home, 2);
        assert_ne!(rolled.addr.page(), big.addr.page());
        assert_ne!(rolled.addr.page(), other.addr.page());
        assert_eq!(rolled.addr.offset(), 0);
        assert_eq!(rt.page_meta(rolled.addr.page()).home, home);
        let packed = heap.alloc_object_on(home, 1);
        assert_eq!(packed.addr.page(), rolled.addr.page());
        assert_eq!(packed.addr.offset(), 2 * FIELD_BYTES);
    }

    #[test]
    fn field_addresses_are_contiguous() {
        let (_e, _rt, heap) = setup(1, false);
        let obj = heap.alloc_object_on(NodeId(0), 3);
        assert_eq!(obj.field_addr(1).as_u64(), obj.addr.as_u64() + 8);
        assert_eq!(obj.field_addr(2).as_u64(), obj.addr.as_u64() + 16);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn field_out_of_bounds_panics() {
        let (_e, _rt, heap) = setup(1, false);
        let obj = heap.alloc_object_on(NodeId(0), 2);
        let _ = obj.field_addr(2);
    }

    #[test]
    #[should_panic(expected = "Java-consistency protocol")]
    fn heap_rejects_non_java_protocols() {
        let engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::sisci_sci(2));
        let protos = register_builtin_protocols(&rt);
        let _ = HyperionHeap::new(&rt, protos.li_hudak);
    }

    fn roundtrip_scenario(ic: bool) -> (u64, dsmpm2_core::DsmStatsSnapshot) {
        let (engine, rt, heap) = setup(2, ic);
        let obj = heap.alloc_object_on(NodeId(0), 2);
        let monitor = heap.create_monitor(Some(NodeId(0)));
        let b = rt.create_barrier(2, None);
        let seen = StdArc::new(std::sync::Mutex::new(0u64));

        let h1 = heap.clone();
        rt.spawn_dsm_thread(NodeId(1), "mutator", move |ctx| {
            h1.monitor_enter(ctx, monitor);
            h1.put(ctx, obj, 1, 777);
            h1.monitor_exit(ctx, monitor);
            ctx.dsm_barrier(b);
        });
        let h2 = heap.clone();
        let seen2 = seen.clone();
        rt.spawn_dsm_thread(NodeId(0), "observer", move |ctx| {
            ctx.dsm_barrier(b);
            h2.monitor_enter(ctx, monitor);
            *seen2.lock().unwrap() = h2.get(ctx, obj, 1);
            h2.monitor_exit(ctx, monitor);
        });
        let mut engine = engine;
        engine.run().unwrap();
        let v = *seen.lock().unwrap();
        (v, rt.stats().snapshot())
    }

    #[test]
    fn java_pf_put_is_visible_after_monitor_roundtrip() {
        let (v, stats) = roundtrip_scenario(false);
        assert_eq!(v, 777);
        assert!(
            stats.write_faults >= 1,
            "java_pf detects the remote put via a fault"
        );
        assert_eq!(stats.inline_checks, 0);
    }

    #[test]
    fn java_ic_put_is_visible_and_uses_inline_checks() {
        let (v, stats) = roundtrip_scenario(true);
        assert_eq!(v, 777);
        assert!(stats.inline_checks >= 2, "every get/put pays a check");
        assert_eq!(stats.total_faults(), 0, "java_ic never takes page faults");
    }

    /// `java_ic`'s `get`/`put` check and access in one resolve; at the parent
    /// commit each was an `inline_check` and then a `read_local` or a
    /// `write_local`, which resolved the unit again. On two nodes, a fixed
    /// run of hits and misses — among them a `put` on a read-only copy,
    /// refused, refetched and retried — costs what it cost then: every
    /// literal below was read off the parent's run of this same test.
    #[test]
    fn java_ic_get_put_cost_what_the_check_then_access_pair_did() {
        use dsmpm2_core::{Access, Unit};

        let (mut engine, rt, heap) = setup(2, true);
        let remote = heap.alloc_object_on(NodeId(0), 4);
        let local = heap.alloc_object_on(NodeId(0), 2);
        let monitor = heap.create_monitor(Some(NodeId(0)));
        let seen = StdArc::new(std::sync::Mutex::new(([0u64; 4], 0usize)));

        let (h, seen1) = (heap.clone(), seen.clone());
        rt.spawn_dsm_thread(NodeId(1), "remote", move |ctx| {
            h.monitor_enter(ctx, monitor);
            let first = h.get(ctx, remote, 0); // miss, fetch, hit
            h.put(ctx, remote, 1, 11); // hit
            let back = h.get(ctx, remote, 1); // hit
            h.monitor_exit(ctx, monitor);
            let page = remote.addr.page();
            ctx.runtime()
                .page_table(NodeId(1))
                .set_access(Unit::whole(page), Access::Read);
            let read_only = h.get(ctx, remote, 1); // hit on the read-only copy
            h.put(ctx, remote, 2, 22); // refused, refetch, hit
            h.put(ctx, remote, 3, 33); // hit
            let after = h.get(ctx, remote, 2); // hit
            let ranges = ctx.runtime().frames(NodeId(1)).recorded_ranges(page);
            *seen1.lock().unwrap() = ([first, back, read_only, after], ranges);
        });
        let h = heap.clone();
        rt.spawn_dsm_thread(NodeId(0), "home", move |ctx| {
            for i in 0..5u64 {
                h.put(ctx, local, (i % 2) as usize, i);
                let _ = h.get(ctx, local, 0);
            }
        });
        let report = engine.run().unwrap();
        let stats = rt.stats().snapshot();
        let (values, recorded_ranges) = *seen.lock().unwrap();
        assert_eq!(values, [0, 11, 11, 22]);
        // Remote: 5 checks for 4 gets (one miss), 4 for 3 puts (one refused
        // on the read-only copy); home: 10 checks for 10 hits.
        assert_eq!(stats.inline_checks, 19);
        assert_eq!(stats.local_accesses, 17);
        // The refetch dropped nothing: the monitor exit had flushed the
        // first put, and the two puts after it recorded one range each.
        assert_eq!(recorded_ranges, 2);
        assert_eq!(stats.total_faults(), 0);
        assert_eq!(report.final_time.as_nanos(), 536_775);
    }

    /// A monitor exit forgets what `put` recorded on the node's own objects:
    /// the home copy is main memory, so there is nothing to ship, and a log
    /// kept past the release would only grow (one range per `put`, for the
    /// whole run) and be listed again by every later release.
    #[test]
    fn monitor_exit_clears_the_write_log_of_a_home_page() {
        for ic in [true, false] {
            let (mut engine, rt, heap) = setup(2, ic);
            let obj = heap.alloc_object_on(NodeId(0), 4);
            let monitor = heap.create_monitor(Some(NodeId(0)));
            let ranges = StdArc::new(std::sync::Mutex::new(Vec::new()));
            let (h, seen) = (heap.clone(), ranges.clone());
            rt.spawn_dsm_thread(NodeId(0), "home", move |ctx| {
                let frames = |ctx: &DsmThreadCtx<'_, '_>| {
                    ctx.runtime()
                        .frames(NodeId(0))
                        .recorded_ranges(obj.addr.page())
                };
                for i in 0..1_000u64 {
                    h.monitor_enter(ctx, monitor);
                    h.put(ctx, obj, (i % 4) as usize, i);
                    if i == 0 {
                        seen.lock().unwrap().push(frames(ctx));
                    }
                    h.monitor_exit(ctx, monitor);
                }
                seen.lock().unwrap().push(frames(ctx));
            });
            engine.run().unwrap();
            assert_eq!(*ranges.lock().unwrap(), [1, 0], "java_ic: {ic}");
            let page = obj.addr.page();
            assert!(!rt.frames(NodeId(0)).has_recorded(page));
            let unit = dsmpm2_core::Unit::whole(page);
            assert!(!rt.page_table(NodeId(0)).get(unit).modified_since_release);
        }
    }

    #[test]
    fn local_accesses_are_cheaper_under_page_faults_than_inline_checks() {
        // The crux of Figure 5: for objects that are overwhelmingly local,
        // java_pf pays nothing per access while java_ic pays a check.
        let run = |ic: bool| -> dsmpm2_sim::SimTime {
            let (engine, rt, heap) = setup(1, ic);
            let obj = heap.alloc_object_on(NodeId(0), 4);
            let h = heap.clone();
            rt.spawn_dsm_thread(NodeId(0), "local", move |ctx| {
                for i in 0..2_000u64 {
                    h.put(ctx, obj, (i % 4) as usize, i);
                    let _ = h.get(ctx, obj, (i % 4) as usize);
                }
            });
            let mut engine = engine;
            engine.run().unwrap().final_time
        };
        let t_pf = run(false);
        let t_ic = run(true);
        assert!(
            t_ic > t_pf,
            "inline checks must cost more than pure local accesses ({t_ic} vs {t_pf})"
        );
    }
}
