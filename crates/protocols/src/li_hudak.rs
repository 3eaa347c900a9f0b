//! `li_hudak` and `li_hudak_fixed` — sequential consistency, MRSW, with Li &
//! Hudak's dynamic and fixed distributed managers.
//!
//! The protocol is a multithreaded adaptation (following Mueller's
//! DSM-Threads variant) of the distributed manager algorithms of Li & Hudak:
//! pages are replicated on read faults and migrate (together with ownership
//! and the copyset) on write faults. The "single writer" is a *node*, not a
//! thread: all threads of the owning node share the same writable copy and
//! may write it concurrently. Sequential consistency needs no action at
//! synchronization points, so the lock hooks keep their defaults. These are
//! the page actions [`DsmProtocol`] defaults to, so `li_hudak` is its name
//! alone.
//!
//! The paper's page manager was explicitly "designed to be generic enough so
//! that it could be exploited to implement protocols which need a fixed page
//! manager, as well as protocols based on a dynamic page manager" (§2.2,
//! citing the Li & Hudak classification). Both managers serve requests with
//! the same `protolib::serve_or_forward` and differ in one thing, the
//! non-home nodes' probable-owner hint:
//!
//! * `li_hudak` (*dynamic* manager) follows ownership as invalidations and
//!   transfers report it, so requests travel along probable-owner chains;
//! * `li_hudak_fixed` (*fixed* manager) pins the hint of every node but the
//!   page's home to the home whenever it receives a page or an invalidation.
//!   The home always knows the current owner, so a request goes through it:
//!   one extra hop when the home is not the owner, but no chains of
//!   unbounded length.
//!
//! Comparing the two on the same workloads is exactly the kind of protocol
//! experiment the platform is designed for (see ablations 4 and 6 of the
//! bench crate's model rows).

use dsmpm2_core::{DsmProtocol, Invalidation, PageTransfer, ServerCtx, Unit};

/// The `li_hudak` protocol (see Table 2 of the paper).
#[derive(Debug, Default)]
pub struct LiHudak;

impl LiHudak {
    /// Create the protocol.
    pub fn new() -> Self {
        LiHudak
    }
}

impl DsmProtocol for LiHudak {
    fn name(&self) -> &str {
        "li_hudak"
    }
}

/// The `li_hudak_fixed` protocol (fixed distributed manager MRSW).
#[derive(Debug, Default)]
pub struct LiHudakFixed;

impl LiHudakFixed {
    /// Create the protocol.
    pub fn new() -> Self {
        LiHudakFixed
    }
}

/// Pin this node's probable-owner hint for `unit` to the page's home, unless
/// it is the home (which keeps the true owner) or owns the unit.
fn pin_hint_to_home(ctx: &ServerCtx<'_>, unit: Unit) {
    let home = ctx.runtime.page_meta(unit.page).home;
    if ctx.local_node != home {
        ctx.runtime.page_table(ctx.local_node).update(unit, |e| {
            if !e.owned {
                e.prob_owner = home;
            }
        });
    }
}

impl DsmProtocol for LiHudakFixed {
    fn name(&self) -> &str {
        "li_hudak_fixed"
    }

    fn invalidate_server(&self, ctx: &mut ServerCtx<'_>, inv: Invalidation) {
        let unit = inv.unit;
        LiHudak.invalidate_server(ctx, inv);
        pin_hint_to_home(ctx, unit);
    }

    fn receive_page_server(&self, ctx: &mut ServerCtx<'_>, transfer: PageTransfer) {
        let unit = transfer.unit;
        LiHudak.receive_page_server(ctx, transfer);
        pin_hint_to_home(ctx, unit);
    }

    fn supports_subpage(&self) -> bool {
        // Every routine routes at the faulting line; independent lines of
        // one page have fully independent owners, copysets and queues.
        true
    }
}
