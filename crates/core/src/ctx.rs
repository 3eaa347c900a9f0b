//! Execution contexts handed to protocol actions.
//!
//! Two kinds of code call into the DSM core:
//!
//! * *application threads* (PM2 threads running user code): they fault, take
//!   locks, wait at barriers, and may be migrated. They receive a
//!   [`DsmThreadCtx`], which wraps their `Pm2Context`.
//! * *service threads* (the hidden threads created to process incoming DSM
//!   messages): they run the protocol's server actions. They receive a
//!   [`ServerCtx`].

use dsmpm2_madeleine::NodeId;
use dsmpm2_pm2::Pm2Context;
use dsmpm2_sim::SimHandle;

use crate::comm::DsmRpc;
use crate::runtime::DsmRuntime;

/// Context of an application thread performing DSM operations.
pub struct DsmThreadCtx<'a, 'b> {
    /// The underlying PM2 thread context (location, migration, RPC, clock).
    pub pm2: &'a mut Pm2Context<'b, DsmRpc>,
    pub(crate) runtime: DsmRuntime,
}

impl<'a, 'b> DsmThreadCtx<'a, 'b> {
    /// Wrap a PM2 context. Normally created by `DsmRuntime::spawn_dsm_thread`.
    pub fn new(pm2: &'a mut Pm2Context<'b, DsmRpc>, runtime: DsmRuntime) -> Self {
        DsmThreadCtx { pm2, runtime }
    }

    /// The DSM runtime this thread operates on.
    pub fn runtime(&self) -> &DsmRuntime {
        &self.runtime
    }

    /// The node this thread currently executes on (changes after migration).
    #[inline]
    pub fn node(&self) -> NodeId {
        self.pm2.node()
    }

    /// The simulation handle of this thread.
    pub fn sim(&mut self) -> &mut SimHandle {
        self.pm2.sim
    }

    /// Charge local compute time to this thread.
    pub fn compute(&mut self, d: dsmpm2_sim::SimDuration) {
        self.pm2.compute(d);
    }
}

impl std::fmt::Debug for DsmThreadCtx<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DsmThreadCtx(node={})", self.node())
    }
}

/// Context of a DSM service thread running a protocol server action.
pub struct ServerCtx<'a> {
    /// The simulation handle of the service thread.
    pub sim: &'a mut SimHandle,
    /// The DSM runtime, borrowed from whoever serves the message.
    pub runtime: &'a DsmRuntime,
    /// Node on which the server action executes.
    pub local_node: NodeId,
    /// Node the triggering message came from.
    pub from_node: NodeId,
}

impl std::fmt::Debug for ServerCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ServerCtx(node={}, from={})",
            self.local_node, self.from_node
        )
    }
}
