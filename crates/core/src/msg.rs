//! DSM wire messages.
//!
//! The DSM communication module exchanges a small set of messages, matching
//! the communication routines the paper identifies as common to all
//! page-based protocols: page requests, page transfers, invalidations (plus
//! their acknowledgements) and diffs.

use dsmpm2_madeleine::NodeId;

use crate::diff::PageDiff;
use crate::page::{Access, Unit};

/// A request for a copy of (or for ownership of) a coherence unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageRequest {
    /// Requested unit.
    pub unit: Unit,
    /// `Read` for a read copy, `Write` for write access / ownership.
    pub access: Access,
    /// Node that needs the page (requests may be forwarded, so this is not
    /// necessarily the sender of the message).
    pub requester: NodeId,
}

/// A coherence unit sent to a requester.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageTransfer {
    /// The unit being transferred.
    pub unit: Unit,
    /// Contents: exactly the bytes of the unit's span.
    pub data: Vec<u8>,
    /// Rights granted to the receiving node.
    pub grant: Access,
    /// The node to be considered owner after this transfer.
    pub owner: NodeId,
    /// Copyset transferred along with ownership (empty otherwise).
    pub copyset: Vec<NodeId>,
    /// Version of the reference copy.
    pub version: u64,
}

/// An invalidation request for a local copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invalidation {
    /// Unit whose local copy must be invalidated.
    pub unit: Unit,
    /// Node that triggered the invalidation (new owner or home node).
    pub from: NodeId,
    /// If set, the receiving node should update its probable-owner hint.
    pub new_owner: Option<NodeId>,
    /// True if the sender waits for an acknowledgement.
    pub needs_ack: bool,
    /// Ownership-succession version at the sender (the page version counter,
    /// bumped on every write transfer). Receivers only rewind their
    /// probable-owner hint for strictly newer versions: a late-arriving
    /// invalidation from an old reign must not clobber fresher hints, or the
    /// hint graph can cycle and deadlock the request chain.
    pub version: u64,
}

/// Messages handled by the `dsm` service. Each variant maps to one of the
/// protocol actions (or to a generic-core action for acknowledgements).
#[derive(Debug)]
pub enum DsmMsg {
    /// Routed to `read_server` / `write_server` depending on the access kind.
    Request(PageRequest),
    /// Routed to `receive_page_server`.
    Transfer(PageTransfer),
    /// Routed to `invalidate_server`.
    Invalidate(Invalidation),
    /// Handled by the generic core: decrements the pending-ack count of the
    /// unit on the receiving node.
    InvalidateAck {
        /// Acknowledged unit.
        unit: Unit,
    },
    /// Routed to the protocol's `diff_server` hook (home-based protocols).
    Diff {
        /// The modifications.
        diff: PageDiff,
        /// Node that produced the diff.
        from: NodeId,
        /// True if the sender waits for an acknowledgement.
        needs_ack: bool,
    },
    /// Handled by the generic core like `InvalidateAck`.
    DiffAck {
        /// Acknowledged unit.
        unit: Unit,
    },
    /// Sent to a page's home node when a node finishes installing write
    /// ownership. The home is the serialization point for ownership
    /// acquisitions (Li & Hudak's improved centralized manager): it forwards
    /// one write request at a time and waits for this notice before
    /// forwarding the next, so write requests are never routed at a node
    /// that is still fetching.
    AcquireDone {
        /// The acquired unit.
        unit: Unit,
        /// The new owner.
        owner: NodeId,
        /// Ownership-succession version of the acquisition.
        version: u64,
    },
    /// Several coherence messages (invalidations, diffs, acknowledgements,
    /// ownership notices) addressed to the same node within one virtual-time
    /// tick, coalesced into a single wire envelope by the per-tick batcher.
    /// The receiving node unpacks the batch atomically — every sub-message
    /// becomes visible at the same instant, in send order — and serves each
    /// one in its own handler thread, exactly as if they had arrived
    /// separately. Batches are never nested.
    Batch(Vec<DsmMsg>),
}

impl DsmMsg {
    /// True for the messages whose service is a generic-core table update and
    /// a wake-up — no charge, no wait, no nested request — so that serving
    /// them can never block and needs no handler thread. Everything else
    /// (requests, transfers, invalidations, diffs, batches) may wait and is
    /// served in a thread.
    pub fn is_nonblocking(&self) -> bool {
        matches!(
            self,
            DsmMsg::InvalidateAck { .. } | DsmMsg::DiffAck { .. } | DsmMsg::AcquireDone { .. }
        )
    }

    /// Payload bytes accounted to the network model for this message.
    pub fn payload_bytes(&self) -> usize {
        match self {
            DsmMsg::Request(_) => 0,
            DsmMsg::Transfer(t) => t.data.len(),
            DsmMsg::Invalidate(_) => 0,
            DsmMsg::InvalidateAck { .. } => 0,
            DsmMsg::Diff { diff, .. } => diff.payload_bytes(),
            DsmMsg::DiffAck { .. } => 0,
            DsmMsg::AcquireDone { .. } => 0,
            DsmMsg::Batch(msgs) => msgs.iter().map(DsmMsg::payload_bytes).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{line_range, LineIx, PageId, PAGE_SIZE};

    /// Only transfers and diffs carry payload, and a transfer's is the span
    /// of its unit — a whole page or one 1024-byte line.
    #[test]
    fn payload_accounting() {
        for (line, line_size) in [(LineIx(0), PAGE_SIZE), (LineIx(2), 1024)] {
            let unit = Unit::new(PageId(1), line);
            let (offset, len) = line_range(line, line_size);
            let req = DsmMsg::Request(PageRequest {
                unit,
                access: Access::Read,
                requester: NodeId(0),
            });
            assert_eq!(req.payload_bytes(), 0);

            let transfer = DsmMsg::Transfer(PageTransfer {
                unit,
                data: vec![0; len],
                grant: Access::Read,
                owner: NodeId(0),
                copyset: vec![],
                version: 1,
            });
            assert_eq!(transfer.payload_bytes(), len);

            let mut cur = vec![0u8; len];
            cur[10] = 1;
            let diff = PageDiff::compute_unit(unit, offset, &vec![0u8; len], &cur);
            let bytes = diff.payload_bytes();
            let msg = DsmMsg::Diff {
                diff,
                from: NodeId(2),
                needs_ack: true,
            };
            assert_eq!(msg.payload_bytes(), bytes);
            assert_eq!(DsmMsg::InvalidateAck { unit }.payload_bytes(), 0);
            assert_eq!(DsmMsg::DiffAck { unit }.payload_bytes(), 0);
            let batch = DsmMsg::Batch(vec![
                msg,
                DsmMsg::InvalidateAck { unit },
                DsmMsg::AcquireDone {
                    unit,
                    owner: NodeId(1),
                    version: 2,
                },
            ]);
            assert_eq!(batch.payload_bytes(), bytes, "batch sums its sub-messages");
        }
    }
}
