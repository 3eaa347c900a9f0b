//! Cluster topology: node identities.
//!
//! DSM-PM2 runs on flat clusters (every node can reach every other node with
//! the same cost model), so the topology reduces to a node count and a node
//! identifier type shared by every layer above.

use std::fmt;

/// Identity of a cluster node. Nodes are numbered `0..num_nodes`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Numeric index of the node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

/// Description of the simulated cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    /// Number of nodes in the cluster.
    pub num_nodes: usize,
}

impl Topology {
    /// A flat cluster of `num_nodes` nodes.
    pub fn flat(num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "a cluster needs at least one node");
        Topology { num_nodes }
    }

    /// Iterate over every node identity.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes).map(NodeId)
    }

    /// True if `node` belongs to this cluster.
    pub fn contains(&self, node: NodeId) -> bool {
        node.0 < self.num_nodes
    }

    /// The node that follows `node` in round-robin order.
    pub fn next_round_robin(&self, node: NodeId) -> NodeId {
        NodeId((node.0 + 1) % self.num_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_formatting_and_conversion() {
        assert_eq!(format!("{}", NodeId(4)), "N4");
        assert_eq!(NodeId::from(7).index(), 7);
    }

    #[test]
    fn topology_enumerates_nodes() {
        let t = Topology::flat(3);
        let nodes: Vec<NodeId> = t.nodes().collect();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(t.contains(NodeId(2)));
        assert!(!t.contains(NodeId(3)));
    }

    #[test]
    fn round_robin_wraps() {
        let t = Topology::flat(4);
        assert_eq!(t.next_round_robin(NodeId(1)), NodeId(2));
        assert_eq!(t.next_round_robin(NodeId(3)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_topology_is_rejected() {
        let _ = Topology::flat(0);
    }
}
