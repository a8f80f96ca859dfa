//! Bi-directional 2-D mesh model for the Bi-NoC (paper §II-F, Fig. 4).
//!
//! The coarse [`crate::noc::BiNoc`] model charges an average hop count per
//! flit; this module models the actual mesh: routers at grid coordinates,
//! XY dimension-ordered routing, per-link flit accounting, and
//! unicast/multicast/broadcast delivery with fan-out duplication at the
//! routers (a multicast flit traverses each link at most once).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A router coordinate on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Node {
    /// Column.
    pub x: u8,
    /// Row.
    pub y: u8,
}

impl Node {
    /// Creates a node.
    pub fn new(x: u8, y: u8) -> Self {
        Self { x, y }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A directed mesh link between adjacent routers.
pub type Link = (Node, Node);

/// The Bi-NoC mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    width: u8,
    height: u8,
    /// Flits carried per link over the accounted transfers.
    link_flits: BTreeMap<Link, u64>,
}

impl Mesh {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u8, height: u8) -> Self {
        assert!(width > 0 && height > 0, "mesh must be non-empty");
        Self {
            width,
            height,
            link_flits: BTreeMap::new(),
        }
    }

    /// The Sibia top-level mesh: 4 MPU cores + 2 DMU cores arranged 3×2.
    pub fn sibia_top() -> Self {
        Self::new(3, 2)
    }

    /// Mesh dimensions.
    pub fn size(&self) -> (u8, u8) {
        (self.width, self.height)
    }

    fn check(&self, n: Node) {
        assert!(
            n.x < self.width && n.y < self.height,
            "node {n} outside {}x{} mesh",
            self.width,
            self.height
        );
    }

    /// The XY dimension-ordered route from `src` to `dst` (exclusive of
    /// `src`, inclusive of `dst`).
    pub fn xy_route(&self, src: Node, dst: Node) -> Vec<Node> {
        self.check(src);
        self.check(dst);
        let mut path = Vec::new();
        let mut cur = src;
        while cur.x != dst.x {
            cur.x = if dst.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(cur);
        }
        while cur.y != dst.y {
            cur.y = if dst.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(cur);
        }
        path
    }

    /// Hop count of the XY route.
    pub fn hops(&self, src: Node, dst: Node) -> u64 {
        (src.x.abs_diff(dst.x) + src.y.abs_diff(dst.y)) as u64
    }

    /// Accounts a unicast of `flits` from `src` to `dst`. Returns the
    /// flit-hops consumed.
    pub fn unicast(&mut self, src: Node, dst: Node, flits: u64) -> u64 {
        let mut prev = src;
        let mut cost = 0;
        for next in self.xy_route(src, dst) {
            *self.link_flits.entry((prev, next)).or_insert(0) += flits;
            cost += flits;
            prev = next;
        }
        cost
    }

    /// Accounts a multicast of `flits` from `src` to every destination:
    /// the union of the XY routes forms a tree, and each tree link carries
    /// the flits once. Returns the flit-hops consumed.
    pub fn multicast(&mut self, src: Node, dsts: &[Node], flits: u64) -> u64 {
        let mut tree: BTreeSet<Link> = BTreeSet::new();
        for &d in dsts {
            let mut prev = src;
            for next in self.xy_route(src, d) {
                tree.insert((prev, next));
                prev = next;
            }
        }
        for link in &tree {
            *self.link_flits.entry(*link).or_insert(0) += flits;
        }
        tree.len() as u64 * flits
    }

    /// Accounts a broadcast to every node.
    pub fn broadcast(&mut self, src: Node, flits: u64) -> u64 {
        let all: Vec<Node> = (0..self.width)
            .flat_map(|x| (0..self.height).map(move |y| Node::new(x, y)))
            .filter(|&n| n != src)
            .collect();
        self.multicast(src, &all, flits)
    }

    /// Total flit-hops accounted so far.
    pub fn total_flit_hops(&self) -> u64 {
        self.link_flits.values().sum()
    }

    /// Cycles to drain the accounted traffic with one flit per link per
    /// cycle: the max link load (links operate in parallel).
    pub fn drain_cycles(&self) -> u64 {
        self.link_flits.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_route_is_manhattan() {
        let m = Mesh::new(4, 4);
        let path = m.xy_route(Node::new(0, 0), Node::new(3, 2));
        assert_eq!(path.len(), 5);
        assert_eq!(path.last(), Some(&Node::new(3, 2)));
        assert_eq!(m.hops(Node::new(0, 0), Node::new(3, 2)), 5);
        // X first, then Y.
        assert_eq!(path[0], Node::new(1, 0));
        assert_eq!(path[3], Node::new(3, 1));
    }

    #[test]
    fn unicast_charges_every_link() {
        let mut m = Mesh::new(3, 2);
        let cost = m.unicast(Node::new(0, 0), Node::new(2, 1), 10);
        assert_eq!(cost, 30); // 3 hops × 10 flits
        assert_eq!(m.total_flit_hops(), 30);
        assert_eq!(m.drain_cycles(), 10);
    }

    #[test]
    fn multicast_shares_tree_links() {
        let mut m = Mesh::new(3, 2);
        let src = Node::new(0, 0);
        let dsts = [Node::new(2, 0), Node::new(2, 1)];
        let mc = m.multicast(src, &dsts, 10);
        // Unicasts would cost 2·10 + 3·10 = 50; the shared tree is
        // (0,0)→(1,0)→(2,0)→(2,1): 3 links × 10 = 30.
        assert_eq!(mc, 30);
        let mut m2 = Mesh::new(3, 2);
        let uc = m2.unicast(src, dsts[0], 10) + m2.unicast(src, dsts[1], 10);
        assert!(mc < uc);
    }

    #[test]
    fn broadcast_reaches_all_nodes_once_per_link() {
        let mut m = Mesh::sibia_top();
        let cost = m.broadcast(Node::new(1, 0), 1);
        // A spanning structure of a 3×2 mesh from any source covers ≥5
        // links (5 other nodes), each exactly once for 1 flit.
        assert!(cost >= 5);
        assert_eq!(m.drain_cycles(), 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn routes_validate_bounds() {
        let m = Mesh::new(2, 2);
        let _ = m.xy_route(Node::new(0, 0), Node::new(3, 0));
    }
}
