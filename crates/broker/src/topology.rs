//! Acyclic broker overlays.
//!
//! Distributed publish/subscribe systems in the Siena/REBECA family route
//! over an acyclic overlay (a tree), which makes reverse-path forwarding
//! trivially loop-free. [`Topology`] builds the standard shapes used in
//! evaluations — stars, lines, balanced trees and random trees — and exposes
//! the adjacency structure the simulator walks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::BrokerError;
use crate::Result;

/// An undirected, connected, acyclic overlay of brokers (a tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    brokers: usize,
    /// Edges as (smaller id, larger id) pairs.
    edges: Vec<(usize, usize)>,
    /// Adjacency lists, sorted.
    adjacency: Vec<Vec<usize>>,
}

impl Topology {
    /// Builds a topology from an explicit edge list.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::InvalidTopology`] if the edge list does not
    /// describe a connected acyclic graph over `brokers` nodes.
    pub fn from_edges(brokers: usize, edges: &[(usize, usize)]) -> Result<Self> {
        if brokers == 0 {
            return Err(BrokerError::InvalidTopology {
                reason: "a network needs at least one broker".into(),
            });
        }
        if edges.len() != brokers - 1 {
            return Err(BrokerError::InvalidTopology {
                reason: format!(
                    "a tree over {brokers} brokers needs exactly {} edges, got {}",
                    brokers - 1,
                    edges.len()
                ),
            });
        }
        let mut adjacency = vec![Vec::new(); brokers];
        let mut normalized = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            if a >= brokers || b >= brokers {
                return Err(BrokerError::InvalidTopology {
                    reason: format!("edge ({a}, {b}) references a broker outside 0..{brokers}"),
                });
            }
            if a == b {
                return Err(BrokerError::InvalidTopology {
                    reason: format!("self-loop at broker {a}"),
                });
            }
            adjacency
                .get_mut(a)
                .expect("edge endpoints were range-checked above")
                .push(b);
            adjacency
                .get_mut(b)
                .expect("edge endpoints were range-checked above")
                .push(a);
            normalized.push((a.min(b), a.max(b)));
        }
        for adj in adjacency.iter_mut() {
            adj.sort_unstable();
        }
        let topology = Topology {
            brokers,
            edges: normalized,
            adjacency,
        };
        if !topology.is_connected() {
            return Err(BrokerError::InvalidTopology {
                reason: "the overlay is not connected".into(),
            });
        }
        Ok(topology)
    }

    /// A single broker with no links.
    pub fn single() -> Self {
        Topology {
            brokers: 1,
            edges: Vec::new(),
            adjacency: vec![Vec::new()],
        }
    }

    /// A star: broker 0 in the center, brokers `1..n` as leaves.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn star(n: usize) -> Result<Self> {
        if n == 1 {
            return Ok(Self::single());
        }
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        Self::from_edges(n, &edges)
    }

    /// A line (path) of `n` brokers: `0 — 1 — 2 — …`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn line(n: usize) -> Result<Self> {
        if n == 1 {
            return Ok(Self::single());
        }
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        Self::from_edges(n, &edges)
    }

    /// A balanced tree with the given fanout and depth (depth 0 is a single
    /// root). The node count is `(fanout^(depth+1) − 1) / (fanout − 1)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `fanout < 2` or the tree would exceed 100 000
    /// brokers.
    pub fn balanced_tree(fanout: usize, depth: usize) -> Result<Self> {
        if fanout < 2 {
            return Err(BrokerError::InvalidTopology {
                reason: format!("balanced tree fanout must be at least 2, got {fanout}"),
            });
        }
        let mut count = 1usize;
        let mut level_size = 1usize;
        for _ in 0..depth {
            level_size = level_size.saturating_mul(fanout);
            count = count.saturating_add(level_size);
            if count > 100_000 {
                return Err(BrokerError::InvalidTopology {
                    reason: "balanced tree exceeds 100000 brokers".into(),
                });
            }
        }
        let mut edges = Vec::with_capacity(count - 1);
        for child in 1..count {
            let parent = (child - 1) / fanout;
            edges.push((parent, child));
        }
        Self::from_edges(count, &edges)
    }

    /// A random tree over `n` brokers: each broker `i > 0` attaches to a
    /// uniformly random earlier broker. Deterministic for a given seed.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn random_tree(n: usize, seed: u64) -> Result<Self> {
        if n == 1 {
            return Ok(Self::single());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (rng.gen_range(0..i), i)).collect();
        Self::from_edges(n, &edges)
    }

    /// Number of brokers.
    pub fn brokers(&self) -> usize {
        self.brokers
    }

    /// The edges of the overlay.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbors of broker `id`, sorted. Out-of-range ids have none.
    pub fn neighbors(&self, id: usize) -> &[usize] {
        self.adjacency.get(id).map_or(&[], Vec::as_slice)
    }

    /// Whether `id` names a broker of this topology.
    pub fn contains(&self, id: usize) -> bool {
        id < self.brokers
    }

    /// Validates a broker identifier.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownBroker`] if the identifier is out of
    /// range.
    pub fn check_broker(&self, id: usize) -> Result<()> {
        if !self.contains(id) {
            return Err(BrokerError::UnknownBroker {
                id,
                brokers: self.brokers,
            });
        }
        Ok(())
    }

    /// The number of hops between two brokers.
    ///
    /// # Errors
    ///
    /// Returns an error if either identifier is out of range.
    pub fn distance(&self, from: usize, to: usize) -> Result<usize> {
        self.check_broker(from)?;
        self.check_broker(to)?;
        if from == to {
            return Ok(0);
        }
        let mut dist = vec![usize::MAX; self.brokers];
        *dist.get_mut(from).expect("`from` was range-checked above") = 0;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(b) = queue.pop_front() {
            let hops = dist
                .get(b)
                .copied()
                .expect("the queue holds only in-range broker ids");
            for &n in self.neighbors(b) {
                let slot = dist
                    .get_mut(n)
                    .expect("adjacency holds only in-range broker ids");
                if *slot == usize::MAX {
                    *slot = hops + 1;
                    if n == to {
                        return Ok(hops + 1);
                    }
                    queue.push_back(n);
                }
            }
        }
        // A tree reaches every broker, so BFS exhausting the queue without
        // hitting `to` means the invariant was broken elsewhere; report it
        // instead of panicking the routing layer.
        Err(BrokerError::InvalidTopology {
            reason: format!("no path from broker {from} to broker {to}"),
        })
    }

    fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.brokers];
        *seen
            .first_mut()
            .expect("the constructor rejects empty topologies") = true;
        let mut queue = std::collections::VecDeque::from([0usize]);
        let mut count = 1;
        while let Some(b) = queue.pop_front() {
            for &n in self.neighbors(b) {
                let slot = seen
                    .get_mut(n)
                    .expect("adjacency holds only in-range broker ids");
                if !*slot {
                    *slot = true;
                    count += 1;
                    queue.push_back(n);
                }
            }
        }
        count == self.brokers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_line_and_single() {
        let star = Topology::star(5).unwrap();
        assert_eq!(star.brokers(), 5);
        assert_eq!(star.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(star.neighbors(3), &[0]);
        assert_eq!(star.distance(1, 4).unwrap(), 2);

        let line = Topology::line(4).unwrap();
        assert_eq!(line.neighbors(1), &[0, 2]);
        assert_eq!(line.distance(0, 3).unwrap(), 3);

        let single = Topology::single();
        assert_eq!(single.brokers(), 1);
        assert!(single.neighbors(0).is_empty());
        assert_eq!(single.distance(0, 0).unwrap(), 0);
    }

    #[test]
    fn balanced_tree_shape() {
        let t = Topology::balanced_tree(2, 4).unwrap();
        assert_eq!(t.brokers(), 31);
        // Every non-root broker has exactly one parent; leaves have degree 1.
        assert_eq!(t.neighbors(0).len(), 2);
        assert_eq!(t.neighbors(30).len(), 1);
        assert_eq!(t.distance(15, 30).unwrap(), 8);
        assert!(Topology::balanced_tree(1, 3).is_err());
    }

    #[test]
    fn random_tree_is_deterministic_and_valid() {
        let a = Topology::random_tree(50, 7).unwrap();
        let b = Topology::random_tree(50, 7).unwrap();
        let c = Topology::random_tree(50, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.edges().len(), 49);
    }

    #[test]
    fn from_edges_validates_shape() {
        assert!(Topology::from_edges(0, &[]).is_err());
        assert!(Topology::from_edges(3, &[(0, 1)]).is_err(), "too few edges");
        assert!(
            Topology::from_edges(3, &[(0, 1), (0, 3)]).is_err(),
            "edge out of range"
        );
        assert!(
            Topology::from_edges(3, &[(0, 1), (1, 1)]).is_err(),
            "self loop"
        );
        assert!(
            Topology::from_edges(4, &[(0, 1), (0, 1), (2, 3)]).is_err(),
            "disconnected with duplicate edge"
        );
        assert!(Topology::from_edges(3, &[(0, 1), (1, 2)]).is_ok());
    }

    #[test]
    fn check_broker_bounds() {
        let t = Topology::star(3).unwrap();
        assert!(t.check_broker(2).is_ok());
        assert!(matches!(
            t.check_broker(3),
            Err(BrokerError::UnknownBroker { id: 3, brokers: 3 })
        ));
        assert!(t.distance(0, 9).is_err());
    }
}
