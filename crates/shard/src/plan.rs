//! The shard plan: who owns which vertices, and which hot vertices are
//! replicated everywhere.

use tlpgnn_graph::partition::{edge_balanced_partition, VertexPartition};
use tlpgnn_graph::Csr;

/// A partition of the vertex set across `shards` devices, plus a
/// replication set of hot vertices mirrored on every shard.
///
/// Ownership is a contiguous-range split with approximately balanced
/// edge counts (the graph crate's `edge_balanced_partition`, the
/// paper's lightweight stand-in for METIS). Replication targets the
/// highest-degree vertices: under power-law degree distributions they
/// appear on a disproportionate share of ego-graph frontiers, so
/// mirroring their rows converts the most frequent remote fetches into
/// local reads.
///
/// A plan may additionally carry a **standby-replica assignment**: each
/// shard's owned range is mirrored in full on exactly one *buddy*
/// shard, so losing a device does not lose exclusive access to any part
/// of the graph. The assignment is a derangement (no shard buddies
/// itself) and a bijection (every shard's range is mirrored exactly
/// once, and every shard carries exactly one mirror) — redundancy
/// priced against device memory, checked by [`validate`].
///
/// [`validate`]: ShardPlan::validate
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    partition: VertexPartition,
    num_vertices: usize,
    /// Sorted original ids of the replicated hot set.
    replicated: Vec<u32>,
    /// `standby[p]` is the buddy shard mirroring `p`'s owned range.
    /// Empty when the plan carries no standby assignment (or there is
    /// only one shard, which has nowhere to mirror to).
    standby: Vec<usize>,
}

impl ShardPlan {
    /// Build a plan for `g` over `shards` devices, replicating the
    /// `replicate_hot` highest-degree vertices (ties broken by lower
    /// id) on every shard.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn build(g: &Csr, shards: usize, replicate_hot: usize) -> Self {
        Self::build_with_standby(g, shards, replicate_hot, false)
    }

    /// [`build`](Self::build), optionally with a standby-replica
    /// assignment: when `standby` is true and there are at least two
    /// shards, shard `p`'s owned range is mirrored on buddy shard
    /// `(p + 1) % shards` (a ring derangement). At one shard the flag
    /// is a no-op — there is no second device to mirror to.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn build_with_standby(g: &Csr, shards: usize, replicate_hot: usize, standby: bool) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let partition = edge_balanced_partition(g, shards);
        let n = g.num_vertices();
        let k = replicate_hot.min(n);
        let mut by_degree: Vec<u32> = (0..n as u32).collect();
        by_degree.sort_unstable_by(|&a, &b| {
            g.degree(b as usize)
                .cmp(&g.degree(a as usize))
                .then(a.cmp(&b))
        });
        let mut replicated = by_degree[..k].to_vec();
        replicated.sort_unstable();
        let standby = if standby && shards >= 2 {
            (0..shards).map(|p| (p + 1) % shards).collect()
        } else {
            Vec::new()
        };
        Self {
            partition,
            num_vertices: n,
            replicated,
            standby,
        }
    }

    /// Number of shards (devices).
    pub fn shards(&self) -> usize {
        self.partition.parts()
    }

    /// Number of vertices the plan covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Vertex range owned by shard `p`.
    pub fn owned_range(&self, p: usize) -> std::ops::Range<usize> {
        self.partition.range(p)
    }

    /// The unique shard owning vertex `v` (the vertex→shard directory).
    pub fn owner_of(&self, v: u32) -> usize {
        debug_assert!((v as usize) < self.num_vertices);
        self.partition.part_of(v)
    }

    /// Sorted ids of the replicated hot set.
    pub fn replicated(&self) -> &[u32] {
        &self.replicated
    }

    /// Whether vertex `v` is mirrored on every shard.
    pub fn is_replicated(&self, v: u32) -> bool {
        self.replicated.binary_search(&v).is_ok()
    }

    /// The buddy shard holding a full standby mirror of shard `p`'s
    /// owned range, or `None` when the plan has no standby assignment.
    pub fn buddy_of(&self, p: usize) -> Option<usize> {
        self.standby.get(p).copied()
    }

    /// The shard whose owned range shard `b` mirrors (the inverse of
    /// [`buddy_of`](Self::buddy_of)), or `None` without standby.
    pub(crate) fn mirror_source(&self, b: usize) -> Option<usize> {
        if self.standby.is_empty() {
            None
        } else {
            self.standby.iter().position(|&buddy| buddy == b)
        }
    }

    /// Route a request to the shard owning its seed (first) target.
    ///
    /// # Panics
    /// Panics on an empty target list — admission rejects those first.
    pub fn route(&self, targets: &[u32]) -> usize {
        assert!(!targets.is_empty(), "cannot route an empty request");
        self.owner_of(targets[0])
    }

    /// Check the plan's structural invariants: the partition covers
    /// `[0, num_vertices)` with monotone bounds, every vertex's owner
    /// range actually contains it, the replication set is strictly
    /// sorted and in range, and any standby assignment is a bijective
    /// derangement over the shards (every range mirrored exactly once,
    /// never onto its own device). Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.partition.validate()?;
        if self.partition.num_vertices() != self.num_vertices {
            return Err(format!(
                "partition covers {} vertices, plan says {}",
                self.partition.num_vertices(),
                self.num_vertices
            ));
        }
        for p in 0..self.shards() {
            for v in self.owned_range(p) {
                if self.owner_of(v as u32) != p {
                    return Err(format!(
                        "vertex {v} is in shard {p}'s range but owner_of says {}",
                        self.owner_of(v as u32)
                    ));
                }
            }
        }
        for w in self.replicated.windows(2) {
            if w[0] >= w[1] {
                return Err(format!(
                    "replication set not strictly sorted at {} >= {}",
                    w[0], w[1]
                ));
            }
        }
        if let Some(&last) = self.replicated.last() {
            if last as usize >= self.num_vertices {
                return Err(format!("replicated vertex {last} out of range"));
            }
        }
        if !self.standby.is_empty() {
            if self.standby.len() != self.shards() {
                return Err(format!(
                    "standby assignment covers {} shards, plan has {}",
                    self.standby.len(),
                    self.shards()
                ));
            }
            let mut mirrored_on = vec![0usize; self.shards()];
            for (p, &b) in self.standby.iter().enumerate() {
                if b >= self.shards() {
                    return Err(format!("shard {p}'s buddy {b} is out of range"));
                }
                if b == p {
                    return Err(format!("shard {p} is its own standby buddy"));
                }
                mirrored_on[b] += 1;
            }
            if let Some(b) = mirrored_on.iter().position(|&c| c != 1) {
                return Err(format!(
                    "shard {b} carries {} standby mirrors (want exactly 1)",
                    mirrored_on[b]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlpgnn_graph::generators;

    #[test]
    fn every_vertex_has_exactly_one_owner() {
        let g = generators::rmat_default(500, 4000, 11);
        let plan = ShardPlan::build(&g, 4, 16);
        plan.validate().unwrap();
        let mut owned = vec![0usize; g.num_vertices()];
        for p in 0..plan.shards() {
            for v in plan.owned_range(p) {
                owned[v] += 1;
            }
        }
        assert!(owned.iter().all(|&c| c == 1));
    }

    #[test]
    fn hot_set_is_the_top_degrees() {
        // Star graph: the hub has in-degree n-1, leaves have 0.
        let g = generators::star(50);
        let plan = ShardPlan::build(&g, 4, 1);
        assert_eq!(plan.replicated(), &[0], "the hub must be replicated");
        assert!(plan.is_replicated(0));
        assert!(!plan.is_replicated(1));
    }

    #[test]
    fn route_follows_seed_ownership() {
        let g = generators::rmat_default(300, 2400, 7);
        let plan = ShardPlan::build(&g, 3, 0);
        for v in [0u32, 50, 299] {
            assert_eq!(plan.route(&[v, 1, 2]), plan.owner_of(v));
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let g = generators::erdos_renyi(100, 700, 3);
        let plan = ShardPlan::build(&g, 1, 8);
        plan.validate().unwrap();
        assert_eq!(plan.shards(), 1);
        for v in 0..100u32 {
            assert_eq!(plan.owner_of(v), 0);
        }
    }

    #[test]
    fn standby_assignment_is_a_bijective_derangement() {
        let g = generators::rmat_default(400, 3000, 13);
        let plan = ShardPlan::build_with_standby(&g, 4, 8, true);
        plan.validate().unwrap();
        let mut seen = [false; 4];
        for p in 0..4 {
            let b = plan.buddy_of(p).unwrap();
            assert_ne!(b, p, "a shard cannot mirror itself");
            assert!(!seen[b], "shard {b} carries two mirrors");
            seen[b] = true;
            assert_eq!(plan.mirror_source(b), Some(p));
        }
    }

    #[test]
    fn standby_is_a_noop_without_the_flag_or_at_one_shard() {
        let g = generators::erdos_renyi(100, 700, 3);
        let plain = ShardPlan::build(&g, 4, 8);
        assert_eq!(plain.buddy_of(0), None);
        assert_eq!(plain.mirror_source(0), None);
        let single = ShardPlan::build_with_standby(&g, 1, 8, true);
        single.validate().unwrap();
        assert_eq!(
            single.buddy_of(0),
            None,
            "one shard has no buddy to mirror to"
        );
    }

    #[test]
    fn replication_caps_at_vertex_count() {
        let g = generators::path(5);
        let plan = ShardPlan::build(&g, 2, 100);
        plan.validate().unwrap();
        assert_eq!(plan.replicated().len(), 5);
    }
}
