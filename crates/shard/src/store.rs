//! Per-device graph slices: the adjacency and feature rows one shard
//! actually holds in its (simulated) device memory.

use crate::plan::ShardPlan;
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

/// One device's slice of the partitioned graph.
///
/// A store holds the contiguous vertex range the shard *owns* (local
/// CSR rows in global source ids, plus the matching feature rows) and
/// replica copies of the plan's hot set for vertices it does not own.
/// Replicas carry both the adjacency row and the feature row, so a
/// BFS expansion or feature gather touching a hot vertex never leaves
/// the device.
///
/// Under a standby plan ([`ShardPlan::buddy_of`]) the store also
/// carries a full **standby mirror** of one buddy shard's owned range
/// (adjacency + features, bitwise copies), so the buddy's rows stay
/// servable after its device is lost. Mirror bytes count against the
/// device budget like everything else resident here ([`bytes`]).
///
/// [`bytes`]: ShardStore::bytes
#[derive(Debug, Clone)]
pub struct ShardStore {
    shard: usize,
    start: u32,
    end: u32,
    feat_dim: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    features: Vec<f32>,
    /// Sorted non-owned replica ids; parallel to the replica arrays.
    replica_ids: Vec<u32>,
    replica_indptr: Vec<u32>,
    replica_indices: Vec<u32>,
    replica_features: Vec<f32>,
    /// Standby mirror of the buddy range `[mirror_start, mirror_end)`
    /// (empty without a standby plan).
    mirror_start: u32,
    mirror_end: u32,
    mirror_indptr: Vec<u32>,
    mirror_indices: Vec<u32>,
    mirror_features: Vec<f32>,
}

impl ShardStore {
    /// Slice the global graph + feature matrix into one store per shard
    /// of `plan`. Replicated vertices land in every store that does not
    /// already own them.
    ///
    /// # Panics
    /// Panics if `x` does not have one row per vertex of `g`, or if the
    /// plan was built for a different vertex count.
    pub fn build_all(g: &Csr, x: &Matrix, plan: &ShardPlan) -> Vec<ShardStore> {
        assert_eq!(
            x.rows(),
            g.num_vertices(),
            "feature matrix must have one row per vertex"
        );
        assert_eq!(
            g.num_vertices(),
            plan.num_vertices(),
            "plan was built for a different graph"
        );
        let f = x.cols();
        (0..plan.shards())
            .map(|p| {
                let range = plan.owned_range(p);
                let (start, end) = (range.start as u32, range.end as u32);
                let mut indptr = Vec::with_capacity(range.len() + 1);
                indptr.push(0u32);
                let mut indices = Vec::new();
                let mut features = Vec::with_capacity(range.len() * f);
                for v in range {
                    indices.extend_from_slice(g.neighbors(v));
                    indptr.push(indices.len() as u32);
                    features.extend_from_slice(x.row(v));
                }
                let replica_ids: Vec<u32> = plan
                    .replicated()
                    .iter()
                    .copied()
                    .filter(|&v| !(start..end).contains(&v))
                    .collect();
                let mut replica_indptr = Vec::with_capacity(replica_ids.len() + 1);
                replica_indptr.push(0u32);
                let mut replica_indices = Vec::new();
                let mut replica_features = Vec::with_capacity(replica_ids.len() * f);
                for &v in &replica_ids {
                    replica_indices.extend_from_slice(g.neighbors(v as usize));
                    replica_indptr.push(replica_indices.len() as u32);
                    replica_features.extend_from_slice(x.row(v as usize));
                }
                // Standby mirror: a bitwise copy of the buddy-source
                // shard's owned range, sliced the same way as owned
                // storage so failover reads are byte-identical.
                let (mirror_start, mirror_end, mirror_indptr, mirror_indices, mirror_features) =
                    match plan.mirror_source(p) {
                        Some(src) => {
                            let mrange = plan.owned_range(src);
                            let (ms, me) = (mrange.start as u32, mrange.end as u32);
                            let mut mindptr = Vec::with_capacity(mrange.len() + 1);
                            mindptr.push(0u32);
                            let mut mindices = Vec::new();
                            let mut mfeatures = Vec::with_capacity(mrange.len() * f);
                            for v in mrange {
                                mindices.extend_from_slice(g.neighbors(v));
                                mindptr.push(mindices.len() as u32);
                                mfeatures.extend_from_slice(x.row(v));
                            }
                            (ms, me, mindptr, mindices, mfeatures)
                        }
                        None => (0, 0, Vec::new(), Vec::new(), Vec::new()),
                    };
                ShardStore {
                    shard: p,
                    start,
                    end,
                    feat_dim: f,
                    indptr,
                    indices,
                    features,
                    replica_ids,
                    replica_indptr,
                    replica_indices,
                    replica_features,
                    mirror_start,
                    mirror_end,
                    mirror_indptr,
                    mirror_indices,
                    mirror_features,
                }
            })
            .collect()
    }

    /// The shard index this store belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Feature dimensionality.
    pub fn feat_dim(&self) -> usize {
        self.feat_dim
    }

    /// Whether this shard owns vertex `v`.
    pub(crate) fn owns(&self, v: u32) -> bool {
        v >= self.start && v < self.end
    }

    fn replica_index(&self, v: u32) -> Option<usize> {
        self.replica_ids.binary_search(&v).ok()
    }

    /// Whether a lookup for `v` can be served locally (owned,
    /// replicated, or standby-mirrored here).
    pub fn hosts(&self, v: u32) -> bool {
        self.owns(v) || self.replica_index(v).is_some() || self.mirrors(v)
    }

    /// Whether `v` falls in the buddy range this store carries a
    /// standby mirror of. Always false without a standby plan.
    pub(crate) fn mirrors(&self, v: u32) -> bool {
        v >= self.mirror_start && v < self.mirror_end
    }

    /// In-neighbor row of `v` (global source ids), from owned storage,
    /// a replica, or the standby mirror.
    ///
    /// # Panics
    /// Panics if `v` is not hosted here — callers must go through the
    /// halo-exchange path for remote vertices.
    pub fn row(&self, v: u32) -> &[u32] {
        if self.owns(v) {
            let i = (v - self.start) as usize;
            &self.indices[self.indptr[i] as usize..self.indptr[i + 1] as usize]
        } else if let Some(i) = self.replica_index(v) {
            &self.replica_indices
                [self.replica_indptr[i] as usize..self.replica_indptr[i + 1] as usize]
        } else if self.mirrors(v) {
            let i = (v - self.mirror_start) as usize;
            &self.mirror_indices[self.mirror_indptr[i] as usize..self.mirror_indptr[i + 1] as usize]
        } else {
            panic!("vertex {v} is not hosted on shard {}", self.shard)
        }
    }

    /// Feature row of `v`, from owned storage, a replica, or the
    /// standby mirror.
    ///
    /// # Panics
    /// Panics if `v` is not hosted here.
    pub fn feature_row(&self, v: u32) -> &[f32] {
        if self.owns(v) {
            let i = (v - self.start) as usize;
            &self.features[i * self.feat_dim..(i + 1) * self.feat_dim]
        } else if let Some(i) = self.replica_index(v) {
            &self.replica_features[i * self.feat_dim..(i + 1) * self.feat_dim]
        } else if self.mirrors(v) {
            let i = (v - self.mirror_start) as usize;
            &self.mirror_features[i * self.feat_dim..(i + 1) * self.feat_dim]
        } else {
            panic!("vertex {v} is not hosted on shard {}", self.shard)
        }
    }

    /// Resident bytes of this store: owned + replica + standby-mirror
    /// adjacency (u32) and features (f32). This is the figure a
    /// per-device memory budget is checked against — standby redundancy
    /// is priced, not free.
    pub fn bytes(&self) -> u64 {
        let words = self.indptr.len()
            + self.indices.len()
            + self.replica_ids.len()
            + self.replica_indptr.len()
            + self.replica_indices.len()
            + self.mirror_indptr.len()
            + self.mirror_indices.len();
        let floats = self.features.len() + self.replica_features.len() + self.mirror_features.len();
        (words * 4 + floats * 4) as u64
    }
}

/// Resident bytes of the *unpartitioned* graph + feature matrix on a
/// single device: CSR arrays (u32) plus the dense feature matrix
/// (f32). A device budget below this but above every
/// [`ShardStore::bytes`] is the case sharding exists for.
pub fn graph_bytes(g: &Csr, feat_dim: usize) -> u64 {
    let words = g.indptr().len() + g.indices().len();
    let floats = g.num_vertices() * feat_dim;
    (words * 4 + floats * 4) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlpgnn_graph::generators;

    #[test]
    fn stores_cover_the_graph_and_match_rows() {
        let g = generators::rmat_default(300, 2400, 19);
        let x = Matrix::random(300, 6, 1.0, 5);
        let plan = ShardPlan::build(&g, 4, 8);
        let stores = ShardStore::build_all(&g, &x, &plan);
        assert_eq!(stores.len(), 4);
        let owned_total: usize = stores
            .iter()
            .map(|s| (0..300u32).filter(|&v| s.owns(v)).count())
            .sum();
        assert_eq!(owned_total, 300);
        for v in 0..300u32 {
            let s = &stores[plan.owner_of(v)];
            assert!(s.owns(v));
            assert_eq!(s.row(v), g.neighbors(v as usize));
            assert_eq!(s.feature_row(v), x.row(v as usize));
        }
    }

    #[test]
    fn replicas_are_bitwise_copies_of_the_owner() {
        let g = generators::rmat_default(200, 1600, 23);
        let x = Matrix::random(200, 4, 1.0, 7);
        let plan = ShardPlan::build(&g, 3, 12);
        let stores = ShardStore::build_all(&g, &x, &plan);
        for &v in plan.replicated() {
            let owner = &stores[plan.owner_of(v)];
            for s in &stores {
                assert!(s.hosts(v), "replica {v} missing on shard {}", s.shard());
                assert_eq!(s.row(v), owner.row(v));
                assert_eq!(s.feature_row(v), owner.feature_row(v));
            }
        }
    }

    #[test]
    fn shard_bytes_fit_under_the_whole_graph() {
        let g = generators::rmat_default(400, 3200, 31);
        let x = Matrix::random(400, 8, 1.0, 9);
        let plan = ShardPlan::build(&g, 4, 0);
        let stores = ShardStore::build_all(&g, &x, &plan);
        let whole = graph_bytes(&g, 8);
        for s in &stores {
            assert!(
                s.bytes() < whole,
                "shard {} holds {} bytes, whole graph is {whole}",
                s.shard(),
                s.bytes()
            );
        }
    }

    #[test]
    fn standby_mirrors_are_bitwise_copies_of_the_buddy_range() {
        let g = generators::rmat_default(300, 2400, 17);
        let x = Matrix::random(300, 5, 1.0, 11);
        let plan = ShardPlan::build_with_standby(&g, 4, 8, true);
        let stores = ShardStore::build_all(&g, &x, &plan);
        for p in 0..4 {
            let b = plan.buddy_of(p).unwrap();
            let buddy = &stores[b];
            let mirrored = (0..300u32).filter(|&v| buddy.mirrors(v)).count();
            assert_eq!(mirrored, plan.owned_range(p).len());
            for v in plan.owned_range(p) {
                let v = v as u32;
                assert!(buddy.mirrors(v), "buddy {b} must mirror {v}");
                assert!(buddy.hosts(v));
                assert_eq!(buddy.row(v), g.neighbors(v as usize));
                assert_eq!(buddy.feature_row(v), x.row(v as usize));
            }
        }
    }

    #[test]
    fn standby_mirror_bytes_are_priced() {
        let g = generators::rmat_default(300, 2400, 17);
        let x = Matrix::random(300, 5, 1.0, 11);
        let plain = ShardStore::build_all(&g, &x, &ShardPlan::build(&g, 4, 8));
        let standby = ShardStore::build_all(&g, &x, &ShardPlan::build_with_standby(&g, 4, 8, true));
        for (a, b) in plain.iter().zip(&standby) {
            assert!(
                b.bytes() > a.bytes(),
                "shard {}'s mirror must count against the budget",
                b.shard()
            );
        }
    }

    #[test]
    #[should_panic(expected = "not hosted")]
    fn remote_row_access_panics() {
        let g = generators::path(10);
        let x = Matrix::random(10, 2, 1.0, 1);
        let plan = ShardPlan::build(&g, 2, 0);
        let stores = ShardStore::build_all(&g, &x, &plan);
        // Vertex 9 is owned by the last shard; shard 0 must refuse.
        assert!(!stores[0].owns(9));
        let _ = stores[0].row(9);
    }
}
