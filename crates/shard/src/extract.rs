//! Distributed k-hop ego-graph extraction with halo-exchange
//! accounting.
//!
//! [`distributed_ego`] is the graph crate's `ego_graph_on` — the one
//! BFS, relabelling and row build — run over a view that reads every
//! adjacency row through the [`ShardStore`]s instead of the global
//! graph, followed by a feature gather through the same stores. Rows
//! the home shard does not host are "halo" fetches: they are grouped
//! into one batch per (expanded BFS level, remote shard) pair, the way a
//! real multi-GPU runtime would coalesce boundary traffic into one
//! transfer per peer per step, and every batch/row/byte is counted in
//! [`HaloStats`].
//!
//! Because the traversal is the same code over the same rows, the
//! returned [`EgoGraph`] and gathered feature matrix are bitwise equal
//! to the single-device extraction — sharding changes where bytes live,
//! never what the engine computes.
//!
//! [`distributed_ego_with_health`] extends the same traversal across
//! device loss: rows owned by a dead shard are served from the standby
//! buddy's mirror when the plan carries one (bitwise copies, so covered
//! results stay bitwise equal), and counted in
//! [`HaloStats::missing_rows`] / [`HaloStats::missing_features`] when
//! nothing live holds them — the partial-service signal the serve tier
//! flags instead of failing.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::plan::ShardPlan;
use crate::store::ShardStore;
use tlpgnn_graph::subgraph::{ego_graph_on, EgoGraph, Neighborhoods};
use tlpgnn_tensor::Matrix;

/// Halo-exchange accounting for one distributed extraction. Adjacency
/// rows are counted for the expanded vertices only (hop `< hops`): the
/// extraction never reads a frontier vertex's row, so it never moves
/// one. Feature rows are counted for every extracted vertex.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HaloStats {
    /// Batched transfers issued: one per (expanded BFS level, remote
    /// shard) with at least one row to move, plus one per remote shard
    /// in the feature gather.
    pub fetch_batches: u64,
    /// Adjacency rows pulled from remote shards.
    pub fetched_rows: u64,
    /// Feature rows pulled from remote shards.
    pub fetched_features: u64,
    /// Total bytes moved across the interconnect.
    pub fetched_bytes: u64,
    /// Lookups served by a local replica of a remote-owned vertex.
    pub replica_hits: u64,
    /// Lookups served by the home shard's owned range.
    pub local_hits: u64,
    /// Lookups served by the home shard's standby mirror of its buddy's
    /// range (local reads; always 0 without a standby plan).
    pub mirror_hits: u64,
    /// Adjacency rows that could not be served from anywhere: their
    /// owner is dead and no live shard mirrors them. The BFS treats
    /// them as empty rows — the extraction is *partial*.
    pub missing_rows: u64,
    /// Feature rows that could not be served; gathered as zeros.
    pub missing_features: u64,
}

impl HaloStats {
    /// Fold another extraction's accounting into this one.
    pub fn accumulate(&mut self, other: &HaloStats) {
        self.fetch_batches += other.fetch_batches;
        self.fetched_rows += other.fetched_rows;
        self.fetched_features += other.fetched_features;
        self.fetched_bytes += other.fetched_bytes;
        self.replica_hits += other.replica_hits;
        self.local_hits += other.local_hits;
        self.mirror_hits += other.mirror_hits;
        self.missing_rows += other.missing_rows;
        self.missing_features += other.missing_features;
    }

    /// Remote lookups of either kind (adjacency + feature rows).
    pub fn remote_lookups(&self) -> u64 {
        self.fetched_rows + self.fetched_features
    }

    /// Rows of either kind that no live shard could serve. Non-zero
    /// means the extraction was partial and every response built from
    /// it must carry a degraded/partial flag.
    pub fn missing(&self) -> u64 {
        self.missing_rows + self.missing_features
    }
}

/// The shard a lookup for `v` is served *from* when `home` does not
/// hold it: the owner when its device is alive, else the owner's
/// standby buddy, else nobody (`None` — the row is unreachable).
fn serving_shard(plan: &ShardPlan, alive: &[bool], v: u32) -> Option<usize> {
    let owner = plan.owner_of(v);
    if alive[owner] {
        Some(owner)
    } else {
        plan.buddy_of(owner).filter(|&b| alive[b])
    }
}

/// The global graph as shard `home` sees it under a liveness mask: the
/// [`Neighborhoods`] view `ego_graph_on` runs over. Rows come from the
/// home store when hosted there (owned, replica, or standby mirror),
/// otherwise from whichever live shard serves them; unreachable rows
/// read empty. `will_visit` is the halo exchange: `ego_graph_on`
/// announces each row it reads exactly once, one BFS level at a time, so
/// each announced row is accounted into `stats` once.
struct ShardView<'a> {
    plan: &'a ShardPlan,
    stores: &'a [ShardStore],
    home: usize,
    alive: &'a [bool],
    stats: RefCell<HaloStats>,
}

impl Neighborhoods for ShardView<'_> {
    fn num_vertices(&self) -> usize {
        self.plan.num_vertices()
    }

    fn visit_neighbors(&self, v: usize, f: &mut dyn FnMut(u32)) {
        let v = v as u32;
        let row = if self.stores[self.home].hosts(v) {
            self.stores[self.home].row(v)
        } else {
            serving_shard(self.plan, self.alive, v).map_or(&[][..], |s| self.stores[s].row(v))
        };
        row.iter().copied().for_each(f);
    }

    /// Account one BFS level of adjacency-row needs: hosted rows count
    /// as local/replica/mirror hits, the rest are grouped into one
    /// transfer per serving remote shard, and rows no live shard can
    /// serve count as missing.
    fn will_visit(&self, need: &[u32]) {
        let (plan, stores, home) = (self.plan, self.stores, self.home);
        let mut stats = self.stats.borrow_mut();
        let mut remote: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for &v in need {
            if stores[home].owns(v) {
                stats.local_hits += 1;
            } else if plan.is_replicated(v) {
                stats.replica_hits += 1;
            } else if stores[home].mirrors(v) {
                stats.mirror_hits += 1;
            } else {
                match serving_shard(plan, self.alive, v) {
                    Some(s) => {
                        let e = remote.entry(s).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += stores[s].row(v).len() as u64 * 4;
                    }
                    None => stats.missing_rows += 1,
                }
            }
        }
        for &(rows, bytes) in remote.values() {
            stats.fetch_batches += 1;
            stats.fetched_rows += rows;
            stats.fetched_bytes += bytes;
        }
    }
}

/// Extract the `hops`-hop ego graph of `targets`, running on shard
/// `home` and fetching remote rows through the halo-exchange path.
///
/// Returns the ego graph, the gathered feature matrix (one row per
/// extracted vertex, in local-id order), and the halo accounting. The
/// ego graph and features are bitwise equal to a single-device
/// `ego_graph` + gather over the unpartitioned graph.
///
/// # Panics
/// Panics if `stores` does not match `plan`, `home` is out of range,
/// or a target id exceeds the plan's vertex count.
pub fn distributed_ego(
    plan: &ShardPlan,
    stores: &[ShardStore],
    home: usize,
    targets: &[u32],
    hops: usize,
) -> (EgoGraph, Matrix, HaloStats) {
    let alive = vec![true; plan.shards()];
    distributed_ego_with_health(plan, stores, home, targets, hops, &alive)
}

/// [`distributed_ego`] with a per-shard liveness mask: rows owned by a
/// dead shard are served from its standby buddy's mirror when the plan
/// has one (counted as remote fetches from the buddy, or
/// [`HaloStats::mirror_hits`] when `home` *is* the buddy), and counted
/// missing otherwise — the BFS then treats them as empty rows and the
/// feature gather leaves zeros, so the caller must flag the response
/// partial whenever [`HaloStats::missing`] is non-zero.
///
/// With every shard alive this is exactly [`distributed_ego`]: the
/// failover paths never engage and the result is bitwise identical to
/// the single-device extraction. When a dead shard's rows are all
/// covered by live mirrors the traversal is *still* order-identical
/// and mirror rows are bitwise copies, so the result stays bitwise
/// equal to the fault-free reference — only the accounting moves.
///
/// # Panics
/// Panics on the same conditions as [`distributed_ego`], if `alive`
/// does not have one entry per shard, or if the home shard itself is
/// marked dead (a dead shard cannot run an extraction).
pub fn distributed_ego_with_health(
    plan: &ShardPlan,
    stores: &[ShardStore],
    home: usize,
    targets: &[u32],
    hops: usize,
    alive: &[bool],
) -> (EgoGraph, Matrix, HaloStats) {
    assert_eq!(stores.len(), plan.shards(), "stores must match the plan");
    assert!(home < stores.len(), "home shard out of range");
    assert_eq!(alive.len(), plan.shards(), "liveness mask must match");
    assert!(alive[home], "the home shard must be alive to extract");
    // One batched transfer per (expanded BFS level, remote shard):
    // `ego_graph_on` announces exactly those batches. The last level's
    // rows are never read — frontier rows are empty — so they never
    // cross the interconnect; their features still do, below.
    let view = ShardView {
        plan,
        stores,
        home,
        alive,
        stats: RefCell::new(HaloStats::default()),
    };
    let ego = ego_graph_on(&view, targets, hops);
    let mut stats = view.stats.into_inner();
    let vertices = &ego.vertices;

    // Boundary-feature gather, batched per owning shard. Each vertex's
    // feature row is needed exactly once.
    let f = stores[home].feat_dim();
    let mut feats = Matrix::zeros(vertices.len(), f);
    let mut remote: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, &v) in vertices.iter().enumerate() {
        let src = if stores[home].hosts(v) {
            if stores[home].owns(v) {
                stats.local_hits += 1;
            } else if plan.is_replicated(v) {
                stats.replica_hits += 1;
            } else {
                stats.mirror_hits += 1;
            }
            Some(stores[home].feature_row(v))
        } else {
            match serving_shard(plan, alive, v) {
                Some(s) => {
                    *remote.entry(s).or_insert(0) += 1;
                    Some(stores[s].feature_row(v))
                }
                None => {
                    // Unreachable feature row: left as zeros, flagged
                    // through `missing_features`.
                    stats.missing_features += 1;
                    None
                }
            }
        };
        if let Some(src) = src {
            feats.row_mut(i).copy_from_slice(src);
        }
    }
    for &rows in remote.values() {
        stats.fetch_batches += 1;
        stats.fetched_features += rows;
        stats.fetched_bytes += rows * f as u64 * 4;
    }

    (ego, feats, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ShardStore;
    use tlpgnn_graph::subgraph::ego_graph;
    use tlpgnn_graph::{generators, Csr};

    fn fixture(shards: usize, replicate: usize) -> (Csr, Matrix, ShardPlan, Vec<ShardStore>) {
        let g = generators::rmat_default(400, 3200, 29);
        let x = Matrix::random(400, 6, 1.0, 3);
        let plan = ShardPlan::build(&g, shards, replicate);
        let stores = ShardStore::build_all(&g, &x, &plan);
        (g, x, plan, stores)
    }

    fn assert_bitwise_equal(g: &Csr, x: &Matrix, plan: &ShardPlan, stores: &[ShardStore]) {
        for (targets, hops) in [
            (vec![0u32, 399, 17], 2usize),
            (vec![200], 3),
            (vec![5, 5, 6], 1),
            (vec![42], 0),
        ] {
            let home = plan.route(&targets);
            let (ego, feats, _) = distributed_ego(plan, stores, home, &targets, hops);
            let want = ego_graph(g, &targets, hops);
            assert_eq!(ego.vertices, want.vertices);
            assert_eq!(ego.hop, want.hop);
            assert_eq!(ego.num_targets, want.num_targets);
            assert_eq!(ego.csr.indptr(), want.csr.indptr());
            assert_eq!(ego.csr.indices(), want.csr.indices());
            for (i, &v) in ego.vertices.iter().enumerate() {
                assert_eq!(feats.row(i), x.row(v as usize));
            }
        }
    }

    #[test]
    fn matches_single_device_extraction_bitwise() {
        let (g, x, plan, stores) = fixture(4, 8);
        assert_bitwise_equal(&g, &x, &plan, &stores);
    }

    #[test]
    fn single_shard_never_fetches() {
        let (_, _, plan, stores) = fixture(1, 0);
        let (_, _, stats) = distributed_ego(&plan, &stores, 0, &[3, 7], 2);
        assert_eq!(stats.fetch_batches, 0);
        assert_eq!(stats.remote_lookups(), 0);
        assert_eq!(stats.fetched_bytes, 0);
        assert_eq!(stats.replica_hits, 0);
        assert!(stats.local_hits > 0);
    }

    #[test]
    fn replication_reduces_remote_traffic() {
        let g = generators::rmat_default(400, 3200, 29);
        let x = Matrix::random(400, 6, 1.0, 3);
        let run = |replicate: usize| {
            let plan = ShardPlan::build(&g, 4, replicate);
            let stores = ShardStore::build_all(&g, &x, &plan);
            let mut total = HaloStats::default();
            for t in 0..40u32 {
                let home = plan.route(&[t]);
                let (_, _, s) = distributed_ego(&plan, &stores, home, &[t], 2);
                total.accumulate(&s);
            }
            total
        };
        let bare = run(0);
        let replicated = run(64);
        assert!(bare.remote_lookups() > 0, "4-way split must cross shards");
        assert!(
            replicated.remote_lookups() < bare.remote_lookups(),
            "replicating hot vertices must cut remote lookups ({} -> {})",
            bare.remote_lookups(),
            replicated.remote_lookups()
        );
        assert!(replicated.replica_hits > 0);
    }

    #[test]
    fn dead_shard_covered_by_buddy_mirror_stays_bitwise_equal() {
        let g = generators::rmat_default(400, 3200, 29);
        let x = Matrix::random(400, 6, 1.0, 3);
        let plan = ShardPlan::build_with_standby(&g, 4, 8, true);
        let stores = ShardStore::build_all(&g, &x, &plan);
        for dead in 0..4usize {
            let mut alive = [true; 4];
            alive[dead] = false;
            let home = plan.buddy_of(dead).unwrap();
            for (targets, hops) in [(vec![0u32, 399, 17], 2usize), (vec![200], 3)] {
                let (ego, feats, stats) =
                    distributed_ego_with_health(&plan, &stores, home, &targets, hops, &alive);
                assert_eq!(stats.missing(), 0, "one dead shard is fully mirrored");
                let want = ego_graph(&g, &targets, hops);
                assert_eq!(ego.vertices, want.vertices);
                assert_eq!(ego.hop, want.hop);
                assert_eq!(ego.csr.indptr(), want.csr.indptr());
                assert_eq!(ego.csr.indices(), want.csr.indices());
                for (i, &v) in ego.vertices.iter().enumerate() {
                    assert_eq!(feats.row(i), x.row(v as usize));
                }
            }
        }
    }

    #[test]
    fn dead_unmirrored_shard_counts_missing_rows() {
        let g = generators::rmat_default(400, 3200, 29);
        let x = Matrix::random(400, 6, 1.0, 3);
        let plan = ShardPlan::build(&g, 4, 0); // no standby, no hot set
        let stores = ShardStore::build_all(&g, &x, &plan);
        let dead = 3usize;
        let mut alive = [true; 4];
        alive[dead] = false;
        // A seed owned by the dead shard, extracted elsewhere: its own
        // row is unreachable, so the extraction must report missing.
        let seed = plan.owned_range(dead).start as u32;
        let (ego, feats, stats) =
            distributed_ego_with_health(&plan, &stores, 0, &[seed], 2, &alive);
        assert!(stats.missing() > 0, "unmirrored dead rows must be flagged");
        assert_eq!(ego.vertices[0], seed);
        assert!(
            feats.row(0).iter().all(|&z| z == 0.0),
            "unreachable feature rows gather as zeros"
        );
        // All-alive on the same plan stays exact: missing only appears
        // under loss.
        let (_, _, clean) = distributed_ego(&plan, &stores, 0, &[seed], 2);
        assert_eq!(clean.missing(), 0);
        assert_eq!(clean.mirror_hits, 0);
    }

    #[test]
    fn standby_mirror_serves_locally_when_all_alive() {
        let g = generators::rmat_default(400, 3200, 29);
        let x = Matrix::random(400, 6, 1.0, 3);
        let plan = ShardPlan::build_with_standby(&g, 4, 0, true);
        let stores = ShardStore::build_all(&g, &x, &plan);
        let mut total = HaloStats::default();
        for t in 0..40u32 {
            let home = plan.route(&[t]);
            let (_, _, s) = distributed_ego(&plan, &stores, home, &[t], 2);
            total.accumulate(&s);
        }
        assert!(
            total.mirror_hits > 0,
            "the standby mirror doubles as free local bandwidth"
        );
        assert_eq!(total.missing(), 0);
    }

    #[test]
    fn halo_bytes_track_row_sizes() {
        let (_, _, plan, stores) = fixture(4, 0);
        let target = 0u32; // shard 0's range; 2 hops reach other shards
        let (_, _, stats) = distributed_ego(&plan, &stores, 0, &[target], 2);
        if stats.remote_lookups() > 0 {
            // Every remote feature row moves feat_dim f32s.
            assert!(stats.fetched_bytes >= stats.fetched_features * 6 * 4);
            assert!(stats.fetch_batches > 0);
        }
    }
}
