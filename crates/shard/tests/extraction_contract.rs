//! One extraction contract, every view.
//!
//! `subgraph::ego_graph_on` is the only place locals and `hop` are
//! assigned; a frozen `Csr`, a `GraphEpoch` with a live overlay, the
//! fanout-capped sampled view and the distributed shard view are all
//! that function over a different row source. The contract below is the
//! invariant a hop-prefix launch schedule relies on (ROADMAP item 1b),
//! checked once per view; the `HaloStats` pins keep the shard view's
//! accounting hook from drifting.

use tlpgnn_graph::subgraph::{self, EgoGraph};
use tlpgnn_graph::{generators, Csr, DeltaGraph};
use tlpgnn_shard::{
    distributed_ego, distributed_ego_with_health, HaloStats, ShardPlan, ShardStore,
};
use tlpgnn_tensor::Matrix;

const TARGETS: [u32; 5] = [17, 3, 17, 399, 3];
const HOPS: usize = 2;

fn graph() -> Csr {
    generators::rmat_default(400, 3200, 29)
}

/// The extraction contract: targets first in first-occurrence order,
/// `hop` non-decreasing in local id, sorted rows, closed levels, and a
/// row present iff its vertex was expanded — frontier rows empty,
/// interior rows at the full in-degree `degree` of the view's row.
fn assert_contract(
    view: &str,
    ego: &EgoGraph,
    targets: &[u32],
    hops: usize,
    degree: impl Fn(u32) -> usize,
) {
    let mut want_targets: Vec<u32> = Vec::new();
    for &t in targets {
        if !want_targets.contains(&t) {
            want_targets.push(t);
        }
    }
    assert_eq!(ego.targets(), &want_targets[..], "{view}: target order");
    assert_eq!(ego.num_targets, want_targets.len(), "{view}");
    assert!(
        ego.hop[..ego.num_targets].iter().all(|&h| h == 0),
        "{view}: targets sit at hop 0"
    );
    assert_eq!(ego.hop.len(), ego.vertices.len(), "{view}");
    assert_eq!(ego.csr.num_vertices(), ego.vertices.len(), "{view}");
    assert!(
        ego.hop.windows(2).all(|w| w[0] <= w[1]),
        "{view}: hop must be non-decreasing in local id (BFS order)"
    );
    assert_eq!(ego.hops(), hops, "{view}: extraction depth");
    assert!(
        ego.hop.iter().all(|&h| h as usize <= hops),
        "{view}: deeper than asked"
    );
    for v in 0..ego.csr.num_vertices() {
        let row = ego.csr.neighbors(v);
        let want = if ego.row_is_complete(v) {
            degree(ego.vertices[v])
        } else {
            0
        };
        assert_eq!(
            row.len(),
            want,
            "{view}: local {v} at hop {} (frontier rows empty, interior rows full)",
            ego.hop[v]
        );
        assert!(
            row.windows(2).all(|w| w[0] <= w[1]),
            "{view}: row {v} unsorted"
        );
        for &u in row {
            assert!(
                ego.hop[u as usize] <= ego.hop[v] + 1,
                "{view}: in-neighbour {u} (hop {}) of local {v} (hop {}) skips a level",
                ego.hop[u as usize],
                ego.hop[v]
            );
        }
    }
}

fn assert_same(view: &str, got: &EgoGraph, want: &EgoGraph) {
    assert_eq!(got.vertices, want.vertices, "{view}: vertices");
    assert_eq!(got.hop, want.hop, "{view}: hop");
    assert_eq!(got.num_targets, want.num_targets, "{view}: num_targets");
    assert_eq!(got.csr, want.csr, "{view}: induced csr");
}

#[test]
fn every_view_honours_the_extraction_contract() {
    let g = graph();
    let full = |v: u32| g.degree(v as usize);
    let exact = subgraph::ego_graph(&g, &TARGETS, HOPS);
    assert_contract("csr", &exact, &TARGETS, HOPS, full);
    assert!(
        exact.hop.contains(&(HOPS as u8)),
        "the fixture must have frontier rows"
    );

    // A snapshot whose overlay reaches into the targets' neighbourhood.
    let mut dg = DeltaGraph::new(g.clone());
    for (src, dst) in [(250u32, 17u32), (399, 3), (11, 250), (3, 399)] {
        dg.insert_edge(src, dst);
    }
    assert!(dg.delta_edges() > 0, "the overlay must be non-empty");
    let snap = dg.snapshot();
    let materialized = snap.materialize();
    let over_full = |v: u32| materialized.degree(v as usize);
    let over = snap.ego_graph(&TARGETS, HOPS);
    assert_contract("epoch+overlay", &over, &TARGETS, HOPS, over_full);
    assert_same(
        "epoch+overlay vs materialized",
        &over,
        &subgraph::ego_graph(&materialized, &TARGETS, HOPS),
    );

    // An uncapped sample is the exact extraction, field for field.
    let uncapped = subgraph::sampled_ego_graph(&g, &TARGETS, HOPS, usize::MAX, 7);
    assert_contract("sampled(MAX)", &uncapped, &TARGETS, HOPS, full);
    assert_same("sampled(MAX) vs exact", &uncapped, &exact);
    // A sampled row is the whole row when it fits the fanout, else
    // exactly `fanout` draws.
    let capped = subgraph::sampled_ego_graph(&g, &TARGETS, HOPS, 3, 7);
    assert_contract("sampled(3)", &capped, &TARGETS, HOPS, |v| full(v).min(3));
    assert!(capped.vertices.len() < exact.vertices.len());
    let capped_overlay = snap.sampled_ego_graph(&TARGETS, HOPS, 3, 7);
    assert_contract(
        "epoch+overlay sampled(3)",
        &capped_overlay,
        &TARGETS,
        HOPS,
        |v| over_full(v).min(3),
    );

    let x = Matrix::random(400, 6, 1.0, 3);
    for shards in 1..=3usize {
        let plan = ShardPlan::build(&g, shards, 8);
        let stores = ShardStore::build_all(&g, &x, &plan);
        let home = plan.route(&TARGETS);
        let (ego, _, _) = distributed_ego(&plan, &stores, home, &TARGETS, HOPS);
        let view = format!("distributed/{shards}");
        assert_contract(&view, &ego, &TARGETS, HOPS, full);
        assert_same(&view, &ego, &exact);
    }

    // A dead shard covered by its buddy's mirror changes nothing.
    let plan = ShardPlan::build_with_standby(&g, 3, 8, true);
    let stores = ShardStore::build_all(&g, &x, &plan);
    for dead in 0..3usize {
        let mut alive = [true; 3];
        alive[dead] = false;
        let home = plan.buddy_of(dead).expect("standby plan has buddies");
        let (ego, _, stats) =
            distributed_ego_with_health(&plan, &stores, home, &TARGETS, HOPS, &alive);
        assert_eq!(stats.missing(), 0);
        let view = format!("distributed/3, shard {dead} dead");
        assert_contract(&view, &ego, &TARGETS, HOPS, full);
        assert_same(&view, &ego, &exact);
    }
}

/// `HaloStats` of one fixed `(plan, targets, hops, alive)` fixture,
/// field by field: what is batched, and when, is decided by where
/// `ego_graph_on` calls `will_visit`, so a moved call shows here.
#[test]
fn halo_accounting_is_pinned() {
    let g = graph();
    let x = Matrix::random(400, 6, 1.0, 3);
    let plan = ShardPlan::build_with_standby(&g, 4, 8, true);
    let stores = ShardStore::build_all(&g, &x, &plan);

    let (_, _, clean) = distributed_ego(&plan, &stores, 0, &TARGETS, HOPS);
    assert_eq!(clean, CLEAN, "fault-free accounting drifted");

    let alive = [true, false, true, true];
    let (_, _, lossy) = distributed_ego_with_health(&plan, &stores, 0, &TARGETS, HOPS, &alive);
    assert_eq!(lossy, ONE_DEAD, "one-dead-shard accounting drifted");

    // Without a standby mirror the same loss leaves rows unreachable.
    let bare = ShardPlan::build(&g, 4, 0);
    let bare_stores = ShardStore::build_all(&g, &x, &bare);
    let (_, _, partial) =
        distributed_ego_with_health(&bare, &bare_stores, 0, &TARGETS, HOPS, &alive);
    assert_eq!(partial, UNMIRRORED, "partial-service accounting drifted");
}

/// Adjacency rows move only for the two expanded levels; the rows of
/// the 107 remote frontier vertices are never read, so never fetched.
/// Every extracted vertex's feature row still crosses.
const CLEAN: HaloStats = HaloStats {
    fetch_batches: 4,
    fetched_rows: 21,
    fetched_features: 128,
    fetched_bytes: 4252,
    replica_hits: 6,
    local_hits: 29,
    mirror_hits: 112,
    missing_rows: 0,
    missing_features: 0,
};

/// Shard 1 dead: its rows come from buddy 2's mirror, so the same rows
/// and bytes move in half the transfers (one remote peer, not two).
const ONE_DEAD: HaloStats = HaloStats {
    fetch_batches: 2,
    ..CLEAN
};

/// Only the 13 unreachable *expanded* rows count as missing rows; all
/// 51 unreachable vertices still count as missing features, so the
/// extraction is flagged partial exactly as before.
const UNMIRRORED: HaloStats = HaloStats {
    fetch_batches: 5,
    fetched_rows: 23,
    fetched_features: 163,
    fetched_bytes: 5352,
    replica_hits: 0,
    local_hits: 28,
    mirror_hits: 0,
    missing_rows: 13,
    missing_features: 51,
};
