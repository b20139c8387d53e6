//! Pinned modelled counters for every system × {GCN, SAGE, GAT} on one
//! fixed fixture: the baselines' multi-kernel pipelines (DGL's GAT chain,
//! FeatGraph's edge softmax, the elementwise primitives) sit outside
//! `perf_gate`'s matrix. Recorded before their contiguous requests moved
//! onto `ld_run`/`st_run`; they hold unchanged after. A deliberate
//! cost-model change must re-pin them in the same commit.

use gpu_sim::DeviceConfig;
use tlpgnn::{GatParams, GnnModel};
use tlpgnn_baselines::all_systems;
use tlpgnn_graph::generators;
use tlpgnn_tensor::Matrix;

#[test]
fn every_system_is_pinned() {
    // 40 features: a full lane tile plus a partial one.
    let g = generators::rmat_default(160, 1200, 921);
    let x = Matrix::random(160, 40, 1.0, 922);
    let models = [
        GnnModel::Gcn,
        GnnModel::Sage,
        GnnModel::Gat {
            params: GatParams::random(40, 923),
        },
    ];
    let mut got = Vec::new();
    for system in &mut all_systems(DeviceConfig::test_small()) {
        for model in &models {
            if let Some(run) = system.run(model, &g, &x) {
                let p = run.profile;
                got.push(format!(
                    "{} {}: {} {} {} {} {} {} {} {}",
                    system.name(),
                    model.name(),
                    p.kernel_launches,
                    p.gpu_time_ms,
                    p.insts,
                    p.load_bytes,
                    p.store_bytes,
                    p.atomic_bytes,
                    p.stall_long_scoreboard,
                    p.sectors_per_request
                ));
            }
        }
    }
    // `launches gpu_time_ms insts load_bytes store_bytes atomic_bytes
    // stall_long_scoreboard sectors_per_request`.
    let want = [
        "TLPGNN GCN: 1 0.008055072463768116 10840 187616 25600 0 72.7049815498155 1.5128040973111396",
        "TLPGNN Sage: 1 0.006759420289855073 8064 138592 25600 0 68.3921130952381 1.6624513618677044",
        "TLPGNN GAT: 1 0.00791304347826087 22560 161728 25600 0 34.305851063829785 1.3532157676348548",
        "DGL GCN: 6 0.020860869565217394 12530 259744 109696 0 108.7088408565711 2.964998149646702",
        "DGL Sage: 10 0.026055072463768116 12912 254240 140224 0 85.86004629860507 3.008824480801781",
        "DGL GAT: 18 0.03271884057971014 16747 290496 156416 0 86.6290374928715 3.060969475268552",
        "FeatGraph GCN: 1 0.023504347826086958 11640 199136 25600 0 75.57646048109966 1.4545970488081725",
        "FeatGraph Sage: 1 0.021695652173913043 8864 149120 25600 0 71.00135379061372 1.5545602605863191",
        "FeatGraph GAT: 3 0.04061159420289855 14288 170272 36544 0 45.44633462880111 1.5066412805102607",
        "GNNAdvisor GCN: 1 0.013330434782608695 12565 186944 0 50400 92.30847592518901 1.4181130105702728",
        "Push GCN: 1 0.02036231884057971 10680 36992 0 170880 126.72640449438204 1.1045296167247387",
        "Push Sage: 1 0.017942028985507247 9880 36064 0 145280 121.23643724696355 1.108303249097473",
        "Edge-centric GCN: 1 0.03419420289855072 11748 158752 0 170880 144.76200204290092 1.6",
        "Edge-centric Sage: 1 0.02921449275362319 9988 132064 0 145280 143.78313976772125 1.6",
    ];
    assert_eq!(got, want);
}
