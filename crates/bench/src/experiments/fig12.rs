//! **Figure 12** — scalability against feature size: normalized runtime
//! (relative to feature size 16) for sizes 16 → 512, on the four largest
//! graphs and all four models.
//!
//! Paper's shape: runtime grows roughly linearly with feature size
//! (512 ⇒ 27–42× the size-16 time, i.e. sublinear in the 32× size
//! growth), and size 16 is only ~1.4× faster than size 32 even though
//! half the warp idles.

use crate::{self as bench, Env};
use tlpgnn::GnnModel;
use tlpgnn_graph::datasets;

const SIZES: &[usize] = &[16, 32, 64, 128, 256, 512];

pub fn run(env: &Env, _args: &[String]) {
    env.print_header("Figure 12: scalability vs feature size (normalized to 16)");
    // GAT's attention vectors depend on the feature dimension, so the
    // model is rebuilt per size inside the loop.
    for model_name in ["GCN", "GIN", "Sage", "GAT"] {
        let mut headers: Vec<String> = vec!["Dataset".into()];
        headers.extend(SIZES.iter().map(|s| s.to_string()));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = bench::Table::new(
            format!("Figure 12 (reproduced), {model_name} — runtime normalized to feature 16"),
            &header_refs,
        );
        let mut at_512 = Vec::new();
        let mut ratio_16_32 = Vec::new();
        for spec in datasets::largest_four() {
            let g = env.load(spec);
            let mut e = env.engine_for(spec);
            let times: Vec<f64> = SIZES
                .iter()
                .map(|&f| {
                    let x = bench::features(&g, f, 0x7b12e);
                    let model = match model_name {
                        "GCN" => GnnModel::Gcn,
                        "GIN" => GnnModel::Gin { eps: 0.1 },
                        "Sage" => GnnModel::Sage,
                        _ => GnnModel::Gat {
                            params: tlpgnn::GatParams::random(f, 0x6a7),
                        },
                    };
                    e.conv(&model, &g, &x).1.gpu_time_ms
                })
                .collect();
            let mut cells = vec![spec.abbr.to_string()];
            for &tm in &times {
                cells.push(format!("{:.1}", tm / times[0]));
            }
            at_512.push(times[times.len() - 1] / times[0]);
            ratio_16_32.push(times[1] / times[0]);
            t.row(cells);
        }
        t.print();
        let avg = at_512.iter().sum::<f64>() / at_512.len() as f64;
        let avg_16_32 = ratio_16_32.iter().sum::<f64>() / ratio_16_32.len() as f64;
        println!(
            "{model_name}: feature 512 costs {avg:.1}x feature 16 (paper: 27.3–41.6x); \
             feature 32 costs {avg_16_32:.1}x feature 16 (paper: ~1.4x)"
        );
    }
}
