//! A self-contained, serializable conformance test case.
//!
//! A case pins every axis the fuzzer randomizes — graph (as an explicit
//! edge list so shrinking can edit it), features (by seed), model, backend
//! label, and device shape — so a failure reproduces bit-for-bit from its
//! corpus file alone.

use gpu_sim::DeviceConfig;
use telemetry::json::{self, Value};
use tlpgnn::GnnModel;
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

/// Which sum-family model a case exercises. (GAT is excluded: the variant
/// kernels under test implement only the sum family.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelSpec {
    /// GCN with symmetric normalization.
    Gcn,
    /// GIN with the given ε self-weight.
    Gin {
        /// Self-weight ε.
        eps: f32,
    },
    /// GraphSage mean.
    Sage,
}

impl ModelSpec {
    /// The engine-facing model.
    pub fn model(&self) -> GnnModel {
        match *self {
            ModelSpec::Gcn => GnnModel::Gcn,
            ModelSpec::Gin { eps } => GnnModel::Gin { eps },
            ModelSpec::Sage => GnnModel::Sage,
        }
    }

    /// Stable label for filenames and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ModelSpec::Gcn => "gcn",
            ModelSpec::Gin { .. } => "gin",
            ModelSpec::Sage => "sage",
        }
    }
}

/// One fully-pinned differential test case.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Unique name (also the corpus filename stem).
    pub name: String,
    /// Vertex count.
    pub n: usize,
    /// Directed edges `(v, u)`: `u` appears in `v`'s neighbor list.
    pub edges: Vec<(u32, u32)>,
    /// Feature dimension.
    pub feat_dim: usize,
    /// Seed for the deterministic feature matrix.
    pub feature_seed: u64,
    /// Model under test.
    pub model: ModelSpec,
    /// Backend label (see [`crate::backends::all_backends`]).
    pub backend: String,
    /// SM count of the simulated device (all other device parameters come
    /// from [`DeviceConfig::test_small`]).
    pub sms: usize,
    /// What check failed when this case was captured (oracle divergence,
    /// a metamorphic invariant, ...). `None` for handwritten seeds.
    pub failure: Option<String>,
}

impl TestCase {
    /// Build the CSR graph. Rows are sorted, duplicate edges are kept
    /// (multi-edges are legal inputs for every backend).
    pub fn graph(&self) -> Csr {
        let mut edges = self.edges.clone();
        edges.sort_unstable();
        let mut indptr = vec![0u32; self.n + 1];
        for &(v, _) in &edges {
            indptr[v as usize + 1] += 1;
        }
        for i in 0..self.n {
            indptr[i + 1] += indptr[i];
        }
        let indices = edges.iter().map(|&(_, u)| u).collect();
        Csr::new(self.n, indptr, indices)
    }

    /// Build the deterministic feature matrix.
    pub fn features(&self) -> Matrix {
        Matrix::random(self.n, self.feat_dim, 1.0, self.feature_seed)
    }

    /// The simulated device: `test_small` reshaped to this case's SM count.
    pub fn device_config(&self) -> DeviceConfig {
        let mut cfg = DeviceConfig::test_small();
        cfg.num_sms = self.sms;
        cfg.name = format!("test_small/{}sm", self.sms);
        cfg
    }

    /// Serialize to pretty JSON (the corpus on-disk format; keys in
    /// alphabetical order, so files diff stably). Numbers travel as
    /// `f64`: integers are exact below 2^53 and an `f32` ε widens
    /// losslessly.
    pub fn to_json(&self) -> String {
        let mut edges = Value::array();
        for &(v, u) in &self.edges {
            edges.push(vec![Value::from(v), Value::from(u)]);
        }
        let mut model = Value::object();
        if let ModelSpec::Gin { eps } = self.model {
            model.set("eps", eps as f64);
        }
        model.set("kind", self.model.label());
        let mut obj = Value::object();
        obj.set("backend", self.backend.as_str())
            .set("edges", edges)
            .set(
                "failure",
                self.failure.as_deref().map_or(Value::Null, Value::from),
            )
            .set("feat_dim", self.feat_dim)
            .set("feature_seed", self.feature_seed)
            .set("model", model)
            .set("n", self.n)
            .set("name", self.name.as_str())
            .set("sms", self.sms);
        json::pretty(&obj)
    }

    /// Parse a corpus file.
    pub fn from_json(text: &str) -> Result<TestCase, String> {
        let v = json::parse(text)?;
        let req = |key: &str| v.get(key).ok_or_else(|| format!("missing key `{key}`"));
        let as_u64 = |x: &Value| {
            x.as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
        };
        let name = req("name")?
            .as_str()
            .ok_or("`name` must be a string")?
            .to_string();
        let n = as_u64(req("n")?).ok_or("`n` must be an integer")? as usize;
        let edges = req("edges")?
            .as_arr()
            .ok_or("`edges` must be an array")?
            .iter()
            .map(|e| {
                let pair = e
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or("edge must be a pair")?;
                let v = as_u64(&pair[0]).ok_or("edge endpoint must be an integer")? as u32;
                let u = as_u64(&pair[1]).ok_or("edge endpoint must be an integer")? as u32;
                if (v as usize) < n && (u as usize) < n {
                    Ok((v, u))
                } else {
                    Err(format!("edge ({v}, {u}) out of range for n = {n}"))
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        let feat_dim = as_u64(req("feat_dim")?).ok_or("`feat_dim` must be an integer")? as usize;
        let feature_seed =
            as_u64(req("feature_seed")?).ok_or("`feature_seed` must be an integer")?;
        let model_v = req("model")?;
        let model = match model_v.get("kind").and_then(Value::as_str) {
            Some("gcn") => ModelSpec::Gcn,
            Some("gin") => ModelSpec::Gin {
                eps: model_v
                    .get("eps")
                    .and_then(Value::as_f64)
                    .ok_or("gin needs `eps`")? as f32,
            },
            Some("sage") => ModelSpec::Sage,
            other => return Err(format!("unknown model kind {other:?}")),
        };
        let backend = req("backend")?
            .as_str()
            .ok_or("`backend` must be a string")?
            .to_string();
        let sms = as_u64(req("sms")?).ok_or("`sms` must be an integer")? as usize;
        let failure = v.get("failure").and_then(Value::as_str).map(str::to_string);
        Ok(TestCase {
            name,
            n,
            edges,
            feat_dim,
            feature_seed,
            model,
            backend,
            sms,
            failure,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TestCase {
        TestCase {
            name: "sample".into(),
            n: 4,
            edges: vec![(0, 1), (1, 0), (2, 3), (3, 3)],
            feat_dim: 8,
            feature_seed: 7,
            model: ModelSpec::Gin { eps: 0.25 },
            backend: "thread_per_vertex".into(),
            sms: 4,
            failure: Some("oracle divergence".into()),
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        // 0.3f32 widens to 0.30000001192092896: a GIN ε must survive the
        // trip through the f64 number model bit for bit.
        let awkward = TestCase {
            model: ModelSpec::Gin { eps: 0.3 },
            failure: Some("line one\n\"quoted\" \\ line two".into()),
            ..sample()
        };
        for case in [sample(), awkward] {
            let back = TestCase::from_json(&case.to_json()).unwrap();
            assert_eq!(back.name, case.name);
            assert_eq!(back.edges, case.edges);
            assert_eq!(back.model, case.model);
            assert_eq!(back.backend, case.backend);
            assert_eq!(back.sms, case.sms);
            assert_eq!(back.failure, case.failure);
            if let (ModelSpec::Gin { eps: a }, ModelSpec::Gin { eps: b }) = (back.model, case.model)
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn graph_matches_edge_list() {
        let case = sample();
        let g = case.graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(3), &[3]);
    }

    #[test]
    fn out_of_range_edges_rejected() {
        let mut text = sample().to_json();
        text = text.replace("[3, 3]", "[3, 9]");
        assert!(TestCase::from_json(&text).is_err());
    }
}
