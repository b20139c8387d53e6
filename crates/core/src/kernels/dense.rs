//! Device-side dense kernels: the "regular neural network operations" of
//! a GNN layer (paper §2.1), so a whole layer — graph convolution, learned
//! projection, bias, activation — can execute on the simulated device
//! without round-tripping features through the host.
//!
//! The matmul follows the same design language as the graph kernels: one
//! warp owns a row of the output, lanes cover 32 consecutive output
//! columns (coalesced stores), the weight matrix streams through the
//! cache, and the self term, bias and ReLU fuse into the same kernel (one
//! launch per dense phase — Observation III applied to the dense side; a
//! layer that projects before aggregating has one phase on each side of
//! its convolution).

use gpu_sim::{Device, DeviceBuffer, Kernel, LaunchConfig, WarpCtx, WARP_SIZE};
use tlpgnn_tensor::{Linear, Matrix};

/// Fused `Y = act(Σ X_i·W_i + A + b)` kernel: warp per output row, lanes
/// per 32-column tile. The product terms, the addend `A` and the bias are
/// each optional, so one kernel is a layer's plain projection (`X·W`),
/// its dense phase after aggregation (`act(agg·W + b)`, GraphSage
/// `act(h·W_self + agg·W_neigh + b)`) and its epilogue after a
/// project-first convolution (`act(A + b)`, GraphSage
/// `act(h·W_self + A + b)`).
pub(crate) struct DenseLayerKernel {
    /// Product terms, accumulated in order: an input (`rows × k`), its
    /// weights (`k × out_dim`, row major) and `k`.
    pub(crate) products: Vec<(DeviceBuffer<f32>, DeviceBuffer<f32>, usize)>,
    /// Addend (`rows × out_dim`), or `None`.
    pub(crate) addend: Option<DeviceBuffer<f32>>,
    /// Bias (`out_dim`), or `None`.
    pub(crate) bias: Option<DeviceBuffer<f32>>,
    /// Output (`rows × out_dim`).
    pub(crate) y: DeviceBuffer<f32>,
    /// Rows.
    pub(crate) rows: usize,
    /// Output dimension.
    pub(crate) out_dim: usize,
    /// Apply ReLU in the same kernel.
    pub(crate) relu: bool,
}

impl Kernel for DenseLayerKernel {
    fn name(&self) -> &str {
        "dense_layer_fused"
    }
    fn regs_per_thread(&self) -> usize {
        56
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let r = w.global_warp();
        if r >= self.rows {
            return;
        }
        let od = self.out_dim;
        for tile in 0..od.div_ceil(WARP_SIZE) {
            let base = tile * WARP_SIZE;
            let active = (od - base).min(WARP_SIZE);
            let mut acc = [0.0f32; WARP_SIZE];
            // k-loop: broadcast one input element, stream a weight row
            // tile (coalesced: lanes read consecutive W columns).
            for &(x, wt, id) in &self.products {
                for k in 0..id {
                    let xv = w.ld_scalar(x, r * id + k);
                    let ws = w.ld_run(wt, k * od + base, active);
                    w.issue_simd(2, active);
                    for l in 0..active {
                        acc[l] += xv * ws[l];
                    }
                }
            }
            // Then the addend's row tile and the bias tile, each a run.
            let terms = [
                self.addend.map(|a| (a, r * od + base)),
                self.bias.map(|b| (b, base)),
            ];
            for (buf, start) in terms.into_iter().flatten() {
                let vs = w.ld_run(buf, start, active);
                w.issue_simd(1, active);
                for l in 0..active {
                    acc[l] += vs[l];
                }
            }
            if self.relu {
                w.issue_simd(1, active);
                for a in acc.iter_mut().take(active) {
                    *a = a.max(0.0);
                }
            }
            w.st_run(self.y, r * od + base, active, &acc);
        }
    }
}

/// One launch of [`DenseLayerKernel`], from host matrices:
/// `act(Σ x_i·W_i [+ addend] [+ b])`.
pub(crate) struct Dense<'a> {
    /// The product terms `(x, W)`, accumulated in order.
    pub(crate) products: Vec<(&'a Matrix, &'a Matrix)>,
    /// A `rows × out_dim` matrix added after the products.
    pub(crate) addend: Option<&'a Matrix>,
    /// The bias row; an all-zero one adds nothing and is skipped.
    pub(crate) bias: Option<&'a [f32]>,
    /// Apply ReLU last.
    pub(crate) relu: bool,
}

impl<'a> Dense<'a> {
    /// The plain product `x·W`: no addend, no bias, no ReLU.
    pub(crate) fn product(x: &'a Matrix, w: &'a Matrix) -> Self {
        Self {
            products: vec![(x, w)],
            addend: None,
            bias: None,
            relu: false,
        }
    }

    /// The bias, unless it is all zero.
    fn live_bias(&self) -> Option<&'a [f32]> {
        self.bias.filter(|b| b.iter().any(|&v| v != 0.0))
    }

    /// True when the launch would return its addend unchanged: no
    /// product, no (nonzero) bias, no ReLU.
    pub(crate) fn is_noop(&self) -> bool {
        self.products.is_empty() && self.live_bias().is_none() && !self.relu
    }
}

/// Upload a [`Linear`] layer and run `act(X·W + b)` on the device; one
/// kernel launch. Returns the output and the kernel profile.
pub fn dense_forward_on_device(
    dev: &mut Device,
    layer: &Linear,
    x: &Matrix,
    relu: bool,
) -> (Matrix, gpu_sim::KernelProfile) {
    let launch = Dense {
        bias: layer.bias(),
        relu,
        ..Dense::product(x, layer.weight())
    };
    try_dense_on_device(dev, &launch).unwrap_or_else(|e| panic!("unhandled launch fault: {e}"))
}

/// Run one [`Dense`] launch: upload its operands, launch, read back,
/// free. An injected launch fault frees every buffer this call uploaded
/// and returns the error.
pub(crate) fn try_dense_on_device(
    dev: &mut Device,
    launch: &Dense<'_>,
) -> Result<(Matrix, gpu_sim::KernelProfile), gpu_sim::LaunchError> {
    let (rows, od) = match (launch.products.first(), launch.addend) {
        (Some((x, w)), _) => (x.rows(), w.cols()),
        (None, Some(a)) => a.shape(),
        (None, None) => panic!("a dense launch needs a product or an addend"),
    };
    assert!(
        launch
            .products
            .iter()
            .all(|(x, w)| x.rows() == rows && w.shape() == (x.cols(), od))
            && launch.addend.is_none_or(|a| a.shape() == (rows, od)),
        "dense launch shape mismatch"
    );
    let mem = dev.mem_mut();
    let products: Vec<_> = launch
        .products
        .iter()
        .map(|(x, w)| (mem.alloc_from(x.data()), mem.alloc_from(w.data()), w.rows()))
        .collect();
    let addend = launch.addend.map(|a| mem.alloc_from(a.data()));
    let yb = mem.alloc::<f32>(rows * od);
    let bias = launch.live_bias().map(|b| mem.alloc_from(b));
    let k = DenseLayerKernel {
        products,
        addend,
        bias,
        y: yb,
        rows,
        out_dim: od,
        relu: launch.relu,
    };
    let p = dev.try_launch(&k, LaunchConfig::warp_per_item(rows, 256));
    let out = p
        .is_ok()
        .then(|| Matrix::from_vec(rows, od, dev.mem().read_vec(yb)));
    let mem = dev.mem_mut();
    for &(x, w, _) in &k.products {
        mem.free(x);
        mem.free(w);
    }
    for b in addend.into_iter().chain([yb]).chain(bias) {
        mem.free(b);
    }
    let p = p?;
    Ok((out.expect("output read on launch success"), p))
}

/// Row-wise log-softmax kernel: warp per row, three tiled passes (max,
/// sum of exponentials, normalize) with partials in registers — the
/// classification head, on device.
pub(crate) struct RowLogSoftmaxKernel {
    /// Matrix transformed in place (`rows × cols`).
    pub(crate) data: DeviceBuffer<f32>,
    /// Rows.
    pub(crate) rows: usize,
    /// Columns.
    pub(crate) cols: usize,
}

impl Kernel for RowLogSoftmaxKernel {
    fn name(&self) -> &str {
        "row_log_softmax"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let r = w.global_warp();
        if r >= self.rows {
            return;
        }
        let c = self.cols;
        let tiles = c.div_ceil(WARP_SIZE);
        // Pass 1: row max.
        let mut mx = f32::NEG_INFINITY;
        for t in 0..tiles {
            let base = t * WARP_SIZE;
            let active = (c - base).min(WARP_SIZE);
            let vals = w.ld_run(self.data, r * c + base, active);
            for &x in &vals[..active] {
                mx = mx.max(x);
            }
            w.shfl_reduce();
        }
        // Pass 2: Σ exp(x − max).
        let mut sum = 0.0f32;
        for t in 0..tiles {
            let base = t * WARP_SIZE;
            let active = (c - base).min(WARP_SIZE);
            let vals = w.ld_run(self.data, r * c + base, active);
            w.issue_simd(2, active);
            for l in 0..active {
                sum += (vals[l] - mx).exp();
            }
            w.shfl_reduce();
        }
        let log_sum = sum.ln();
        // Pass 3: normalize in place.
        for t in 0..tiles {
            let base = t * WARP_SIZE;
            let active = (c - base).min(WARP_SIZE);
            let vals = w.ld_run(self.data, r * c + base, active);
            w.issue_simd(2, active);
            let normalized = vals.map(|x| x - mx - log_sum);
            w.st_run(self.data, r * c + base, active, &normalized);
        }
    }
}

/// Run a row log-softmax on the device, in place over a host matrix.
pub fn log_softmax_on_device(dev: &mut Device, x: &Matrix) -> (Matrix, gpu_sim::KernelProfile) {
    try_log_softmax_on_device(dev, x).unwrap_or_else(|e| panic!("unhandled launch fault: {e}"))
}

/// Fallible [`log_softmax_on_device`]: an injected launch fault frees the
/// uploaded buffer and returns the error.
pub(crate) fn try_log_softmax_on_device(
    dev: &mut Device,
    x: &Matrix,
) -> Result<(Matrix, gpu_sim::KernelProfile), gpu_sim::LaunchError> {
    let (rows, cols) = x.shape();
    let data = dev.mem_mut().alloc_from(x.data());
    let k = RowLogSoftmaxKernel { data, rows, cols };
    let p = dev.try_launch(&k, LaunchConfig::warp_per_item(rows.max(1), 256));
    let out = p
        .is_ok()
        .then(|| Matrix::from_vec(rows, cols, dev.mem().read_vec(data)));
    dev.mem_mut().free(data);
    let p = p?;
    Ok((out.expect("output read on launch success"), p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tlpgnn_tensor::{activations, ops};

    #[test]
    fn dense_kernel_matches_host_linear() {
        let layer = Linear::new(24, 40, true, 401);
        let x = Matrix::random(100, 24, 1.0, 402);
        let mut dev = Device::new(DeviceConfig::test_small());
        let (got, p) = dense_forward_on_device(&mut dev, &layer, &x, false);
        let want = layer.forward(&x);
        assert!(
            got.max_abs_diff(&want) < 1e-3,
            "{}",
            got.max_abs_diff(&want)
        );
        assert_eq!(p.atomic_requests, 0);
    }

    #[test]
    fn fused_relu_matches_host() {
        let layer = Linear::new(16, 33, true, 403); // odd out_dim: partial tile
        let x = Matrix::random(50, 16, 1.0, 404);
        let mut dev = Device::new(DeviceConfig::test_small());
        let (got, _) = dense_forward_on_device(&mut dev, &layer, &x, true);
        let mut want = layer.forward(&x);
        activations::relu(&mut want);
        assert!(got.max_abs_diff(&want) < 1e-3);
    }

    #[test]
    fn bias_free_layer() {
        let layer = Linear::new(8, 8, false, 405);
        let x = Matrix::random(20, 8, 1.0, 406);
        let mut dev = Device::new(DeviceConfig::test_small());
        let (got, _) = dense_forward_on_device(&mut dev, &layer, &x, false);
        assert!(got.max_abs_diff(&ops::matmul(&x, layer.weight())) < 1e-3);
    }

    #[test]
    fn nonzero_bias_is_uploaded_and_zero_bias_is_not() {
        let x = Matrix::random(20, 8, 1.0, 407);
        let weight = Matrix::random(8, 40, 1.0, 408);
        let run = |bias: Option<Vec<f32>>| {
            let layer = Linear::from_parts(weight.clone(), bias);
            let mut dev = Device::new(DeviceConfig::test_small());
            let (got, p) = dense_forward_on_device(&mut dev, &layer, &x, false);
            assert!(got.max_abs_diff(&layer.forward(&x)) < 1e-3);
            (p.mem_requests, p.peak_mem_bytes)
        };
        let none = run(None);
        assert_eq!(run(Some(vec![0.0; 40])), none);
        let biased = run(Some((0..40).map(|c| c as f32 - 7.5).collect()));
        assert!(biased.0 > none.0 && biased.1 == none.1 + 40 * 4);
    }

    #[test]
    fn device_log_softmax_matches_host() {
        let x = Matrix::random(60, 40, 3.0, 409); // partial final tile
        let mut dev = Device::new(DeviceConfig::test_small());
        let (got, p) = log_softmax_on_device(&mut dev, &x);
        let mut want = x.clone();
        activations::log_softmax_rows(&mut want);
        assert!(
            got.max_abs_diff(&want) < 1e-3,
            "{}",
            got.max_abs_diff(&want)
        );
        assert_eq!(p.atomic_requests, 0);
        // Rows exponentiate to probability vectors.
        for r in 0..60 {
            let s: f32 = got.row(r).iter().map(|v| v.exp()).sum();
            assert!((s - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn weight_streams_are_coalesced() {
        let layer = Linear::new(64, 64, false, 407);
        let x = Matrix::random(500, 64, 1.0, 408);
        let mut dev = Device::new(DeviceConfig::test_small());
        let (_, p) = dense_forward_on_device(&mut dev, &layer, &x, false);
        // Weight-tile loads dominate: 32 consecutive f32 = 4 sectors.
        assert!(p.sectors_per_request < 4.2, "{}", p.sectors_per_request);
    }
}
