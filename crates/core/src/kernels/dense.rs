//! Device-side dense kernels: the "regular neural network operations" of
//! a GNN layer (paper §2.1), so a whole layer — graph convolution, learned
//! projection, bias, activation — can execute on the simulated device
//! without round-tripping features through the host.
//!
//! The matmul follows the same design language as the graph kernels: one
//! warp owns a row of the output, lanes cover 32 consecutive output
//! columns (coalesced stores), the weight matrix streams through the
//! cache, and bias + ReLU fuse into the same kernel (one launch per
//! layer's dense phase — Observation III applied to the dense side).

use gpu_sim::{Device, DeviceBuffer, Kernel, LaunchConfig, WarpCtx, WARP_SIZE};
use tlpgnn_tensor::{Linear, Matrix};

/// Fused `Y = act(X·W + b)` kernel: warp per output row, lanes per
/// 32-column tile.
pub(crate) struct DenseLayerKernel {
    /// Input matrix (`rows × in_dim`).
    pub(crate) x: DeviceBuffer<f32>,
    /// Weights (`in_dim × out_dim`, row major).
    pub(crate) w: DeviceBuffer<f32>,
    /// Bias (`out_dim`), or `None`.
    pub(crate) bias: Option<DeviceBuffer<f32>>,
    /// Output (`rows × out_dim`).
    pub(crate) y: DeviceBuffer<f32>,
    /// Rows.
    pub(crate) rows: usize,
    /// Inner dimension.
    pub(crate) in_dim: usize,
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
        let (id, od) = (self.in_dim, self.out_dim);
        for tile in 0..od.div_ceil(WARP_SIZE) {
            let base = tile * WARP_SIZE;
            let active = (od - base).min(WARP_SIZE);
            let mut acc = [0.0f32; WARP_SIZE];
            // k-loop: broadcast one input element, stream a weight row
            // tile (coalesced: lanes read consecutive W columns).
            for k in 0..id {
                let xv = w.ld_scalar(self.x, r * id + k);
                let ws = w.ld_run(self.w, k * od + base, active);
                w.issue_simd(2, active);
                for l in 0..active {
                    acc[l] += xv * ws[l];
                }
            }
            if let Some(b) = self.bias {
                let bs = w.ld_run(b, base, active);
                w.issue_simd(1, active);
                for l in 0..active {
                    acc[l] += bs[l];
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

/// Upload a [`Linear`] layer and run `act(X·W + b)` on the device; one
/// kernel launch. Returns the output and the kernel profile.
pub fn dense_forward_on_device(
    dev: &mut Device,
    layer: &Linear,
    x: &Matrix,
    relu: bool,
) -> (Matrix, gpu_sim::KernelProfile) {
    try_dense_forward_on_device(dev, layer, x, relu)
        .unwrap_or_else(|e| panic!("unhandled launch fault: {e}"))
}

/// Fallible [`dense_forward_on_device`]: an injected launch fault frees
/// every buffer this call uploaded and returns the error.
pub(crate) fn try_dense_forward_on_device(
    dev: &mut Device,
    layer: &Linear,
    x: &Matrix,
    relu: bool,
) -> Result<(Matrix, gpu_sim::KernelProfile), gpu_sim::LaunchError> {
    assert_eq!(x.cols(), layer.in_dim(), "input dim mismatch");
    let rows = x.rows();
    let (id, od) = (layer.in_dim(), layer.out_dim());
    let mem = dev.mem_mut();
    let xb = mem.alloc_from(x.data());
    let wb = mem.alloc_from(layer.weight().data());
    let yb = mem.alloc::<f32>(rows * od);
    // An all-zero bias adds nothing: skip its upload and its loads.
    let bias = layer
        .bias()
        .filter(|b| b.iter().any(|&v| v != 0.0))
        .map(|b| mem.alloc_from(b));
    let k = DenseLayerKernel {
        x: xb,
        w: wb,
        bias,
        y: yb,
        rows,
        in_dim: id,
        out_dim: od,
        relu,
    };
    let p = dev.try_launch(&k, LaunchConfig::warp_per_item(rows, 256));
    let out = p
        .is_ok()
        .then(|| Matrix::from_vec(rows, od, dev.mem().read_vec(yb)));
    let mem = dev.mem_mut();
    mem.free(xb);
    mem.free(wb);
    mem.free(yb);
    if let Some(b) = bias {
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
