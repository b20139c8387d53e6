//! # gpu-sim — a deterministic software SIMT GPU simulator
//!
//! This crate is the hardware substrate for the TLPGNN reproduction: a
//! software model of an NVIDIA-Volta-class GPU detailed enough to study
//! the performance dimensions the paper profiles with Nsight Compute —
//! atomic operations, memory coalescing, cache behaviour, kernel-launch
//! overhead, occupancy — while remaining fast enough to run full GNN
//! workloads on a CPU.
//!
//! ## Model
//!
//! * **Execution**: a kernel ([`Kernel`]) is launched over a grid of blocks
//!   ([`LaunchConfig`]); blocks are distributed to simulated SMs (by
//!   default with the same dynamic pull scheduling real hardware uses), and
//!   each warp's `run_warp` executes *functionally* — all data movement is
//!   real, against [`DeviceMemory`].
//! * **Requests**: a warp load or store is either a *run* —
//!   [`WarpCtx::ld_run`] / [`WarpCtx::st_run`], lanes `0..active` over
//!   consecutive elements, the shape of every feature-parallel access — or
//!   a per-lane closure ([`WarpCtx::ld`] / [`WarpCtx::st`]) for gathers
//!   and other irregular shapes. Both are priced by the same code.
//! * **Accounting**: the lane-level API of [`WarpCtx`] records, for every
//!   warp: issued instructions (with SIMD lane activity for divergence),
//!   memory requests grouped into 32-byte sectors (coalescing), sector hits
//!   in sectored L1/L2 cache models, atomic round trips with conflict
//!   serialization, shared-memory traffic, and barriers.
//! * **Cost**: an analytic model (see [`launch`]) turns those traces into
//!   per-kernel GPU time plus Nsight-style metrics ([`KernelProfile`]).
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{Device, DeviceBuffer, DeviceConfig, Kernel, LaunchConfig, WarpCtx};
//!
//! /// SAXPY with one warp per 32 elements.
//! struct Saxpy { a: f32, x: DeviceBuffer<f32>, y: DeviceBuffer<f32>, n: usize }
//!
//! impl Kernel for Saxpy {
//!     fn name(&self) -> &str { "saxpy" }
//!     fn run_warp(&self, w: &mut WarpCtx<'_>) {
//!         let base = w.global_warp() * w.lanes();
//!         // The last warp's run is partial (`n` = 100 leaves 4 lanes).
//!         let active = self.n.saturating_sub(base).min(w.lanes());
//!         let xs = w.ld_run(self.x, base, active);
//!         let ys = w.ld_run(self.y, base, active);
//!         w.issue(2); // multiply-add
//!         let out = std::array::from_fn(|l| self.a * xs[l] + ys[l]);
//!         w.st_run(self.y, base, active, &out);
//!     }
//! }
//!
//! let mut dev = Device::new(DeviceConfig::test_small());
//! let x = dev.mem_mut().alloc_from(&vec![1.0f32; 100]);
//! let y = dev.mem_mut().alloc_from(&vec![2.0f32; 100]);
//! let profile = dev.launch(&Saxpy { a: 3.0, x, y, n: 100 },
//!                          LaunchConfig::warp_per_item(4, 64));
//! assert_eq!(dev.mem().read_vec(y)[0], 5.0);
//! assert!(profile.gpu_time_ms > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod fault;
pub mod hw;
pub mod kernel;
pub mod launch;
pub mod mem;
pub mod profile;
pub mod warp;

pub use config::{DeviceConfig, WARP_SIZE};
pub use fault::{FaultEvent, FaultKind, FaultPlan, LaunchError};
pub use hw::HwCounters;
pub use kernel::{Kernel, LaunchConfig};
pub use launch::Device;
pub use mem::{DeviceBuffer, DeviceMemory, Word, DRAM_ROW_BYTES};
pub use profile::{Accounting, KernelProfile, OpProfile, SmAccounting};
pub use warp::{WarpCtx, WarpId, WarpStats};
