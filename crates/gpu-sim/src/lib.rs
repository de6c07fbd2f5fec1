//! # gpu-sim — a software SIMT device
//!
//! This crate simulates the CUDA device the paper's kernels ran on
//! (an NVIDIA Tesla K20c), so that the full Hybrid-DBSCAN pipeline can be
//! reproduced and measured on machines without a GPU.
//!
//! The simulator is *functional* and *temporal*:
//!
//! * **Functional** — kernels really execute. Thread blocks run in parallel
//!   on a host thread pool; the threads *within* a block are simulated
//!   sequentially in barrier-delimited phases, which makes per-block shared
//!   memory ordinary data while preserving CUDA's block-synchronous
//!   semantics. Device buffers move real bytes; atomic result buffers
//!   behave like CUDA's `atomicAdd`-indexed output arrays; buffer
//!   capacities and the 5 GB global-memory limit are enforced.
//! * **Temporal** — kernels charge a SIMT cost model as they run
//!   (global/shared transactions, flops, atomics, warp-divergence via
//!   warp-max cycle aggregation). The model converts per-block cycles into
//!   a kernel duration by scheduling blocks onto SMs at the achievable
//!   occupancy, bounded by device memory bandwidth. Host↔device transfers
//!   are charged with a latency + bandwidth model (pinned vs pageable).
//!   Streams schedule their operations onto a discrete-event [`timeline`]
//!   with distinct H2D / compute / D2H engines, reproducing CUDA's
//!   copy-compute overlap.
//!
//! The intent is not cycle accuracy but *shape* accuracy: the relative
//! behaviour that drives the paper's results (thread-per-point vs
//! block-per-cell kernels, batching, transfer overlap) is preserved.

pub mod cost;
pub mod device;
pub mod error;
pub mod hostmem;
pub mod kernel;
pub mod launch;
pub mod memory;
pub mod profiler;
pub mod stream;
pub mod thrust;
pub mod time;
pub mod timeline;
pub mod transfer;

pub use device::{Device, DeviceProps};
pub use error::DeviceError;
pub use kernel::{BlockCtx, BlockKernel, KernelReport, ThreadCtx};
pub use launch::LaunchConfig;
pub use memory::{DeviceAppendBuffer, DeviceBuffer, DeviceCounter, RawAlloc};
pub use time::{SimDuration, SimTime};
