//! # hybrid-dbscan
//!
//! Facade crate for the reproduction of *"Clustering Throughput
//! Optimization on the GPU"* (Gowanlock, Rude, Blair, Li, Pankratius —
//! IPDPS 2017).
//!
//! The workspace implements **Hybrid-DBSCAN**: the ε-neighborhood of every
//! point is computed by grid-index GPU kernels (running on the [`gpu_sim`]
//! software SIMT device), shipped to the host through an efficient batching
//! scheme, assembled into a *neighbor table* `T`, and consumed by a modified
//! DBSCAN that clusters from `T` and `minpts` alone. Fixing ε and varying
//! `minpts` reuses one table across many clusterings, which is where the
//! paper's headline throughput gains come from.
//!
//! This crate re-exports the public API of the member crates so downstream
//! users can depend on a single package:
//!
//! * [`gpu_sim`] — the simulated CUDA-like device (kernels, streams,
//!   transfers, device memory, Thrust-style sort).
//! * [`spatial`] — grid index `(G, A)`, R-tree, kd-tree, spatial pre-sort.
//! * [`datasets`] — synthetic SW-class / SDSS-class dataset generators.
//! * [`core`] — the Hybrid-DBSCAN algorithms themselves.
//!
//! ## Quickstart
//!
//! ```
//! use hybrid_dbscan::prelude::*;
//!
//! // A small two-clump dataset.
//! let mut pts = Vec::new();
//! for i in 0..50 {
//!     let t = i as f64 * 0.01;
//!     pts.push(Point2::new(t, t));          // clump A near the origin
//!     pts.push(Point2::new(10.0 + t, t));   // clump B far away
//! }
//!
//! let device = Device::k20c();
//! let hybrid = HybridDbscan::new(&device, HybridConfig::default());
//! let result = hybrid.run(&pts, 0.5, 4).unwrap();
//! assert_eq!(result.clustering.num_clusters(), 2);
//! ```

pub use datasets;
pub use gpu_sim;
pub use hybrid_dbscan_core as core;
pub use spatial;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::core::dbscan::{Clustering, Dbscan, PointLabel};
    pub use crate::core::hybrid::{HybridConfig, HybridDbscan, HybridResult};
    pub use crate::core::pipeline::{MultiClusterPipeline, PipelineConfig};
    pub use crate::core::reference::ReferenceDbscan;
    pub use crate::core::reuse::cluster_variants;
    pub use crate::core::scenario::{self, Variant};
    pub use crate::core::table::NeighborTable;
    pub use crate::datasets::{Dataset, DatasetClass, DatasetSpec};
    pub use crate::gpu_sim::device::Device;
    pub use crate::spatial::{GridIndex, Point2, RTree};
}
