//! # hybrid-dbscan-core
//!
//! The paper's primary contribution: **Hybrid-DBSCAN** — GPU-accelerated
//! construction of the ε-neighborhood *neighbor table* `T`, an efficient
//! batching scheme that fits arbitrarily large result sets in limited GPU
//! memory, and host-side DBSCAN variants that consume `T` to maximize
//! clustering throughput.
//!
//! Module map (paper section in parentheses):
//!
//! * [`dbscan`] — Algorithm 1 over pluggable neighbor sources; cluster
//!   label containers and equivalence checks (§II-A).
//! * [`table`] — the neighbor table `T` (`[T_min, T_max]` ranges into the
//!   value array `B`) and its batched builder (§V).
//! * [`kernels`] — `GPUCalcGlobal` (Algorithm 2), `GPUCalcShared`
//!   (Algorithm 3), and the result-size estimation kernel (§IV, §VI).
//! * [`batch`] — the batching scheme: Equation 1, the α overestimation
//!   factor, static/variable buffer sizing, strided batch assignment
//!   (§VI, Figure 2).
//! * [`hybrid`] — Algorithm 4 end-to-end with 3-stream overlap (§V, §VI).
//! * [`pipeline`] — the multi-clustering producer-consumer pipeline,
//!   scenario S2 (§VII-E).
//! * [`reuse`] — neighbor-table reuse across `minpts` values, scenario S3
//!   (§VII-F).
//! * `levels` — the crate's one union-find: the core-level forest a
//!   [`hybrid::TableHandle`] builds once to serve every `minpts`
//!   clustering after its first (S3 as one union-find sweep), and that
//!   [`disjoint_set`] reads in table order.
//! * [`reference`] — the sequential R-tree DBSCAN the paper compares
//!   against, with neighbor-search time accounting (Table I).
//! * [`scenario`] — the published experiment parameter sets
//!   (Tables III and V).
//!
//! Extensions beyond the paper (DESIGN.md §5):
//!
//! * [`optics`] — OPTICS and its ε'-cut extraction, the technique the
//!   paper positions S3 against.
//! * [`disjoint_set`] — the disjoint-set DBSCAN formulation (after
//!   Patwary et al., the paper's reference [9]) over the GPU-built table:
//!   the `levels` forest read at one `minpts` in table id order.
//! * [`gdbscan`] — G-DBSCAN (Andrade et al., the paper's reference [6]):
//!   the "cluster entirely on the GPU" competitor family, for head-to-head
//!   comparison with the hybrid approach.
//! * [`cuda_dclust`] — CUDA-DClust (Böhm et al., the paper's reference
//!   [5]): parallel chain expansion with host-side collision resolution,
//!   the original member of that family.
//! * [`oracle`] — brute-force exact-DBSCAN ground truth (core/border/noise
//!   classification, core components, validity and equivalence checks)
//!   backing the differential test harness in `tests/differential/`.
//! * [`shard`] — the sharded pipeline: ε-halo slab partitioning, one
//!   simulated device per shard (or sequential out-of-core tiling through
//!   one device), and the exact cross-shard table merge (DESIGN.md §14).
//! * [`backend`] — ε-search backend selection: grid vs packed kd-tree
//!   ([`kernels::GpuCalcTree`]), explicit or `Auto` from deterministic
//!   sampled cell statistics, recorded in provenance (DESIGN.md §16).
//! * [`nd`] — the hybrid table build and DBSCAN over d ∈ {2, 3, 4}
//!   data (`PointN<D>`), with either backend (DESIGN.md §16).

pub mod backend;
pub mod batch;
pub mod cuda_dclust;
pub mod dbscan;
pub mod disjoint_set;
pub mod gdbscan;
pub mod hybrid;
pub mod kernels;
mod levels;
pub mod nd;
pub mod optics;
pub mod oracle;
pub mod pipeline;
pub mod reference;
pub mod reuse;
pub mod scenario;
pub mod shard;
pub mod table;

pub use backend::{BackendDecision, ChosenBackend, IndexBackend};
pub use dbscan::{Clustering, Dbscan, PointLabel};
pub use hybrid::{HybridConfig, HybridDbscan, HybridResult};
pub use shard::{clustering_fingerprint, table_fingerprint, ShardConfig, ShardMode, ShardedHybrid};
pub use table::NeighborTable;
