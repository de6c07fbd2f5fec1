//! Spatial indexing substrate for Hybrid-DBSCAN.
//!
//! Every structure is generic over the dimension `D` (const generic,
//! covering d ∈ {2, 3, 4}); the paper's 2-D setting is the `D = 2`
//! instance of each — [`Point2`] is [`PointN<2>`], [`GridIndex`] is
//! [`GridIndexN<2>`], [`PointStore`] is [`PointStoreN<2>`].
//!
//! * [`point`] — [`PointN`], with the one ordered distance rounding chain
//!   every index and kernel reproduces bit for bit.
//! * [`nd`] — the SoA coordinate store, its index-ordered member mirror
//!   that the kernels scan, and AABBs.
//! * [`grid`] — the GPU-friendly grid index `(G, A)` of Section IV: ε
//!   cells over the data extent (`3^D` stencil, `u64` mixed-radix keys),
//!   a cell array `G` holding `[A_min, A_max]` ranges in a dense or
//!   sparse layout, and a lookup array `A` with `|A| = |D|` (Figure 1 of
//!   the paper).
//! * [`packed_tree`] — the device-resident packed kd-tree (implicit
//!   level-order heap, SoA node pool) behind the tree ε-search backend.
//! * [`presort`] — the unit-width binning pre-sort applied to the point
//!   database before index construction to improve access locality.
//! * [`distance`] — the brute-force ε-neighborhood oracles.
//! * [`rtree`] — a classical 2-D R-tree (Guttman quadratic split plus STR
//!   bulk loading) used by the *reference implementation* the paper
//!   compares against (sequential DBSCAN, Table I / Figure 3).
//! * [`shard`] — x-quantile slab partitioning with ε-halos, the spatial
//!   layer under the multi-device sharded pipeline (2-D).

pub mod aabb;
pub mod distance;
pub mod grid;
pub mod nd;
pub mod packed_tree;
pub mod point;
pub mod presort;
pub mod rtree;
pub mod shard;

pub use aabb::Aabb;
pub use grid::{
    CellRange, CellsView, GridGeometry, GridGeometryN, GridIndex, GridIndexN, GridLayout, GridStats,
};
pub use nd::{
    AabbN, MemberStoreN, MembersViewN, PointStore, PointStoreN, PointsView, PointsViewN, SCAN_LANES,
};
pub use packed_tree::{PackedKdTree, TreeStats, TreeView};
pub use point::{Point2, PointN};
pub use rtree::{RTree, RTreeStats};
pub use shard::ShardPlan;
