//! Dataset summary statistics, used by the experiment harness to report
//! the properties (size, extent, skew) that explain the results.

use serde::{Deserialize, Serialize};
use spatial::{GridIndex, Point2};

/// Summary of a point dataset's spatial distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    pub n_points: usize,
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
    /// Mean points per square unit over the bounding box.
    pub density: f64,
    /// Coefficient of variation of per-cell counts on a unit grid —
    /// ~0.0-1.0 for near-uniform data, ≫1 for skewed data.
    pub cell_cv: f64,
}

impl DatasetStats {
    /// Compute statistics with a unit analysis grid.
    pub fn compute(points: &[Point2]) -> Self {
        Self::compute_with_cell(points, 1.0)
    }

    /// Compute statistics using `cell` as the analysis-grid width.
    pub fn compute_with_cell(points: &[Point2], cell: f64) -> Self {
        assert!(
            !points.is_empty(),
            "stats of an empty dataset are undefined"
        );
        let bounds = spatial::Aabb::from_points(points.iter());
        let area = bounds.area().max(f64::MIN_POSITIVE);

        let g = GridIndex::build(points, cell);
        let counts: Vec<f64> = g
            .non_empty_cells()
            .iter()
            .map(|&h| g.range_of(h).len() as f64)
            .collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;

        DatasetStats {
            n_points: points.len(),
            min_x: bounds.min_x,
            min_y: bounds.min_y,
            max_x: bounds.max_x,
            max_y: bounds.max_y,
            density: points.len() as f64 / area,
            cell_cv: var.sqrt() / mean,
        }
    }

    /// One-line report string.
    pub fn summary(&self) -> String {
        format!(
            "n={} extent=[{:.1},{:.1}]x[{:.1},{:.1}] density={:.2}/unit^2 skew(cv)={:.2}",
            self.n_points,
            self.min_x,
            self.max_x,
            self.min_y,
            self.max_y,
            self.density,
            self.cell_cv
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_has_low_cv() {
        let pts: Vec<Point2> = (0..400)
            .map(|i| Point2::new((i % 20) as f64 + 0.5, (i / 20) as f64 + 0.5))
            .collect();
        let s = DatasetStats::compute(&pts);
        assert_eq!(s.n_points, 400);
        assert!(s.cell_cv < 0.1, "perfect lattice: cv = {}", s.cell_cv);
    }

    #[test]
    fn clumped_data_has_high_cv() {
        // 390 points in one unit cell, 10 spread out.
        let mut pts = vec![Point2::new(0.5, 0.5); 390];
        for i in 0..10 {
            pts.push(Point2::new(2.5 + i as f64 * 2.0, 2.5));
        }
        let s = DatasetStats::compute(&pts);
        assert!(s.cell_cv > 3.0, "clumped: cv = {}", s.cell_cv);
    }

    #[test]
    fn extent_and_density() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(10.0, 5.0)];
        let s = DatasetStats::compute(&pts);
        assert_eq!((s.min_x, s.max_x, s.min_y, s.max_y), (0.0, 10.0, 0.0, 5.0));
        assert!((s.density - 2.0 / 50.0).abs() < 1e-12);
        assert!(s.summary().contains("n=2"));
    }
}
