//! Axis-aligned bounding boxes, used by the R-tree and kd-tree.

use crate::point::Point2;
use serde::{Deserialize, Serialize};

/// A closed axis-aligned bounding rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Aabb {
    /// An "empty" box that is the identity for [`Aabb::union`]: growing it
    /// with any point yields that point's degenerate box.
    pub const EMPTY: Aabb = Aabb {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Construct from corner coordinates. `min` must not exceed `max` in
    /// either dimension (checked in debug builds).
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted Aabb");
        Self {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The degenerate box covering a single point.
    pub fn from_point(p: Point2) -> Self {
        Self {
            min_x: p.x(),
            min_y: p.y(),
            max_x: p.x(),
            max_y: p.y(),
        }
    }

    /// The tight box around a set of points; [`Aabb::EMPTY`] for no points.
    pub fn from_points<'a>(points: impl IntoIterator<Item = &'a Point2>) -> Self {
        points.into_iter().fold(Self::EMPTY, |b, p| b.grown(*p))
    }

    /// The square of side `2·eps` centred on `p` — the bounding box of the
    /// ε-ball, used to prune R-tree subtrees during a range query.
    pub fn eps_box(p: Point2, eps: f64) -> Self {
        Self::new(p.x() - eps, p.y() - eps, p.x() + eps, p.y() + eps)
    }

    /// Whether this box is the empty identity.
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Box grown to cover `p`.
    pub fn grown(&self, p: Point2) -> Self {
        Self {
            min_x: self.min_x.min(p.x()),
            min_y: self.min_y.min(p.y()),
            max_x: self.max_x.max(p.x()),
            max_y: self.max_y.max(p.y()),
        }
    }

    /// Smallest box covering both operands.
    pub fn union(&self, other: &Aabb) -> Self {
        Self {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Whether the two closed boxes share at least one point.
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Whether the closed box contains `p`.
    pub fn contains(&self, p: Point2) -> bool {
        p.x() >= self.min_x && p.x() <= self.max_x && p.y() >= self.min_y && p.y() <= self.max_y
    }

    /// Area of the box (0 for degenerate/empty boxes).
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.max_x - self.min_x) * (self.max_y - self.min_y)
        }
    }

    /// Increase in area that would result from growing this box to also
    /// cover `other` — the Guttman insertion heuristic.
    pub fn enlargement(&self, other: &Aabb) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Squared distance from `p` to the nearest point of the box (0 if the
    /// box contains `p`). Used for exact ball/box pruning.
    pub fn min_dist_sq(&self, p: Point2) -> f64 {
        let dx = (self.min_x - p.x()).max(0.0).max(p.x() - self.max_x);
        let dy = (self.min_y - p.y()).max(0.0).max(p.y() - self.max_y);
        dx * dx + dy * dy
    }

    /// Centre of the box.
    pub fn center(&self) -> Point2 {
        Point2::new(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_union_identity() {
        let b = Aabb::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(Aabb::EMPTY.union(&b), b);
        assert!(Aabb::EMPTY.is_empty());
        assert_eq!(Aabb::EMPTY.area(), 0.0);
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            Point2::new(0.0, 5.0),
            Point2::new(-2.0, 1.0),
            Point2::new(3.0, -4.0),
        ];
        let b = Aabb::from_points(pts.iter());
        for p in &pts {
            assert!(b.contains(*p));
        }
        assert_eq!(b, Aabb::new(-2.0, -4.0, 3.0, 5.0));
    }

    #[test]
    fn intersects_shared_edge() {
        let a = Aabb::new(0.0, 0.0, 1.0, 1.0);
        let b = Aabb::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b), "closed boxes sharing an edge intersect");
        let c = Aabb::new(1.0001, 0.0, 2.0, 1.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn min_dist_sq_inside_is_zero() {
        let b = Aabb::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(b.min_dist_sq(Point2::new(1.0, 1.0)), 0.0);
        assert_eq!(b.min_dist_sq(Point2::new(3.0, 2.0)), 1.0);
        assert_eq!(b.min_dist_sq(Point2::new(3.0, 3.0)), 2.0);
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let outer = Aabb::new(0.0, 0.0, 10.0, 10.0);
        let inner = Aabb::new(2.0, 2.0, 3.0, 3.0);
        assert_eq!(outer.enlargement(&inner), 0.0);
        assert!(inner.enlargement(&outer) > 0.0);
    }

    #[test]
    fn eps_box_bounds_ball() {
        let p = Point2::new(5.0, 5.0);
        let b = Aabb::eps_box(p, 2.0);
        assert_eq!(b, Aabb::new(3.0, 3.0, 7.0, 7.0));
    }
}
