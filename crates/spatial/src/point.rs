//! The point type shared by every index and by the clustering algorithms.

/// A point in `D`-dimensional space.
///
/// The paper clusters spatial data defined by `(x, y)` coordinates
/// (ionospheric TEC measurements and galaxy positions) — [`Point2`], the
/// `D = 2` instance; the d > 2 regime reuses every index and kernel at
/// other `D`. We use `f64` throughout so the host reference
/// implementation and the simulated-GPU path compute bit-identical
/// distances, which lets the test suite demand exact agreement between
/// the two.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointN<const D: usize> {
    pub coords: [f64; D],
}

/// A point in the 2-D plane.
pub type Point2 = PointN<2>;

impl<const D: usize> PointN<D> {
    /// Create a point from its coordinates.
    #[inline]
    pub const fn from_coords(coords: [f64; D]) -> Self {
        Self { coords }
    }

    /// Squared Euclidean distance to `other`, accumulating dimensions in
    /// order 0..D: `d² = dx₀² ; d² += dx₁² ; …` — one `mul`/`add` chain
    /// whose rounding sequence every kernel's chunked scan reproduces.
    ///
    /// Preferred over [`PointN::distance`] in inner loops: the
    /// ε-comparison `dist(p, q) <= ε` is evaluated as `dist²(p, q) <= ε²`,
    /// avoiding the square root exactly as the CUDA kernels in the paper do.
    #[inline]
    pub fn distance_sq(&self, other: &Self) -> f64 {
        let d = self.coords[0] - other.coords[0];
        let mut d2 = d * d;
        for k in 1..D {
            let d = self.coords[k] - other.coords[k];
            d2 += d * d;
        }
        d2
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Self) -> f64 {
        self.distance_sq(other).sqrt()
    }
}

impl Point2 {
    /// Create a 2-D point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { coords: [x, y] }
    }

    #[inline]
    pub const fn x(&self) -> f64 {
        self.coords[0]
    }

    #[inline]
    pub const fn y(&self) -> f64 {
        self.coords[1]
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Self::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
        let a = PointN::from_coords([0.0, 0.0, 0.0]);
        let b = PointN::from_coords([1.0, 2.0, 2.0]);
        assert_eq!(a.distance_sq(&b), 9.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point2::new(-1.5, 2.25);
        let b = Point2::new(7.0, -3.5);
        assert_eq!(a.distance_sq(&b), b.distance_sq(&a));
    }

    #[test]
    fn distance_is_the_mul_mul_add_chain() {
        // The rounding-chain contract the kernels' chunked scans rely on:
        // `fl(fl(dx²) + fl(dy²))`, in axis order.
        for ((ax, ay), (bx, by)) in [
            ((0.1, 0.2), (0.7, -0.3)),
            ((1e-9, 1e9), (3.3333333, 7.7777)),
            ((-5.5, 2.25), (2.125, -0.0625)),
        ] {
            let (dx, dy) = (ax - bx, ay - by);
            let chain = dx * dx + dy * dy;
            let got = Point2::new(ax, ay).distance_sq(&Point2::new(bx, by));
            assert_eq!(got.to_bits(), chain.to_bits());
        }
    }

    #[test]
    fn from_tuple() {
        let p: Point2 = (1.0, 2.0).into();
        assert_eq!(p, Point2::new(1.0, 2.0));
        assert_eq!((p.x(), p.y()), (1.0, 2.0));
    }
}
