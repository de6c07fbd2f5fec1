//! The SW-class and SDSS-class point generators, plus the backend-ablation
//! families: skewed-exponential 2-D clusters and d ∈ {3, 4} jittered
//! lattices.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial::{Point2, PointN};

/// Sample a standard normal via Box–Muller (the `rand_distr` crate is kept
/// out of the dependency set; two uniforms suffice).
fn sample_normal(rng: &mut StdRng) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Generate an SW-class (space-weather) dataset: `n` points in a
/// `width × height` domain.
///
/// Ionospheric TEC measurements cluster around GPS receiver locations, so
/// the distribution is a mixture of:
/// * ~85% *receiver clumps* — Gaussian blobs centred on `n_sites` receiver
///   sites (sites themselves clustered: receivers concentrate on
///   continents/networks, modeled by drawing sites around a few regional
///   hubs), with per-site weights drawn heavy-tailed so some regions are
///   strongly over-dense, and
/// * ~15% sparse background.
///
/// Points are clamped to the domain.
pub fn sw_class(n: usize, width: f64, height: f64, n_sites: usize, seed: u64) -> Vec<Point2> {
    assert!(width > 0.0 && height > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let n_sites = n_sites.max(1);

    // Regional hubs: receiver networks are geographically concentrated.
    let n_hubs = (n_sites / 25).clamp(1, 40);
    let hubs: Vec<(f64, f64)> = (0..n_hubs)
        .map(|_| (rng.random::<f64>() * width, rng.random::<f64>() * height))
        .collect();
    let hub_spread = (width.min(height)) * 0.08;

    // Sites scatter around hubs; each gets a heavy-tailed weight and a
    // measurement spread.
    struct Site {
        x: f64,
        y: f64,
        sigma: f64,
        cum_weight: f64,
    }
    let mut sites = Vec::with_capacity(n_sites);
    let mut cum = 0.0;
    for _ in 0..n_sites {
        let (hx, hy) = hubs[rng.random_range(0..n_hubs)];
        let x = (hx + sample_normal(&mut rng) * hub_spread).clamp(0.0, width);
        let y = (hy + sample_normal(&mut rng) * hub_spread).clamp(0.0, height);
        // Pareto-ish weight: w = u^{-0.7} gives a few very dense sites.
        let w = rng.random::<f64>().max(1e-6).powf(-0.7);
        // Measurement spread: a small fraction of a degree around the
        // pierce points the receiver observes. TEC measurements pile up
        // tightly over each receiver, producing the strongly over-dense
        // cells that drive the paper's SW-class results (the reference
        // and Table II behaviours need clump cells ~2 orders of magnitude
        // denser than the dataset mean).
        let sigma = 0.05 + rng.random::<f64>() * 0.2;
        cum += w;
        sites.push(Site {
            x,
            y,
            sigma,
            cum_weight: cum,
        });
    }
    let total_weight = cum;

    let n_background = n * 15 / 100;
    let n_clumped = n - n_background;

    let mut points = Vec::with_capacity(n);
    for _ in 0..n_clumped {
        // Weighted site choice by binary search on cumulative weights.
        let target = rng.random::<f64>() * total_weight;
        let idx = sites
            .partition_point(|s| s.cum_weight < target)
            .min(n_sites - 1);
        let s = &sites[idx];
        let x = (s.x + sample_normal(&mut rng) * s.sigma).clamp(0.0, width);
        let y = (s.y + sample_normal(&mut rng) * s.sigma).clamp(0.0, height);
        points.push(Point2::new(x, y));
    }
    for _ in 0..n_background {
        points.push(Point2::new(
            rng.random::<f64>() * width,
            rng.random::<f64>() * height,
        ));
    }
    points
}

/// Generate an SDSS-class (galaxy survey) dataset: `n` points in a
/// `width × height` domain.
///
/// The galaxy sample is "more uniformly distributed" (paper, §VII-A) than
/// SW but not Poisson-uniform: galaxies trace mild large-scale structure.
/// We model this as a uniform field where a modest fraction (~25%) of
/// points are perturbed toward soft, wide clumps (groups/filament knots)
/// with low density contrast.
pub fn sdss_class(n: usize, width: f64, height: f64, seed: u64) -> Vec<Point2> {
    assert!(width > 0.0 && height > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);

    // Wide, weak structure knots.
    let n_knots = ((n as f64).sqrt() as usize / 4).clamp(8, 4000);
    let knots: Vec<(f64, f64)> = (0..n_knots)
        .map(|_| (rng.random::<f64>() * width, rng.random::<f64>() * height))
        .collect();
    let knot_sigma = (width.min(height)) * 0.015;

    let n_structured = n / 4;
    let n_uniform = n - n_structured;

    let mut points = Vec::with_capacity(n);
    for _ in 0..n_uniform {
        points.push(Point2::new(
            rng.random::<f64>() * width,
            rng.random::<f64>() * height,
        ));
    }
    for _ in 0..n_structured {
        let (kx, ky) = knots[rng.random_range(0..n_knots)];
        let x = (kx + sample_normal(&mut rng) * knot_sigma).clamp(0.0, width);
        let y = (ky + sample_normal(&mut rng) * knot_sigma).clamp(0.0, height);
        points.push(Point2::new(x, y));
    }
    points
}

/// Generate a skewed-density dataset with *exponentially distributed
/// cluster sizes*: `n_clusters` tight Gaussian clusters whose populations
/// follow `w = -ln(u)` (a few clusters hold most of the mass), over a
/// ~10% uniform background.
///
/// This is the tree backend's best case: cell-occupancy CV far above the
/// SW class's, because the exponential size law concentrates points in a
/// handful of ε-cells while the rest of the domain stays near-empty.
pub fn skewed_exp_class(
    n: usize,
    width: f64,
    height: f64,
    n_clusters: usize,
    seed: u64,
) -> Vec<Point2> {
    assert!(width > 0.0 && height > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let n_clusters = n_clusters.max(1);

    struct Cluster {
        x: f64,
        y: f64,
        sigma: f64,
        cum_weight: f64,
    }
    let mut clusters = Vec::with_capacity(n_clusters);
    let mut cum = 0.0;
    for _ in 0..n_clusters {
        let x = rng.random::<f64>() * width;
        let y = rng.random::<f64>() * height;
        // Exponential size weight: w = -ln(u).
        let w = -rng.random::<f64>().max(f64::MIN_POSITIVE).ln();
        // Tight spread, so big clusters over-fill their ε-cells.
        let sigma = 0.03 + rng.random::<f64>() * 0.1;
        cum += w;
        clusters.push(Cluster {
            x,
            y,
            sigma,
            cum_weight: cum,
        });
    }
    let total_weight = cum;

    let n_background = n / 10;
    let n_clustered = n - n_background;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n_clustered {
        let target = rng.random::<f64>() * total_weight;
        let idx = clusters
            .partition_point(|c| c.cum_weight < target)
            .min(n_clusters - 1);
        let c = &clusters[idx];
        let x = (c.x + sample_normal(&mut rng) * c.sigma).clamp(0.0, width);
        let y = (c.y + sample_normal(&mut rng) * c.sigma).clamp(0.0, height);
        points.push(Point2::new(x, y));
    }
    for _ in 0..n_background {
        points.push(Point2::new(
            rng.random::<f64>() * width,
            rng.random::<f64>() * height,
        ));
    }
    points
}

/// Generate a `D`-dimensional jittered lattice: `n` points at the first
/// `n` sites of a `side^D` integer lattice (row-major, dim 0 fastest),
/// spaced `spacing` apart and perturbed by a Gaussian of width
/// `jitter × spacing`.
///
/// At `jitter = 0` every coordinate is an exact multiple of `spacing`
/// (adversarial ε-boundary territory when ε is a lattice multiple); small
/// jitter gives a quasi-uniform d-dimensional field — the grid-vs-tree
/// contest case for d ∈ {3, 4}, where the grid pays a 3^d stencil.
pub fn lattice_nd<const D: usize>(
    n: usize,
    spacing: f64,
    jitter: f64,
    seed: u64,
) -> Vec<PointN<D>> {
    assert!(D >= 1, "dimension must be at least 1");
    assert!(spacing > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (n as f64).powf(1.0 / D as f64).ceil().max(1.0) as usize;
    (0..n)
        .map(|i| {
            let mut idx = i;
            let coords = std::array::from_fn(|_| {
                let c = (idx % side) as f64 * spacing;
                idx /= side;
                if jitter > 0.0 {
                    c + sample_normal(&mut rng) * jitter * spacing
                } else {
                    c
                }
            });
            PointN::from_coords(coords)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial::GridIndex;

    /// Coefficient of variation of per-cell counts on an eps-grid — the
    /// skewness measure distinguishing SW from SDSS.
    fn cell_count_cv(points: &[Point2], eps: f64) -> f64 {
        let g = GridIndex::build(points, eps);
        let counts: Vec<f64> = g
            .non_empty_cells()
            .iter()
            .map(|&h| g.range_of(h).len() as f64)
            .collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
        var.sqrt() / mean
    }

    #[test]
    fn generators_produce_requested_counts() {
        assert_eq!(sw_class(10_000, 100.0, 50.0, 100, 1).len(), 10_000);
        assert_eq!(sdss_class(10_000, 100.0, 50.0, 1).len(), 10_000);
    }

    #[test]
    fn points_stay_in_domain() {
        for p in sw_class(5_000, 80.0, 40.0, 50, 2) {
            assert!(p.x() >= 0.0 && p.x() <= 80.0 && p.y() >= 0.0 && p.y() <= 40.0);
        }
        for p in sdss_class(5_000, 80.0, 40.0, 2) {
            assert!(p.x() >= 0.0 && p.x() <= 80.0 && p.y() >= 0.0 && p.y() <= 40.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = sw_class(1000, 100.0, 100.0, 30, 7);
        let b = sw_class(1000, 100.0, 100.0, 30, 7);
        assert_eq!(a, b);
        let c = sw_class(1000, 100.0, 100.0, 30, 8);
        assert_ne!(a, c);
        assert_eq!(
            sdss_class(1000, 100.0, 100.0, 7),
            sdss_class(1000, 100.0, 100.0, 7)
        );
    }

    #[test]
    fn sw_is_more_skewed_than_sdss() {
        let n = 50_000;
        let (w, h) = (100.0, 100.0);
        let sw = sw_class(n, w, h, 200, 42);
        let sdss = sdss_class(n, w, h, 42);
        let cv_sw = cell_count_cv(&sw, 1.0);
        let cv_sdss = cell_count_cv(&sdss, 1.0);
        assert!(
            cv_sw > 2.0 * cv_sdss,
            "SW must be much more skewed: cv_sw = {cv_sw:.2}, cv_sdss = {cv_sdss:.2}"
        );
    }

    #[test]
    fn sdss_occupies_more_cells_than_sw() {
        // The uniform SDSS distribution spreads over more non-empty grid
        // cells — the property that hurts the shared-memory kernel in
        // Table II.
        let n = 50_000;
        let sw = sw_class(n, 100.0, 100.0, 200, 3);
        let sdss = sdss_class(n, 100.0, 100.0, 3);
        let g_sw = GridIndex::build(&sw, 0.5);
        let g_sdss = GridIndex::build(&sdss, 0.5);
        assert!(
            g_sdss.stats().non_empty_cells > g_sw.stats().non_empty_cells,
            "sdss {} vs sw {}",
            g_sdss.stats().non_empty_cells,
            g_sw.stats().non_empty_cells
        );
    }

    #[test]
    fn skewed_exp_is_strongly_skewed() {
        let n = 50_000;
        let sdss = sdss_class(n, 100.0, 100.0, 5);
        let skx = skewed_exp_class(n, 100.0, 100.0, 40, 5);
        let cv_sdss = cell_count_cv(&sdss, 1.0);
        let cv_skx = cell_count_cv(&skx, 1.0);
        assert!(
            cv_skx > 5.0 * cv_sdss,
            "exponential cluster sizes must dwarf the uniform family's skew: \
             {cv_skx:.2} vs {cv_sdss:.2}"
        );
    }

    #[test]
    fn skewed_exp_is_deterministic_and_in_domain() {
        let a = skewed_exp_class(3000, 60.0, 30.0, 25, 9);
        assert_eq!(a, skewed_exp_class(3000, 60.0, 30.0, 25, 9));
        assert_eq!(a.len(), 3000);
        for p in &a {
            assert!(p.x() >= 0.0 && p.x() <= 60.0 && p.y() >= 0.0 && p.y() <= 30.0);
        }
    }

    #[test]
    fn lattice_nd_shapes_and_determinism() {
        let l3: Vec<PointN<3>> = lattice_nd(1000, 0.5, 0.1, 4);
        assert_eq!(l3.len(), 1000);
        assert_eq!(l3, lattice_nd::<3>(1000, 0.5, 0.1, 4));
        let l4: Vec<PointN<4>> = lattice_nd(500, 1.0, 0.0, 4);
        assert_eq!(l4.len(), 500);
        // Zero jitter: every coordinate is an exact lattice multiple.
        for p in &l4 {
            for &c in &p.coords {
                assert_eq!(c, c.round());
            }
        }
        // side = ceil(500^(1/4)) = 5; coordinates stay within the lattice.
        for p in &l4 {
            for &c in &p.coords {
                assert!((0.0..=4.0).contains(&c));
            }
        }
    }

    #[test]
    fn normal_sampler_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }
}
