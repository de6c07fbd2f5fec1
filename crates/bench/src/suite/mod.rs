//! **The measurement suite** behind `repro bench|threads|profile|shard|backend`.
//!
//! One workload registry ([`registry`]), one trial runner
//! ([`run::measure`]), one record shape ([`obs::bench::BenchDoc`] rows and
//! [`gate::ledger_record`]), and one gate ([`gate::Gate`], strict under
//! `BENCH_STRICT=1`). The five subcommands are [`PRESETS`]: a workload
//! selection, a thread set, and the checks to run (see [`presets`]).
//!
//! The registry's axes are scenario, data (a named 2-D dataset or a
//! jittered D-dimensional lattice), scale factor, ε, minpts, kernel,
//! ε-search backend, and shard count/mode. Ids are ledger and `--compare`
//! keys and must stay stable across PRs; retire ids rather than
//! repurposing them.

pub mod gate;
pub mod presets;
pub mod run;

use hybrid_dbscan_core::hybrid::KernelChoice;
use hybrid_dbscan_core::{IndexBackend, ShardMode};

/// What a workload clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Data {
    /// A registered 2-D dataset, by name.
    Named(&'static str),
    /// A jittered D-dimensional lattice: `full_size` points at scale 1,
    /// unit spacing, `jitter` of a spacing of Gaussian displacement.
    Lattice {
        d: usize,
        full_size: usize,
        jitter: f64,
        seed: u64,
    },
}

/// How a workload builds its table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Build {
    /// One simulated K20c: the 2-D or the d > 2 front half.
    Device,
    /// ε-halo sharding into `k` shards. `undersized` runs on a device one
    /// byte short of the raw point array, which the unsharded build
    /// provably cannot fit (checked on every trial).
    Sharded {
        k: usize,
        mode: ShardMode,
        undersized: bool,
    },
}

/// What a workload is for: the one tag presets select on and the runner
/// branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// An S1/S2/S3 pipeline row (`bench`, `profile`).
    Pipeline,
    /// The hot-path micro stages instead of the pipeline: grid build per
    /// layout, one launch of each kernel, table ingest (DESIGN.md §11;
    /// `bench`).
    Micro,
    /// Shard scaling at 10× the suite's point counts (`bench`).
    ShardScaling,
    /// The grid vs tree vs auto ε-search ablation (`bench`, `backend`).
    Backend,
    /// The thread-scaling S1 row (`threads`).
    Threads,
    /// Sharded vs unsharded at the suite scale (`shard`).
    ShardSmoke,
}

/// Witness fields every table-building row reports ([`run::Witness`]).
/// Within one workload — across trials, thread counts, and the profiled
/// pass — all of them must agree.
pub const ALL: &[&str] = &[
    "modeled_time_bits",
    "table_fingerprint",
    "clustering_fingerprint",
    "clusters",
    "result_pairs",
    "e_b",
    "batches",
];
/// What sharding must preserve: the answer.
pub const ANSWER: &[&str] = &["table_fingerprint", "clustering_fingerprint"];
/// What the ε-search backend must preserve: the answer and the batch plan.
pub const PLAN: &[&str] = &[
    "table_fingerprint",
    "clustering_fingerprint",
    "result_pairs",
    "e_b",
    "batches",
];

/// One registry entry.
#[derive(Debug, Clone)]
pub struct Workload {
    pub id: String,
    pub role: Role,
    pub scenario: &'static str,
    pub data: Data,
    /// Multiplier on `--scale` (the shard-scaling rows run at 10×).
    pub scale_factor: f64,
    pub eps: f64,
    pub minpts: usize,
    pub kernel: KernelChoice,
    pub backend: IndexBackend,
    pub build: Build,
    /// Equivalence group and the witness fields its rows must share.
    /// Grouped rows (shard and backend) run one trial, no warmup,
    /// whatever `--trials` says: what they measure is modeled, and the
    /// wall time of a 10×-scale build is too costly to repeat. They time
    /// only `build_table` and cluster once, for the fingerprint.
    pub group: Option<(&'static str, &'static [&'static str])>,
}

impl Workload {
    fn new(
        id: impl Into<String>,
        role: Role,
        scenario: &'static str,
        data: Data,
        eps: f64,
    ) -> Workload {
        Workload {
            id: id.into(),
            role,
            scenario,
            data,
            scale_factor: 1.0,
            eps,
            minpts: 4,
            kernel: KernelChoice::Global,
            backend: IndexBackend::Grid,
            build: Build::Device,
            group: None,
        }
    }

    fn sharded(self, k: usize, mode: ShardMode, undersized: bool) -> Workload {
        Workload {
            build: Build::Sharded {
                k,
                mode,
                undersized,
            },
            ..self
        }
    }

    fn in_group(self, group: &'static str, fields: &'static [&'static str]) -> Workload {
        Workload {
            group: Some((group, fields)),
            ..self
        }
    }
}

/// Stable display/JSON name of a kernel variant.
pub fn kernel_name(k: KernelChoice) -> &'static str {
    match k {
        KernelChoice::Global => "global",
        KernelChoice::Shared => "shared",
    }
}

/// The backend-ablation bases: both 2-D density regimes the selector
/// separates (uniform SDSS, skewed SW, strongly skewed SKX), plus the
/// d > 2 lattices where the grid's 3^D stencil over-scans.
const ABLATION: &[(&str, Data, f64)] = &[
    ("backend/sdss1-eps0.2", Data::Named("SDSS1"), 0.2),
    ("backend/sw1-eps0.4", Data::Named("SW1"), 0.4),
    ("backend/skx1-eps1.0", Data::Named("SKX1"), 1.0),
    (
        "backend/lat3-eps3.0",
        Data::Lattice {
            d: 3,
            full_size: 1_000_000,
            jitter: 0.25,
            seed: 0x1a73,
        },
        3.0,
    ),
    (
        "backend/lat4-eps2.0",
        Data::Lattice {
            d: 4,
            full_size: 500_000,
            jitter: 0.25,
            seed: 0x1a74,
        },
        2.0,
    ),
];

/// Every workload the suite knows, in `repro bench` order followed by the
/// rows only other presets select.
pub fn registry() -> Vec<Workload> {
    use Data::Named;
    use Role::Pipeline;
    use ShardMode::{Concurrent, OutOfCore};
    let sw1 = Named("SW1");
    let mut out = vec![
        // S1: the Table II kernel pairing; S2: the low end of the SW4
        // multi-clustering sweep; S3: a high-minpts table-reuse row.
        Workload::new("s1/sw1-eps0.2/global", Pipeline, "S1", sw1, 0.2),
        Workload {
            kernel: KernelChoice::Shared,
            ..Workload::new("s1/sw1-eps0.2/shared", Pipeline, "S1", sw1, 0.2)
        },
        Workload::new("s2/sw4-eps0.1/global", Pipeline, "S2", Named("SW4"), 0.1),
        Workload {
            minpts: 40,
            ..Workload::new(
                "s3/sdss1-eps0.2-minpts40/global",
                Pipeline,
                "S3",
                Named("SDSS1"),
                0.2,
            )
        },
        Workload {
            minpts: 0,
            ..Workload::new("micro/sw1-eps0.2", Role::Micro, "micro", sw1, 0.2)
        },
    ];
    // Shard scaling at 10× the suite's point counts: sharding is only
    // interesting once the dataset presses on one device.
    let tenx = |id: &str| Workload {
        scale_factor: 10.0,
        ..Workload::new(id, Role::ShardScaling, "shard", sw1, 0.2)
            .in_group("shard/sw1-10x-eps0.2", ANSWER)
    };
    out.push(tenx("shard/sw1-10x-eps0.2/k1").sharded(1, Concurrent, false));
    out.push(tenx("shard/sw1-10x-eps0.2/k2-concurrent").sharded(2, Concurrent, false));
    out.push(tenx("shard/sw1-10x-eps0.2/k4-outofcore").sharded(4, OutOfCore, true));
    for &(base, data, eps) in ABLATION {
        for backend in [IndexBackend::Grid, IndexBackend::Tree, IndexBackend::Auto] {
            out.push(Workload {
                backend,
                ..Workload::new(
                    format!("{base}/{}", backend.name()),
                    Role::Backend,
                    "backend",
                    data,
                    eps,
                )
                .in_group(base, PLAN)
            });
        }
    }
    // The thread-scaling S1 row (SW1, ε = 0.2 — the Table II row).
    out.push(Workload::new(
        "threads/sw1-eps0.2",
        Role::Threads,
        "S1",
        sw1,
        0.2,
    ));
    // The shard smoke: the unsharded build against k = 2 in both modes
    // and k = 4 out-of-core, at the suite scale.
    let smoke = |id: &str| {
        Workload::new(id, Role::ShardSmoke, "shard", sw1, 0.2).in_group("shard/smoke", ANSWER)
    };
    out.push(smoke("shard/smoke/unsharded"));
    out.push(smoke("shard/smoke/k2-concurrent").sharded(2, Concurrent, false));
    out.push(smoke("shard/smoke/k2-outofcore").sharded(2, OutOfCore, false));
    out.push(smoke("shard/smoke/k4-outofcore").sharded(4, OutOfCore, false));
    out
}

/// Which thread counts a preset runs each workload at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threads {
    /// The process pool as configured (`RAYON_NUM_THREADS` or all cores).
    Current,
    /// `{1, 2, 4, current}`, sorted and deduplicated.
    Scaling,
    /// Exactly these counts.
    Fixed(&'static [usize]),
}

impl Threads {
    pub fn counts(self) -> Vec<usize> {
        let current = rayon::current_num_threads();
        let mut ts = match self {
            Threads::Current => vec![current],
            Threads::Scaling => vec![1, 2, 4, current],
            Threads::Fixed(ts) => ts.to_vec(),
        };
        ts.sort_unstable();
        ts.dedup();
        ts
    }
}

/// A subcommand: a workload selection, a thread set, and the checks.
pub struct Preset {
    /// Subcommand name and ledger `command`.
    pub command: &'static str,
    pub title: &'static str,
    pub select: fn(&Workload) -> bool,
    pub threads: Threads,
    /// Row ids are `{id_prefix}{workload id}`, plus `/t{N}` when the
    /// preset [sweeps](Self::sweeps) thread counts.
    pub id_prefix: &'static str,
    /// The artifact this preset writes under `--csv DIR` (or the cwd); a
    /// preset with an artifact also appends one run-ledger record.
    pub artifact: Option<&'static str>,
    /// Columns of the printed row table (stages, metrics, or fields).
    pub columns: &'static [&'static str],
}

impl Preset {
    /// A preset that sweeps thread counts also explains its scaling: one
    /// profiled pass per (workload, thread count), and speedups over the
    /// smallest count.
    pub fn sweeps(&self) -> bool {
        self.threads != Threads::Current
    }

    /// The row a sweeping preset diagnoses, and whose profiled pass
    /// `--trace`/`--metrics` export: the first S1 workload at the widest
    /// pool, the run a scaling investigation reads first.
    pub fn diagnosed_row(&self, workloads: &[Workload]) -> Option<String> {
        let widest = *self.threads.counts().last()?;
        let w = workloads.iter().find(|w| w.scenario == "S1")?;
        self.sweeps().then(|| self.row_id(w, widest))
    }

    pub fn row_id(&self, w: &Workload, threads: usize) -> String {
        if self.sweeps() {
            format!("{}{}/t{threads}", self.id_prefix, w.id)
        } else {
            format!("{}{}", self.id_prefix, w.id)
        }
    }

    pub fn workloads(&self) -> Vec<Workload> {
        registry()
            .into_iter()
            .filter(|w| (self.select)(w))
            .collect()
    }
}

pub const PRESETS: &[Preset] = &[
    Preset {
        command: "bench",
        title: "Benchmark suite: S1/S2/S3, micro, shard-scaling and backend rows",
        select: |w| !matches!(w.role, Role::Threads | Role::ShardSmoke),
        threads: Threads::Current,
        id_prefix: "",
        artifact: Some("BENCH_suite.json"),
        columns: &[
            "build_table",
            "dbscan",
            "disjoint_set",
            "modeled",
            "batches",
            "clusters",
        ],
    },
    Preset {
        command: "threads",
        title: "Thread scaling (S1): rayon pool sweep over {1, 2, 4, all}",
        select: |w| w.role == Role::Threads,
        threads: Threads::Scaling,
        id_prefix: "",
        artifact: Some("BENCH_threads.json"),
        columns: &[
            "build_table",
            "speedup_build_table",
            "serial_fraction_build",
            "worker_util_pct",
            "dbscan",
            "speedup_dbscan",
            "disjoint_set",
            "speedup_disjoint_set",
            "modeled",
        ],
    },
    Preset {
        command: "profile",
        title: "Scaling profile: suite workloads under the pool profiler",
        select: |w| w.role == Role::Pipeline,
        threads: Threads::Fixed(&[1, 2, 4, 8]),
        id_prefix: "profile/",
        artifact: Some("PROFILE.json"),
        columns: &[
            "build_table",
            "serial_fraction_build",
            "worker_util_pct",
            "pool_steals",
            "modeled",
        ],
    },
    Preset {
        command: "shard",
        title: "Shard smoke: sharded vs unsharded fingerprints",
        select: |w| w.role == Role::ShardSmoke,
        threads: Threads::Current,
        id_prefix: "",
        artifact: Some("SHARD_fingerprints.json"),
        columns: &[
            "modeled",
            "peak_bytes",
            "halo_points",
            "table_fingerprint",
            "clustering_fingerprint",
        ],
    },
    Preset {
        command: "backend",
        title: "Backend ablation: grid vs tree vs auto ε-search",
        select: |w| w.role == Role::Backend,
        threads: Threads::Current,
        id_prefix: "",
        artifact: None,
        columns: &[
            "kernel",
            "modeled",
            "cell_cv",
            "mean_occupancy",
            "winner_is_tree",
            "auto_matched_winner",
        ],
    },
];

/// The preset named `command`.
pub fn preset(command: &str) -> Option<&'static Preset> {
    PRESETS.iter().find(|p| p.command == command)
}
