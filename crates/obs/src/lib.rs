//! # obs — structured tracing and metrics for the Hybrid-DBSCAN pipeline
//!
//! The pipeline spans two clocks: the host's wall clock (index build, host
//! DBSCAN, pipeline stages) and the simulated device clock (`gpu-sim`
//! engine schedules). This crate records both into one [`Recorder`] and
//! exports them as
//!
//! * a **Chrome trace-event JSON** file ([`chrome`]) — load it in
//!   `chrome://tracing` or <https://ui.perfetto.dev> to see H2D / Compute /
//!   D2H / Host engine lanes and the host call tree on named tracks;
//! * a **metrics JSON** document ([`metrics`]) — counters, gauges, and
//!   log-scale histograms (kernel occupancy, memory throughput, batch
//!   estimation accuracy);
//! * a **plain-text run summary** ([`report`]).
//!
//! Everything is emitted by hand-written JSON ([`json`]) — the build
//! environment has no crates.io access, so no serde_json (see DESIGN.md,
//! "Offline dependency policy").
//!
//! Instrumentation is opt-in and cheap when absent: producers hold an
//! `Option<Arc<Recorder>>` and skip all recording when it is `None`.

pub mod analyze;
pub mod bench;
pub mod chrome;
pub mod dashboard;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod provenance;
pub mod report;
pub mod span;
pub mod stats;
pub mod trend;

pub use metrics::{Metrics, MetricsSnapshot};
pub use span::{SpanGuard, SpanRecord};

use gpu_sim::stream::Schedule;
use gpu_sim::timeline::Engine;
use gpu_sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One operation on a simulated device engine, placed on the device
/// timeline (microseconds of simulated time since schedule start).
#[derive(Debug, Clone)]
pub struct DeviceOp {
    /// Simulated device index: 0 for single-device runs; sharded runs
    /// record each shard's pipeline under its own device so the Chrome
    /// trace shows one lane group per shard.
    pub device: u32,
    pub engine: Engine,
    pub label: String,
    pub chain: usize,
    pub stream: usize,
    pub start_us: f64,
    pub dur_us: f64,
}

/// One pool task execution re-based onto the recorder's wall epoch.
#[derive(Debug, Clone)]
pub struct PoolTaskEvent {
    /// Region label (`"par_iter"`, `"sort_merge"`, `"join"`, `"scope"`).
    pub label: &'static str,
    /// Wall microseconds since the **recorder** epoch.
    pub start_us: f64,
    pub dur_us: f64,
    pub stolen: bool,
    pub queue_us: f64,
}

/// One worker thread's timeline and counters from a pool profile.
#[derive(Debug, Clone, Default)]
pub struct PoolWorkerLane {
    pub name: String,
    pub busy_us: f64,
    pub park_us: f64,
    pub queue_wait_us: f64,
    pub steals: u64,
    pub local_pops: u64,
    pub parks: u64,
    pub tasks: u64,
    /// Sorted by `start_us`; lanes never self-overlap (one thread runs
    /// chunks sequentially).
    pub events: Vec<PoolTaskEvent>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    device_ops: Vec<DeviceOp>,
    /// Dense registry of OS threads that recorded spans; index = tid.
    threads: Vec<(ThreadId, String)>,
    /// Worker lanes ingested from a pool profile (one per thread that
    /// executed or waited for pool work during the profiled window).
    pool_lanes: Vec<PoolWorkerLane>,
    /// Length of the pool profiling session, wall microseconds.
    pool_span_us: f64,
}

/// Thread-safe sink for spans, device-timeline operations, and metrics.
///
/// Clone-free sharing: wrap in `Arc` and hand it to whoever instruments.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    inner: Mutex<Inner>,
    metrics: Metrics,
}

impl Recorder {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            inner: Mutex::new(Inner::default()),
            metrics: Metrics::new(),
        }
    }

    /// Open a wall-clock span; it closes (and is recorded) on drop.
    pub fn span(&self, name: impl Into<String>, cat: &'static str) -> SpanGuard<'_> {
        SpanGuard::open(self, name.into(), cat)
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Place one operation on a device engine lane (device 0). `start` is
    /// simulated time since the start of the device timeline.
    pub fn record_device_op(
        &self,
        engine: Engine,
        label: impl Into<String>,
        chain: usize,
        stream: usize,
        start: SimTime,
        dur: SimDuration,
    ) {
        self.record_device_op_on(0, engine, label, chain, stream, start, dur);
    }

    /// [`Self::record_device_op`] on an explicit device index (sharded
    /// runs place each shard on its own device lane group).
    #[allow(clippy::too_many_arguments)]
    pub fn record_device_op_on(
        &self,
        device: u32,
        engine: Engine,
        label: impl Into<String>,
        chain: usize,
        stream: usize,
        start: SimTime,
        dur: SimDuration,
    ) {
        let op = DeviceOp {
            device,
            engine,
            label: label.into(),
            chain,
            stream,
            start_us: start.as_secs() * 1e6,
            dur_us: dur.as_secs() * 1e6,
        };
        self.inner.lock().unwrap().device_ops.push(op);
    }

    /// Copy every operation of a [`Schedule`] onto the device track,
    /// shifted by `offset` (simulated time elapsed before the schedule
    /// began — uploads, estimation kernel, pinned allocation). Labels are
    /// the same `OpSpec` labels `render_gantt` prints, so the ASCII Gantt
    /// and the exported trace agree.
    pub fn record_schedule(&self, schedule: &Schedule, offset: SimDuration) {
        self.record_schedule_on(0, schedule, offset);
    }

    /// [`Self::record_schedule`] on an explicit device index.
    pub fn record_schedule_on(&self, device: u32, schedule: &Schedule, offset: SimDuration) {
        let base = SimTime::ZERO + offset;
        let mut inner = self.inner.lock().unwrap();
        for op in &schedule.ops {
            inner.device_ops.push(DeviceOp {
                device,
                engine: op.engine,
                label: op.label.to_string(),
                chain: op.chain,
                stream: op.stream,
                start_us: (base + (op.start - SimTime::ZERO)).as_secs() * 1e6,
                dur_us: (op.end - op.start).as_secs() * 1e6,
            });
        }
    }

    /// Ingest a finished pool profiling session ([`rayon::profile`]):
    /// re-bases every event from the session epoch onto this recorder's
    /// epoch (so pool lanes align with host spans in the Chrome trace)
    /// and folds the counters into the metrics registry
    /// (`pool.steals`, `pool.local_pops`, `pool.parks`, `pool.workers`).
    pub fn record_pool_profile(&self, profile: &rayon::profile::PoolProfile) {
        let shift = self.wall_us_at(profile.epoch);
        let lanes: Vec<PoolWorkerLane> = profile
            .workers
            .iter()
            .map(|w| PoolWorkerLane {
                name: w.name.clone(),
                busy_us: w.busy_us,
                park_us: w.park_us,
                queue_wait_us: w.queue_wait_us,
                steals: w.steals,
                local_pops: w.local_pops,
                parks: w.parks,
                tasks: w.tasks,
                events: w
                    .events
                    .iter()
                    .map(|e| PoolTaskEvent {
                        label: e.label,
                        start_us: (e.start_us + shift).max(0.0),
                        dur_us: e.dur_us,
                        stolen: e.stolen,
                        queue_us: e.queue_us,
                    })
                    .collect(),
            })
            .collect();
        let m = self.metrics();
        m.counter_add("pool.steals", profile.total_steals());
        m.counter_add(
            "pool.local_pops",
            lanes.iter().map(|l| l.local_pops).sum::<u64>(),
        );
        m.counter_add("pool.parks", lanes.iter().map(|l| l.parks).sum::<u64>());
        m.gauge_set("pool.workers", lanes.len() as f64);
        self.record_pool_lanes(profile.span_us, lanes);
    }

    /// Directly attach pool worker lanes (the thin layer under
    /// [`record_pool_profile`][Self::record_pool_profile]; also lets
    /// tests construct lanes without running the real pool).
    pub fn record_pool_lanes(&self, span_us: f64, lanes: Vec<PoolWorkerLane>) {
        let mut inner = self.inner.lock().unwrap();
        inner.pool_span_us = inner.pool_span_us.max(span_us);
        inner.pool_lanes.extend(lanes);
    }

    /// Snapshot of the ingested pool worker lanes.
    pub fn pool_lanes(&self) -> Vec<PoolWorkerLane> {
        self.inner.lock().unwrap().pool_lanes.clone()
    }

    /// Wall length of the ingested pool profiling session (µs); 0 when
    /// no profile was recorded.
    pub fn pool_span_us(&self) -> f64 {
        self.inner.lock().unwrap().pool_span_us
    }

    /// Snapshot of all finished spans, in a **stable order**: sorted by
    /// wall start time, ties broken by span id (allocation order).
    ///
    /// Spans recorded from rayon pool workers land in the internal vec in
    /// whatever order their guards drop, which varies run to run; sorting
    /// on export makes `--trace` output reproducible across runs with
    /// identical timings and well-ordered always.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.inner.lock().unwrap().spans.clone();
        spans.sort_by(|a, b| {
            a.wall_start_us
                .total_cmp(&b.wall_start_us)
                .then(a.id.cmp(&b.id))
        });
        spans
    }

    /// Snapshot of all recorded device operations.
    pub fn device_ops(&self) -> Vec<DeviceOp> {
        self.inner.lock().unwrap().device_ops.clone()
    }

    /// Host thread names, indexed by the `tid` stored in spans.
    pub fn thread_names(&self) -> Vec<String> {
        self.inner
            .lock()
            .unwrap()
            .threads
            .iter()
            .map(|(_, n)| n.clone())
            .collect()
    }

    /// Export the full trace as Chrome trace-event JSON.
    pub fn chrome_trace_json(&self) -> String {
        chrome::export(self)
    }

    /// Export the metrics registry as JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics.snapshot().to_json()
    }

    /// Render the plain-text run summary.
    pub fn text_report(&self) -> String {
        report::render(self)
    }

    pub(crate) fn alloc_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn wall_us_at(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub(crate) fn push_span(&self, record: SpanRecord) {
        self.inner.lock().unwrap().spans.push(record);
    }

    /// Dense per-recorder index for the calling OS thread (registers the
    /// thread on first use).
    pub(crate) fn tid_for_current_thread(&self) -> usize {
        let current = std::thread::current();
        let id = current.id();
        let mut inner = self.inner.lock().unwrap();
        if let Some(pos) = inner.threads.iter().position(|(t, _)| *t == id) {
            return pos;
        }
        let name = current
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{}", inner.threads.len()));
        inner.threads.push((id, name));
        inner.threads.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_schedule_applies_offset_and_labels() {
        use gpu_sim::stream::{schedule_chains, OpSpec};
        use gpu_sim::timeline::Timeline;

        let mut t = Timeline::new(1);
        let chains = vec![vec![
            OpSpec::new(Engine::Compute, SimDuration::from_secs(1.0), "kernel"),
            OpSpec::new(Engine::D2H, SimDuration::from_secs(0.5), "d2h"),
        ]];
        let schedule = schedule_chains(&mut t, &chains, 3);

        let rec = Recorder::new();
        rec.record_schedule(&schedule, SimDuration::from_secs(2.0));
        let ops = rec.device_ops();
        assert_eq!(ops.len(), 2);
        let kernel = ops.iter().find(|o| o.label == "kernel").unwrap();
        assert_eq!(kernel.start_us, 2e6);
        assert_eq!(kernel.dur_us, 1e6);
        let d2h = ops.iter().find(|o| o.label == "d2h").unwrap();
        assert_eq!(d2h.start_us, 3e6);
        assert_eq!(d2h.engine, Engine::D2H);
    }

    #[test]
    fn device_ops_accumulate_across_calls() {
        let rec = Recorder::new();
        rec.record_device_op(
            Engine::H2D,
            "upload",
            0,
            0,
            SimTime::ZERO,
            SimDuration::from_secs(0.1),
        );
        rec.record_device_op(
            Engine::Compute,
            "estimate",
            0,
            0,
            SimTime::from_secs(0.1),
            SimDuration::from_secs(0.2),
        );
        assert_eq!(rec.device_ops().len(), 2);
    }

    #[test]
    fn metrics_reachable_through_recorder() {
        let rec = Recorder::new();
        rec.metrics().counter_add("x", 3);
        assert!(rec.metrics_json().contains(r#""x":3"#));
    }
}
