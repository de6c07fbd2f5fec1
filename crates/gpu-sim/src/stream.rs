//! Stream scheduling: composing per-batch operation chains into an
//! overlapped device schedule.
//!
//! The paper assigns each batch to one of **3 CUDA streams**; within a
//! stream the batch's operations are ordered (kernel → device sort → D2H
//! copy → host table construction), and across streams operations overlap
//! whenever they occupy different engines. [`schedule_chains`] reproduces
//! that behaviour as a deterministic greedy list scheduler over the
//! [`Timeline`] engines: chain *l* runs on stream *l mod n*, streams
//! serialize their own chains, and among ready operations the earliest
//! possible start wins (FIFO issue order breaks ties).
//!
//! The *functional* work of each batch is executed eagerly by the caller;
//! this module only answers "how long would the device have taken",
//! keeping reported times deterministic regardless of host thread
//! scheduling.

use crate::time::{SimDuration, SimTime};
use crate::timeline::{Engine, Timeline};

/// One operation in a chain: which engine it needs and for how long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpec {
    pub engine: Engine,
    pub duration: SimDuration,
    /// Human-readable label for schedule dumps.
    pub label: &'static str,
}

impl OpSpec {
    pub fn new(engine: Engine, duration: SimDuration, label: &'static str) -> Self {
        OpSpec {
            engine,
            duration,
            label,
        }
    }
}

/// A scheduled operation instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    pub chain: usize,
    pub stream: usize,
    pub op_index: usize,
    pub engine: Engine,
    pub start: SimTime,
    pub end: SimTime,
    pub label: &'static str,
}

/// The result of scheduling a set of chains over `n_streams` streams.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub ops: Vec<ScheduledOp>,
    pub makespan: SimDuration,
    pub n_streams: usize,
}

impl Schedule {
    /// Sum of all operation durations — what a fully serialized execution
    /// would cost. `makespan / serial_time` measures achieved overlap.
    pub fn serial_time(&self) -> SimDuration {
        self.ops.iter().map(|o| o.end - o.start).sum()
    }

    /// The distinct op labels appearing in this schedule, in first-seen
    /// order. These are exactly the names a trace exporter should emit for
    /// the schedule's events, so the ASCII Gantt legend and an exported
    /// Chrome trace agree.
    pub fn op_labels(&self) -> Vec<&'static str> {
        let mut labels: Vec<&'static str> = Vec::new();
        for op in &self.ops {
            if !labels.contains(&op.label) {
                labels.push(op.label);
            }
        }
        labels
    }

    /// The critical path through the schedule: start from the op that
    /// finishes last and walk backwards, each step picking the
    /// latest-finishing unvisited op that ends at or before the current
    /// op's start and shares its chain, stream, or engine — the three
    /// constraints the scheduler can serialize on. Returned in execution
    /// order. The path's total duration is the shortest the makespan
    /// could be without restructuring those dependencies, which is what
    /// a throughput diagnosis needs: ops *off* the path are free to grow
    /// into their slack.
    pub fn critical_path(&self) -> Vec<ScheduledOp> {
        if self.ops.is_empty() {
            return Vec::new();
        }
        let mut cur = 0usize;
        for (i, o) in self.ops.iter().enumerate() {
            if o.end > self.ops[cur].end {
                cur = i;
            }
        }
        let mut visited = vec![false; self.ops.len()];
        visited[cur] = true;
        let mut path = vec![cur];
        loop {
            let c = self.ops[cur];
            let mut best: Option<usize> = None;
            for (i, o) in self.ops.iter().enumerate() {
                if visited[i] || o.end > c.start {
                    continue;
                }
                let linked = o.chain == c.chain || o.stream == c.stream || o.engine == c.engine;
                if linked && best.is_none_or(|b| o.end > self.ops[b].end) {
                    best = Some(i);
                }
            }
            match best {
                Some(i) => {
                    visited[i] = true;
                    path.push(i);
                    cur = i;
                }
                None => break,
            }
        }
        path.reverse();
        path.iter().map(|&i| self.ops[i]).collect()
    }

    /// Render the schedule as an ASCII Gantt chart, one row per engine,
    /// `width` columns spanning the makespan. Each op is drawn with its
    /// chain number (mod 10); idle time is `.`.
    ///
    /// Degenerate inputs render degenerate-but-valid output rather than
    /// panicking: `width` 0 or 1 collapses every row to at most one
    /// column, an empty schedule prints only the header, and a
    /// zero-makespan schedule draws every op at column 0.
    ///
    /// This is the picture behind the batching scheme's claim: with 3
    /// streams, the D2H copies and host ingestion of batch `l` hide under
    /// the kernel of batch `l+1`.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(1);
        let span = self.makespan.as_secs();
        // Collect engines in stable order.
        let mut engines: Vec<Engine> = Vec::new();
        for op in &self.ops {
            if !engines.contains(&op.engine) {
                engines.push(op.engine);
            }
        }
        engines.sort_by_key(|e| match e {
            Engine::H2D => (0, 0),
            Engine::Compute => (1, 0),
            Engine::D2H => (2, 0),
            Engine::Host(l) => (3, *l),
        });

        let mut out = String::new();
        out.push_str(&format!(
            "schedule: {} ops, {} streams, makespan {:.3} ms\n",
            self.ops.len(),
            self.n_streams,
            self.makespan.as_millis()
        ));
        if !self.ops.is_empty() {
            out.push_str("ops: ");
            out.push_str(&self.op_labels().join(", "));
            out.push('\n');
        }
        // Map a simulated time to a column; with a zero-extent schedule
        // everything lands on column 0.
        let col = |t: f64| -> usize {
            if span <= 0.0 {
                0
            } else {
                ((t / span) * width as f64).min(width as f64) as usize
            }
        };
        for engine in engines {
            let mut row = vec!['.'; width];
            for op in self.ops.iter().filter(|o| o.engine == engine) {
                let a = col(op.start.as_secs());
                let b = if span <= 0.0 {
                    1
                } else {
                    (((op.end - SimTime::ZERO).as_secs() / span) * width as f64).ceil() as usize
                };
                let glyph = char::from_digit((op.chain % 10) as u32, 10).unwrap_or('#');
                for c in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *c = glyph;
                }
            }
            let label = match engine {
                Engine::H2D => "H2D    ".to_string(),
                Engine::Compute => "Compute".to_string(),
                Engine::D2H => "D2H    ".to_string(),
                Engine::Host(l) => format!("Host {l} "),
            };
            out.push_str(&label);
            out.push_str(" |");
            out.extend(row);
            out.push_str("|\n");
        }
        out
    }
}

/// Schedule `chains` (one operation list per batch) over `n_streams`
/// streams and the engines of `timeline`.
///
/// Deterministic greedy list scheduling: at each step, among the next
/// unscheduled operation of every chain whose predecessors are done and
/// whose stream is free, pick the one with the earliest achievable start
/// time (ties broken by chain index).
pub fn schedule_chains(
    timeline: &mut Timeline,
    chains: &[Vec<OpSpec>],
    n_streams: usize,
) -> Schedule {
    let n_streams = n_streams.max(1);
    // Per-chain: next op index and ready time (end of previous op).
    let mut next_op = vec![0usize; chains.len()];
    let mut chain_ready = vec![SimTime::ZERO; chains.len()];
    // Per-stream: time the stream's previous chain finished. A stream
    // executes its chains in issue (chain-index) order.
    let mut stream_free = vec![SimTime::ZERO; n_streams];
    // The next chain each stream may start (enforces per-stream FIFO).
    let mut stream_head: Vec<usize> = (0..n_streams).collect();

    let mut ops = Vec::new();
    let total_ops: usize = chains.iter().map(|c| c.len()).sum();

    while ops.len() < total_ops {
        // Skip over empty chains so their streams stay schedulable.
        for s in 0..n_streams {
            while stream_head[s] < chains.len() && chains[stream_head[s]].is_empty() {
                stream_head[s] += n_streams;
            }
        }
        // Candidate ops: for each stream, the head chain's next op.
        let mut best: Option<(SimTime, usize)> = None; // (start, chain)
        for s in 0..n_streams {
            let chain = stream_head[s];
            if chain >= chains.len() {
                continue;
            }
            let k = next_op[chain];
            if k >= chains[chain].len() {
                continue;
            }
            let ready = chain_ready[chain].max(stream_free[s]);
            let start = timeline.earliest_start(chains[chain][k].engine, ready);
            let better = match best {
                None => true,
                Some((bs, bc)) => start < bs || (start == bs && chain < bc),
            };
            if better {
                best = Some((start, chain));
            }
        }

        let (_, chain) = best.expect("at least one schedulable op must exist");
        let stream = chain % n_streams;
        let k = next_op[chain];
        let spec = chains[chain][k];
        let ready = chain_ready[chain].max(stream_free[stream]);
        let (start, end) = timeline.schedule(spec.engine, ready, spec.duration);
        ops.push(ScheduledOp {
            chain,
            stream,
            op_index: k,
            engine: spec.engine,
            start,
            end,
            label: spec.label,
        });
        next_op[chain] += 1;
        chain_ready[chain] = end;
        if next_op[chain] == chains[chain].len() {
            // Chain complete: advance the stream to its next chain.
            stream_free[stream] = end;
            stream_head[stream] = chain + n_streams;
        }
    }

    Schedule {
        ops,
        makespan: timeline.makespan(),
        n_streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn batch_chain(kernel: f64, sort: f64, d2h: f64, host: f64) -> Vec<OpSpec> {
        vec![
            OpSpec::new(Engine::Compute, secs(kernel), "kernel"),
            OpSpec::new(Engine::Compute, secs(sort), "sort"),
            OpSpec::new(Engine::D2H, secs(d2h), "d2h"),
            OpSpec::new(Engine::Host(0), secs(host), "construct"),
        ]
    }

    #[test]
    fn single_chain_serializes_in_order() {
        let mut t = Timeline::new(3);
        let s = schedule_chains(&mut t, &[batch_chain(1.0, 0.5, 2.0, 1.0)], 3);
        assert_eq!(s.ops.len(), 4);
        for w in s.ops.windows(2) {
            assert!(w[1].start >= w[0].end, "chain order must hold");
        }
        assert_eq!(s.makespan.as_secs(), 4.5);
    }

    #[test]
    fn copies_overlap_compute_across_streams() {
        // Two batches: batch 1's kernel should run while batch 0's result
        // transfers.
        let mut t = Timeline::new(3);
        let chains = vec![
            batch_chain(1.0, 0.0, 1.0, 0.0),
            batch_chain(1.0, 0.0, 1.0, 0.0),
        ];
        let s = schedule_chains(&mut t, &chains, 3);
        // Serialized would be 4.0; overlap brings it to 3.0.
        assert!(
            s.makespan.as_secs() < 4.0 - 1e-9,
            "expected copy/compute overlap, got {}",
            s.makespan.as_secs()
        );
        assert_eq!(s.makespan.as_secs(), 3.0);
    }

    #[test]
    fn compute_engine_admits_one_kernel_at_a_time() {
        let mut t = Timeline::new(3);
        let chains = vec![batch_chain(2.0, 0.0, 0.0, 0.0); 3];
        let s = schedule_chains(&mut t, &chains, 3);
        // Three 2-second kernels on one compute engine: 6 seconds.
        assert_eq!(s.makespan.as_secs(), 6.0);
    }

    #[test]
    fn one_stream_disables_overlap() {
        let chains = vec![
            batch_chain(1.0, 0.0, 1.0, 0.0),
            batch_chain(1.0, 0.0, 1.0, 0.0),
        ];
        let mut t1 = Timeline::new(3);
        let serial = schedule_chains(&mut t1, &chains, 1);
        let mut t3 = Timeline::new(3);
        let overlapped = schedule_chains(&mut t3, &chains.clone(), 3);
        assert_eq!(
            serial.makespan.as_secs(),
            4.0,
            "one stream fully serializes"
        );
        assert!(overlapped.makespan < serial.makespan);
    }

    #[test]
    fn streams_round_robin_chains() {
        let chains = vec![batch_chain(1.0, 0.0, 0.0, 0.0); 5];
        let mut t = Timeline::new(3);
        let s = schedule_chains(&mut t, &chains, 3);
        for op in &s.ops {
            assert_eq!(op.stream, op.chain % 3);
        }
    }

    #[test]
    fn serial_time_sums_ops() {
        let mut t = Timeline::new(3);
        let chains = vec![batch_chain(1.0, 0.5, 1.0, 0.5)];
        let s = schedule_chains(&mut t, &chains, 3);
        assert_eq!(s.serial_time().as_secs(), 3.0);
    }

    #[test]
    fn host_lanes_parallelize_table_construction() {
        // Host-heavy chains: with 3 host lanes the construct steps overlap.
        let chains: Vec<_> = (0..3)
            .map(|i| {
                vec![
                    OpSpec::new(Engine::Compute, secs(0.1), "kernel"),
                    OpSpec::new(Engine::Host(i), secs(2.0), "construct"),
                ]
            })
            .collect();
        let mut t = Timeline::new(3);
        let s = schedule_chains(&mut t, &chains, 3);
        assert!(
            s.makespan.as_secs() < 3.0,
            "constructs must overlap across host lanes: {}",
            s.makespan.as_secs()
        );
    }

    #[test]
    fn gantt_renders_every_engine_row() {
        let mut t = Timeline::new(3);
        let chains = vec![batch_chain(1.0, 0.2, 1.0, 0.5); 3];
        let s = schedule_chains(&mut t, &chains, 3);
        let g = s.render_gantt(60);
        assert!(g.contains("Compute"), "{g}");
        assert!(g.contains("D2H"), "{g}");
        assert!(g.contains("Host 0"), "{g}");
        // Chain digits appear.
        assert!(g.contains('0') && g.contains('1') && g.contains('2'), "{g}");
    }

    #[test]
    fn gantt_empty_schedule() {
        let mut t = Timeline::new(1);
        let s = schedule_chains(&mut t, &[], 3);
        let g = s.render_gantt(40);
        assert!(g.contains("0 ops"));
        // No op legend and no engine rows for an empty schedule.
        assert!(!g.contains("ops: "), "{g}");
        assert_eq!(g.lines().count(), 1, "{g}");
    }

    #[test]
    fn gantt_degenerate_widths_do_not_panic() {
        let mut t = Timeline::new(3);
        let chains = vec![batch_chain(1.0, 0.2, 1.0, 0.5); 2];
        let s = schedule_chains(&mut t, &chains, 3);
        for width in [0, 1, 2] {
            let g = s.render_gantt(width);
            assert!(g.contains("Compute"), "width={width}: {g}");
            // Every row is exactly max(width, 1) columns wide.
            let expect = width.max(1);
            for line in g.lines().filter(|l| l.contains('|')) {
                let cols = line.split('|').nth(1).unwrap().chars().count();
                assert_eq!(cols, expect, "width={width}: {g}");
            }
        }
    }

    #[test]
    fn gantt_zero_duration_schedule() {
        // All-zero durations: makespan 0, every op collapses to column 0.
        let mut t = Timeline::new(1);
        let chains = vec![vec![
            OpSpec::new(Engine::Compute, secs(0.0), "kernel"),
            OpSpec::new(Engine::D2H, secs(0.0), "d2h"),
        ]];
        let s = schedule_chains(&mut t, &chains, 3);
        assert_eq!(s.makespan.as_secs(), 0.0);
        let g = s.render_gantt(20);
        assert!(g.contains("Compute"), "{g}");
        assert!(g.contains('0'), "ops must still be drawn: {g}");
    }

    #[test]
    fn gantt_legend_lists_op_labels() {
        let mut t = Timeline::new(3);
        let chains = vec![batch_chain(1.0, 0.2, 1.0, 0.5)];
        let s = schedule_chains(&mut t, &chains, 3);
        assert_eq!(s.op_labels(), vec!["kernel", "sort", "d2h", "construct"]);
        let g = s.render_gantt(40);
        assert!(g.contains("ops: kernel, sort, d2h, construct"), "{g}");
    }

    #[test]
    fn critical_path_spans_single_chain() {
        let mut t = Timeline::new(3);
        let s = schedule_chains(&mut t, &[batch_chain(1.0, 0.5, 2.0, 1.0)], 3);
        let path = s.critical_path();
        // One chain: the path is the whole chain, in order.
        let labels: Vec<&str> = path.iter().map(|o| o.label).collect();
        assert_eq!(labels, vec!["kernel", "sort", "d2h", "construct"]);
        let total: SimDuration = path.iter().map(|o| o.end - o.start).sum();
        assert_eq!(total.as_secs(), s.makespan.as_secs());
    }

    #[test]
    fn critical_path_crosses_streams_through_shared_engine() {
        // Compute-bound chains on different streams: the path must chain
        // through the shared Compute engine, ending at the last kernel.
        let mut t = Timeline::new(3);
        let chains = vec![batch_chain(2.0, 0.0, 0.0, 0.0); 3];
        let s = schedule_chains(&mut t, &chains, 3);
        let path = s.critical_path();
        let total: SimDuration = path.iter().map(|o| o.end - o.start).sum();
        assert_eq!(total.as_secs(), 6.0, "{path:?}");
        for w in path.windows(2) {
            assert!(w[1].start >= w[0].end);
        }
    }

    #[test]
    fn critical_path_of_empty_schedule_is_empty() {
        let mut t = Timeline::new(1);
        let s = schedule_chains(&mut t, &[], 3);
        assert!(s.critical_path().is_empty());
    }

    #[test]
    fn empty_chain_list() {
        let mut t = Timeline::new(1);
        let s = schedule_chains(&mut t, &[], 3);
        assert!(s.ops.is_empty());
        assert_eq!(s.makespan.as_secs(), 0.0);
    }
}
