//! The simulation half of a workload: one seeded traffic stream driven
//! through the five levels, each scoreboarded by its own
//! `TransactionMonitor`.
//!
//! Stimulus is generated a chunk at a time outside the timed slices:
//! 64 lane streams of `chunk_cycles` cycles, lane 0 doubling as the
//! stream of the four scalar levels. Every level then runs the same
//! chunk as one timed slice, in an order that rotates per chunk, so
//! each level's samples spread over the whole run and a slow phase of
//! the host hits all levels alike.

use crate::harness::{Checks, Metrics, LEVELS};
use crate::trace::{Agg, Tracer, SAMPLE_EVERY};
use la1_core::asm_model::LaAsmModel;
use la1_core::cycle_model::{BatchLaneModel, CycleModel, CycleObserver};
use la1_core::harness::attach_la1_ovl;
use la1_core::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver};
use la1_core::sc_model::LaSystemC;
use la1_core::spec::{BankOp, LaConfig};
use la1_core::stimulus::traffic::PacketStream;
use la1_core::stimulus::{stream_seed, Agent, TransactionMonitor};
use la1_core::workloads::{RandomMix, Workload};
use la1_cover::{CoverageCollector, CoverageModel};
use la1_ovl::OvlBench;
use la1_rtl::{SettleMode, LANES};
use std::time::{Duration, Instant};

/// The traffic a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Read-dominated NPU lookups: Zipf flows, bursty arrivals, about
    /// 5 % table updates.
    Lookup,
    /// Write-dominated control-plane updates: full-word writes on 90 %
    /// of cycles, reads on 10 %.
    TableUpdate,
}

impl Traffic {
    /// A protocol-legal generator for `cfg` seeded with `seed`.
    pub fn generator(self, cfg: &LaConfig, seed: u64) -> Box<dyn Workload> {
        match self {
            Traffic::Lookup => Box::new(Agent::new(cfg, PacketStream::new(cfg, seed, 256, 1.1))),
            Traffic::TableUpdate => {
                Box::new(Agent::new(cfg, RandomMix::full_word(cfg, seed, 0.1, 0.9)))
            }
        }
    }
}

/// Host-time accumulators of one level.
#[derive(Debug, Default, Clone)]
struct LevelAcc {
    /// Per-slice throughput samples (simulated cycles, or lane-cycles
    /// for `rtl_x64`, per host second), tagged with whether the slice
    /// was traced.
    samples: Vec<(bool, f64)>,
    /// Traced slices only: cycles, slice time, model-step time,
    /// scoreboard time and the time of the call nested in the step
    /// (`OvlBench::on_cycle` for `rtl_ovl`).
    traced_cycles: u64,
    slice_ns: u64,
    cycle_ns: u64,
    observe_ns: u64,
    inner_ns: u64,
}

/// Exact counts over the first `window` chunks.
#[derive(Debug, Clone)]
struct Window {
    /// Lookups completed, writes committed and summed read latency.
    monitor: [u64; 3],
    cycles: u64,
    ops: u64,
    writes: u64,
    rtl_evals: u64,
    full_evals: u64,
    x64_evals: u64,
    activations: u64,
}

/// The five levels plus their stimulus.
pub struct Sim {
    lanes: Vec<Box<dyn Workload>>,
    chunk_cycles: usize,
    /// `[lane][cycle]` of the current chunk.
    chunk: Vec<Vec<Vec<BankOp>>>,
    asm: (LaAsmModel, TransactionMonitor),
    systemc: (LaSystemC, TransactionMonitor),
    rtl: (LaRtlDriver, TransactionMonitor),
    ovl: (LaRtlDriver, OvlBench, TransactionMonitor),
    x64: (LaRtlBatchDriver, Vec<TransactionMonitor>),
    /// Traced run only: an RTL driver under `SettleMode::Full` and a
    /// coverage pass over SystemC, both fed the count window.
    full: Option<LaRtlDriver>,
    cover: Option<(LaSystemC, CoverageCollector)>,
    window_chunks: usize,
    chunks_done: usize,
    window_ops: (u64, u64),
    window: Option<Window>,
    stim: Agg,
    cover_agg: Agg,
    acc: [LevelAcc; 5],
}

impl Sim {
    /// Builds the design, the five levels and their monitors, and
    /// pre-generates the first chunk. Returns the time of the three
    /// set-up steps `rtl_build`, `models` and `stimulus`.
    pub fn build(
        cfg: &LaConfig,
        traffic: Traffic,
        seed: u64,
        chunk_cycles: usize,
        window_chunks: usize,
        traced: bool,
    ) -> (Sim, [Duration; 3]) {
        let t = Instant::now();
        let design = LaRtl::build(cfg, None);
        let rtl_build = t.elapsed();

        let t = Instant::now();
        let mut systemc = LaSystemC::new(cfg);
        systemc.attach_default_monitors();
        let mut bench = OvlBench::new();
        attach_la1_ovl(&mut bench, &design);
        let monitor = || TransactionMonitor::new(cfg);
        let full = traced.then(|| {
            let mut d = LaRtlDriver::new(&design);
            d.sim_mut().set_settle_mode(SettleMode::Full);
            d
        });
        let cover = traced.then(|| {
            let mut sc = LaSystemC::new(cfg);
            sc.attach_default_monitors();
            (sc, CoverageCollector::new(CoverageModel::la1_traffic(cfg)))
        });
        let mut sim = Sim {
            lanes: Vec::new(),
            chunk_cycles,
            chunk: (0..LANES)
                .map(|_| Vec::with_capacity(chunk_cycles))
                .collect(),
            asm: (LaAsmModel::new(cfg), monitor()),
            systemc: (systemc, monitor()),
            rtl: (LaRtlDriver::new(&design), monitor()),
            ovl: (LaRtlDriver::new(&design), bench, monitor()),
            x64: (
                LaRtlBatchDriver::new(&design),
                (0..LANES).map(|_| monitor()).collect(),
            ),
            full,
            cover,
            window_chunks,
            chunks_done: 0,
            window_ops: (0, 0),
            window: None,
            stim: Agg::default(),
            cover_agg: Agg::default(),
            acc: Default::default(),
        };
        let models = t.elapsed();

        let t = Instant::now();
        sim.lanes = (0..LANES as u64)
            .map(|lane| traffic.generator(cfg, stream_seed(seed, lane)))
            .collect();
        sim.generate(false);
        let stimulus = t.elapsed();
        (sim, [rtl_build, models, stimulus])
    }

    /// Refills the chunk buffer from the lane generators.
    fn generate(&mut self, traced: bool) {
        let counting = self.chunks_done < self.window_chunks;
        for (lane, (gen, buf)) in self.lanes.iter_mut().zip(&mut self.chunk).enumerate() {
            buf.clear();
            let t = Instant::now();
            for _ in 0..self.chunk_cycles {
                buf.push(gen.next_cycle());
            }
            if traced {
                self.stim.count += self.chunk_cycles as u64;
                self.stim.total_ns += t.elapsed().as_nanos() as u64;
            }
            if lane == 0 && counting {
                for ops in buf.iter() {
                    self.window_ops.0 += ops.len() as u64;
                    self.window_ops.1 += ops
                        .iter()
                        .filter(|o| matches!(o, BankOp::Write { .. }))
                        .count() as u64;
                }
            }
        }
    }

    /// Runs the current chunk through every level as one timed slice
    /// each, then generates the next chunk. `record` is false on the
    /// warm-up pass, whose slices count for nothing.
    pub fn run_chunk(&mut self, record: bool, mut tracer: Option<&mut Tracer>) {
        let traced = tracer.is_some();
        let n = LEVELS.len();
        for j in 0..n {
            let level = (self.chunks_done + j) % n;
            let span = tracer
                .as_mut()
                .map(|t| t.begin(format!("slice.{}", LEVELS[level])));
            let (work, dt) = if traced {
                self.slice::<true>(level, tracer.as_deref_mut())
            } else {
                self.slice::<false>(level, None)
            };
            if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                t.end(id);
            }
            let acc = &mut self.acc[level];
            if record {
                acc.samples.push((traced, work as f64 / dt.as_secs_f64()));
            }
            if traced {
                acc.slice_ns += dt.as_nanos() as u64;
                acc.traced_cycles += self.chunk_cycles as u64;
            }
        }
        if self.chunks_done < self.window_chunks {
            self.window_extras();
        }
        self.chunks_done += 1;
        if self.chunks_done == self.window_chunks {
            self.window = Some(self.window_counts());
        }
        self.generate(traced);
    }

    /// One level's slice over the current chunk; returns the work done
    /// (cycles, or lane-cycles) and the slice's host time.
    fn slice<const T: bool>(
        &mut self,
        level: usize,
        tracer: Option<&mut Tracer>,
    ) -> (u64, Duration) {
        let name = LEVELS[level];
        let acc = &mut self.acc[level];
        let stream = &self.chunk[0];
        let start = Instant::now();
        let work = match level {
            0 => {
                let (m, mon) = &mut self.asm;
                scalar::<_, T>(m, mon, stream, |m, ops, _| m.cycle(ops), acc, name, tracer)
            }
            1 => {
                let (m, mon) = &mut self.systemc;
                scalar::<_, T>(m, mon, stream, |m, ops, _| m.cycle(ops), acc, name, tracer)
            }
            2 => {
                let (m, mon) = &mut self.rtl;
                scalar::<_, T>(m, mon, stream, |m, ops, _| m.cycle(ops), acc, name, tracer)
            }
            3 => {
                let (m, bench, mon) = &mut self.ovl;
                let step = |d: &mut LaRtlDriver, ops: &[BankOp], inner: &mut u64| {
                    d.cycle_with(ops, |sim| {
                        let t = T.then(Instant::now);
                        bench.on_cycle(sim);
                        if let Some(t) = t {
                            *inner += t.elapsed().as_nanos() as u64;
                        }
                    })
                };
                scalar::<_, T>(m, mon, stream, step, acc, name, tracer)
            }
            _ => {
                let (driver, monitors) = &mut self.x64;
                batched::<T>(driver, monitors, &self.chunk, acc, tracer)
            }
        };
        (work, start.elapsed())
    }

    /// Count-window work of the traced run that no timed slice covers:
    /// the full-settle reference and the coverage pass.
    fn window_extras(&mut self) {
        let stream = &self.chunk[0];
        if let Some(full) = &mut self.full {
            for ops in stream {
                full.cycle(ops);
            }
        }
        if let Some((sc, collector)) = &mut self.cover {
            for ops in stream {
                sc.cycle(ops);
                let t = Instant::now();
                collector.observe(ops, sc);
                self.cover_agg.count += 1;
                self.cover_agg.total_ns += t.elapsed().as_nanos() as u64;
            }
        }
    }

    fn window_counts(&self) -> Window {
        Window {
            monitor: scoreboard(&self.asm.1),
            cycles: (self.window_chunks * self.chunk_cycles) as u64,
            ops: self.window_ops.0,
            writes: self.window_ops.1,
            rtl_evals: self.rtl.0.evals(),
            full_evals: self.full.as_ref().map_or(0, LaRtlDriver::evals),
            x64_evals: self.x64.0.evals(),
            activations: self.systemc.0.activations(),
        }
    }

    /// Simulated cycles every level has run.
    pub fn cycles(&self) -> u64 {
        (self.chunks_done * self.chunk_cycles) as u64
    }

    pub fn chunks_done(&self) -> usize {
        self.chunks_done
    }

    /// End-of-run correctness: ASM is the reference every level must
    /// reproduce exactly, every scoreboard (all 64 lanes too) must be
    /// clean, and no monitor may fire on legal traffic.
    pub fn check(&self, checks: &mut Checks) {
        let reference = scoreboard(&self.asm.1);
        let levels: [(&str, &TransactionMonitor); 5] = [
            ("asm", &self.asm.1),
            ("systemc", &self.systemc.1),
            ("rtl", &self.rtl.1),
            ("rtl_ovl", &self.ovl.2),
            ("rtl_x64", &self.x64.1[0]),
        ];
        for (level, monitor) in levels {
            let got = scoreboard(monitor);
            checks.check(got == reference, level, || {
                format!(
                    "(lookups, writes committed, summed latency) {got:?} differs from asm {reference:?}"
                )
            });
            checks.check(monitor.stats().clean(), level, || {
                format!("scoreboard unclean: {:?}", monitor.stats())
            });
        }
        for (lane, m) in self.x64.1.iter().enumerate().skip(1) {
            checks.check(m.stats().clean(), "rtl_x64", || {
                format!("lane {lane} scoreboard unclean: {:?}", m.stats())
            });
        }
        checks.check(reference[0] > 0, "asm", || {
            "no lookup completed".to_string()
        });
        let sc = self.systemc.0.violations().len();
        checks.check(sc == 0, "systemc", || {
            format!("{sc} PSL monitor violations")
        });
        let ovl = self.ovl.1.violations().len();
        checks.check(ovl == 0, "rtl_ovl", || {
            format!("{ovl} OVL monitor violations")
        });
    }

    /// Every slice rate of a level with the given tracing state.
    pub fn rates(&self, level: usize, traced: bool) -> Vec<f64> {
        let slices = self.acc[level].samples.iter().filter(|s| s.0 == traced);
        slices.map(|s| s.1).collect()
    }

    /// The simulation's per-layer metrics of the traced run.
    pub fn per_layer(&self, m: &mut Metrics, tracer: &mut Tracer) {
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        m.put(
            "stimulus.next_cycle_ns",
            per(self.stim.total_ns, self.stim.count),
        );
        tracer.aggregate(
            "stimulus",
            "next_cycle",
            Agg {
                self_ns: self.stim.total_ns,
                ..self.stim
            },
        );
        let w = self
            .window
            .as_ref()
            .expect("the count window completes before the run ends");
        m.put("stimulus.ops_per_cycle", w.ops as f64 / w.cycles as f64);
        m.put(
            "stimulus.write_share",
            w.writes as f64 / w.ops.max(1) as f64,
        );
        for (level, acc) in LEVELS.iter().zip(&self.acc) {
            let n = acc.traced_cycles;
            m.put(&format!("{level}.cycle_ns"), per(acc.cycle_ns, n));
            let other = acc.slice_ns.saturating_sub(acc.cycle_ns + acc.observe_ns);
            m.put(&format!("{level}.other_ns"), per(other, n));
            if *level != "rtl_x64" {
                m.put(
                    &format!("monitor.observe_ns.{level}"),
                    per(acc.observe_ns, n),
                );
            }
            let observes = if *level == "rtl_x64" {
                n * LANES as u64
            } else {
                n
            };
            tracer.aggregate(
                level,
                "cycle",
                Agg {
                    count: n,
                    total_ns: acc.cycle_ns,
                    self_ns: acc.cycle_ns - acc.inner_ns,
                },
            );
            tracer.aggregate(
                level,
                "monitor.observe",
                Agg {
                    count: observes,
                    total_ns: acc.observe_ns,
                    self_ns: acc.observe_ns,
                },
            );
            tracer.aggregate(
                level,
                "slice",
                Agg {
                    count: n,
                    total_ns: acc.slice_ns,
                    self_ns: other,
                },
            );
        }
        let ovl = &self.acc[3];
        tracer.aggregate(
            "rtl_ovl",
            "ovl.on_cycle",
            Agg {
                count: ovl.traced_cycles,
                total_ns: ovl.inner_ns,
                self_ns: ovl.inner_ns,
            },
        );
        m.put(
            "systemc.activations_per_cycle",
            w.activations as f64 / w.cycles as f64,
        );
        m.put("rtl.evals_per_cycle", w.rtl_evals as f64 / w.cycles as f64);
        m.put(
            "rtl.settle_activity_ratio",
            w.rtl_evals as f64 / w.full_evals.max(1) as f64,
        );
        m.put("ovl.on_cycle_ns", per(ovl.inner_ns, ovl.traced_cycles));
        m.put("ovl.monitors", self.ovl.1.num_monitors() as f64);
        m.put(
            "rtl_x64.evals_per_cycle",
            w.x64_evals as f64 / w.cycles as f64,
        );
        let x64 = &self.acc[4];
        m.put(
            "rtl_x64.lane_observe_ns",
            per(x64.observe_ns, x64.traced_cycles * LANES as u64),
        );
        let [lookups, writes, latency] = w.monitor;
        m.put("monitor.lookups_completed", lookups as f64);
        m.put("monitor.writes_committed", writes as f64);
        m.put(
            "monitor.mean_read_latency_cycles",
            latency as f64 / lookups.max(1) as f64,
        );
        m.put(
            "cover.observe_ns",
            per(self.cover_agg.total_ns, self.cover_agg.count),
        );
        tracer.aggregate(
            "systemc",
            "cover.observe",
            Agg {
                self_ns: self.cover_agg.total_ns,
                ..self.cover_agg
            },
        );
    }

    /// The exact counts of the count window, for determinism checks.
    pub fn exact_counts(&self) -> Option<Vec<u64>> {
        self.window.as_ref().map(|w| {
            vec![
                w.monitor[0],
                w.monitor[1],
                w.monitor[2],
                w.ops,
                w.writes,
                w.rtl_evals,
                w.x64_evals,
                w.activations,
            ]
        })
    }
}

/// The counts every level must reproduce: lookups completed, writes
/// committed and summed read latency.
fn scoreboard(monitor: &TransactionMonitor) -> [u64; 3] {
    let s = monitor.stats();
    [
        s.lookups_completed,
        s.writes_committed,
        s.total_read_latency,
    ]
}

/// One scalar level's slice: step the model, then let the scoreboard
/// observe its pins. With `T`, every call is timed.
fn scalar<M: CycleModel, const T: bool>(
    model: &mut M,
    monitor: &mut TransactionMonitor,
    stream: &[Vec<BankOp>],
    mut step: impl FnMut(&mut M, &[BankOp], &mut u64),
    acc: &mut LevelAcc,
    level: &str,
    mut tracer: Option<&mut Tracer>,
) -> u64 {
    for (i, ops) in stream.iter().enumerate() {
        let t0 = T.then(Instant::now);
        step(model, ops, &mut acc.inner_ns);
        let t1 = T.then(Instant::now);
        monitor.observe(ops, model);
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let t2 = Instant::now();
            acc.cycle_ns += (t1 - t0).as_nanos() as u64;
            acc.observe_ns += (t2 - t1).as_nanos() as u64;
            if i % SAMPLE_EVERY == 0 {
                if let Some(t) = tracer.as_deref_mut() {
                    t.leaf(&format!("{level}.cycle"), t0, t1);
                    t.leaf(&format!("{level}.monitor.observe"), t1, t2);
                }
            }
        }
    }
    stream.len() as u64
}

/// The 64-lane slice: one batched step, then every lane's scoreboard
/// observes its own view.
fn batched<const T: bool>(
    driver: &mut LaRtlBatchDriver,
    monitors: &mut [TransactionMonitor],
    chunk: &[Vec<Vec<BankOp>>],
    acc: &mut LevelAcc,
    mut tracer: Option<&mut Tracer>,
) -> u64 {
    let cycles = chunk[0].len();
    let mut refs: Vec<&[BankOp]> = Vec::with_capacity(chunk.len());
    for c in 0..cycles {
        refs.clear();
        refs.extend(chunk.iter().map(|lane| lane[c].as_slice()));
        let t0 = T.then(Instant::now);
        driver.cycle(&refs);
        let t1 = T.then(Instant::now);
        for (lane, monitor) in monitors.iter_mut().enumerate() {
            let mut view = BatchLaneModel::new(driver, lane);
            monitor.observe(&chunk[lane][c], &mut view);
        }
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let t2 = Instant::now();
            acc.cycle_ns += (t1 - t0).as_nanos() as u64;
            acc.observe_ns += (t2 - t1).as_nanos() as u64;
            if c % SAMPLE_EVERY == 0 {
                if let Some(t) = tracer.as_deref_mut() {
                    t.leaf("rtl_x64.cycle", t0, t1);
                    t.leaf("rtl_x64.lane_observe", t1, t2);
                }
            }
        }
    }
    (cycles * chunk.len()) as u64
}
