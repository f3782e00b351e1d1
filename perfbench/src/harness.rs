//! Shared pieces of the benchmark: the metric catalog, the correctness
//! tally, sample statistics and host metadata.

use std::time::{Duration, Instant};

/// The simulation levels, in the order their metrics are named.
pub const LEVELS: [&str; 5] = ["asm", "systemc", "rtl", "rtl_ovl", "rtl_x64"];

/// End-to-end metrics (`--trace 0`): name, unit. Every workload reports
/// all of them; `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_cycles_per_s.asm", "1/s"),
    ("sim_cycles_per_s.systemc", "1/s"),
    ("sim_cycles_per_s.rtl", "1/s"),
    ("sim_cycles_per_s.rtl_ovl", "1/s"),
    ("sim_cycles_per_s.rtl_x64", "1/s"),
    ("campaign_runs_per_s", "1/s"),
    ("closure_s", "s"),
    ("cycles_to_closure", "count"),
    ("explore_s", "s"),
    ("proof_s", "s"),
    ("peak_bdd_nodes", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_fraction", "ratio"),
];

/// The end-to-end metrics that are host time, except `setup_s`: name,
/// whether higher is better, and the statistic over the run's samples.
/// The traced run reports its overhead on each as
/// `trace.overhead.<metric>`.
///
/// Simulation slices, campaign runs and closures last milliseconds, so
/// quiet moments of a loaded host show in their fastest samples. The
/// exploration and the proof run for about a second, and their fastest
/// samples are outliers of another kind (fresh memory laid out well),
/// so their median is steadier.
pub const TIMED: [(&str, bool, Stat); 9] = [
    ("sim_cycles_per_s.asm", true, Stat::Tenth),
    ("sim_cycles_per_s.systemc", true, Stat::Tenth),
    ("sim_cycles_per_s.rtl", true, Stat::Tenth),
    ("sim_cycles_per_s.rtl_ovl", true, Stat::Tenth),
    ("sim_cycles_per_s.rtl_x64", true, Stat::Tenth),
    ("campaign_runs_per_s", true, Stat::Tenth),
    ("closure_s", false, Stat::Tenth),
    ("explore_s", false, Stat::Median),
    ("proof_s", false, Stat::Median),
];

/// Set-up steps, each reported as `setup.<step>_ms` by the traced run.
pub const SETUP_STEPS: [&str; 7] = [
    "rtl_build",
    "models",
    "stimulus",
    "campaign_plan",
    "closure_plan",
    "explore_plan",
    "proof_extract",
];

/// Per-layer metrics (`--trace 1`): name, unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("stimulus.next_cycle_ns", "ns");
    add("stimulus.ops_per_cycle", "count");
    add("stimulus.write_share", "ratio");
    for level in LEVELS {
        add(&format!("{level}.cycle_ns"), "ns");
        add(&format!("{level}.other_ns"), "ns");
    }
    for level in &LEVELS[..4] {
        add(&format!("monitor.observe_ns.{level}"), "ns");
    }
    add("systemc.activations_per_cycle", "count");
    add("rtl.evals_per_cycle", "count");
    add("rtl.settle_activity_ratio", "ratio");
    add("ovl.on_cycle_ns", "ns");
    add("ovl.monitors", "count");
    add("rtl_x64.evals_per_cycle", "count");
    add("rtl_x64.lane_observe_ns", "ns");
    add("monitor.lookups_completed", "count");
    add("monitor.writes_committed", "count");
    add("monitor.mean_read_latency_cycles", "cycles");
    add("cover.observe_ns", "ns");
    add("closure.lane_cycles", "count");
    add("closure.bins_hit", "count");
    add("closure.bins_total", "count");
    add("checkpoint.record_ms", "ms");
    add("checkpoint.restore_ms", "ms");
    add("fault.runs", "count");
    add("fault.lane_cycles_saved", "count");
    add("fault.lanes_retired_share", "ratio");
    for kind in ["campaign", "closure", "explore"] {
        add(&format!("farm.job_s.{kind}"), "s");
    }
    add("farm.journal_append_us", "us");
    add("farm.journal_bytes", "bytes");
    add("farm.merge_ms", "ms");
    add("farm.render_ms", "ms");
    add("farm.retried", "count");
    add("farm.failed", "count");
    add("explore.states", "count");
    add("explore.transitions", "count");
    add("explore.dedup_hits", "count");
    add("explore.peak_frontier", "count");
    add("explore.states_per_s", "1/s");
    add("smc.extract_ms", "ms");
    add("smc.check_s", "s");
    add("smc.iterations", "count");
    add("smc.memory_mb", "MB");
    add("smc.reachable_states", "count");
    for step in SETUP_STEPS {
        add(&format!("setup.{step}_ms"), "ms");
    }
    for (metric, _, _) in TIMED {
        add(&format!("trace.overhead.{metric}"), "ratio");
    }
    m
}

/// One reported metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metric values and renders the result line.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name`, taking its unit from the catalog.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalog does not list: every emitted metric
    /// must be declared.
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .find(|(n, _)| n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The correctness tally behind `passed_fraction`: every check counts
/// as attempted, and a failed one prints its workload, seed and layer.
#[derive(Debug)]
pub struct Checks {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn new(workload: &str, seed: u64) -> Checks {
        Checks {
            workload: workload.to_string(),
            seed,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one check; `what` is only rendered when it fails.
    pub fn check(&mut self, ok: bool, layer: &str, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!(
                "CHECK FAILED workload={} seed={} layer={layer}: {}",
                self.workload,
                self.seed,
                what()
            );
        }
    }

    pub fn passed_fraction(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// The median of `values` (the mean of the middle pair for even
/// lengths); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// How a figure summarises its samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The tenth percentile counted from the best end: the sample that
    /// a tenth of the samples beat.
    ///
    /// A shared cloud host slows down in phases of seconds to minutes
    /// when neighbours load its cores. A quiet moment of a few
    /// milliseconds comes often, so the fastest samples of a short body
    /// spread less across runs than its median; the tenth percentile is
    /// as steady as the very best in the runs measured, and not set by
    /// one outlier.
    Tenth,
    Median,
}

impl Stat {
    /// The statistic of `values`; `rate` says higher is better. `NaN`
    /// when empty.
    pub fn of(self, values: &[f64], rate: bool) -> f64 {
        match self {
            Stat::Tenth if !values.is_empty() => {
                let mut v = values.to_vec();
                v.sort_by(f64::total_cmp);
                if rate {
                    v.reverse();
                }
                v[((v.len() - 1) as f64 * 0.1).round() as usize]
            }
            Stat::Tenth => f64::NAN,
            Stat::Median => median(values),
        }
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Effective parallelism from a calibration spin: the throughput of
/// `nproc` threads spinning together divided by that of one thread
/// spinning alone. A host that advertises two cores but time-slices
/// them reports close to 1.
pub fn effective_parallelism(nproc: usize, spin: Duration) -> f64 {
    fn spin_count(spin: Duration) -> u64 {
        let t = Instant::now();
        let mut n = 0u64;
        let mut x = 1u64;
        while t.elapsed() < spin {
            for _ in 0..1000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            n += 1;
        }
        std::hint::black_box(x);
        n
    }
    let alone = spin_count(spin) as f64;
    let together: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc).map(|_| s.spawn(|| spin_count(spin))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum()
    });
    together as f64 / alone.max(1.0)
}

/// Nominal rates of the two [`Reference`] kernels, operations per
/// second, on an unloaded core of the 2-vCPU shared VM the bounds were
/// set on. They fix the scale of the host-speed factor, nothing else.
const NOMINAL_INTERP: f64 = 1.0e8;
const NOMINAL_MEM: f64 = 7.5e7;

/// A fixed reference workload owned by the benchmark, sampled before
/// every stage of a recorded round, so that each run measures how fast
/// its host ran while it ran.
///
/// A shared host can run slow for the whole of a run when neighbours
/// load it, and then every figure reads slow together, fastest samples
/// included; no statistic within a run can remove that. The kernels
/// mimic the program's two sensitivities: a branchy bytecode
/// interpreter over a register file in L1, like the netlist and PSL
/// evaluators, and random read-modify-writes over 16 MiB, like the BDD
/// and hash tables.
///
/// Each sample first reads all of both kernels' data untimed, so the
/// timed passes find it in the caches whatever the program left there:
/// the factor follows the host, not the program's working set.
pub struct Reference {
    prog: Vec<(u8, u16, u16, u16)>,
    regs: Vec<u64>,
    buf: Vec<u64>,
    interp: Vec<f64>,
    mem: Vec<f64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut state = 7u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u16
        };
        Reference {
            prog: (0..4096)
                .map(|_| ((rnd() % 8) as u8, rnd() % 1024, rnd() % 1024, rnd() % 1024))
                .collect(),
            regs: (0..1024u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            buf: vec![1u64; 2 << 20],
            interp: Vec::new(),
            mem: Vec::new(),
        }
    }

    fn interpret(&mut self) {
        for &(op, a, b, c) in &self.prog {
            let (x, y) = (self.regs[a as usize], self.regs[b as usize]);
            self.regs[c as usize] = match op {
                0 => x & y,
                1 => x | y,
                2 => x ^ y,
                3 => !x,
                4 => x.wrapping_add(y),
                5 if x & 1 == 1 => y,
                5 => x,
                6 => x >> (y & 7),
                _ => x.rotate_left(3),
            };
        }
        std::hint::black_box(&self.regs);
    }

    /// Warms both kernels' data, then times a pass of each, about 6 ms
    /// together.
    pub fn sample(&mut self) {
        self.interpret();
        std::hint::black_box(self.buf.iter().fold(0u64, |a, &x| a.wrapping_add(x)));

        const PASSES: usize = 40;
        let t = Instant::now();
        for _ in 0..PASSES {
            self.interpret();
        }
        self.interp
            .push((PASSES * self.prog.len()) as f64 / t.elapsed().as_secs_f64());

        const ACCESSES: usize = 200_000;
        let t = Instant::now();
        let len = self.buf.len();
        let (mut i, mut sum) = (12345usize, 0u64);
        for _ in 0..ACCESSES {
            i = i.wrapping_mul(2862933555777941757).wrapping_add(3037000493) % len;
            sum = sum.wrapping_add(self.buf[i]);
            self.buf[i] = sum;
        }
        std::hint::black_box(sum);
        self.mem.push(ACCESSES as f64 / t.elapsed().as_secs_f64());
    }

    /// The host-speed factor: the geometric mean of both kernels' rates
    /// over their nominal rates, each rate taken with `stat` over every
    /// sample. Above 1 the host ran faster than nominal.
    pub fn speed(&self, stat: Stat) -> f64 {
        let interp = stat.of(&self.interp, true) / NOMINAL_INTERP;
        let mem = stat.of(&self.mem, true) / NOMINAL_MEM;
        (interp * mem).sqrt()
    }

    /// The factor and both kernels' rates under each statistic, for the
    /// record line.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for (stat, tag) in [(Stat::Tenth, "tenth"), (Stat::Median, "median")] {
            parts.push(format!("\"speed_{tag}\": {:?}", self.speed(stat)));
            parts.push(format!(
                "\"interp_{tag}\": {:?}",
                stat.of(&self.interp, true)
            ));
            parts.push(format!("\"mem_{tag}\": {:?}", stat.of(&self.mem, true)));
        }
        parts.push(format!("\"samples\": {}", self.interp.len()));
        format!("{{{}}}", parts.join(", "))
    }
}
