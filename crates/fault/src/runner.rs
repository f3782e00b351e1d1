//! The one campaign runner: every level, both lane widths.
//!
//! The open-loop run (DUT and golden on one intended script: scoreboard,
//! guard, X injection) and the closed-loop run (priming, read feedback,
//! watchdog, hard cap) are written once, over a [`LaneEngine`]: a
//! simulator carrying `LANES` runs of one level. ASM and SystemC are
//! 1-lane engines guarded by catching their protocol asserts (SystemC's
//! LA-1B read spacing is stateful, so no static rule stands in for it).
//! The RTL levels run on [`RtlDriver<V>`], guarded by the static bus rule
//! ([`bus_legal`]) the driver asserts, so a run's guard cycle is known
//! before it starts.
//!
//! A level's runs go through in *waves* of at most `LANES` runs, their
//! lanes grouped by netlist: per parity-faulted bank, the healthy one
//! (goldens and stimulus-fault DUTs), and the closed loops. A wave's
//! engines step in lockstep, so a DUT and its golden compare at the same
//! instant. `LogicVec` lanes give [`run_campaign`] (two live models at a
//! time), `PackedVec` lanes [`run_campaign_batched`]; one body, so their
//! matrices are byte-identical by construction.
//!
//! **Fault dropping**: a lane stops being driven once its run's verdict
//! is complete — at its guard trip (the golden still executes that
//! cycle), after the first scoreboard mismatch (the DUT only when it has
//! no monitors and a static guard), or when its closed loop ends. An
//! engine with no live lane is not stepped. [`BatchStats`] counts what
//! dropping saved on the RTL levels.

use crate::campaign::{
    activation_window, compute_disagreements, inject_stream, open_loop_script, prime_write,
    replay_script, run_seed, supports, CampaignConfig, CampaignShard, CellStats, DetectionMatrix,
    Level,
};
use crate::models::{FaultModel, FaultPlan, Injector};
use la1_core::asm_model::LaAsmModel;
use la1_core::cycle_model::CycleModel;
use la1_core::harness::attach_la1_ovl;
use la1_core::json::Field;
use la1_core::rtl_model::{LaRtl, RtlDriver, XPin};
use la1_core::sc_model::LaSystemC;
use la1_core::spec::{bus_legal, BankOp, LaConfig, READ_LATENCY};
use la1_ovl::OvlBench;
use la1_rtl::{LaneValue, LogicVec, PackedVec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Bit-parallel execution statistics: how much lane-level work the RTL
/// levels did and how much of it fault dropping retired early. Pure
/// bookkeeping — none of it feeds back into the matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Seeded RTL-level lane runs executed (DUTs, goldens and
    /// closed-loop controls).
    pub rtl_lane_runs: u32,
    /// Lanes retired before their script's natural end (fault
    /// dropping).
    pub lanes_retired_early: u32,
    /// Lane-cycles of stimulus skipped by early retirement.
    pub lane_cycles_saved: u64,
    /// Lane groups (lanes sharing one netlist) across waves and levels;
    /// the only figure that depends on the lane width.
    pub groups: u32,
}

impl BatchStats {
    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "batched: {} lane runs in {} group(s), {} lane(s) dropped early, {} lane-cycles saved",
            self.rtl_lane_runs, self.groups, self.lanes_retired_early, self.lane_cycles_saved
        )
    }

    /// Deterministic JSON object (no timing data).
    pub fn to_json(&self) -> String {
        self.encode().render()
    }

    /// Counts a lane that stopped at `end` of a `len`-cycle schedule.
    fn retire(&mut self, end: u64, len: u64) {
        if end < len {
            self.lanes_retired_early += 1;
            self.lane_cycles_saved += len - end;
        }
    }
}

la1_core::json_record!(BatchStats {
    rtl_lane_runs,
    groups,
    lanes_retired_early,
    lane_cycles_saved
});

/// A simulator carrying [`Self::LANES`] independent campaign runs of
/// one level.
trait LaneEngine {
    /// Runs one engine carries.
    const LANES: usize;
    /// Whether the protocol guard is the static bus rule ([`bus_legal`]),
    /// known before a run starts, rather than an assert caught as it
    /// fires.
    const STATIC_GUARD: bool;
    /// An engine at `level` over lanes `duts` (a DUT lane carries the
    /// level's monitors), each with bank `parity`'s parity generator
    /// broken.
    fn build(level: Level, cfg: &LaConfig, parity: Option<u32>, duts: &[bool]) -> Self;
    /// Drives one cycle, `ops[lane]` into each lane (lanes past
    /// `ops.len()` idle), monitors sampling the `live` lanes. Returns
    /// the lanes whose guard tripped; their runs end there.
    fn cycle(&mut self, ops: &mut [Vec<BankOp>], live: &[bool]) -> u64;
    /// Arms the write-data X injection on one lane for the next cycle.
    fn inject_x(&mut self, lane: usize);
    /// The word a bank produced in one lane in the last cycle.
    fn bank_output(&self, lane: usize, bank: u32) -> Option<u64>;
    /// Whether a bank's write-done flag is set in one lane.
    fn write_done(&self, lane: usize, bank: u32) -> bool;
    /// One lane's monitor violations as `(monitor, cycle)` pairs.
    fn violations(&self, lane: usize) -> Vec<(String, u64)>;
}

/// The ASM and SystemC levels: one two-valued model per engine.
struct ModelEngine(Box<dyn CycleModel>);

thread_local! {
    /// Set while a guarded cycle runs, so the process panic hook stays
    /// silent for expected protocol-assert trips.
    static GUARDING: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses output for
/// panics caught by the campaign's cycle guard and defers to the
/// previous hook for everything else.
fn install_guard_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !GUARDING.with(|g| g.get()) {
                prev(info);
            }
        }));
    });
}

impl LaneEngine for ModelEngine {
    const LANES: usize = 1;
    const STATIC_GUARD: bool = false;

    fn build(level: Level, cfg: &LaConfig, parity: Option<u32>, duts: &[bool]) -> Self {
        if level == Level::Asm {
            return ModelEngine(Box::new(LaAsmModel::new(cfg)));
        }
        let mut sc = LaSystemC::new(cfg);
        if duts[0] {
            sc.attach_default_monitors();
        }
        if let Some(bank) = parity {
            sc.inject_parity_fault(bank);
        }
        ModelEngine(Box::new(sc))
    }

    fn cycle(&mut self, ops: &mut [Vec<BankOp>], _live: &[bool]) -> u64 {
        GUARDING.with(|g| g.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| self.0.cycle(&ops[0])));
        GUARDING.with(|g| g.set(false));
        u64::from(result.is_err())
    }

    /// X injection needs the four-state RTL ([`supports`] never pairs it
    /// with these levels).
    fn inject_x(&mut self, _lane: usize) {}

    fn bank_output(&self, _lane: usize, bank: u32) -> Option<u64> {
        self.0.bank_output(bank)
    }

    fn write_done(&self, _lane: usize, bank: u32) -> bool {
        self.0.write_done(bank)
    }

    fn violations(&self, _lane: usize) -> Vec<(String, u64)> {
        self.0.violation_details()
    }
}

/// Lane groups this small run as 1-lane engines: in a 4-bank campaign a
/// 64-lane step costs about as much as three and a half 1-lane steps.
const NARROW_LANES: usize = 3;

/// The RTL levels: a group's lanes on one `V` driver, with an OVL bench
/// per DUT lane at `rtl+ovl` — or, for a group of at most
/// [`NARROW_LANES`] lanes, one 1-lane engine per lane.
enum RtlEngine<V: LaneValue> {
    Wide {
        driver: Box<RtlDriver<V>>,
        benches: Vec<Option<OvlBench>>,
    },
    Narrow(Vec<RtlEngine<LogicVec>>),
}

impl<V: LaneValue> LaneEngine for RtlEngine<V> {
    const LANES: usize = V::LANES;
    const STATIC_GUARD: bool = true;

    fn build(level: Level, cfg: &LaConfig, parity: Option<u32>, duts: &[bool]) -> Self {
        if V::LANES > 1 && duts.len() <= NARROW_LANES {
            let lane = |dut| RtlEngine::build(level, cfg, parity, std::slice::from_ref(dut));
            return RtlEngine::Narrow(duts.iter().map(lane).collect());
        }
        let driver = Box::new(RtlDriver::new(&LaRtl::build(cfg, parity)));
        let bench = |&dut: &bool| {
            (dut && level == Level::RtlOvl).then(|| {
                let mut bench = OvlBench::new();
                attach_la1_ovl(&mut bench, driver.design());
                bench
            })
        };
        let benches = duts.iter().map(bench).collect();
        RtlEngine::Wide { driver, benches }
    }

    fn cycle(&mut self, ops: &mut [Vec<BankOp>], live: &[bool]) -> u64 {
        let (driver, benches) = match self {
            RtlEngine::Wide { driver, benches } => (driver, benches),
            RtlEngine::Narrow(lanes) => {
                let mut tripped = 0;
                for (lane, engine) in lanes.iter_mut().enumerate().filter(|(l, _)| live[*l]) {
                    tripped |= engine.cycle(&mut ops[lane..=lane], &live[lane..=lane]) << lane;
                }
                return tripped;
            }
        };
        let mut tripped = 0u64;
        for (lane, ops) in ops.iter_mut().enumerate() {
            if !bus_legal(driver.config(), ops) {
                tripped |= 1 << lane;
                ops.clear();
            }
        }
        driver.cycle_lanes(ops, |sim| {
            for (lane, (bench, &live)) in benches.iter_mut().zip(live).enumerate() {
                if let (Some(bench), true) = (bench, live && tripped >> lane & 1 == 0) {
                    bench.on_cycle(&mut sim.lane_probe(lane));
                }
            }
        });
        tripped
    }

    fn inject_x(&mut self, lane: usize) {
        match self {
            RtlEngine::Wide { driver, .. } => driver.inject_x_lane(lane, XPin::WData),
            RtlEngine::Narrow(lanes) => lanes[lane].inject_x(0),
        }
    }

    fn bank_output(&self, lane: usize, bank: u32) -> Option<u64> {
        match self {
            RtlEngine::Wide { driver, .. } => driver.lane_output(lane, bank),
            RtlEngine::Narrow(lanes) => lanes[lane].bank_output(0, bank),
        }
    }

    fn write_done(&self, lane: usize, bank: u32) -> bool {
        match self {
            RtlEngine::Wide { driver, .. } => driver.lane_write_done(lane, bank),
            RtlEngine::Narrow(lanes) => lanes[lane].write_done(0, bank),
        }
    }

    fn violations(&self, lane: usize) -> Vec<(String, u64)> {
        let benches = match self {
            RtlEngine::Wide { benches, .. } => benches[lane].iter(),
            RtlEngine::Narrow(lanes) => return lanes[lane].violations(0),
        };
        benches
            .flat_map(OvlBench::violations)
            .map(|v| (v.monitor.clone(), v.cycle))
            .collect()
    }
}

/// A lane of a wave: `(group, lane)`.
type Slot = (usize, usize);

/// Parity-faulted bank and closed-loop flag: lanes sharing an engine
/// share both.
type GroupKey = (Option<u32>, bool);

/// A wave's lanes before its engines exist: per group, its key and its
/// lanes' DUT flags.
#[derive(Default)]
struct Layout(Vec<(GroupKey, Vec<bool>)>);

impl Layout {
    /// Allocates a lane in the last group of `key` holding fewer than
    /// `lanes`, opening a new group when there is none.
    fn alloc(&mut self, key: GroupKey, dut: bool, lanes: usize) -> Slot {
        let room = self.0.iter().rposition(|(k, duts)| *k == key && duts.len() < lanes);
        let gi = room.unwrap_or_else(|| {
            self.0.push((key, Vec::new()));
            self.0.len() - 1
        });
        self.0[gi].1.push(dut);
        (gi, self.0[gi].1.len() - 1)
    }
}

/// One engine of a wave plus this cycle's drive of its lanes.
struct Group<E> {
    engine: E,
    ops: Vec<Vec<BankOp>>,
    live: Vec<bool>,
    tripped: u64,
}

/// The engines of one wave, stepped in lockstep.
struct Wave<'a, E> {
    cfg: &'a LaConfig,
    groups: Vec<Group<E>>,
}

impl<'a, E: LaneEngine> Wave<'a, E> {
    /// Builds every group's engine over its lanes.
    fn new(level: Level, cfg: &'a LaConfig, layout: Layout) -> Self {
        let group = |(key, duts): (GroupKey, Vec<bool>)| Group {
            engine: E::build(level, cfg, key.0, &duts),
            ops: vec![Vec::new(); duts.len()],
            live: vec![false; duts.len()],
            tripped: 0,
        };
        Wave {
            cfg,
            groups: layout.0.into_iter().map(group).collect(),
        }
    }

    /// Marks a lane live for this cycle and returns its (empty) ops.
    fn drive(&mut self, (gi, lane): Slot) -> &mut Vec<BankOp> {
        let group = &mut self.groups[gi];
        group.live[lane] = true;
        &mut group.ops[lane]
    }

    /// Steps every engine with a live lane; the drive starts over.
    fn step(&mut self) {
        for group in &mut self.groups {
            group.tripped = 0;
            if group.live.contains(&true) {
                group.tripped = group.engine.cycle(&mut group.ops, &group.live);
                group.ops.iter_mut().for_each(Vec::clear);
                group.live.fill(false);
            }
        }
    }

    fn tripped(&self, (gi, lane): Slot) -> bool {
        self.groups[gi].tripped >> lane & 1 == 1
    }

    fn any_tripped(&self) -> bool {
        self.groups.iter().any(|g| g.tripped != 0)
    }

    fn engine(&self, (gi, _): Slot) -> &E {
        &self.groups[gi].engine
    }

    /// Whether two lanes' pins (data-valid word, write-done) differ.
    fn mismatch(&self, dut: Slot, gold: Slot) -> bool {
        let (d, g) = (self.engine(dut), self.engine(gold));
        (0..self.cfg.banks).any(|b| {
            d.bank_output(dut.1, b) != g.bank_output(gold.1, b)
                || d.write_done(dut.1, b) != g.write_done(gold.1, b)
        })
    }

    /// Folds a lane's monitor violations into `detections` (earliest
    /// per monitor, as latency after `activation`).
    fn collect(&self, slot: Slot, activation: u64, detections: &mut BTreeMap<String, u64>) {
        for (name, cycle) in self.engine(slot).violations(slot.1) {
            let latency = cycle.saturating_sub(activation);
            detections
                .entry(name)
                .and_modify(|l| *l = (*l).min(latency))
                .or_insert(latency);
        }
    }
}

/// One open-loop run: faulted DUT vs healthy golden on the same
/// intended script.
struct OpenRun {
    fault: FaultModel,
    activation: u64,
    intended: Vec<Vec<BankOp>>,
    injected: Vec<Vec<BankOp>>,
    /// cycle whose write arms the one-shot X injection, if any
    x_cycle: Option<u64>,
    /// cycle the DUT's guard trips
    guard: Option<u64>,
    /// first scoreboard mismatch
    scoreboard: Option<u64>,
    dut: Slot,
    gold: Slot,
}

impl OpenRun {
    /// First cycle the DUT is no longer driven.
    fn dut_end(&self, drop_on_mismatch: bool) -> u64 {
        let guard = self.guard.unwrap_or(u64::MAX);
        match self.scoreboard {
            Some(m) if drop_on_mismatch => guard.min(m + 1),
            _ => guard,
        }
    }

    /// First cycle the golden is no longer driven: it executes the
    /// guard-trip cycle itself (it steps before the trip is seen).
    fn gold_end(&self) -> u64 {
        let guard = self.guard.map_or(u64::MAX, |g| g + 1);
        self.scoreboard.map_or(guard, |m| guard.min(m + 1))
    }
}

/// One closed-loop run with its live feedback state.
#[derive(Default)]
struct ClosedRun {
    /// `None` is the healthy-design control.
    fault: Option<FaultModel>,
    injector: Option<Injector>,
    activation: u64,
    /// never declare success before this cycle
    min_cycles: u64,
    lane: Slot,
    completed: u32,
    outstanding: bool,
    counter: u32,
    last_progress: u64,
    detections: BTreeMap<String, u64>,
    hung: bool,
    done: bool,
    /// cycles the lane was driven (for the dropping stats)
    driven: u64,
}

impl ClosedRun {
    fn new(
        fault: Option<FaultModel>,
        plan: Option<FaultPlan>,
        window: (u64, u64),
        lane: Slot,
    ) -> ClosedRun {
        let activation = plan.as_ref().map_or(0, |p| p.activation);
        ClosedRun {
            fault,
            injector: plan.map(Injector::new),
            activation,
            // the activation window must pass and the fault get a chance
            // to swallow a post-activation read — otherwise a
            // late-activating fault is never exercised at all
            min_cycles: window.1.max(activation + READ_LATENCY as u64 + 4),
            lane,
            // priming ends where the activation window starts
            last_progress: window.0,
            ..ClosedRun::default()
        }
    }

    /// Ends the run hung, detected by `channel` at `cycle`.
    fn hang(&mut self, channel: &str, cycle: u64) {
        let latency = cycle.saturating_sub(self.activation);
        self.detections.insert(channel.to_string(), latency);
        self.hung = true;
        self.done = true;
    }
}

/// The `(fault, level)` cell, created empty if missing.
fn cell(matrix: &mut DetectionMatrix, fault: FaultModel, level: Level) -> &mut CellStats {
    matrix
        .cells
        .entry(fault.name().to_string())
        .or_default()
        .entry(level.name().to_string())
        .or_default()
}

/// Tallies one run's verdict into its cell.
fn record(
    matrix: &mut DetectionMatrix,
    fault: FaultModel,
    level: Level,
    detections: BTreeMap<String, u64>,
    hung: bool,
) {
    let cell = cell(matrix, fault, level);
    cell.runs += 1;
    cell.hung += u32::from(hung);
    for (channel, latency) in detections {
        let stat = cell.monitors.entry(channel).or_default();
        stat.detected += 1;
        stat.latency_sum += latency;
    }
}

/// One seeded run of a level: `(fault index, run index)`, or `None`
/// for the healthy-design control.
type RunSpec = Option<(usize, u32)>;

/// Runs every seeded run of one level that the shard carries, in waves
/// of at most `E::LANES` runs, and folds the verdicts into `matrix`.
fn run_level<E: LaneEngine>(
    config: &CampaignConfig,
    shard: &CampaignShard,
    (level_idx, level): (usize, Level),
    matrix: &mut DetectionMatrix,
    stats: &mut BatchStats,
) {
    let mut specs: Vec<RunSpec> = Vec::new();
    for (fault_idx, &fault) in config.faults.iter().enumerate() {
        if shard.includes(fault_idx) && supports(fault, level) {
            cell(matrix, fault, level);
            specs.extend((0..config.runs_per_fault).map(|run| Some((fault_idx, run))));
        }
    }
    specs.extend(shard.healthy.then_some(None));
    for wave in specs.chunks(E::LANES) {
        run_wave::<E>(config, (level_idx, level), wave, matrix, stats);
    }
}

/// Runs one wave: derives every run from its seed, allocates its lanes,
/// drives the preamble, the open-loop scripts and the closed loops, and
/// assembles the verdicts.
fn run_wave<E: LaneEngine>(
    config: &CampaignConfig,
    (level_idx, level): (usize, Level),
    specs: &[RunSpec],
    matrix: &mut DetectionMatrix,
    stats: &mut BatchStats,
) {
    let cfg = &config.la1;
    let window = activation_window(cfg);
    let mut layout = Layout::default();
    let mut alloc = |key, dut| layout.alloc(key, dut, E::LANES);
    let (mut open, mut closed) = (Vec::new(), Vec::new());
    for &spec in specs {
        let Some((fault_idx, run)) = spec else {
            closed.push(ClosedRun::new(None, None, window, alloc((None, true), true)));
            continue;
        };
        let fault = config.faults[fault_idx];
        let mut rng = StdRng::seed_from_u64(run_seed(config.seed, fault_idx, level_idx, run));
        let plan = FaultPlan::sample(fault, cfg, window, &mut rng);
        if fault.closed_loop() {
            let lane = alloc((None, true), true);
            closed.push(ClosedRun::new(Some(fault), Some(plan), window, lane));
            continue;
        }
        let intended = replay_script(cfg, open_loop_script(cfg, &mut rng));
        let (injected, x_cycle) = inject_stream(cfg, &plan, &intended);
        let parity = (fault == FaultModel::ParityFault).then_some(plan.bank);
        open.push(OpenRun {
            fault,
            activation: plan.activation,
            intended,
            injected,
            x_cycle,
            guard: None,
            scoreboard: None,
            dut: alloc((parity, false), true),
            gold: alloc((None, false), false),
        });
    }
    let mut wave = Wave::<E>::new(level, cfg, layout);
    stats.groups += wave.groups.len() as u32;
    stats.rtl_lane_runs += (2 * open.len() + closed.len()) as u32;

    // ---- deep-state preamble: every lane advances through it from
    // reset, monitors sampling, as part of reset
    for ops in &config.preamble {
        let lanes = open.iter().flat_map(|r| [r.dut, r.gold]);
        for lane in lanes.chain(closed.iter().map(|r| r.lane)) {
            wave.drive(lane).extend_from_slice(ops);
        }
        wave.step();
        assert!(!wave.any_tripped(), "campaign preambles must be protocol-legal");
    }

    // ---- open loop: a static guard is known from the script up front
    if E::STATIC_GUARD {
        for run in &mut open {
            run.guard = run
                .injected
                .iter()
                .position(|ops| !bus_legal(cfg, ops))
                .map(|c| c as u64);
        }
    }
    let drop_on_mismatch = E::STATIC_GUARD && !matches!(level, Level::SystemC | Level::RtlOvl);
    let script_len = open.first().map_or(0, |r| r.intended.len()) as u64;
    for cycle in 0..script_len {
        let c = cycle as usize;
        for run in &open {
            if cycle < run.dut_end(drop_on_mismatch) {
                if run.x_cycle == Some(cycle) {
                    wave.groups[run.dut.0].engine.inject_x(run.dut.1);
                }
                wave.drive(run.dut).extend_from_slice(&run.injected[c]);
            }
            if cycle < run.gold_end() {
                wave.drive(run.gold).extend_from_slice(&run.intended[c]);
            }
        }
        wave.step();
        for run in &mut open {
            assert!(!wave.tripped(run.gold), "an intended script trips the guard");
            if run.guard.is_none() && wave.tripped(run.dut) {
                run.guard = Some(cycle);
            }
            if run.scoreboard.is_none()
                && cycle < run.guard.unwrap_or(u64::MAX)
                && wave.mismatch(run.dut, run.gold)
            {
                run.scoreboard = Some(cycle);
            }
        }
    }

    // ---- closed loop: prime every slot so reads return real data, then
    // issue a read whenever none is outstanding
    let words = cfg.words_per_bank;
    let slots = cfg.banks * words;
    let prime_len = slots as u64;
    let hard_cap = prime_len
        + (window.1 - window.0)
        + (config.target_reads as u64 + 4) * (READ_LATENCY as u64 + 2)
        + 2 * config.watchdog_cycles
        + 16;
    for cycle in 0..hard_cap {
        if closed.iter().all(|r| r.done) {
            break;
        }
        for run in closed.iter_mut().filter(|r| !r.done) {
            run.driven += 1;
            let ops = wave.drive(run.lane);
            if cycle < prime_len {
                ops.push(prime_write(cfg, cycle as u32));
                continue;
            }
            if !run.outstanding {
                let slot = run.counter % slots;
                run.counter += 1;
                ops.push(BankOp::read(slot / words, (slot % words) as u64));
                run.outstanding = true;
            }
            if let Some(injector) = &mut run.injector {
                injector.apply(cycle, cfg, ops);
            }
        }
        wave.step();
        for run in closed.iter_mut().filter(|r| !r.done) {
            if wave.tripped(run.lane) {
                run.hang("guard", cycle);
                continue;
            }
            if cycle < prime_len {
                continue;
            }
            let engine = wave.engine(run.lane);
            if (0..cfg.banks).any(|b| engine.bank_output(run.lane.1, b).is_some()) {
                run.completed += 1;
                run.outstanding = false;
                run.last_progress = cycle;
                if run.completed >= config.target_reads && cycle >= run.min_cycles {
                    run.done = true;
                    continue;
                }
            }
            if cycle - run.last_progress >= config.watchdog_cycles {
                run.hang("watchdog", cycle);
            }
        }
    }

    // ---- verdicts
    for run in open {
        let mut detections = BTreeMap::new();
        if let Some(g) = run.guard {
            detections.insert("guard".to_string(), g.saturating_sub(run.activation));
        }
        if let Some(m) = run.scoreboard {
            detections.insert("scoreboard".to_string(), m.saturating_sub(run.activation));
        }
        wave.collect(run.dut, run.activation, &mut detections);
        stats.retire(run.dut_end(drop_on_mismatch), script_len);
        stats.retire(run.gold_end(), script_len);
        record(matrix, run.fault, level, detections, false);
    }
    for mut run in closed {
        if run.completed < config.target_reads && !run.hung {
            // the hard cap ran out without the watchdog firing: still no
            // forward progress to the target — report it as hung
            run.hang("watchdog", hard_cap);
        }
        wave.collect(run.lane, run.activation, &mut run.detections);
        stats.retire(run.driven, hard_cap);
        match run.fault {
            Some(fault) => record(matrix, fault, level, run.detections, run.hung),
            None => {
                matrix.healthy.insert(level.name().to_string(), !run.hung);
            }
        }
    }
}

/// One shard of the campaign with RTL lanes of width `V` — the body of
/// both the scalar and the batched entry points.
pub(crate) fn run_shard<V: LaneValue>(
    config: &CampaignConfig,
    shard: &CampaignShard,
) -> (DetectionMatrix, BatchStats) {
    install_guard_hook();
    let mut matrix = DetectionMatrix::empty(config);
    let mut stats = BatchStats::default();
    for (level_idx, &level) in config.levels.iter().enumerate() {
        let at = (level_idx, level);
        match level {
            Level::Asm | Level::SystemC => {
                let mut unused = BatchStats::default();
                run_level::<ModelEngine>(config, shard, at, &mut matrix, &mut unused);
            }
            Level::Rtl | Level::RtlOvl => {
                run_level::<RtlEngine<V>>(config, shard, at, &mut matrix, &mut stats);
            }
        }
    }
    matrix.disagreements = compute_disagreements(&matrix.cells);
    (matrix, stats)
}

/// Runs the full campaign: every configured fault on every supporting
/// level, `runs_per_fault` seeded runs each, plus one healthy-design
/// closed-loop control per level, and the cross-level monitor
/// agreement check.
pub fn run_campaign(config: &CampaignConfig) -> DetectionMatrix {
    run_campaign_shard(config, &CampaignShard::full(config))
}

/// Runs one shard of the campaign one run at a time: only the shard's
/// fault indices (with their *global* per-run seeds), and the healthy
/// controls only when the shard carries them. The union of a disjoint
/// shard family's matrices ([`DetectionMatrix::merge`]) reproduces
/// [`run_campaign`] byte-for-byte.
pub fn run_campaign_shard(config: &CampaignConfig, shard: &CampaignShard) -> DetectionMatrix {
    run_shard::<LogicVec>(config, shard).0
}

/// Runs the full campaign with the RTL levels 64 runs per netlist
/// evaluation, producing a matrix byte-identical to [`run_campaign`]
/// plus the bit-parallel execution stats.
pub fn run_campaign_batched(config: &CampaignConfig) -> (DetectionMatrix, BatchStats) {
    run_campaign_batched_shard(config, &CampaignShard::full(config))
}

/// Runs one shard of the campaign with 64-lane RTL engines — the farm's
/// per-worker unit of work. Shard semantics match
/// [`run_campaign_shard`], so merged shard matrices reproduce
/// [`run_campaign_batched`] byte-for-byte.
pub fn run_campaign_batched_shard(
    config: &CampaignConfig,
    shard: &CampaignShard,
) -> (DetectionMatrix, BatchStats) {
    run_shard::<PackedVec>(config, shard)
}
