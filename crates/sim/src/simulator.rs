use crate::{
    ChipProgram, DropletId, FaultKind, FaultRecord, FaultyOutcome, InjectedFaults, Instruction,
    SimError, SimReport, Trace,
};
use dmf_chip::{CellIndex, ChipSpec, Coord, Module, ModuleId, ModuleKind};
use dmf_pins::PinAssignment;
use dmf_route::{shortest_path, Grid};
use std::collections::{HashMap, HashSet};

/// Executes [`ChipProgram`]s against a chip, enforcing physical rules and
/// counting electrode actuations.
///
/// See the crate documentation for the execution model. A `Simulator`
/// borrows the chip and can run any number of programs; each run starts
/// from an empty chip.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    chip: &'a ChipSpec,
    /// Whether a program may finish with droplets still on chip.
    allow_leftovers: bool,
    /// Pin-constrained backend to execute under, if any. `None` (or a
    /// direct assignment) means every electrode is individually
    /// addressable and no ghost actuations occur.
    pins: Option<&'a PinAssignment>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `chip`.
    pub fn new(chip: &'a ChipSpec) -> Self {
        Simulator { chip, allow_leftovers: false, pins: None }
    }

    /// Permits programs that leave droplets on the chip (useful for
    /// inspecting partial runs).
    pub fn allow_leftovers(mut self) -> Self {
        self.allow_leftovers = true;
        self
    }

    /// Executes under a pin-constrained backend: every intentional
    /// actuation also fires its ghost electrodes (counted into the wear
    /// heatmap and [`SimReport::ghost_actuations`]), a ghost firing
    /// inside a parked droplet's exclusion zone aborts with
    /// [`SimError::PinConflict`], and ad-hoc `TransportTo` routing steers
    /// around cells whose ghosts would endanger parked droplets.
    ///
    /// A direct (one pin per electrode) assignment is dropped here so
    /// runs stay byte-identical to the unconstrained simulator.
    pub fn with_pins(mut self, pins: &'a PinAssignment) -> Self {
        self.pins = Some(pins).filter(|p| !p.is_direct());
        self
    }

    /// Runs a program from an empty chip.
    ///
    /// # Errors
    ///
    /// Returns the first physical-rule violation as a [`SimError`]; the
    /// statistics gathered up to that point are discarded.
    pub fn run(&self, program: &ChipProgram) -> Result<SimReport, SimError> {
        Ok(self.execute_program(program, false)?.0)
    }

    /// Runs a program and records the full event log alongside the report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_traced(&self, program: &ChipProgram) -> Result<(SimReport, Trace), SimError> {
        let (report, trace) = self.execute_program(program, true)?;
        let trace = trace.ok_or(SimError::Internal { invariant: "traced run records a trace" })?;
        Ok((report, trace))
    }

    /// Runs a program under a fault plan, always traced and tolerant of
    /// leftover droplets (survivors are the point).
    ///
    /// With an empty [`InjectedFaults`] the run is byte-identical to
    /// [`Simulator::run_traced`]: same trace, same report (the fault
    /// counters stay zero). With faults, lost droplets cascade — every
    /// instruction referencing a lost droplet is skipped, a mix with a
    /// lost operand is skipped and quarantines the surviving operand —
    /// and sensor checkpoints (every [`InjectedFaults::sensor_period`]
    /// cycles, plus one at the end of the run) detect missing droplets
    /// and reject erroneous ones to waste, so the program completes with
    /// a truthful account of what survived.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] only for violations the fault model cannot
    /// explain (malformed programs); fluid loss is not an error here.
    pub fn run_faulty(
        &self,
        program: &ChipProgram,
        faults: &InjectedFaults,
    ) -> Result<FaultyOutcome, SimError> {
        let _span = dmf_obs::span!("sim_execute");
        let mut state = SimState::new(self.chip, self.pins)?;
        state.trace = Some(Trace::default());
        state.fault = Some(FaultCtx::new(faults.clone()));
        for (step, instruction) in program.instructions().iter().enumerate() {
            state.step = step;
            state.execute_faulty(instruction)?;
        }
        // End-of-run checkpoint: everything still latent becomes detected
        // and no erroneous droplet survives.
        state.sensor_checkpoint()?;
        state.fold_wear();
        let ctx = state
            .fault
            .take()
            .ok_or(SimError::Internal { invariant: "fault context in fault mode" })?;
        let mut survivors: Vec<DropletId> = state.droplets.keys().copied().collect();
        survivors.extend(ctx.quarantined.iter().copied());
        survivors.sort_unstable();
        crate::bridge::record_report(dmf_obs::global(), &state.report);
        let trace =
            state.trace.ok_or(SimError::Internal { invariant: "traced run records a trace" })?;
        Ok(FaultyOutcome { report: state.report, trace, faults: ctx.records, survivors })
    }

    fn execute_program(
        &self,
        program: &ChipProgram,
        traced: bool,
    ) -> Result<(SimReport, Option<Trace>), SimError> {
        let _span = dmf_obs::span!("sim_execute");
        let mut state = SimState::new(self.chip, self.pins)?;
        if traced {
            state.trace = Some(Trace::default());
        }
        for (step, instruction) in program.instructions().iter().enumerate() {
            state.step = step;
            state.execute(instruction)?;
        }
        if !self.allow_leftovers && !state.droplets.is_empty() {
            return Err(SimError::LeftoverDroplets { count: state.droplets.len() });
        }
        state.fold_wear();
        crate::bridge::record_report(dmf_obs::global(), &state.report);
        Ok((state.report, state.trace))
    }
}

/// Fault-mode bookkeeping: the plan being injected and the cascade state
/// (which droplets are lost or carrying a volume error, and which record
/// each traces back to).
struct FaultCtx {
    faults: InjectedFaults,
    /// Lost droplet → index of the originating record in `records`.
    lost: HashMap<DropletId, usize>,
    /// Erroneous droplet → index of the originating record.
    tainted: HashMap<DropletId, usize>,
    records: Vec<FaultRecord>,
    /// Fault-free droplets pulled aside by the controller when their mix
    /// partner was lost (kept off the chip so they cannot contaminate
    /// later rendezvous at the same mixer port).
    quarantined: Vec<DropletId>,
    dispense_seq: u64,
    mix_seq: u64,
}

impl FaultCtx {
    fn new(faults: InjectedFaults) -> Self {
        FaultCtx {
            faults,
            lost: HashMap::new(),
            tainted: HashMap::new(),
            records: Vec::new(),
            quarantined: Vec::new(),
            dispense_seq: 0,
            mix_seq: 0,
        }
    }
}

/// One run's chip state. Per-cell state is dense: `Vec`s with one entry
/// per electrode, numbered row-major by `cells`.
struct SimState<'a> {
    chip: &'a ChipSpec,
    cells: CellIndex,
    /// The module whose footprint covers each cell. Footprints never touch
    /// (`ChipSpec` keeps a guard band between modules), so a cell has at
    /// most one.
    module_at: Vec<Option<&'a Module>>,
    /// Droplets on each cell; always agrees with `droplets`.
    occupancy: Vec<u32>,
    /// Actuations of each electrode, folded into the report's heatmap by
    /// [`SimState::fold_wear`] when the run completes.
    wear: Vec<u32>,
    /// The grid every ad-hoc route starts from: the chip's dead cells
    /// blocked, everything else open.
    dead_grid: Grid,
    droplets: HashMap<DropletId, Coord>,
    storage: HashMap<ModuleId, DropletId>,
    report: SimReport,
    trace: Option<Trace>,
    step: usize,
    fault: Option<FaultCtx>,
    pins: Option<&'a PinAssignment>,
}

impl<'a> SimState<'a> {
    fn new(chip: &'a ChipSpec, pins: Option<&'a PinAssignment>) -> Result<Self, SimError> {
        let cells = CellIndex::new(chip.width(), chip.height())
            .ok_or(SimError::Internal { invariant: "chip cell count fits in usize" })?;
        let mut module_at = vec![None; cells.len()];
        for m in chip.modules() {
            for c in m.rect().cells() {
                if let Some(i) = cells.index(c) {
                    module_at[i] = Some(m);
                }
            }
        }
        let mut dead_grid = Grid::new(chip.width(), chip.height());
        for cell in chip.dead_cells() {
            dead_grid.block(cell);
        }
        Ok(SimState {
            chip,
            cells,
            module_at,
            occupancy: vec![0; cells.len()],
            wear: vec![0; cells.len()],
            dead_grid,
            droplets: HashMap::new(),
            storage: HashMap::new(),
            report: SimReport::default(),
            trace: None,
            step: 0,
            fault: None,
            pins,
        })
    }

    /// The fault context, which every fault-mode handler relies on.
    ///
    /// Fault-mode entry points install it before dispatching, so a miss is
    /// a simulator bug and surfaces as [`SimError::Internal`] instead of a
    /// panic.
    fn fault_ctx(&mut self) -> Result<&mut FaultCtx, SimError> {
        self.fault.as_mut().ok_or(SimError::Internal { invariant: "fault context in fault mode" })
    }

    fn record(&mut self, event: crate::TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.events.push(crate::TimedEvent {
                step: self.step,
                cycle: self.report.cycles,
                event,
            });
        }
    }

    fn execute(&mut self, instruction: &Instruction) -> Result<(), SimError> {
        match instruction {
            Instruction::Dispense { reservoir, droplet } => {
                let module = self.expect_kind(*reservoir, "a fluid reservoir", |k| {
                    matches!(k, ModuleKind::Reservoir { .. })
                })?;
                if self.droplets.contains_key(droplet) {
                    return Err(SimError::DuplicateDroplet { droplet: *droplet });
                }
                let port = module.port();
                if neighborhood(port).any(|c| self.occupied(c)) {
                    let (parked, at) = self.lowest_droplet(*droplet, |at| at.touches(port))?;
                    return Err(SimError::FluidicViolation { moving: *droplet, parked, at });
                }
                self.check_pin_hazard(*droplet, port)?;
                self.place(*droplet, port);
                self.report.dispensed += 1;
                self.actuate(port);
                self.record(crate::TraceEvent::Dispensed {
                    droplet: *droplet,
                    reservoir: *reservoir,
                    at: port,
                });
                Ok(())
            }
            Instruction::Transport { droplet, path } => self.transport(*droplet, path),
            Instruction::TransportTo { droplet, module } => {
                let target = self
                    .chip
                    .modules()
                    .get(module.0)
                    .ok_or(SimError::WrongModuleKind { module: *module, expected: "present" })?;
                let from = self.position(*droplet)?;
                if from == target.port() {
                    return Ok(());
                }
                let path = self
                    .route(from, target.port(), *droplet)
                    .ok_or(SimError::NoRoute { droplet: *droplet, module: *module })?;
                self.transport(*droplet, &path)
            }
            Instruction::MixSplit { mixer, a, b, out_a, out_b } => {
                let module =
                    self.expect_kind(*mixer, "a mixer", |k| matches!(k, ModuleKind::Mixer))?;
                let port = module.port();
                self.expect_at(*a, port)?;
                self.expect_at(*b, port)?;
                for out in [out_a, out_b] {
                    if self.droplets.contains_key(out) && out != a && out != b {
                        return Err(SimError::DuplicateDroplet { droplet: *out });
                    }
                }
                self.lift(*a);
                self.lift(*b);
                self.place(*out_a, port);
                self.place(*out_b, port);
                self.report.mix_splits += 1;
                self.record(crate::TraceEvent::Mixed {
                    mixer: *mixer,
                    inputs: [*a, *b],
                    outputs: [*out_a, *out_b],
                });
                Ok(())
            }
            Instruction::Store { droplet, cell } => {
                let module = self
                    .expect_kind(*cell, "a storage cell", |k| matches!(k, ModuleKind::Storage))?;
                self.expect_at(*droplet, module.port())?;
                if self.storage.contains_key(cell) {
                    return Err(SimError::StorageBusy { cell: *cell });
                }
                self.storage.insert(*cell, *droplet);
                self.report.storage_peak = self.report.storage_peak.max(self.storage.len());
                self.record(crate::TraceEvent::Stored { droplet: *droplet, cell: *cell });
                Ok(())
            }
            Instruction::Fetch { droplet, cell } => match self.storage.get(cell) {
                Some(d) if d == droplet => {
                    self.storage.remove(cell);
                    self.record(crate::TraceEvent::Fetched { droplet: *droplet, cell: *cell });
                    Ok(())
                }
                _ => Err(SimError::StorageBusy { cell: *cell }),
            },
            Instruction::Discard { droplet, waste } => {
                let module = self
                    .expect_kind(*waste, "a waste reservoir", |k| matches!(k, ModuleKind::Waste))?;
                self.expect_at(*droplet, module.port())?;
                self.lift(*droplet);
                self.report.discarded += 1;
                self.record(crate::TraceEvent::Discarded { droplet: *droplet });
                Ok(())
            }
            Instruction::Emit { droplet, output } => {
                let module = self
                    .expect_kind(*output, "an output port", |k| matches!(k, ModuleKind::Output))?;
                self.expect_at(*droplet, module.port())?;
                self.lift(*droplet);
                self.report.emitted += 1;
                self.record(crate::TraceEvent::Emitted { droplet: *droplet });
                Ok(())
            }
            Instruction::CycleMarker { cycle } => {
                self.report.cycles = self.report.cycles.max(*cycle);
                Ok(())
            }
        }
    }

    fn position(&self, droplet: DropletId) -> Result<Coord, SimError> {
        self.droplets.get(&droplet).copied().ok_or(SimError::UnknownDroplet { droplet })
    }

    fn expect_at(&self, droplet: DropletId, expected: Coord) -> Result<(), SimError> {
        let actual = self.position(droplet)?;
        if actual != expected {
            return Err(SimError::Misplaced { droplet, expected, actual });
        }
        Ok(())
    }

    fn expect_kind(
        &self,
        module: ModuleId,
        expected: &'static str,
        pred: impl Fn(ModuleKind) -> bool,
    ) -> Result<&'a dmf_chip::Module, SimError> {
        let m = self
            .chip
            .modules()
            .get(module.0)
            .ok_or(SimError::WrongModuleKind { module, expected })?;
        if !pred(m.kind()) {
            return Err(SimError::WrongModuleKind { module, expected });
        }
        Ok(m)
    }

    /// Puts `droplet` on `at`, lifting it first if it is already on chip.
    fn place(&mut self, droplet: DropletId, at: Coord) {
        if let Some(old) = self.droplets.insert(droplet, at) {
            self.vacate(old);
        }
        self.occupy(at);
    }

    /// Takes `droplet` off the chip, returning where it was.
    fn lift(&mut self, droplet: DropletId) -> Option<Coord> {
        let at = self.droplets.remove(&droplet)?;
        self.vacate(at);
        Some(at)
    }

    fn occupy(&mut self, at: Coord) {
        if let Some(i) = self.cells.index(at) {
            self.occupancy[i] += 1;
        }
    }

    fn vacate(&mut self, at: Coord) {
        if let Some(i) = self.cells.index(at) {
            self.occupancy[i] -= 1;
        }
    }

    /// Whether any droplet on the occupancy grid sits on `c`.
    fn occupied(&self, c: Coord) -> bool {
        self.cells.index(c).is_some_and(|i| self.occupancy[i] > 0)
    }

    /// The module whose footprint covers `c`, if any.
    fn module_at(&self, c: Coord) -> Option<&'a Module> {
        self.cells.index(c).and_then(|i| self.module_at[i])
    }

    fn in_module(&self, c: Coord) -> bool {
        self.module_at(c).is_some()
    }

    fn in_mixer(&self, c: Coord) -> bool {
        self.module_at(c).is_some_and(Module::is_mixer)
    }

    /// Whether `a` and `b` lie in the footprint of one mixer.
    fn same_mixer(&self, a: Coord, b: Coord) -> bool {
        matches!(
            (self.module_at(a), self.module_at(b)),
            (Some(m), Some(n)) if m.is_mixer() && m.id() == n.id()
        )
    }

    /// The lowest-id droplet other than `moving` whose cell satisfies
    /// `pred`. Errors name it, so a rule broken by several droplets at
    /// once always reports the same one; the caller has already seen on
    /// the occupancy grid that one exists.
    fn lowest_droplet(
        &self,
        moving: DropletId,
        pred: impl Fn(Coord) -> bool,
    ) -> Result<(DropletId, Coord), SimError> {
        self.droplets
            .iter()
            .filter(|&(&id, &at)| id != moving && pred(at))
            .map(|(&id, &at)| (id, at))
            .min()
            .ok_or(SimError::Internal { invariant: "occupancy grid agrees with droplets" })
    }

    /// Fluidic gate for `moving` stepping onto `next`: no other droplet
    /// may touch it, except one shielded inside a module footprint (and
    /// not on `next` itself) or one in the same mixer footprint, where
    /// droplets meet to be merged by the mixer itself.
    fn check_fluidic(&self, moving: DropletId, next: Coord) -> Result<(), SimError> {
        let violates = |at: Coord| {
            let shielded = self.in_module(at) && at != next;
            !shielded && !self.same_mixer(at, next)
        };
        if neighborhood(next).any(|at| self.occupied(at) && violates(at)) {
            let (parked, at) =
                self.lowest_droplet(moving, |at| next.touches(at) && violates(at))?;
            return Err(SimError::FluidicViolation { moving, parked, at });
        }
        Ok(())
    }

    /// Pin-safety gate for an intentional actuation of `actuated` by
    /// `moving`: under a shared-pin backend a ghost firing inside a
    /// parked droplet's exclusion zone could drag or split it. Droplets
    /// inside module footprints are shielded by the module geometry,
    /// mirroring the fluidic rule.
    fn check_pin_hazard(&self, moving: DropletId, actuated: Coord) -> Result<(), SimError> {
        let Some(pins) = self.pins else {
            return Ok(());
        };
        // `co_activation_conflict(actuated, at)` holds exactly when a ghost
        // of `actuated` fires on one of `at`'s eight neighbours.
        let exposed = |at: Coord| self.occupied(at) && !self.in_module(at);
        if pins.ghosts(actuated).any(|g| g.all_neighbors().into_iter().any(exposed)) {
            let (parked, at) = self.lowest_droplet(moving, |at| {
                !self.in_module(at) && pins.co_activation_conflict(actuated, at)
            })?;
            return Err(SimError::PinConflict { moving, parked, actuated, at });
        }
        Ok(())
    }

    /// Accounts an intentional actuation of `c`: it wears, and under a
    /// shared-pin backend every other member of its pin group fires too
    /// and wears its electrode.
    fn actuate(&mut self, c: Coord) {
        self.wear(c);
        if let Some(pins) = self.pins {
            for g in pins.ghosts(c) {
                self.report.ghost_actuations += 1;
                self.wear(g);
            }
        }
    }

    fn wear(&mut self, c: Coord) {
        match self.cells.index(c) {
            Some(i) => self.wear[i] += 1,
            // A pin assignment drawn for a larger array can name cells off
            // this chip; they still count.
            None => *self.report.electrode_actuations.entry(c).or_insert(0) += 1,
        }
    }

    /// Moves the dense wear counters into the report's heatmap, keeping
    /// only electrodes that were actuated.
    fn fold_wear(&mut self) {
        for (c, n) in self.cells.coords().zip(std::mem::take(&mut self.wear)) {
            if n > 0 {
                *self.report.electrode_actuations.entry(c).or_insert(0) += n;
            }
        }
    }

    fn transport(&mut self, droplet: DropletId, path: &[Coord]) -> Result<(), SimError> {
        let from = self.position(droplet)?;
        let Some((&first, rest)) = path.split_first() else {
            return Err(SimError::BadPath { droplet, reason: "empty path".into() });
        };
        if first != from {
            return Err(SimError::BadPath {
                droplet,
                reason: format!("path starts at {first}, droplet is at {from}"),
            });
        }
        // Off the occupancy grid while it moves, so the gates see only
        // the other droplets. Every error ends the run, so a failed hop
        // leaves it off.
        self.vacate(from);
        let mut pos = from;
        for &next in rest {
            if self.cells.index(next).is_none() {
                return Err(SimError::BadPath { droplet, reason: format!("{next} off grid") });
            }
            if pos.manhattan(next) > 1 {
                return Err(SimError::BadPath {
                    droplet,
                    reason: format!("non-adjacent hop {pos} -> {next}"),
                });
            }
            self.check_fluidic(droplet, next)?;
            if pos != next {
                self.check_pin_hazard(droplet, next)?;
                self.report.transport_actuations += 1;
                self.actuate(next);
            }
            pos = next;
        }
        let hops = path.windows(2).filter(|w| w[0] != w[1]).count() as u32;
        self.droplets.insert(droplet, pos);
        self.occupy(pos);
        self.record(crate::TraceEvent::Moved { droplet, from, to: pos, hops });
        Ok(())
    }

    /// Fault-mode dispatcher: cascades losses (instructions referencing a
    /// lost droplet are skipped), injects planned faults at their ordinal
    /// or electrode, propagates split-error taint through mixes, and runs
    /// sensor checkpoints. With an empty plan every arm reduces to
    /// [`SimState::execute`], keeping zero-fault runs byte-identical to
    /// the baseline.
    fn execute_faulty(&mut self, instruction: &Instruction) -> Result<(), SimError> {
        match instruction {
            Instruction::Dispense { reservoir, droplet } => {
                let seq = {
                    let ctx = self.fault_ctx()?;
                    let s = ctx.dispense_seq;
                    ctx.dispense_seq += 1;
                    s
                };
                let fails = self
                    .fault
                    .as_ref()
                    .is_some_and(|ctx| ctx.faults.failed_dispenses.contains(&seq));
                if fails {
                    self.report.droplets_lost += 1;
                    let idx =
                        self.inject(FaultKind::DispenseFailed { reservoir: *reservoir }, *droplet)?;
                    self.mark_lost(*droplet, idx)?;
                    return Ok(());
                }
                self.execute(instruction)
            }
            Instruction::Transport { droplet, path } => {
                if self.is_lost(*droplet) {
                    return Ok(());
                }
                self.transport_with_faults(*droplet, path)
            }
            Instruction::TransportTo { droplet, module } => {
                if self.is_lost(*droplet) {
                    return Ok(());
                }
                let target = self
                    .chip
                    .modules()
                    .get(module.0)
                    .ok_or(SimError::WrongModuleKind { module: *module, expected: "present" })?;
                let to = target.port();
                let from = self.position(*droplet)?;
                if from == to {
                    return Ok(());
                }
                match self.route(from, to, *droplet) {
                    Some(path) => self.transport_with_faults(*droplet, &path),
                    None => {
                        // Boxed in (dead electrodes closed every corridor):
                        // the controller abandons the droplet rather than
                        // aborting the whole run.
                        self.lift(*droplet);
                        self.report.droplets_lost += 1;
                        let idx = self.inject(FaultKind::Stranded { at: from }, *droplet)?;
                        self.mark_lost(*droplet, idx)?;
                        Ok(())
                    }
                }
            }
            Instruction::MixSplit { mixer, a, b, out_a, out_b } => {
                let seq = {
                    let ctx = self.fault_ctx()?;
                    let s = ctx.mix_seq;
                    ctx.mix_seq += 1;
                    s
                };
                if let Some(idx) = self.lost_record(*a).or_else(|| self.lost_record(*b)) {
                    // The mix cannot fire. Quarantine a surviving operand so
                    // it cannot contaminate later rendezvous at this port,
                    // and propagate the loss to both outputs.
                    for operand in [*a, *b] {
                        if !self.is_lost(operand) && self.lift(operand).is_some() {
                            self.fault_ctx()?.quarantined.push(operand);
                        }
                    }
                    self.mark_lost(*out_a, idx)?;
                    self.mark_lost(*out_b, idx)?;
                    return Ok(());
                }
                self.execute(instruction)?;
                let inherited = self.taint_record(*a).or_else(|| self.taint_record(*b));
                let bad_split =
                    self.fault.as_ref().is_some_and(|ctx| ctx.faults.bad_splits.contains(&seq));
                let idx = if bad_split {
                    Some(self.inject(FaultKind::SplitError { mixer: *mixer }, *out_a)?)
                } else {
                    inherited
                };
                if let Some(idx) = idx {
                    let ctx = self.fault_ctx()?;
                    ctx.tainted.insert(*out_a, idx);
                    ctx.tainted.insert(*out_b, idx);
                }
                Ok(())
            }
            Instruction::Store { droplet, .. }
            | Instruction::Fetch { droplet, .. }
            | Instruction::Discard { droplet, .. } => {
                if self.is_lost(*droplet) {
                    return Ok(());
                }
                self.execute(instruction)
            }
            Instruction::Emit { droplet, .. } => {
                if self.is_lost(*droplet) {
                    return Ok(());
                }
                if let Some(idx) = self.taint_record(*droplet) {
                    // Output-port sensor: the droplet's CF is outside the
                    // tolerated margin — reject it to waste, never emit.
                    self.reject(*droplet, idx)?;
                    return Ok(());
                }
                self.execute(instruction)
            }
            Instruction::CycleMarker { cycle } => {
                self.execute(instruction)?;
                let period =
                    self.fault.as_ref().map(|ctx| ctx.faults.sensor_period).unwrap_or_default();
                if period > 0 && cycle % period == 0 {
                    self.sensor_checkpoint()?;
                }
                Ok(())
            }
        }
    }

    /// Like [`SimState::transport`], but a path crossing a latent dead
    /// electrode strands the droplet there: it moves up to the dead cell,
    /// sticks, and is lost.
    fn transport_with_faults(
        &mut self,
        droplet: DropletId,
        path: &[Coord],
    ) -> Result<(), SimError> {
        let dead_at = self.fault.as_ref().and_then(|ctx| {
            path.iter().enumerate().skip(1).find(|(_, c)| ctx.faults.dead_cells.contains(c))
        });
        match dead_at.map(|(i, _)| i) {
            None => self.transport(droplet, path),
            Some(i) => {
                let cell = path[i];
                self.transport(droplet, &path[..=i])?;
                self.lift(droplet);
                self.report.droplets_lost += 1;
                let idx = self.inject(FaultKind::StuckElectrode { cell }, droplet)?;
                self.mark_lost(droplet, idx)?;
                Ok(())
            }
        }
    }

    /// Records an injected fault and its trace event, returning the
    /// record's index.
    fn inject(&mut self, kind: FaultKind, droplet: DropletId) -> Result<usize, SimError> {
        let cycle = self.report.cycles;
        self.report.faults_injected += 1;
        self.record(crate::TraceEvent::FaultInjected { droplet, kind });
        let ctx = self.fault_ctx()?;
        ctx.records.push(FaultRecord {
            kind,
            droplet,
            injected_cycle: cycle,
            detected_cycle: None,
        });
        Ok(ctx.records.len() - 1)
    }

    fn mark_lost(&mut self, droplet: DropletId, idx: usize) -> Result<(), SimError> {
        self.fault_ctx()?.lost.insert(droplet, idx);
        Ok(())
    }

    fn lost_record(&self, droplet: DropletId) -> Option<usize> {
        self.fault.as_ref().and_then(|ctx| ctx.lost.get(&droplet).copied())
    }

    fn is_lost(&self, droplet: DropletId) -> bool {
        self.lost_record(droplet).is_some()
    }

    fn taint_record(&self, droplet: DropletId) -> Option<usize> {
        self.fault.as_ref().and_then(|ctx| ctx.tainted.get(&droplet).copied())
    }

    /// Marks record `idx` detected at the current cycle (idempotent).
    fn detect(&mut self, idx: usize) -> Result<(), SimError> {
        let cycle = self.report.cycles;
        let ctx = self.fault_ctx()?;
        let fresh = match ctx.records.get_mut(idx) {
            Some(record) if record.detected_cycle.is_none() => {
                record.detected_cycle = Some(cycle);
                true
            }
            Some(_) => false,
            None => {
                return Err(SimError::Internal { invariant: "fault record index in range" });
            }
        };
        if fresh {
            self.report.faults_detected += 1;
        }
        Ok(())
    }

    /// A sensor rejects an erroneous droplet to waste: it is removed from
    /// the chip (and storage), discarded, and its record marked detected.
    fn reject(&mut self, droplet: DropletId, idx: usize) -> Result<(), SimError> {
        self.lift(droplet);
        self.storage.retain(|_, d| *d != droplet);
        self.record(crate::TraceEvent::FaultDetected { droplet });
        self.record(crate::TraceEvent::Discarded { droplet });
        self.report.discarded += 1;
        self.mark_lost(droplet, idx)?;
        self.detect(idx)
    }

    /// A checkpoint "sensor" cycle: compares observed droplet state with
    /// the plan. Erroneous droplets still on chip are rejected to waste
    /// (in id order, for determinism) and every still-latent fault record
    /// — a droplet the plan expects but the chip no longer carries — is
    /// marked detected.
    fn sensor_checkpoint(&mut self) -> Result<(), SimError> {
        let Some(ctx) = self.fault.as_ref() else {
            return Ok(());
        };
        let mut bad: Vec<(DropletId, usize)> =
            self.droplets.keys().filter_map(|d| ctx.tainted.get(d).map(|&idx| (*d, idx))).collect();
        bad.sort_unstable_by_key(|(d, _)| d.0);
        for (droplet, idx) in bad {
            self.reject(droplet, idx)?;
        }
        let latent: Vec<(usize, DropletId)> = {
            let ctx = self.fault_ctx()?;
            ctx.records
                .iter()
                .enumerate()
                .filter(|(_, r)| r.detected_cycle.is_none())
                .map(|(idx, r)| (idx, r.droplet))
                .collect()
        };
        for (idx, droplet) in latent {
            self.record(crate::TraceEvent::FaultDetected { droplet });
            self.detect(idx)?;
        }
        Ok(())
    }

    fn route(&self, from: Coord, to: Coord, moving: DropletId) -> Option<Vec<Coord>> {
        // Open grid except other droplets' guard bands; module footprints
        // stay passable because ports live inside them and droplets travel
        // between ports. (Module interiors are shielded, so crossing a
        // footprint corner is harmless in this abstraction.) Electrodes
        // diagnosed dead on the chip are never routed across.
        let mut grid = self.dead_grid.clone();
        let parked =
            || self.droplets.iter().filter(move |(&id, _)| id != moving).map(|(_, &at)| at);
        for at in parked() {
            if at == to && !self.in_mixer(to) {
                // The destination cell is taken and it is not a mixer
                // rendezvous: unroutable.
                return None;
            }
            if self.in_module(at) {
                // Only the occupied cell itself is off-limits (and a mixer
                // rendezvous cell not even that).
                if !(self.in_mixer(at) && at == to) {
                    grid.block(at);
                }
            } else {
                grid.block(at);
                for n in at.all_neighbors() {
                    grid.block(n);
                }
            }
        }
        if let Some(pins) = self.pins {
            // Under a shared-pin backend a cell whose ghosts would fire
            // inside an unshielded parked droplet's exclusion zone is as
            // good as blocked: steer ad-hoc routes around it so the
            // transport's pin-hazard gate never trips on our own paths.
            let guarded: Vec<Coord> = parked().filter(|&at| !self.in_module(at)).collect();
            if !guarded.is_empty() {
                for c in self.cells.coords() {
                    if guarded.iter().any(|&at| pins.co_activation_conflict(c, at)) {
                        grid.block(c);
                    }
                }
            }
        }
        shortest_path(&grid, from, to, &HashSet::new())
    }
}

/// `c` and its eight neighbours: every cell within the fluidic
/// exclusion zone of a droplet on `c`.
fn neighborhood(c: Coord) -> impl Iterator<Item = Coord> {
    std::iter::once(c).chain(c.all_neighbors())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_chip::presets::pcr_chip;
    use dmf_chip::Rect;

    fn ids(chip: &ChipSpec) -> (ModuleId, ModuleId, ModuleId, ModuleId, ModuleId) {
        let r1 = chip.reservoir_for(0).unwrap().id();
        let r7 = chip.reservoir_for(6).unwrap().id();
        let m1 = chip.mixers().next().unwrap().id();
        let w1 = chip.waste_reservoirs().next().unwrap().id();
        let o1 = chip.outputs().next().unwrap().id();
        (r1, r7, m1, w1, o1)
    }

    #[test]
    fn dispense_mix_emit_happy_path() {
        let chip = pcr_chip();
        let (r1, r7, m1, w1, o1) = ids(&chip);
        let mut p = ChipProgram::new();
        p.push(Instruction::CycleMarker { cycle: 1 });
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: m1 });
        p.push(Instruction::Dispense { reservoir: r7, droplet: DropletId(1) });
        p.push(Instruction::TransportTo { droplet: DropletId(1), module: m1 });
        p.push(Instruction::MixSplit {
            mixer: m1,
            a: DropletId(0),
            b: DropletId(1),
            out_a: DropletId(2),
            out_b: DropletId(3),
        });
        p.push(Instruction::TransportTo { droplet: DropletId(2), module: o1 });
        p.push(Instruction::Emit { droplet: DropletId(2), output: o1 });
        p.push(Instruction::TransportTo { droplet: DropletId(3), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(3), waste: w1 });
        let report = Simulator::new(&chip).run(&p).unwrap();
        assert_eq!(report.dispensed, 2);
        assert_eq!(report.mix_splits, 1);
        assert_eq!(report.emitted, 1);
        assert_eq!(report.discarded, 1);
        assert!(report.transport_actuations > 0);
        assert_eq!(report.cycles, 1);
    }

    #[test]
    fn storage_cells_hold_one_droplet() {
        let chip = pcr_chip();
        let (r1, _, _, w1, _) = ids(&chip);
        let q1 = chip.storage_cells().next().unwrap().id();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: q1 });
        p.push(Instruction::Store { droplet: DropletId(0), cell: q1 });
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(1) });
        p.push(Instruction::TransportTo { droplet: DropletId(1), module: q1 });
        let err = Simulator::new(&chip).allow_leftovers().run(&p).unwrap_err();
        // The second droplet cannot even approach: the first one is parked
        // on the storage cell it targets.
        assert!(matches!(err, SimError::NoRoute { .. } | SimError::StorageBusy { .. }));

        // Store/fetch round-trip works and the peak is recorded.
        let mut p2 = ChipProgram::new();
        p2.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p2.push(Instruction::TransportTo { droplet: DropletId(0), module: q1 });
        p2.push(Instruction::Store { droplet: DropletId(0), cell: q1 });
        p2.push(Instruction::Fetch { droplet: DropletId(0), cell: q1 });
        p2.push(Instruction::TransportTo { droplet: DropletId(0), module: w1 });
        p2.push(Instruction::Discard { droplet: DropletId(0), waste: w1 });
        let report = Simulator::new(&chip).run(&p2).unwrap();
        assert_eq!(report.storage_peak, 1);
    }

    #[test]
    fn misplaced_droplets_are_rejected() {
        let chip = pcr_chip();
        let (r1, _, m1, _, _) = ids(&chip);
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(1) });
        let err = Simulator::new(&chip).allow_leftovers().run(&p).unwrap_err();
        assert!(matches!(err, SimError::FluidicViolation { .. }));
        let mut p2 = ChipProgram::new();
        p2.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p2.push(Instruction::MixSplit {
            mixer: m1,
            a: DropletId(0),
            b: DropletId(0),
            out_a: DropletId(1),
            out_b: DropletId(2),
        });
        let err2 = Simulator::new(&chip).allow_leftovers().run(&p2).unwrap_err();
        assert!(matches!(err2, SimError::Misplaced { .. }));
    }

    #[test]
    fn leftover_droplets_are_flagged() {
        let chip = pcr_chip();
        let (r1, ..) = ids(&chip);
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        assert!(matches!(
            Simulator::new(&chip).run(&p),
            Err(SimError::LeftoverDroplets { count: 1 })
        ));
        assert!(Simulator::new(&chip).allow_leftovers().run(&p).is_ok());
    }

    #[test]
    fn electrode_heatmap_tracks_wear() {
        let chip = pcr_chip();
        let (r1, _, _, w1, _) = ids(&chip);
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(0), waste: w1 });
        let report = Simulator::new(&chip).run(&p).unwrap();
        // One actuation per hop plus the dispense; sums must agree.
        let total: u32 = report.electrode_actuations.values().sum();
        assert_eq!(u64::from(total), report.transport_actuations + report.dispensed);
        assert!(report.max_electrode_actuations() >= 1);
        assert!(report.actuated_electrodes() as u64 >= report.transport_actuations);
        assert!(report.hottest_electrode().is_some());
    }

    #[test]
    fn manual_paths_are_validated() {
        let chip = pcr_chip();
        let (r1, ..) = ids(&chip);
        let start = chip.module(r1).port();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::Transport {
            droplet: DropletId(0),
            path: vec![start, Coord::new(start.x + 3, start.y)],
        });
        let err = Simulator::new(&chip).allow_leftovers().run(&p).unwrap_err();
        assert!(matches!(err, SimError::BadPath { .. }));
    }

    #[test]
    fn pinned_run_counts_ghost_wear() {
        use dmf_pins::{ChipBackend, RowColumn};
        let chip = pcr_chip();
        let (r1, _, _, w1, _) = ids(&chip);
        let pins = RowColumn::default().assign_chip(&chip).unwrap();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(0), waste: w1 });
        let plain = Simulator::new(&chip).run(&p).unwrap();
        assert_eq!(plain.ghost_actuations, 0);
        let pinned = Simulator::new(&chip).with_pins(&pins).run(&p).unwrap();
        // A lone droplet can never pin-conflict, but every actuation now
        // drags its group mates: the heatmap grows by exactly the ghosts.
        assert!(pinned.ghost_actuations > 0);
        let plain_total: u64 = plain.electrode_actuations.values().map(|&n| u64::from(n)).sum();
        let pinned_total: u64 = pinned.electrode_actuations.values().map(|&n| u64::from(n)).sum();
        assert_eq!(pinned_total, plain_total + pinned.ghost_actuations);
        assert_eq!(pinned.transport_actuations, plain.transport_actuations);
    }

    #[test]
    fn direct_backend_is_byte_identical() {
        use dmf_pins::BackendKind;
        let chip = pcr_chip();
        let (r1, r7, m1, w1, o1) = ids(&chip);
        let direct = BackendKind::DirectAddress.backend().assign_chip(&chip).unwrap();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: m1 });
        p.push(Instruction::Dispense { reservoir: r7, droplet: DropletId(1) });
        p.push(Instruction::TransportTo { droplet: DropletId(1), module: m1 });
        p.push(Instruction::MixSplit {
            mixer: m1,
            a: DropletId(0),
            b: DropletId(1),
            out_a: DropletId(2),
            out_b: DropletId(3),
        });
        p.push(Instruction::TransportTo { droplet: DropletId(2), module: o1 });
        p.push(Instruction::Emit { droplet: DropletId(2), output: o1 });
        p.push(Instruction::TransportTo { droplet: DropletId(3), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(3), waste: w1 });
        let plain = Simulator::new(&chip).run(&p).unwrap();
        let pinned = Simulator::new(&chip).with_pins(&direct).run(&p).unwrap();
        assert_eq!(plain, pinned);
        assert_eq!(pinned.ghost_actuations, 0);
    }

    #[test]
    fn ghost_into_parked_droplet_is_a_pin_conflict() {
        // A bare 13x3 chip, pitch-5 row sharing: columns {1,6,11} share a
        // pin per row, so marching a droplet rightward from x=0 ghost-
        // fires (11,1) on its first hop — adjacent to the droplet parked
        // at (12,2). Co-activation hazard despite full fluidic legality.
        use dmf_pins::{ChipBackend, RowColumn};
        let mut chip = ChipSpec::new(13, 3).unwrap();
        let ra = chip
            .add_module("R1", ModuleKind::Reservoir { fluid: 0 }, Rect::new(0, 1, 1, 1))
            .unwrap();
        let rb = chip
            .add_module("R2", ModuleKind::Reservoir { fluid: 1 }, Rect::new(12, 1, 1, 1))
            .unwrap();
        let pins = RowColumn::new(5).unwrap().assign_chip(&chip).unwrap();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: rb, droplet: DropletId(1) });
        p.push(Instruction::Transport {
            droplet: DropletId(1),
            path: vec![Coord::new(12, 1), Coord::new(12, 2)],
        });
        p.push(Instruction::Dispense { reservoir: ra, droplet: DropletId(0) });
        p.push(Instruction::Transport {
            droplet: DropletId(0),
            path: (0..=6).map(|x| Coord::new(x, 1)).collect(),
        });
        // Fluidically legal: the droplets stay 6 columns apart. The
        // unconstrained simulator accepts the program...
        assert!(Simulator::new(&chip).allow_leftovers().run(&p).is_ok());
        // ...but under shared pins the hop onto (6,1) ghost-fires (11,1)
        // next to the droplet parked at (12,2).
        let err = Simulator::new(&chip).with_pins(&pins).allow_leftovers().run(&p).unwrap_err();
        assert!(matches!(err, SimError::PinConflict { .. }), "got {err:?}");
    }

    #[test]
    fn fluidic_violation_detected_on_open_cells() {
        // Two droplets on a bare chip: moving one straight through the
        // other's guard band must fail.
        let mut chip = ChipSpec::new(9, 3).unwrap();
        let ra = chip
            .add_module("R1", ModuleKind::Reservoir { fluid: 0 }, Rect::new(0, 1, 1, 1))
            .unwrap();
        let rb = chip
            .add_module("R2", ModuleKind::Reservoir { fluid: 1 }, Rect::new(8, 1, 1, 1))
            .unwrap();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: ra, droplet: DropletId(0) });
        p.push(Instruction::Transport {
            droplet: DropletId(0),
            path: (0..=4).map(|x| Coord::new(x, 1)).collect(),
        });
        p.push(Instruction::Dispense { reservoir: rb, droplet: DropletId(1) });
        p.push(Instruction::Transport {
            droplet: DropletId(1),
            path: (4..=8).rev().map(|x| Coord::new(x, 1)).collect(),
        });
        let err = Simulator::new(&chip).allow_leftovers().run(&p).unwrap_err();
        assert!(matches!(err, SimError::FluidicViolation { .. }));
    }

    /// Runs `program` through 32 fresh simulators — each with freshly
    /// seeded hash maps — and returns the one error they all agree on.
    fn the_only_error(chip: &ChipSpec, pins: Option<&PinAssignment>, p: &ChipProgram) -> SimError {
        let mut errors: Vec<SimError> = (0..32)
            .map(|_| {
                let sim = Simulator::new(chip).allow_leftovers();
                let sim = match pins {
                    Some(pins) => sim.with_pins(pins),
                    None => sim,
                };
                sim.run(p).unwrap_err()
            })
            .collect();
        errors.dedup();
        assert_eq!(errors.len(), 1, "errors vary between runs: {errors:?}");
        errors.remove(0)
    }

    #[test]
    fn fluidic_violation_names_the_lowest_parked_droplet() {
        // d5 parks at (4,1) and d2 at (4,3); d9's hop onto (3,2) touches
        // both.
        let mut chip = ChipSpec::new(9, 5).unwrap();
        let r1 = chip
            .add_module("R1", ModuleKind::Reservoir { fluid: 0 }, Rect::new(0, 2, 1, 1))
            .unwrap();
        let r2 = chip
            .add_module("R2", ModuleKind::Reservoir { fluid: 1 }, Rect::new(4, 0, 1, 1))
            .unwrap();
        let r3 = chip
            .add_module("R3", ModuleKind::Reservoir { fluid: 2 }, Rect::new(4, 4, 1, 1))
            .unwrap();
        let mut p = ChipProgram::new();
        for (reservoir, droplet, park) in [(r2, 5, (4, 1)), (r3, 2, (4, 3))] {
            let port = chip.module(reservoir).port();
            p.push(Instruction::Dispense { reservoir, droplet: DropletId(droplet) });
            p.push(Instruction::Transport {
                droplet: DropletId(droplet),
                path: vec![port, Coord::new(park.0, park.1)],
            });
        }
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(9) });
        p.push(Instruction::Transport {
            droplet: DropletId(9),
            path: (0..=3).map(|x| Coord::new(x, 2)).collect(),
        });
        let err = the_only_error(&chip, None, &p);
        assert_eq!(
            err,
            SimError::FluidicViolation {
                moving: DropletId(9),
                parked: DropletId(2),
                at: Coord::new(4, 3)
            }
        );
    }

    #[test]
    fn pin_conflict_names_the_lowest_parked_droplet() {
        // Pitch-5 row sharing on a 13x3 chip: driving (1,1) ghost-fires
        // (11,1), next to both d7 parked at (12,2) and d3 parked at (10,0).
        use dmf_pins::{ChipBackend, RowColumn};
        let mut chip = ChipSpec::new(13, 3).unwrap();
        let r1 = chip
            .add_module("R1", ModuleKind::Reservoir { fluid: 0 }, Rect::new(0, 1, 1, 1))
            .unwrap();
        let r2 = chip
            .add_module("R2", ModuleKind::Reservoir { fluid: 1 }, Rect::new(12, 1, 1, 1))
            .unwrap();
        let r3 = chip
            .add_module("R3", ModuleKind::Reservoir { fluid: 2 }, Rect::new(8, 0, 1, 1))
            .unwrap();
        let pins = RowColumn::new(5).unwrap().assign_chip(&chip).unwrap();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::Dispense { reservoir: r2, droplet: DropletId(7) });
        p.push(Instruction::Transport {
            droplet: DropletId(7),
            path: vec![Coord::new(12, 1), Coord::new(12, 2)],
        });
        p.push(Instruction::Dispense { reservoir: r3, droplet: DropletId(3) });
        p.push(Instruction::Transport {
            droplet: DropletId(3),
            path: (8..=10).map(|x| Coord::new(x, 0)).collect(),
        });
        p.push(Instruction::Transport {
            droplet: DropletId(0),
            path: vec![Coord::new(0, 1), Coord::new(1, 1)],
        });
        assert!(Simulator::new(&chip).allow_leftovers().run(&p).is_ok());
        let err = the_only_error(&chip, Some(&pins), &p);
        assert_eq!(
            err,
            SimError::PinConflict {
                moving: DropletId(0),
                parked: DropletId(3),
                actuated: Coord::new(1, 1),
                at: Coord::new(10, 0)
            }
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::TraceEvent;
    use dmf_chip::presets::pcr_chip;

    #[test]
    fn traced_run_logs_every_droplet_lifecycle() {
        let chip = pcr_chip();
        let r1 = chip.reservoir_for(0).unwrap().id();
        let r7 = chip.reservoir_for(6).unwrap().id();
        let m1 = chip.mixers().next().unwrap().id();
        let w1 = chip.waste_reservoirs().next().unwrap().id();
        let o1 = chip.outputs().next().unwrap().id();
        let mut p = ChipProgram::new();
        p.push(Instruction::CycleMarker { cycle: 1 });
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: m1 });
        p.push(Instruction::Dispense { reservoir: r7, droplet: DropletId(1) });
        p.push(Instruction::TransportTo { droplet: DropletId(1), module: m1 });
        p.push(Instruction::MixSplit {
            mixer: m1,
            a: DropletId(0),
            b: DropletId(1),
            out_a: DropletId(2),
            out_b: DropletId(3),
        });
        p.push(Instruction::TransportTo { droplet: DropletId(2), module: o1 });
        p.push(Instruction::Emit { droplet: DropletId(2), output: o1 });
        p.push(Instruction::TransportTo { droplet: DropletId(3), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(3), waste: w1 });
        let (report, trace) = Simulator::new(&chip).run_traced(&p).unwrap();
        // Untraced run agrees.
        assert_eq!(report, Simulator::new(&chip).run(&p).unwrap());
        // Droplet 0: dispensed, moved, mixed.
        let history = trace.droplet_history(DropletId(0));
        assert!(matches!(history[0].event, TraceEvent::Dispensed { .. }));
        assert!(matches!(history.last().unwrap().event, TraceEvent::Mixed { .. }));
        // Droplet 2: born in the mix, moved, emitted.
        let out = trace.droplet_history(DropletId(2));
        assert!(matches!(out.last().unwrap().event, TraceEvent::Emitted { .. }));
        // Cycle attribution and rendering.
        assert!(trace.events().iter().all(|e| e.cycle == 1));
        assert_eq!(trace.cycle_events(1).len(), trace.len());
        let text = trace.render();
        assert!(text.contains("mixed at"));
        assert!(text.contains("emitted as target"));
        // Moved hops agree with the actuation count.
        let moved_hops: u32 = trace
            .events()
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Moved { hops, .. } => Some(hops),
                _ => None,
            })
            .sum();
        assert_eq!(u64::from(moved_hops), report.transport_actuations);
    }
}
