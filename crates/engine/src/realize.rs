use crate::{EngineError, PassPlan};
use dmf_chip::{ChipSpec, ModuleId};
use dmf_mixgraph::{NodeId, Operand};
use dmf_sim::{ChipProgram, DropletId, Instruction};
use std::collections::HashMap;

/// Lowers one scheduled pass onto a concrete chip, producing the exact
/// droplet-level instruction stream the simulator executes.
///
/// The compilation follows the serialized-transport model (crate docs): for
/// every schedule cycle it first *fetches* stored operands, then *clears*
/// the previous cycle's mixer outputs (to storage, waste or the output
/// port), then *gathers* fresh dispenses and direct hand-offs, and finally
/// fires the cycle's mix-splits. Storage cells are allocated
/// nearest-first to the producing mixer; direct producer-to-consumer
/// hand-offs bypass storage exactly when Algorithm 3 counts no storage for
/// them, so the simulator's observed `storage_peak` equals the schedule's
/// `q`.
///
/// # Errors
///
/// Returns [`EngineError::Chip`] when the chip lacks required modules,
/// [`EngineError::Sched`]-level mismatches when the chip has fewer mixers
/// than the schedule uses, and [`EngineError::StorageExhausted`] when the
/// chip has fewer storage cells than the schedule's `q`.
///
/// # Examples
///
/// ```
/// use dmf_chip::presets::pcr_chip;
/// use dmf_engine::{realize_pass, EngineConfig, StreamingEngine};
/// use dmf_ratio::TargetRatio;
/// use dmf_sim::Simulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let plan = StreamingEngine::new(EngineConfig::default()).plan(&target, 20)?;
/// let chip = pcr_chip();
/// let program = realize_pass(&plan.passes[0], &chip)?;
/// let report = Simulator::new(&chip).run(&program)?;
/// assert_eq!(report.emitted, 20);
/// # Ok(())
/// # }
/// ```
pub fn realize_pass(pass: &PassPlan, chip: &ChipSpec) -> Result<ChipProgram, EngineError> {
    let _span = dmf_obs::span!("engine_realize");
    // Translation validation: in debug builds the independent checker
    // vets the pass artifacts and the target layout before lowering.
    crate::check::debug_check_pass(pass);
    #[cfg(debug_assertions)]
    {
        let placement = dmf_check::check_placement(chip);
        debug_assert!(placement.is_clean(), "realizing onto an unsound layout:\n{placement}");
    }
    Realizer::new(pass, chip)?.compile()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    AtMixer(ModuleId),
    InStorage(ModuleId),
}

/// A violated compiler invariant, surfaced as a typed error: the pass
/// artifacts were vetted up front, so reaching one of these means a bug in
/// the lowering itself, not bad input.
fn internal(what: &str) -> EngineError {
    EngineError::Internal { what: what.into() }
}

struct Realizer<'a> {
    pass: &'a PassPlan,
    chip: &'a ChipSpec,
    mixers: Vec<ModuleId>,
    storage: Vec<ModuleId>,
    storage_free: Vec<bool>,
    outputs: Vec<ModuleId>,
    wastes: Vec<ModuleId>,
    program: ChipProgram,
    next_droplet: u64,
    loc: HashMap<DropletId, Loc>,
    /// Droplets reserved for a (consumer, producer) operand edge.
    reserved: HashMap<(NodeId, NodeId), Vec<DropletId>>,
    /// The two output droplets of every fired node.
    produced: HashMap<NodeId, [DropletId; 2]>,
    /// Per-cycle node lists, mixer-ordered.
    by_cycle: Vec<Vec<NodeId>>,
}

impl<'a> Realizer<'a> {
    fn new(pass: &'a PassPlan, chip: &'a ChipSpec) -> Result<Self, EngineError> {
        chip.validate_for_engine(pass.forest.fluid_count())?;
        let mixers: Vec<ModuleId> = chip.mixers().map(|m| m.id()).collect();
        if mixers.len() < pass.schedule.mixer_count() {
            return Err(EngineError::Chip(dmf_chip::ChipError::MissingResource {
                what: format!("{} mixers (chip has {})", pass.schedule.mixer_count(), mixers.len()),
            }));
        }
        let storage: Vec<ModuleId> = chip.storage_cells().map(|m| m.id()).collect();
        if storage.len() < pass.storage.peak {
            return Err(EngineError::StorageExhausted { available: storage.len() });
        }
        Ok(Realizer {
            pass,
            chip,
            storage_free: vec![true; storage.len()],
            storage,
            outputs: chip.outputs().map(|m| m.id()).collect(),
            wastes: chip.waste_reservoirs().map(|m| m.id()).collect(),
            mixers,
            program: ChipProgram::new(),
            next_droplet: 0,
            loc: HashMap::new(),
            reserved: HashMap::new(),
            produced: HashMap::new(),
            by_cycle: pass.schedule.by_cycle(),
        })
    }

    fn compile(mut self) -> Result<ChipProgram, EngineError> {
        let tc = self.pass.schedule.makespan();
        for t in 1..=tc {
            self.program.push(Instruction::CycleMarker { cycle: t });
            // 1. Free storage of operands consumed this cycle.
            self.fetch_stored_operands(t)?;
            // 2. Clear the previous cycle's mixer outputs.
            self.dispatch_outputs(t.wrapping_sub(1))?;
            // 3. Gather dispenses and direct hand-offs.
            self.gather_operands(t)?;
            // 4. Fire the mixers.
            self.fire_mixers(t)?;
        }
        self.dispatch_outputs(tc)?;
        Ok(self.program)
    }

    fn fresh(&mut self) -> DropletId {
        let id = DropletId(self.next_droplet);
        self.next_droplet += 1;
        id
    }

    fn mixer_of(&self, node: NodeId) -> ModuleId {
        self.mixers[self.pass.schedule.mixer_of(node).0]
    }

    /// Consumers of `node`, ordered by their scheduled cycle.
    fn ordered_consumers(&self, node: NodeId) -> Vec<NodeId> {
        let mut consumers = self.pass.forest.consumers(node).to_vec();
        consumers.sort_by_key(|&c| (self.pass.schedule.cycle_of(c), c));
        consumers
    }

    fn fetch_stored_operands(&mut self, t: u32) -> Result<(), EngineError> {
        for &node in &self.by_cycle[t as usize].clone() {
            let mixer = self.mixer_of(node);
            for op in self.pass.forest.node(node).operands() {
                let Operand::Droplet(src) = op else { continue };
                // Peek the reserved droplet; only handle stored ones here.
                let Some(queue) = self.reserved.get(&(node, src)) else { continue };
                for &d in queue.clone().iter() {
                    if let Some(Loc::InStorage(cell)) = self.loc.get(&d).copied() {
                        self.program.push(Instruction::Fetch { droplet: d, cell });
                        let idx = self
                            .storage
                            .iter()
                            .position(|&c| c == cell)
                            .ok_or_else(|| internal("droplet stored in an unknown cell"))?;
                        self.storage_free[idx] = true;
                        self.program.push(Instruction::TransportTo { droplet: d, module: mixer });
                        self.loc.insert(d, Loc::AtMixer(mixer));
                    }
                }
            }
        }
        Ok(())
    }

    fn dispatch_outputs(&mut self, t: u32) -> Result<(), EngineError> {
        if t == 0 || t as usize >= self.by_cycle.len() {
            return Ok(());
        }
        for &node in &self.by_cycle[t as usize].clone() {
            let consumers = self.ordered_consumers(node);
            let produced: Vec<DropletId> = self
                .reserved_outputs(node)
                .ok_or_else(|| internal("dispatching a node that never fired"))?
                .to_vec();
            for (i, d) in produced.iter().enumerate() {
                match consumers.get(i) {
                    Some(&consumer) => {
                        let consume_cycle = self.pass.schedule.cycle_of(consumer);
                        if consume_cycle == t + 1 {
                            // Direct hand-off: stays at the mixer; the
                            // gather phase moves it to the consumer.
                        } else {
                            let mixer = self.mixer_of(node);
                            let cell = self.allocate_storage(mixer)?;
                            self.program
                                .push(Instruction::TransportTo { droplet: *d, module: cell });
                            self.program.push(Instruction::Store { droplet: *d, cell });
                            self.loc.insert(*d, Loc::InStorage(cell));
                        }
                    }
                    None => {
                        if self.pass.forest.is_root(node) {
                            let out = self.outputs[0];
                            self.program
                                .push(Instruction::TransportTo { droplet: *d, module: out });
                            self.program.push(Instruction::Emit { droplet: *d, output: out });
                        } else {
                            let waste = self.nearest_waste(self.mixer_of(node))?;
                            self.program
                                .push(Instruction::TransportTo { droplet: *d, module: waste });
                            self.program.push(Instruction::Discard { droplet: *d, waste });
                        }
                        self.loc.remove(d);
                    }
                }
            }
        }
        Ok(())
    }

    fn gather_operands(&mut self, t: u32) -> Result<(), EngineError> {
        for &node in &self.by_cycle[t as usize].clone() {
            let mixer = self.mixer_of(node);
            for op in self.pass.forest.node(node).operands() {
                match op {
                    Operand::Input(f) => {
                        let reservoir = self
                            .chip
                            .reservoir_for(f.0)
                            .ok_or_else(|| internal("no reservoir for a validated fluid"))?
                            .id();
                        let d = self.fresh();
                        self.program.push(Instruction::Dispense { reservoir, droplet: d });
                        self.program.push(Instruction::TransportTo { droplet: d, module: mixer });
                        self.loc.insert(d, Loc::AtMixer(mixer));
                    }
                    Operand::Droplet(src) => {
                        // Move direct hand-offs still sitting at their
                        // producer's mixer (stored ones were fetched).
                        let queue = self.reserved.get(&(node, src)).cloned().unwrap_or_default();
                        for d in queue {
                            if let Some(Loc::AtMixer(m)) = self.loc.get(&d).copied() {
                                if m != mixer {
                                    self.program.push(Instruction::TransportTo {
                                        droplet: d,
                                        module: mixer,
                                    });
                                    self.loc.insert(d, Loc::AtMixer(mixer));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn fire_mixers(&mut self, t: u32) -> Result<(), EngineError> {
        for &node in &self.by_cycle[t as usize].clone() {
            let mixer = self.mixer_of(node);
            let mut operands: Vec<DropletId> = Vec::with_capacity(2);
            for op in self.pass.forest.node(node).operands() {
                match op {
                    Operand::Input(_) => {
                        // Inputs were dispensed in gather order; recover them
                        // by position: the freshest dispenses at this mixer.
                        // They are tracked via loc with AtMixer(mixer); take
                        // the oldest unclaimed one.
                        let d = self.take_input_at(mixer, &operands)?;
                        operands.push(d);
                    }
                    Operand::Droplet(src) => {
                        let queue = self
                            .reserved
                            .get_mut(&(node, src))
                            .ok_or_else(|| internal("operand never reserved at production"))?;
                        let d = queue.remove(0);
                        if queue.is_empty() {
                            self.reserved.remove(&(node, src));
                        }
                        operands.push(d);
                    }
                }
            }
            let (a, b) = (operands[0], operands[1]);
            let out_a = self.fresh();
            let out_b = self.fresh();
            self.program.push(Instruction::MixSplit { mixer, a, b, out_a, out_b });
            self.loc.remove(&a);
            self.loc.remove(&b);
            self.loc.insert(out_a, Loc::AtMixer(mixer));
            self.loc.insert(out_b, Loc::AtMixer(mixer));
            self.outputs_mut(node, [out_a, out_b]);
        }
        Ok(())
    }

    /// Assigns the node's two fresh output droplets to its consumers in
    /// consumption order (leftovers are waste/targets).
    fn outputs_mut(&mut self, node: NodeId, outs: [DropletId; 2]) {
        let consumers = self.ordered_consumers(node);
        for (i, d) in outs.iter().enumerate() {
            if let Some(&consumer) = consumers.get(i) {
                self.reserved.entry((consumer, node)).or_default().push(*d);
            }
        }
        self.produced.insert(node, outs);
    }

    fn reserved_outputs(&self, node: NodeId) -> Option<&[DropletId; 2]> {
        self.produced.get(&node)
    }

    fn allocate_storage(&mut self, near: ModuleId) -> Result<ModuleId, EngineError> {
        let mut best: Option<(u32, usize)> = None;
        for (i, &cell) in self.storage.iter().enumerate() {
            if !self.storage_free[i] {
                continue;
            }
            let cost = self.chip.transport_cost(near, cell);
            if best.map(|(c, _)| cost < c).unwrap_or(true) {
                best = Some((cost, i));
            }
        }
        let (_, i) = best.ok_or(EngineError::StorageExhausted { available: self.storage.len() })?;
        self.storage_free[i] = false;
        Ok(self.storage[i])
    }

    fn nearest_waste(&self, near: ModuleId) -> Result<ModuleId, EngineError> {
        self.wastes
            .iter()
            .min_by_key(|&&w| self.chip.transport_cost(near, w))
            .copied()
            .ok_or_else(|| internal("no waste reservoir on a validated chip"))
    }

    /// Takes the oldest dispensed input droplet waiting at `mixer` not yet
    /// claimed by this mix.
    fn take_input_at(
        &self,
        mixer: ModuleId,
        claimed: &[DropletId],
    ) -> Result<DropletId, EngineError> {
        let mut candidates: Vec<DropletId> = self
            .loc
            .iter()
            .filter(|(d, l)| {
                **l == Loc::AtMixer(mixer)
                    && !claimed.contains(d)
                    && !self.reserved.values().any(|q| q.contains(d))
                    && !self.produced.values().any(|outs| outs.contains(d))
            })
            .map(|(d, _)| *d)
            .collect();
        candidates.sort();
        candidates
            .first()
            .copied()
            .ok_or_else(|| internal("no input droplet dispensed during gather"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, StreamingEngine};
    use dmf_chip::presets::{pcr_chip, streaming_chip};
    use dmf_ratio::TargetRatio;
    use dmf_sim::Simulator;

    fn fig3_plan() -> crate::StreamPlan {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        StreamingEngine::new(EngineConfig::default()).plan(&target, 20).unwrap()
    }

    #[test]
    fn fig3_pass_runs_end_to_end_on_the_pcr_chip() {
        let plan = fig3_plan();
        let chip = pcr_chip();
        let program = realize_pass(&plan.passes[0], &chip).unwrap();
        let report = Simulator::new(&chip).run(&program).unwrap();
        assert_eq!(report.emitted, 20, "two targets per component tree");
        assert_eq!(report.mix_splits, 27, "Tms");
        assert_eq!(report.dispensed, 25, "I");
        assert_eq!(report.discarded, 5, "W");
        assert_eq!(report.cycles, 11, "Tc");
        // The physical storage usage matches Algorithm 3's count exactly.
        assert_eq!(report.storage_peak, plan.storage_peak, "q");
        assert!(report.transport_actuations > 0);
    }

    #[test]
    fn undersized_chip_is_rejected() {
        let plan = fig3_plan();
        // Only 2 storage cells but the schedule needs 5.
        let chip = streaming_chip(7, 3, 2).unwrap();
        assert!(matches!(
            realize_pass(&plan.passes[0], &chip),
            Err(EngineError::StorageExhausted { available: 2 })
        ));
        // Only 2 mixers but the schedule uses 3.
        let chip2 = streaming_chip(7, 2, 8).unwrap();
        assert!(matches!(realize_pass(&plan.passes[0], &chip2), Err(EngineError::Chip(_))));
    }

    #[test]
    fn multi_pass_plans_realize_pass_by_pass() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let plan = StreamingEngine::new(EngineConfig::default().with_storage_limit(3))
            .plan(&target, 16)
            .unwrap();
        let chip = streaming_chip(7, 3, 3).unwrap();
        let mut emitted = 0;
        for pass in &plan.passes {
            let program = realize_pass(pass, &chip).unwrap();
            let report = Simulator::new(&chip).run(&program).unwrap();
            emitted += report.emitted;
            assert!(report.storage_peak <= 3);
        }
        assert!(emitted >= 16);
    }
}
