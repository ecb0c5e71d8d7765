//! Mutation tests for the `dmf-check` static verifier.
//!
//! Each test takes a **known-good** artifact (a real forest, schedule,
//! placement or route set), applies one targeted mutation through the
//! unvalidated constructors (`MixGraph::from_raw_parts`,
//! `Schedule::from_parts`, `TimedPath.cells`, `ChipSpec::mark_dead`), and
//! asserts that the checker trips the *intended* rule code — one test per
//! rule family. A checker that stays silent on any of these mutations has
//! lost its teeth.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dmfstream::check::{
    analyze_program_flow, check_feasibility, check_pass, check_placement, check_program_flow,
    check_routes, check_schedule, recount_forest, FlowExpectation, RuleCode,
};
use dmfstream::chip::presets::streaming_chip;
use dmfstream::chip::{ChipSpec, Coord, ModuleKind};
use dmfstream::engine::{realize_pass, EngineConfig, EngineError, StreamingEngine};
use dmfstream::forest::{build_forest, ReusePolicy};
use dmfstream::mixalgo::{MinMix, MixingAlgorithm};
use dmfstream::mixgraph::{MixGraph, MixNode, Operand};
use dmfstream::ratio::{FluidId, Mixture, TargetRatio};
use dmfstream::route::{route_concurrent, Grid, RouteRequest, TimedPath};
use dmfstream::sched::{srs_schedule, Schedule};
use dmfstream::sim::{ChipProgram, DropletId, Instruction};
use std::collections::{BTreeSet, HashMap};

fn pcr_d4() -> TargetRatio {
    TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap()
}

/// A known-good (forest, schedule) pair for the PCR running example.
fn good_pass(demand: u64) -> (TargetRatio, MixGraph, Schedule) {
    let target = pcr_d4();
    let template = MinMix.build_template(&target).unwrap();
    let forest = build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).unwrap();
    let schedule = srs_schedule(&forest, 3).unwrap();
    (target, forest, schedule)
}

/// Every vertex with the mixture it claims, as `from_raw_parts` takes them.
fn raw_nodes(graph: &MixGraph) -> Vec<(MixNode, Mixture)> {
    graph.iter().map(|(id, n)| (*n, graph.mixture(id).clone())).collect()
}

#[test]
fn baseline_is_clean() {
    let (target, forest, schedule) = good_pass(20);
    let report = check_pass(&target, 20, &forest, &schedule, None);
    assert!(report.is_clean(), "unmutated pass must be clean:\n{report}");
}

/// CF family: replacing one mix input with a different reagent makes the
/// node's stored mixture disagree with the mix of its (new) operands.
#[test]
fn dropped_mix_input_trips_cf001() {
    let (target, forest, schedule) = good_pass(8);
    let mut nodes = raw_nodes(&forest);
    // Find a node with an Input operand and swap the reagent for another.
    let victim = nodes
        .iter()
        .position(|(n, _)| matches!(n.left(), Operand::Input(_)))
        .expect("some node consumes a fresh input");
    let new_left = match nodes[victim].0.left() {
        Operand::Input(f) => Operand::Input(FluidId((f.0 + 1) % forest.fluid_count())),
        Operand::Droplet(_) => unreachable!("victim consumes an input"),
    };
    let n = nodes[victim].0;
    // The node keeps claiming its old mixture.
    nodes[victim].0 = MixNode::new(new_left, n.right(), n.level(), n.tree());
    let mutated = MixGraph::from_raw_parts(
        forest.fluid_count(),
        nodes,
        forest.roots().to_vec(),
        forest.targets().cloned().collect(),
    );
    let report = check_pass(&target, 8, &mutated, &schedule, None);
    assert!(report.has(RuleCode::Cf001), "swapping a mix input must trip CF001, got:\n{report}");
}

/// SCH family (precedence): swapping a producer's cycle with its
/// consumer's makes the consumer fire before its operand exists.
#[test]
fn swapped_schedule_steps_trip_sch002() {
    let (_, forest, schedule) = good_pass(8);
    let mut assignments = schedule.assignments();
    // Find a producer/consumer pair and swap their cycles.
    let (producer, consumer) = forest
        .iter()
        .find_map(|(id, node)| {
            node.operands().iter().find_map(|op| match op {
                Operand::Droplet(src) => Some((src.index(), id.index())),
                Operand::Input(_) => None,
            })
        })
        .expect("forest has at least one droplet edge");
    let (pc, pm) = assignments[producer];
    let (cc, cm) = assignments[consumer];
    assert!(pc < cc, "producer runs first in a valid schedule");
    assignments[producer] = (cc, pm);
    assignments[consumer] = (pc, cm);
    let mutated = Schedule::from_parts(
        schedule.mixer_count(),
        assignments.iter().map(|&(c, _)| c).collect(),
        assignments.iter().map(|&(_, m)| m).collect(),
    );
    let report = check_schedule(&forest, &mutated, None);
    assert!(
        report.has(RuleCode::Sch002),
        "swapped producer/consumer cycles must trip SCH002, got:\n{report}"
    );
}

/// SCH family (capacity): double-booking a mixer overbooks both the
/// (cycle, mixer) slot and the cycle's total occupancy.
#[test]
fn overbooked_mixer_trips_sch003_and_sch004() {
    let (_, forest, schedule) = good_pass(8);
    let mut assignments = schedule.assignments();
    // Cram three leaf nodes (no droplet operands, so no precedence noise)
    // into cycle 1 of a 2-mixer schedule: mixer 0 twice, mixer 1 once.
    let leaves: Vec<usize> = forest
        .iter()
        .filter(|(_, n)| n.operands().iter().all(|op| matches!(op, Operand::Input(_))))
        .map(|(id, _)| id.index())
        .collect();
    assert!(leaves.len() >= 3, "PCR forest has enough leaf mixes");
    assignments[leaves[0]] = (1, 0);
    assignments[leaves[1]] = (1, 0);
    assignments[leaves[2]] = (1, 1);
    let mutated = Schedule::from_parts(
        2,
        assignments.iter().map(|&(c, _)| c).collect(),
        assignments.iter().map(|&(_, m)| m).collect(),
    );
    let report = check_schedule(&forest, &mutated, None);
    assert!(report.has(RuleCode::Sch004), "double-booked mixer must trip SCH004, got:\n{report}");
    assert!(report.has(RuleCode::Sch003), "3 mixes on 2 mixers must trip SCH003, got:\n{report}");
}

/// SCH family (storage): claiming one unit fewer than the recount.
#[test]
fn wrong_storage_claim_trips_sch005() {
    let (_, forest, schedule) = good_pass(20);
    let peak = schedule.storage(&forest).peak;
    let report = check_schedule(&forest, &schedule, Some(peak + 1));
    assert!(
        report.has(RuleCode::Sch005),
        "inflated storage claim must trip SCH005, got:\n{report}"
    );
    assert!(check_schedule(&forest, &schedule, Some(peak)).is_clean());
}

/// RT family: deleting one step from a timed path makes the droplet jump
/// two cells in one step.
#[test]
fn shifted_route_trips_rt002() {
    let grid = Grid::new(8, 8);
    let requests = vec![
        RouteRequest { from: Coord::new(0, 0), to: Coord::new(6, 0) },
        RouteRequest { from: Coord::new(0, 4), to: Coord::new(6, 4) },
    ];
    let mut paths = route_concurrent(&grid, &requests).unwrap();
    assert!(check_routes(&grid, &requests, &paths).is_clean());
    // Drop the second step of the first path: the droplet now teleports
    // from cells[0] to what used to be cells[2].
    assert!(paths[0].cells().len() >= 4, "straight-line route is long enough");
    let mut cells = paths[0].cells().to_vec();
    cells.remove(1);
    paths[0] = TimedPath::new(cells).unwrap();
    let report = check_routes(&grid, &requests, &paths);
    assert!(
        report.has(RuleCode::Rt002),
        "a path with a missing step must trip RT002, got:\n{report}"
    );
}

/// PLC family: a dead electrode under a mixer footprint.
#[test]
fn dead_electrode_under_mixer_trips_plc003() {
    let mut chip = streaming_chip(7, 3, 5).unwrap();
    assert!(check_placement(&chip).is_clean());
    let cell = chip.mixers().next().unwrap().port();
    chip.mark_dead(cell);
    let report = check_placement(&chip);
    assert!(
        report.has(RuleCode::Plc003),
        "dead electrode under a mixer must trip PLC003, got:\n{report}"
    );
}

/// PLN family: tampering with a plan's aggregate totals after planning.
#[test]
fn tampered_plan_aggregate_trips_pln002() {
    let engine = StreamingEngine::new(EngineConfig::default());
    let mut plan = engine.plan(&pcr_d4(), 20).unwrap();
    assert!(plan.static_check().is_clean());
    plan.total_waste += 1;
    let report = plan.static_check();
    assert!(report.has(RuleCode::Pln002), "tampered waste total must trip PLN002, got:\n{report}");
}

/// A known-good realized program for the PCR running example, the chip it
/// runs on, and the flow-ledger expectation re-derived from its raw forest.
fn good_program(demand: u64) -> (ChipSpec, ChipProgram, FlowExpectation) {
    let target = pcr_d4();
    let engine = StreamingEngine::new(EngineConfig::default());
    let plan = engine.plan(&target, demand).unwrap();
    let chip = streaming_chip(target.fluid_count(), plan.mixers, plan.storage_peak.max(1)).unwrap();
    let pass = &plan.passes[0];
    let program = realize_pass(pass, &chip).unwrap();
    let counts = recount_forest(&pass.forest);
    let expect = FlowExpectation {
        dispensed: counts.input_total,
        emitted: 2 * counts.trees,
        discarded: counts.waste,
    };
    (chip, program, expect)
}

/// Per-droplet reagent sets, re-derived by replaying dispenses and mixes.
fn reagent_sets(chip: &ChipSpec, program: &ChipProgram) -> HashMap<DropletId, BTreeSet<usize>> {
    let mut sets: HashMap<DropletId, BTreeSet<usize>> = HashMap::new();
    for instruction in program.instructions() {
        match instruction {
            Instruction::Dispense { reservoir, droplet } => {
                let mut set = BTreeSet::new();
                if let Ok(module) = chip.try_module(*reservoir) {
                    if let ModuleKind::Reservoir { fluid } = module.kind() {
                        set.insert(fluid);
                    }
                }
                sets.insert(*droplet, set);
            }
            Instruction::MixSplit { a, b, out_a, out_b, .. } => {
                let mut merged = sets.get(a).cloned().unwrap_or_default();
                merged.extend(sets.get(b).cloned().unwrap_or_default());
                sets.insert(*out_a, merged.clone());
                sets.insert(*out_b, merged);
            }
            _ => {}
        }
    }
    sets
}

#[test]
fn realized_program_is_flow_clean() {
    let (chip, program, expect) = good_program(20);
    let (report, ledger) = analyze_program_flow(&chip, &program, Some(&expect));
    assert!(report.is_clean(), "unmutated realized program must be flow-clean:\n{report}");
    assert_eq!(ledger.leaked, 0);
    assert_eq!(ledger.dispensed, ledger.emitted + ledger.discarded);
}

/// FLOW001: rerouting a droplet through a storage cell that is parked with
/// a reagent-disjoint droplet cross-contaminates the cell.
#[test]
fn contaminated_storage_cell_trips_flow001() {
    let (chip, program, _) = good_program(20);
    let sets = reagent_sets(&chip, &program);
    let instructions = program.instructions();
    // Find a parked droplet's residency window (Store .. Fetch) and a
    // reagent-disjoint droplet transported inside it.
    let mut mutation = None;
    'outer: for (i, instruction) in instructions.iter().enumerate() {
        let Instruction::Store { droplet: parked, cell } = instruction else { continue };
        let end = instructions[i..]
            .iter()
            .position(|x| matches!(x, Instruction::Fetch { droplet, .. } if droplet == parked))
            .map_or(instructions.len(), |k| i + k);
        for (j, other) in instructions.iter().enumerate().take(end).skip(i + 1) {
            let Instruction::TransportTo { droplet: visitor, .. } = other else { continue };
            if sets[visitor].is_disjoint(&sets[parked]) {
                mutation = Some((j, *visitor, *cell));
                break 'outer;
            }
        }
    }
    let (j, visitor, cell) = mutation.expect("a disjoint droplet moves while another is parked");
    let mut mutated = instructions.to_vec();
    // Stop over at the occupied cell before continuing to the original
    // destination: a wash-free shared visit, nothing else changes.
    mutated.insert(j, Instruction::TransportTo { droplet: visitor, module: cell });
    let report = check_program_flow(&chip, &mutated.into_iter().collect(), None);
    assert!(report.has(RuleCode::Flow001), "shared cell must trip FLOW001, got:\n{report}");
    assert!(!report.has(RuleCode::Flow002), "no collision expected:\n{report}");
    assert!(!report.has(RuleCode::Flow003), "ledger still balances:\n{report}");
}

/// FLOW002: deleting the transport that delivers a mix operand leaves the
/// droplet at its reservoir when the mixer fires.
#[test]
fn mix_operand_left_behind_trips_flow002() {
    let (chip, program, _) = good_program(20);
    let instructions = program.instructions();
    let (mix_at, mixer, b) = instructions
        .iter()
        .enumerate()
        .find_map(|(i, instruction)| match instruction {
            Instruction::MixSplit { mixer, b, .. } => Some((i, *mixer, *b)),
            _ => None,
        })
        .expect("program mixes");
    let feed = instructions[..mix_at]
        .iter()
        .rposition(|instruction| {
            matches!(instruction, Instruction::TransportTo { droplet, module }
                if *droplet == b && *module == mixer)
        })
        .expect("operand b is delivered to its mixer");
    let mut mutated = instructions.to_vec();
    mutated.remove(feed);
    let report = check_program_flow(&chip, &mutated.into_iter().collect(), None);
    assert!(report.has(RuleCode::Flow002), "missing operand must trip FLOW002, got:\n{report}");
    assert!(!report.has(RuleCode::Flow001), "no contamination expected:\n{report}");
    assert!(!report.has(RuleCode::Flow003), "ledger still balances:\n{report}");
}

/// FLOW003 (leak): deleting the final discard strands a waste droplet on
/// the chip, so dispensed ≠ emitted + discarded.
#[test]
fn leaked_droplet_trips_flow003() {
    let (chip, program, _) = good_program(20);
    let instructions = program.instructions();
    let last = instructions
        .iter()
        .rposition(|i| matches!(i, Instruction::Discard { .. }))
        .expect("demand 20 produces waste (paper Fig. 2: W = 5)");
    let mut mutated = instructions.to_vec();
    mutated.remove(last);
    let (report, ledger) = analyze_program_flow(&chip, &mutated.into_iter().collect(), None);
    assert!(report.has(RuleCode::Flow003), "stranded droplet must trip FLOW003, got:\n{report}");
    assert!(!report.has(RuleCode::Flow001), "no contamination expected:\n{report}");
    assert!(!report.has(RuleCode::Flow002), "no collision expected:\n{report}");
    assert_eq!(ledger.leaked, 1);
}

/// FLOW003 (expectation): the same clean program against a tampered
/// caller-side ledger expectation.
#[test]
fn tampered_flow_expectation_trips_flow003() {
    let (chip, program, expect) = good_program(20);
    let tampered = FlowExpectation { dispensed: expect.dispensed + 1, ..expect };
    let report = check_program_flow(&chip, &program, Some(&tampered));
    assert!(
        report.has(RuleCode::Flow003),
        "expectation mismatch must trip FLOW003, got:\n{report}"
    );
}

/// FEAS001: a ratio whose parts do not sum to a power of two has no dyadic
/// mixing tree at any accuracy.
#[test]
fn non_power_of_two_sum_trips_feas001() {
    let report = check_feasibility(&[1, 2], 4);
    assert!(report.has(RuleCode::Feas001), "1:2 must trip FEAS001, got:\n{report}");
    assert!(!report.has(RuleCode::Feas002), "1:2 is well-formed, just unreachable:\n{report}");
    assert!(check_feasibility(&[1, 3], 4).is_clean(), "1:3 sums to a power of two");
}

/// FEAS002: degenerate requests (zero demand, empty/zero/pure ratios) are
/// rejected by the pre-pass and by the engine before any planning.
#[test]
fn degenerate_request_trips_feas002() {
    for (parts, demand) in [(&[1u64, 1][..], 0), (&[][..], 4), (&[0, 0][..], 4), (&[16][..], 4)] {
        let report = check_feasibility(parts, demand);
        assert!(report.has(RuleCode::Feas002), "{parts:?} x{demand} must trip FEAS002:\n{report}");
    }
    // End to end: the engine refuses a pure-fluid target pre-planning.
    let engine = StreamingEngine::new(EngineConfig::default());
    let pure = TargetRatio::new(vec![16]).unwrap();
    assert!(matches!(
        engine.plan(&pure, 4),
        Err(EngineError::Infeasible { rule: RuleCode::Feas002, .. })
    ));
}

/// Every published rule code must parse back from its text and carry both
/// a one-line summary and long-form `--explain` documentation.
#[test]
fn every_rule_code_is_documented() {
    assert_eq!(RuleCode::ALL.len(), 30);
    for code in RuleCode::ALL {
        assert_eq!(RuleCode::parse(code.code()), Some(code), "{code:?} round-trips");
        assert!(!code.summary().trim().is_empty(), "{code:?} has a summary");
        let explain = code.explain().trim();
        assert!(!explain.is_empty(), "{code:?} has --explain text");
        assert!(
            explain.len() > code.summary().len(),
            "{code:?} explain text goes beyond the summary"
        );
    }
}
