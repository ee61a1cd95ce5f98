//! Independent post-compilation verification.
//!
//! The mapping pipeline only earns its fidelity claims if every routed
//! circuit is actually *legal* on the target device and *semantically
//! equivalent* to its input. [`verify_outcome`] is the t|ket⟩-style
//! validity predicate for a finished [`MapOutcome`]: it re-derives every
//! claim the report makes from the artifacts themselves, without trusting
//! any intermediate state of the pipeline that produced them.
//!
//! Checks, in order:
//!
//! 1. **Shape** — the routed/native circuits span exactly the device
//!    register and the layouts are internally consistent bijections.
//! 2. **Legality** — every gate operand is an in-service qubit and every
//!    two-qubit gate acts across a usable coupler
//!    ([`Device::are_adjacent`], which respects health overlays).
//! 3. **Permutation** — replaying the routed circuit's SWAPs from the
//!    initial layout must land exactly on the reported final layout.
//! 4. **Reconciliation** — gate counts, SWAP counts, two-qubit counts
//!    and depths in the [`MapReport`] must match a recount.
//! 5. **Equivalence** (small registers only) — the native circuit must
//!    implement the input circuit up to the tracked permutation, checked
//!    by [`qcs_sim::equiv::mapped_equivalent`] on seeded random states.
//!
//! Violations come back as a structured [`VerifyError`] — never a panic,
//! so a verification failure can demote one fallback-ladder rung instead
//! of killing a serving thread. The `verify.check` failpoint lets chaos
//! tests inject verification failures deterministically.

use std::cell::RefCell;

use qcs_circuit::circuit::Circuit;
use qcs_circuit::gate::GateKind;
use qcs_circuit::hash::circuit_digest;
use qcs_rng::{ChaCha8Rng, SeedableRng};
use qcs_sim::equiv::EquivScratch;
use qcs_topology::device::Device;

use crate::mapper::{MapOutcome, MapReport};

thread_local! {
    /// Per-thread simulator scratch: verification sweeps reuse the same
    /// four state buffers instead of allocating `2^width` amplitudes per
    /// equivalence trial.
    static EQUIV_SCRATCH: RefCell<EquivScratch> = RefCell::new(EquivScratch::default());
}

/// Everything [`verify_outcome`] can find wrong with a mapping outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The routed or native circuit is not device-width.
    WidthMismatch {
        /// Which artifact ("routed" or "native").
        artifact: &'static str,
        /// Width of the artifact.
        circuit: usize,
        /// Width of the device register.
        device: usize,
    },
    /// A gate touches an out-of-service qubit.
    InactiveOperand {
        /// Index of the offending gate in the native circuit.
        gate_index: usize,
        /// The disabled physical qubit.
        qubit: usize,
    },
    /// A two-qubit gate spans physical qubits with no usable coupler.
    UncoupledOperands {
        /// Index of the offending gate in the native circuit.
        gate_index: usize,
        /// First operand.
        a: usize,
        /// Second operand.
        b: usize,
    },
    /// The initial or final layout is not a consistent bijection.
    LayoutCorrupt {
        /// Which layout ("initial" or "final").
        which: &'static str,
    },
    /// Replaying the routed circuit's SWAPs from the initial layout does
    /// not reproduce the reported final layout.
    LayoutDrift {
        /// Virtual qubit whose tracked home diverged.
        virt: usize,
        /// Physical home after SWAP replay.
        replayed: usize,
        /// Physical home the final layout claims.
        reported: usize,
    },
    /// A figure in the report disagrees with a recount of the artifacts.
    CountMismatch {
        /// Which report field.
        field: &'static str,
        /// What the report claims.
        reported: usize,
        /// What the artifacts actually contain.
        actual: usize,
    },
    /// Simulation found the native circuit inequivalent to the input.
    NotEquivalent {
        /// Random-state trial at which the mismatch appeared.
        trial: usize,
        /// Observed state fidelity (should be ~1).
        fidelity: f64,
    },
    /// The equivalence simulation itself panicked (a checker bug — the
    /// outcome is treated as unverified, not as a crash).
    CheckPanicked(String),
    /// A `verify.check` failpoint injected this failure.
    Injected(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::WidthMismatch {
                artifact,
                circuit,
                device,
            } => write!(
                f,
                "{artifact} circuit spans {circuit} qubits, device register has {device}"
            ),
            VerifyError::InactiveOperand { gate_index, qubit } => {
                write!(f, "gate {gate_index} acts on out-of-service qubit {qubit}")
            }
            VerifyError::UncoupledOperands { gate_index, a, b } => write!(
                f,
                "gate {gate_index} spans qubits {a} and {b} with no usable coupler"
            ),
            VerifyError::LayoutCorrupt { which } => {
                write!(f, "{which} layout is not a consistent bijection")
            }
            VerifyError::LayoutDrift {
                virt,
                replayed,
                reported,
            } => write!(
                f,
                "virtual qubit {virt} ends at physical {replayed} by SWAP replay, \
                 final layout claims {reported}"
            ),
            VerifyError::CountMismatch {
                field,
                reported,
                actual,
            } => write!(
                f,
                "report field '{field}' claims {reported}, artifacts contain {actual}"
            ),
            VerifyError::NotEquivalent { trial, fidelity } => write!(
                f,
                "native circuit not equivalent to input: trial {trial} fidelity {fidelity:.6}"
            ),
            VerifyError::CheckPanicked(message) => {
                write!(f, "equivalence checker panicked: {message}")
            }
            VerifyError::Injected(message) => write!(f, "injected verification failure: {message}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Tuning for [`verify_outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Run the simulation-based equivalence check only when the device
    /// register is at most this wide (state-vector cost is `2^width`).
    /// Structural checks always run.
    pub equiv_max_qubits: usize,
    /// Random input states per equivalence check.
    pub equiv_trials: usize,
    /// Treat SWAP gates in the routed/native circuits as physical
    /// *relocations* rather than gates: skip the coupler-adjacency
    /// requirement for them (operands must still be in-service qubits).
    ///
    /// Movement backends (neutral-atom arrays with AOD shuttling) lower
    /// each move to a SWAP stand-in between the source and destination
    /// sites so the permutation replay and statevector equivalence
    /// checks run unchanged; the sites involved are generally not within
    /// interaction radius of each other, and move legality (vacancy, AOD
    /// row/column ordering) is the backend's own responsibility. Always
    /// `false` for fixed-coupler devices, where a SWAP is three real
    /// entangling gates on one coupler.
    pub move_swaps: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            equiv_max_qubits: 12,
            equiv_trials: 2,
            move_swaps: false,
        }
    }
}

/// What a successful verification actually covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Structural checks (shape, legality, permutation, reconciliation)
    /// all passed. Always true on `Ok`.
    pub structural: bool,
    /// The simulation equivalence check ran (it is skipped for registers
    /// wider than [`VerifyConfig::equiv_max_qubits`]).
    pub equivalence_checked: bool,
}

fn check_counts(input: &Circuit, outcome: &MapOutcome) -> Result<(), VerifyError> {
    let report: &MapReport = &outcome.report;
    let mismatch = |field: &'static str, reported: usize, actual: usize| {
        if reported == actual {
            Ok(())
        } else {
            Err(VerifyError::CountMismatch {
                field,
                reported,
                actual,
            })
        }
    };
    mismatch("input_gates", report.input_gates, input.gate_count())?;
    mismatch(
        "decomposed_gates",
        report.decomposed_gates,
        outcome.decomposed.gate_count(),
    )?;
    mismatch(
        "original_two_qubit_gates",
        report.original_two_qubit_gates,
        outcome.decomposed.two_qubit_gate_count(),
    )?;
    mismatch(
        "routed_gates",
        report.routed_gates,
        outcome.native.gate_count(),
    )?;
    mismatch(
        "routed_two_qubit_gates",
        report.routed_two_qubit_gates,
        outcome.native.two_qubit_gate_count(),
    )?;
    let swaps = outcome
        .routed
        .circuit
        .gates()
        .iter()
        .filter(|g| g.kind() == GateKind::Swap)
        .count();
    mismatch("swaps_inserted", report.swaps_inserted, swaps)?;
    mismatch(
        "depth_before",
        report.depth_before,
        outcome.decomposed.depth(),
    )?;
    mismatch("depth_after", report.depth_after, outcome.native.depth())?;
    Ok(())
}

fn check_legality(
    outcome: &MapOutcome,
    device: &Device,
    config: &VerifyConfig,
) -> Result<(), VerifyError> {
    for (circuit, artifact) in [
        (&outcome.routed.circuit, "routed"),
        (&outcome.native, "native"),
    ] {
        if circuit.qubit_count() != device.qubit_count() {
            return Err(VerifyError::WidthMismatch {
                artifact,
                circuit: circuit.qubit_count(),
                device: device.qubit_count(),
            });
        }
        for (gate_index, gate) in circuit.gates().iter().enumerate() {
            let qubits = gate.qubits();
            for &q in &qubits {
                if !device.is_qubit_active(q) {
                    return Err(VerifyError::InactiveOperand {
                        gate_index,
                        qubit: q,
                    });
                }
            }
            let is_move = config.move_swaps && gate.kind() == GateKind::Swap;
            if qubits.len() == 2 && !is_move && !device.are_adjacent(qubits[0], qubits[1]) {
                return Err(VerifyError::UncoupledOperands {
                    gate_index,
                    a: qubits[0],
                    b: qubits[1],
                });
            }
        }
    }
    Ok(())
}

fn check_permutation(outcome: &MapOutcome) -> Result<(), VerifyError> {
    let routed = &outcome.routed;
    if !routed.initial.is_consistent() {
        return Err(VerifyError::LayoutCorrupt { which: "initial" });
    }
    if !routed.final_layout.is_consistent() {
        return Err(VerifyError::LayoutCorrupt { which: "final" });
    }
    let mut replay = routed.initial.clone();
    for gate in routed.circuit.gates() {
        if gate.kind() == GateKind::Swap {
            let qs = gate.qubits();
            if qs[0] != qs[1] {
                replay.swap_physical(qs[0], qs[1]);
            }
        }
    }
    for virt in 0..replay.virtual_count() {
        let replayed = replay.phys_of(virt);
        let reported = routed.final_layout.phys_of(virt);
        if replayed != reported {
            return Err(VerifyError::LayoutDrift {
                virt,
                replayed,
                reported,
            });
        }
    }
    Ok(())
}

fn check_equivalence(
    input: &Circuit,
    outcome: &MapOutcome,
    device: &Device,
    config: &VerifyConfig,
) -> Result<(), VerifyError> {
    // Deterministic per-circuit seed: same job, same trial states.
    let seed = circuit_digest(input) ^ 0x56_52_46_59; // "VRFY"
    let initial = outcome.routed.initial.as_assignment().to_vec();
    let final_layout = outcome.routed.final_layout.as_assignment().to_vec();
    let trials = config.equiv_trials.max(1);
    let width = device.qubit_count();
    // The simulator asserts on malformed placements; the structural
    // checks above should make that impossible, so a panic here is a
    // checker bug — report it, don't unwind into the caller.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        EQUIV_SCRATCH.with(|scratch| {
            qcs_sim::equiv::mapped_equivalent_with_scratch(
                input,
                &outcome.native,
                width,
                &initial,
                &final_layout,
                trials,
                &mut rng,
                &mut scratch.borrow_mut(),
            )
        })
    }));
    match run {
        Ok(Ok(())) => Ok(()),
        Ok(Err(failure)) => Err(VerifyError::NotEquivalent {
            trial: failure.trial,
            fidelity: failure.fidelity,
        }),
        Err(panic) => Err(VerifyError::CheckPanicked(crate::lanes::panic_message(
            panic.as_ref(),
        ))),
    }
}

/// Verifies a finished mapping outcome against its input and device.
///
/// See the module docs for the check catalogue. On success the returned
/// [`VerifyReport`] says whether the simulation equivalence check ran or
/// was skipped for width.
///
/// # Errors
///
/// The first [`VerifyError`] found, in check order. Never panics.
pub fn verify_outcome(
    input: &Circuit,
    outcome: &MapOutcome,
    device: &Device,
    config: &VerifyConfig,
) -> Result<VerifyReport, VerifyError> {
    // Chaos-test failpoint: error actions inject a verification failure,
    // panics unwind into the fallback ladder's isolation.
    if let qcs_faults::Hit::Error(message) = qcs_faults::hit("verify.check") {
        return Err(VerifyError::Injected(message));
    }
    check_legality(outcome, device, config)?;
    check_permutation(outcome)?;
    check_counts(input, outcome)?;
    let equivalence = device.qubit_count() <= config.equiv_max_qubits;
    if equivalence {
        check_equivalence(input, outcome, device, config)?;
    }
    Ok(VerifyReport {
        structural: true,
        equivalence_checked: equivalence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::Mapper;
    use qcs_circuit::gate::Gate;
    use qcs_topology::lattice::{grid_device, line_device};
    use qcs_topology::surface::{surface17, surface7};

    fn fig2_circuit() -> Circuit {
        let mut c = Circuit::with_name(4, "fig2");
        c.cnot(1, 0)
            .unwrap()
            .cnot(1, 2)
            .unwrap()
            .cnot(2, 3)
            .unwrap();
        c.cnot(2, 0).unwrap().cnot(1, 2).unwrap();
        c
    }

    #[test]
    fn clean_outcome_verifies_with_equivalence() {
        let device = surface7();
        let input = fig2_circuit();
        let outcome = Mapper::trivial().map(&input, &device).unwrap();
        let report = verify_outcome(&input, &outcome, &device, &VerifyConfig::default()).unwrap();
        assert!(report.structural);
        assert!(report.equivalence_checked, "7-qubit device is small enough");
    }

    #[test]
    fn wide_device_skips_equivalence_but_verifies() {
        let device = surface17();
        let input = qcs_workloads::qft::qft(6).unwrap();
        let outcome = Mapper::algorithm_driven().map(&input, &device).unwrap();
        let report = verify_outcome(&input, &outcome, &device, &VerifyConfig::default()).unwrap();
        assert!(report.structural);
        assert!(!report.equivalence_checked, "17 > 12 qubits");
    }

    #[test]
    fn every_strategy_pair_survives_verification() {
        use crate::config::MapperConfig;
        let device = grid_device(3, 3);
        let input = qcs_workloads::ghz::ghz_chain(5).unwrap();
        for placer in MapperConfig::PLACERS {
            for router in MapperConfig::ROUTERS {
                let mapper = MapperConfig::new(*placer, *router).build().unwrap();
                let outcome = mapper.map(&input, &device).unwrap();
                verify_outcome(&input, &outcome, &device, &VerifyConfig::default())
                    .unwrap_or_else(|e| panic!("{placer}/{router}: {e}"));
            }
        }
    }

    #[test]
    fn detects_uncoupled_two_qubit_gate() {
        let device = line_device(4);
        let input = fig2_circuit();
        let mut outcome = Mapper::trivial().map(&input, &device).unwrap();
        // Corrupt the native circuit with a non-adjacent CNOT.
        outcome.native.push(Gate::Cnot(0, 3)).unwrap();
        let err = verify_outcome(&input, &outcome, &device, &VerifyConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::UncoupledOperands { a: 0, b: 3, .. }
        ));
    }

    #[test]
    fn move_swaps_skips_adjacency_for_relocations_only() {
        let device = line_device(4);
        let input = fig2_circuit();
        let mut outcome = Mapper::trivial().map(&input, &device).unwrap();
        // Append a long-range relocation (a movement backend's SWAP
        // stand-in), tracked through the final layout and the report.
        outcome.routed.circuit.push(Gate::Swap(0, 3)).unwrap();
        outcome.routed.final_layout.swap_physical(0, 3);
        outcome.routed.swaps_inserted += 1;
        outcome.native.push(Gate::Swap(0, 3)).unwrap();
        outcome.report.swaps_inserted += 1;
        outcome.report.routed_gates += 1;
        outcome.report.routed_two_qubit_gates += 1;
        outcome.report.depth_after = outcome.native.depth();

        // Fixed-coupler rules reject the non-adjacent SWAP outright.
        let err = verify_outcome(&input, &outcome, &device, &VerifyConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::UncoupledOperands { a: 0, b: 3, .. }
        ));

        // Movement rules accept it, and every other check still runs.
        let moves = VerifyConfig {
            move_swaps: true,
            ..VerifyConfig::default()
        };
        let report = verify_outcome(&input, &outcome, &device, &moves).unwrap();
        assert!(report.structural);
        assert!(report.equivalence_checked);

        // Non-SWAP gates stay bound by adjacency even in movement mode.
        outcome.native.push(Gate::Cnot(0, 3)).unwrap();
        outcome.report.routed_gates += 1;
        outcome.report.routed_two_qubit_gates += 1;
        outcome.report.depth_after = outcome.native.depth();
        let err = verify_outcome(&input, &outcome, &device, &moves).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::UncoupledOperands { a: 0, b: 3, .. }
        ));
    }

    #[test]
    fn detects_gate_on_disabled_qubit() {
        use qcs_topology::DeviceHealth;
        let base = grid_device(3, 3);
        let input = qcs_workloads::ghz::ghz_chain(4).unwrap();
        let outcome = Mapper::trivial().map(&input, &base).unwrap();
        // Disable a qubit the routed circuit actually uses.
        let used = outcome
            .native
            .gates()
            .iter()
            .flat_map(|g| g.qubits())
            .next()
            .unwrap();
        let health = DeviceHealth::new().disable_qubit(used);
        let degraded = base.degrade(&health).unwrap();
        let err =
            verify_outcome(&input, &outcome, &degraded, &VerifyConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::InactiveOperand { .. } | VerifyError::UncoupledOperands { .. }
        ));
    }

    #[test]
    fn detects_layout_drift() {
        let device = line_device(3);
        let mut input = Circuit::new(3);
        input.cnot(0, 2).unwrap();
        let mut outcome = Mapper::trivial().map(&input, &device).unwrap();
        assert!(outcome.routed.swaps_inserted >= 1);
        // Stale final layout: undo the router's tracking.
        outcome.routed.final_layout = outcome.routed.initial.clone();
        let err = verify_outcome(&input, &outcome, &device, &VerifyConfig::default()).unwrap_err();
        assert!(matches!(err, VerifyError::LayoutDrift { .. }));
    }

    #[test]
    fn detects_report_count_lies() {
        let device = surface7();
        let input = fig2_circuit();
        let mut outcome = Mapper::trivial().map(&input, &device).unwrap();
        outcome.report.swaps_inserted += 1;
        let err = verify_outcome(&input, &outcome, &device, &VerifyConfig::default()).unwrap_err();
        assert_eq!(
            err,
            VerifyError::CountMismatch {
                field: "swaps_inserted",
                reported: outcome.report.swaps_inserted,
                actual: outcome.report.swaps_inserted - 1,
            }
        );
    }

    #[test]
    fn detects_semantic_corruption() {
        let device = line_device(3);
        let mut input = Circuit::new(3);
        input.cnot(0, 1).unwrap().cnot(1, 2).unwrap();
        let mut outcome = Mapper::trivial().map(&input, &device).unwrap();
        // Structurally legal but semantically wrong: an extra native X.
        outcome.native.push(Gate::X(0)).unwrap();
        outcome.report.routed_gates += 1;
        outcome.report.depth_after = outcome.native.depth();
        let err = verify_outcome(&input, &outcome, &device, &VerifyConfig::default()).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::NotEquivalent { .. } | VerifyError::CountMismatch { .. }
            ),
            "got {err}"
        );
    }

    #[test]
    fn injected_failure_is_structured() {
        let device = surface7();
        let input = fig2_circuit();
        let outcome = Mapper::trivial().map(&input, &device).unwrap();
        qcs_faults::arm(
            "verify.check",
            qcs_faults::FaultAction::Error("chaos".into()),
            qcs_faults::Policy::Once,
        );
        let err = verify_outcome(&input, &outcome, &device, &VerifyConfig::default()).unwrap_err();
        qcs_faults::disarm("verify.check");
        assert_eq!(err, VerifyError::Injected("chaos".into()));
    }
}
