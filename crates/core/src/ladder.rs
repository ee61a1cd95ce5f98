//! Graceful strategy degradation: the fallback ladder.
//!
//! A single flaky placement or routing strategy should cost a request
//! its *optimality*, never its *answer*. [`FallbackLadder`] wraps an
//! ordered chain of [`MapperConfig`] rungs — typically the requested
//! pipeline, then `sabre`, then `subgraph`, then `trivial` — and runs
//! them as a [`lanes::sequential`] list until one produces a result that
//! also passes independent verification ([`crate::verify`]). A rung is
//! demoted on:
//!
//! * a structured [`MapError`] (including injected failpoint errors),
//! * a **panic** anywhere in that rung's pipeline, verification
//!   included (isolated by the executor), or
//! * a [`VerifyError`](crate::verify::VerifyError) from
//!   post-compilation verification.
//!
//! The one exception is [`MapError::Unsatisfiable`]: that is a property
//! of the (degraded) device, not of the strategy, so the rung stops the
//! run rather than burning every rung on an impossible job.
//!
//! The serving rung is recorded in the outcome's report
//! ([`MapReport::fallback_rung`](crate::mapper::MapReport::fallback_rung)
//! = 0 for the requested pipeline), together with whether verification
//! passed, so callers and cached results always name the pipeline that
//! actually produced them.

use qcs_circuit::circuit::Circuit;
use qcs_topology::device::Device;

use crate::config::MapperConfig;
use crate::lanes::{self, Lane, LaneFailure, LaneResult};
use crate::mapper::{MapError, MapOutcome};
use crate::verify::{verify_outcome, VerifyConfig};

/// Why one rung of the ladder was demoted.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderAttempt {
    /// The rung's placer name.
    pub placer: String,
    /// The rung's router name.
    pub router: String,
    /// What went wrong, as a one-line message.
    pub error: String,
}

/// Error raised when every rung of the ladder failed (or the job is
/// unsatisfiable on the device, which no rung can fix).
#[derive(Debug, Clone, PartialEq)]
pub struct LadderError {
    /// Every demoted rung, in ladder order.
    pub attempts: Vec<LadderAttempt>,
    /// True when the ladder stopped early on an unsatisfiable device.
    pub unsatisfiable: bool,
}

impl std::fmt::Display for LadderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.unsatisfiable {
            write!(f, "job unsatisfiable on device: ")?;
        } else {
            write!(f, "all {} ladder rungs failed: ", self.attempts.len())?;
        }
        for (i, attempt) in self.attempts.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(
                f,
                "[{}] {}/{}: {}",
                i, attempt.placer, attempt.router, attempt.error
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for LadderError {}

/// An ordered chain of mapper configurations with optional per-result
/// verification.
///
/// # Examples
///
/// ```
/// use qcs_core::config::MapperConfig;
/// use qcs_core::ladder::FallbackLadder;
/// use qcs_topology::surface::surface7;
///
/// let ladder = FallbackLadder::standard(MapperConfig::default());
/// let qft = qcs_workloads::qft::qft(5)?;
/// let outcome = ladder.map(&qft, &surface7())?;
/// assert_eq!(outcome.report.fallback_rung, 0); // primary rung served
/// assert!(outcome.report.verified);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackLadder {
    rungs: Vec<MapperConfig>,
    verify: Option<VerifyConfig>,
}

impl FallbackLadder {
    /// The default degradation chain after a primary config: SABRE
    /// placement, then subgraph placement, then the trivial pipeline —
    /// strictly decreasing in sophistication, strictly increasing in
    /// robustness. Rungs equal to an earlier one are dropped.
    pub fn standard(primary: MapperConfig) -> Self {
        let mut rungs = vec![
            primary,
            MapperConfig::new("sabre", "lookahead"),
            MapperConfig::new("subgraph", "lookahead"),
            MapperConfig::new("trivial", "trivial"),
        ];
        let mut seen: Vec<MapperConfig> = Vec::new();
        rungs.retain(|r| {
            if seen.contains(r) {
                false
            } else {
                seen.push(r.clone());
                true
            }
        });
        FallbackLadder {
            rungs,
            verify: Some(VerifyConfig::default()),
        }
    }

    /// A ladder with exactly the given rungs (must be non-empty),
    /// verification on with defaults.
    ///
    /// # Panics
    ///
    /// Panics if `rungs` is empty.
    pub fn new(rungs: Vec<MapperConfig>) -> Self {
        assert!(!rungs.is_empty(), "a ladder needs at least one rung");
        FallbackLadder {
            rungs,
            verify: Some(VerifyConfig::default()),
        }
    }

    /// Replaces the verification configuration.
    #[must_use]
    pub fn with_verification(mut self, config: VerifyConfig) -> Self {
        self.verify = Some(config);
        self
    }

    /// Disables post-compilation verification (rungs are then demoted
    /// only on errors and panics).
    #[must_use]
    pub fn without_verification(mut self) -> Self {
        self.verify = None;
        self
    }

    /// The configured rungs, in order.
    pub fn rungs(&self) -> &[MapperConfig] {
        &self.rungs
    }

    /// Maps `circuit` on `device` through the first rung that succeeds
    /// *and* verifies. The returned outcome's report records the serving
    /// rung and verification status.
    ///
    /// # Errors
    ///
    /// [`LadderError`] when every rung failed, a rung found the job
    /// unsatisfiable on the device, or a rung's config is invalid.
    pub fn map(&self, circuit: &Circuit, device: &Device) -> Result<MapOutcome, LadderError> {
        let (rung, mut outcome) = lanes::sequential(self.lanes(circuit, device))?;
        outcome.report.fallback_rung = rung;
        Ok(outcome)
    }

    /// The rungs as executor lanes, for callers that run them after
    /// lanes of their own (the DPQA backend's movement rungs).
    pub fn lanes<'a>(
        &'a self,
        circuit: &'a Circuit,
        device: &'a Device,
    ) -> impl Iterator<Item = Lane<'a, MapOutcome>> + 'a {
        self.rungs.iter().map(move |config| {
            Lane::new(&config.placer, &config.router, move || {
                self.run_rung(config, circuit, device)
            })
        })
    }

    /// One rung: build the pipeline, map, verify.
    fn run_rung(
        &self,
        config: &MapperConfig,
        circuit: &Circuit,
        device: &Device,
    ) -> LaneResult<MapOutcome> {
        let mapper = config
            .build()
            .map_err(|e| LaneFailure::Demote(e.to_string()))?;
        let mut outcome = match mapper.map(circuit, device) {
            Ok(outcome) => outcome,
            Err(MapError::Unsatisfiable(reason)) => {
                return Err(LaneFailure::Stop(LadderError {
                    attempts: vec![LadderAttempt {
                        placer: config.placer.clone(),
                        router: config.router.clone(),
                        error: reason.to_string(),
                    }],
                    unsatisfiable: true,
                }))
            }
            Err(e) => return Err(LaneFailure::Demote(e.to_string())),
        };
        if let Some(verify_config) = &self.verify {
            verify_outcome(circuit, &outcome, device, verify_config)
                .map_err(|e| LaneFailure::Demote(format!("verification failed: {e}")))?;
            outcome.report.verified = true;
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_topology::surface::surface7;

    fn ghz5() -> Circuit {
        qcs_workloads::ghz::ghz_chain(5).unwrap()
    }

    #[test]
    fn standard_ladder_dedups_rungs() {
        let ladder = FallbackLadder::standard(MapperConfig::new("sabre", "lookahead"));
        assert_eq!(ladder.rungs().len(), 3);
        assert_eq!(ladder.rungs()[0], MapperConfig::new("sabre", "lookahead"));
        let ladder = FallbackLadder::standard(MapperConfig::default());
        assert_eq!(ladder.rungs().len(), 4);
    }

    #[test]
    fn primary_rung_serves_when_healthy() {
        let ladder = FallbackLadder::standard(MapperConfig::default());
        let outcome = ladder.map(&ghz5(), &surface7()).unwrap();
        assert_eq!(outcome.report.fallback_rung, 0);
        assert_eq!(outcome.report.placer, "graph-similarity");
        assert!(outcome.report.verified);
    }

    #[test]
    fn bad_primary_config_demotes_to_next_rung() {
        let ladder = FallbackLadder::new(vec![
            MapperConfig::new("warp", "lookahead"),
            MapperConfig::new("trivial", "trivial"),
        ]);
        let outcome = ladder.map(&ghz5(), &surface7()).unwrap();
        assert_eq!(outcome.report.fallback_rung, 1);
        assert_eq!(outcome.report.placer, "trivial");
    }

    #[test]
    fn exhausted_ladder_reports_every_attempt() {
        let ladder = FallbackLadder::new(vec![
            MapperConfig::new("warp", "lookahead"),
            MapperConfig::new("trivial", "phase-conduit"),
        ]);
        let err = ladder.map(&ghz5(), &surface7()).unwrap_err();
        assert!(!err.unsatisfiable);
        assert_eq!(err.attempts.len(), 2);
        let message = err.to_string();
        assert!(message.contains("warp"), "{message}");
        assert!(message.contains("phase-conduit"), "{message}");
    }

    #[test]
    fn too_wide_circuit_is_unsatisfiable_like_failure_not_a_panic() {
        // 9 qubits on surface-7: every rung's placer errors. The ladder
        // must exhaust cleanly (width is a Place error, not
        // Unsatisfiable, so all rungs are tried).
        let wide = Circuit::new(9);
        let ladder = FallbackLadder::standard(MapperConfig::default());
        let err = ladder.map(&wide, &surface7()).unwrap_err();
        assert_eq!(err.attempts.len(), ladder.rungs().len());
    }
}
