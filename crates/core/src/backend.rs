//! The compilation-target abstraction: one trait per routing physics.
//!
//! The paper's pipeline (and everything this workspace built on top of
//! it) assumes *fixed-coupler* hardware: connectivity is a static graph
//! and two-qubit gates between distant qubits are satisfied by inserting
//! SWAP chains. A [`Backend`] generalises that contract so the serving
//! tier, caches and benches can target hardware with a different
//! physics — today the movement-based neutral-atom arrays in
//! `qcs-dpqa`, where qubits are physically relocated by AOD row/column
//! shifts instead of SWAPped.
//!
//! The trait deliberately keeps the fixed-coupler *verification view*:
//! every backend exposes an inner [`Device`] that independent checking
//! ([`crate::verify`]) and health degradation run against, and `map`
//! returns the same [`MapOutcome`]/[`LadderError`] pair the fallback
//! ladder produces, so callers cannot tell (and need not care) which
//! physics served them beyond the report's counters.

use std::sync::Arc;

use qcs_circuit::circuit::Circuit;
use qcs_topology::device::{Device, DeviceError};
use qcs_topology::health::DeviceHealth;

use crate::config::MapperConfig;
use crate::ladder::{FallbackLadder, LadderError};
use crate::mapper::MapOutcome;

/// A compilation target: something a circuit can be mapped onto.
///
/// Implementations own their full compile pipeline (placement, routing
/// or movement scheduling, verification, fallback) and report through
/// the standard [`MapOutcome`]. The serving tier holds backends as
/// `Arc<dyn Backend>` and keys its caches on [`Backend::id`], so the id
/// must be deterministic for a given spec and distinct across specs
/// (degraded variants included).
pub trait Backend: Send + Sync {
    /// Stable identity used in cache keys and reports. For coupled
    /// devices this is the device name (degraded variants carry their
    /// health-digest suffix, e.g. `surface17@1a2b3c4d`).
    fn id(&self) -> &str;

    /// Number of physical qubit slots (sites) on the target.
    fn qubit_count(&self) -> usize;

    /// The fixed-coupler view of the target, used for independent
    /// verification, health overlays and topology introspection. For a
    /// movement backend this is the interaction-radius graph over its
    /// sites, not a physical coupler map.
    fn device(&self) -> &Device;

    /// Compiles `circuit` for this target with the requested strategy
    /// pipeline, falling back per the backend's own ladder.
    ///
    /// # Errors
    ///
    /// [`LadderError`] when every rung failed or the job is
    /// unsatisfiable on the target.
    fn map(&self, circuit: &Circuit, config: &MapperConfig) -> Result<MapOutcome, LadderError>;

    /// Compiles `circuit` as one lane of the racing portfolio
    /// ([`crate::portfolio`]), verification on. [`CoupledBackend`] runs
    /// *exactly* the given pipeline, so a failing lane is discarded
    /// instead of demoted inside the backend. The default forwards to
    /// [`Backend::map`], fallback included: on `qcs-dpqa`'s
    /// `DpqaBackend`, which keeps it, a lane runs the whole movement →
    /// SWAP list for its pipeline.
    ///
    /// # Errors
    ///
    /// [`LadderError`] when the pipeline failed, did not verify, or
    /// found the job unsatisfiable on the target.
    fn map_single(
        &self,
        circuit: &Circuit,
        config: &MapperConfig,
    ) -> Result<MapOutcome, LadderError> {
        self.map(circuit, config)
    }

    /// A new backend of the same physics with the health overlay
    /// applied (qubit/coupler outages). The returned backend's
    /// [`id`](Backend::id) reflects the overlay so cache keys stay
    /// distinct.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] when the overlay leaves the target unusable
    /// (e.g. the surviving interaction graph is disconnected).
    fn degrade(&self, health: &DeviceHealth) -> Result<Arc<dyn Backend>, DeviceError>;
}

/// The classic fixed-coupler backend: SWAP routing over a static
/// coupling graph, served through [`FallbackLadder::standard`].
///
/// This is a thin adapter — it is exactly the pre-trait daemon path
/// (place → route → schedule → verify with fallback), packaged behind
/// [`Backend`] so it composes with movement backends in the catalog.
///
/// # Examples
///
/// ```
/// use qcs_core::backend::{Backend, CoupledBackend};
/// use qcs_core::config::MapperConfig;
/// use qcs_topology::surface::surface7;
///
/// let backend = CoupledBackend::new(surface7());
/// assert_eq!(backend.id(), "surface-7");
/// let ghz = qcs_workloads::ghz::ghz_chain(5)?;
/// let outcome = backend.map(&ghz, &MapperConfig::default())?;
/// assert!(outcome.report.verified);
/// assert_eq!(outcome.report.moves_inserted, 0); // SWAPs, not moves
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoupledBackend {
    device: Device,
}

impl CoupledBackend {
    /// Wraps a fixed-coupler device as a backend.
    pub fn new(device: Device) -> Self {
        CoupledBackend { device }
    }
}

impl Backend for CoupledBackend {
    fn id(&self) -> &str {
        self.device.name()
    }

    fn qubit_count(&self) -> usize {
        self.device.qubit_count()
    }

    fn device(&self) -> &Device {
        &self.device
    }

    fn map(&self, circuit: &Circuit, config: &MapperConfig) -> Result<MapOutcome, LadderError> {
        if crate::portfolio::is_auto(config) {
            let backend: Arc<dyn Backend> = Arc::new(self.clone());
            return crate::portfolio::Portfolio::default()
                .map(circuit, &backend, None)
                .map(|(outcome, _)| outcome);
        }
        FallbackLadder::standard(config.clone()).map(circuit, &self.device)
    }

    fn map_single(
        &self,
        circuit: &Circuit,
        config: &MapperConfig,
    ) -> Result<MapOutcome, LadderError> {
        FallbackLadder::new(vec![config.clone()]).map(circuit, &self.device)
    }

    fn degrade(&self, health: &DeviceHealth) -> Result<Arc<dyn Backend>, DeviceError> {
        Ok(Arc::new(CoupledBackend::new(self.device.degrade(health)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_topology::surface::surface17;

    #[test]
    fn coupled_backend_mirrors_device_identity() {
        let backend = CoupledBackend::new(surface17());
        assert_eq!(backend.id(), "surface-17");
        assert_eq!(backend.qubit_count(), 17);
        assert_eq!(backend.device().name(), "surface-17");
    }

    #[test]
    fn coupled_backend_maps_like_the_ladder() {
        let circuit = qcs_workloads::ghz::ghz_chain(5).unwrap();
        let backend = CoupledBackend::new(surface17());
        let via_backend = backend.map(&circuit, &MapperConfig::default()).unwrap();
        let via_ladder = FallbackLadder::standard(MapperConfig::default())
            .map(&circuit, &surface17())
            .unwrap();
        assert_eq!(
            via_backend.report.swaps_inserted,
            via_ladder.report.swaps_inserted
        );
        assert_eq!(via_backend.report.moves_inserted, 0);
        assert_eq!(via_backend.report.move_stages, 0);
        assert!(via_backend.report.verified);
    }

    #[test]
    fn degrade_renames_the_backend() {
        let backend = CoupledBackend::new(surface17());
        let health = DeviceHealth::random(backend.device().coupling(), 0.1, 0.1, 7);
        let degraded = backend.degrade(&health).unwrap();
        assert!(
            degraded.id().starts_with("surface-17@"),
            "{}",
            degraded.id()
        );
        assert_eq!(degraded.qubit_count(), 17);
    }
}
