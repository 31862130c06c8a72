//! Execution backends: *where and how* a prepared plan runs.
//!
//! The plan → prepare → execute pipeline deliberately splits *what* to do
//! (a [`Plan`]: reordering × clustering × kernel × accumulator knobs) from
//! *how to run it*. This module makes the second half a first-class seam:
//! an [`ExecutionBackend`] owns both **prepare** (materializing a
//! backend-specific [`BackendPayload`] from the operand) and **execute**
//! (the kernel dispatch), declares a [`BackendId`] plus a [`BackendCaps`]
//! capability descriptor the [`crate::CostModel`] prices plans with, and
//! registers in a [`BackendRegistry`] the [`crate::Planner`] and
//! [`crate::Engine`] resolve against. Related work motivates the seam:
//! the same SpGEMM pipeline pays off very differently per architecture
//! (Nagasaka et al. on KNL vs multicore), and reordering benefit is
//! backend-sensitive (the SpMV reordering study) — so the execution
//! strategy must be swappable without touching planning or caching.
//!
//! Two backends ship in [`BackendRegistry::builtin`]:
//!
//! * [`ParallelCpu`] — the production rayon path, which runs every auto
//!   plan. How each row accumulates is the plan's accumulator knob, not
//!   a backend: auto row-wise plans carry
//!   [`cw_spgemm::AccumulatorKind::Adaptive`], the per-row kernel zoo.
//! * [`SerialReference`] — a deterministic single-threaded oracle used by
//!   cross-validation: every other backend must produce bit-identical
//!   output for the same plan knobs. The planner never offers it to auto
//!   traffic.
//!
//! Backend identity is part of [`crate::PlanKnobs`], so the plan cache
//! keys preparations by `(fingerprint, knobs, backend)`.

use crate::plan::{ClusteringStrategy, KernelChoice, OutputShape, Plan};
use crate::prepared::PrepTimings;
use cw_core::{
    fixed_clustering, hierarchical_clustering, variable_clustering, ClusterConfig, CsrCluster,
};
use cw_reorder::Reordering;
use cw_sparse::{CsrMatrix, Permutation};
use cw_spgemm::rowwise::{spgemm_with, SpGemmOptions};
use std::any::Any;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Identity of one execution backend.
///
/// The id is what travels inside [`Plan`]s (and therefore cache keys and
/// feedback state); the [`BackendRegistry`] maps it back to the
/// implementation at prepare/execute time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendId {
    /// The reference rayon CPU path (the default).
    #[default]
    ParallelCpu,
    /// Single-threaded deterministic oracle for cross-validation.
    SerialReference,
}

impl BackendId {
    /// Every builtin backend id, in registry order (the order is the
    /// wire index, see `docs/PROTOCOL.md`).
    pub const ALL: [BackendId; 2] = [BackendId::ParallelCpu, BackendId::SerialReference];

    /// Short human-readable name (stable across releases; used in reports
    /// and as the backend key in serialized calibration profiles).
    pub fn name(&self) -> &'static str {
        match self {
            BackendId::ParallelCpu => "parallel-cpu",
            BackendId::SerialReference => "serial-reference",
        }
    }

    /// Inverse of [`BackendId::name`]: resolves a stable name back to the
    /// id (how [`crate::CalibrationProfile`] parsing maps JSON entries).
    pub fn parse(name: &str) -> Option<BackendId> {
        BackendId::ALL.iter().copied().find(|id| id.name() == name)
    }

    /// The capability descriptor of the *builtin* implementation of this
    /// id. Registry-resolved backends may override it; this is the
    /// default the standalone [`crate::CostModel::estimate`] convenience
    /// uses.
    pub fn caps(&self) -> BackendCaps {
        match self {
            BackendId::ParallelCpu => BackendCaps {
                backend: *self,
                description: "reference rayon path",
                parallel: true,
                kernel_scale: 1.0,
            },
            BackendId::SerialReference => BackendCaps {
                backend: *self,
                description: "single-threaded deterministic oracle",
                parallel: false,
                kernel_scale: 1.0,
            },
        }
    }
}

/// What a backend can do and how the [`crate::CostModel`] should price it.
///
/// The descriptor is deliberately analytic, not boolean feature flags: the
/// cost model folds `kernel_scale` and the parallel capability directly
/// into its kernel-seconds estimate, so a backend's self-description *is*
/// its prior in plan pricing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendCaps {
    /// The backend this descriptor belongs to.
    pub backend: BackendId,
    /// One-line human-readable description.
    pub description: &'static str,
    /// Whether the backend can exploit the rayon pool (`false` means the
    /// cost model never applies the parallel speedup, whatever
    /// [`Plan::parallel`] says).
    pub parallel: bool,
    /// Multiplier on modeled kernel seconds relative to the reference
    /// rayon path at equal knobs (`1.0` = priced identically).
    pub kernel_scale: f64,
}

/// A backend-specific materialized operand, stored inside
/// [`crate::PreparedMatrix`]. The engine treats it as opaque bytes with a
/// size; only the backend that produced it downcasts it back (via
/// [`BackendPayload::as_any`]) at execute time.
pub trait BackendPayload: Any + Send + Sync + fmt::Debug {
    /// Approximate resident heap footprint in bytes (sizes byte-bounded
    /// cache eviction).
    fn approx_bytes(&self) -> usize;
    /// Downcast hook for the owning backend's `execute`.
    fn as_any(&self) -> &dyn Any;
}

/// One execution strategy: owns materialization of its payload and the
/// kernel dispatch over it.
///
/// Contract:
///
/// * `prepare` must honor every knob of the plan that affects *what* is
///   computed (reordering, clustering, kernel family) so results stay
///   bit-comparable across backends; knobs that only affect *how*
///   (parallelism) are the backend's to interpret.
/// * `execute` returns the kernel output in the operand's *internal*
///   (post-reordering) row order; [`crate::PreparedMatrix::multiply_timed`]
///   applies the inverse permutation afterwards, so backends never deal
///   with un-permutation.
/// * `execute` is handed payloads produced by this backend's own
///   `prepare`; receiving a foreign payload is a caller bug and may panic.
pub trait ExecutionBackend: fmt::Debug + Send + Sync {
    /// The identity plans carry to name this backend.
    fn id(&self) -> BackendId;
    /// Capability/affinity descriptor consumed by the cost model.
    fn caps(&self) -> BackendCaps;
    /// Materializes `plan` for `a`: the backend-specific payload, the
    /// inverse row permutation (when the plan reorders), and per-stage
    /// preparation timings.
    fn prepare(
        &self,
        a: &CsrMatrix,
        plan: &Plan,
        seed: u64,
        cluster: &ClusterConfig,
    ) -> (Arc<dyn BackendPayload>, Option<Permutation>, PrepTimings);
    /// `C = payload · b` in internal row order.
    fn execute(&self, payload: &dyn BackendPayload, plan: &Plan, b: &CsrMatrix) -> CsrMatrix;

    /// `C = payload · b` shaped by [`Plan::shape`], in internal row order.
    ///
    /// `mask` must be `Some` exactly when the plan's shape is
    /// [`OutputShape::Masked`], with its rows already in the payload's
    /// *internal* (post-reordering) row order —
    /// [`crate::PreparedMatrix::multiply_shaped`] handles that permutation,
    /// so backends never deal with it.
    ///
    /// The default implementation computes the full product with
    /// [`ExecutionBackend::execute`] and applies the row-local shape
    /// transform via [`apply_output_shape`]; both transforms commute with
    /// row permutation, so every backend inheriting this default is
    /// bit-identical to the serial reference per shape. Backends with
    /// genuinely truncated kernels (e.g. a future masked SpGEMM that
    /// skips non-mask columns) may override it, as long as they preserve
    /// bit-identity with the default.
    fn execute_shaped(
        &self,
        payload: &dyn BackendPayload,
        plan: &Plan,
        b: &CsrMatrix,
        mask: Option<&CsrMatrix>,
    ) -> CsrMatrix {
        apply_output_shape(self.execute(payload, plan, b), plan.shape, mask)
    }
}

/// Applies an [`OutputShape`] to a computed product: the identity for
/// `Full`, [`cw_spgemm::row_topk`] for `TopK`, and
/// [`cw_spgemm::apply_mask`] for `Masked`.
///
/// Row-local by construction, so it may be applied in any row order as
/// long as `mask` rows align with `c` rows.
///
/// # Panics
///
/// Panics if the shape is [`OutputShape::Masked`] and `mask` is `None`
/// (the mask is request data the caller must supply), or if the mask's
/// dimensions do not match `c`'s.
pub fn apply_output_shape(c: CsrMatrix, shape: OutputShape, mask: Option<&CsrMatrix>) -> CsrMatrix {
    match shape {
        OutputShape::Full => c,
        OutputShape::TopK(k) => cw_spgemm::row_topk(&c, k),
        OutputShape::Masked => {
            let mask = mask.expect("masked plan executed without a mask operand");
            cw_spgemm::apply_mask(&c, mask)
        }
    }
}

/// The shared CPU operand representation: plain CSR for row-wise plans,
/// `CSR_Cluster` for cluster-wise plans. Both builtin backends
/// materialize this; custom backends are free to reuse it via
/// [`materialize_cpu`].
#[derive(Debug, Clone)]
pub enum CpuOperand {
    /// Row-wise kernels run over plain (possibly permuted) CSR.
    RowWise(CsrMatrix),
    /// Cluster-wise kernels run over the paper's `CSR_Cluster`.
    ClusterWise(CsrCluster),
}

impl BackendPayload for CpuOperand {
    fn approx_bytes(&self) -> usize {
        match self {
            CpuOperand::RowWise(m) => m.memory_bytes(),
            CpuOperand::ClusterWise(cc) => cc.memory_bytes(),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Materializes the CPU operand for `plan`: computes and applies the row
/// permutation, builds the clustered format when the plan asks for one,
/// and records per-stage timings. The returned permutation is the
/// *inverse* of the total applied reordering (what maps kernel output rows
/// back to original ids), matching the [`ExecutionBackend::prepare`]
/// contract. Shared by both builtin backends, public so custom backends
/// can reuse the same preprocessing.
pub fn materialize_cpu(
    a: &CsrMatrix,
    plan: &Plan,
    seed: u64,
    cluster: &ClusterConfig,
) -> (CpuOperand, Option<Permutation>, PrepTimings) {
    let mut timings = PrepTimings::default();

    // Stage 1: explicit reordering (paper Table 1 algorithms).
    let mut perm_total: Option<Permutation> = None;
    let mut pa: Option<CsrMatrix> = None;
    if let Some(r) = plan.reorder {
        if r != Reordering::Original {
            let t0 = Instant::now();
            let p = r.compute(a, seed);
            pa = Some(p.permute_rows(a));
            perm_total = Some(p);
            timings.reorder_seconds += t0.elapsed().as_secs_f64();
        }
    }

    // Stage 2: clustering (paper §3.2 / Algs. 2–3). The kernel choice is
    // authoritative: a row-wise plan never builds clusters, and a
    // cluster-wise plan with `ClusteringStrategy::None` falls back to
    // fixed-length grouping. Hierarchical clustering brings its own
    // permutation, composed onto any explicit reordering.
    let base = pa.unwrap_or_else(|| a.clone());
    let operand = match plan.kernel {
        KernelChoice::RowWise => CpuOperand::RowWise(base),
        KernelChoice::ClusterWise => {
            let t0 = Instant::now();
            let cc = match plan.clustering {
                ClusteringStrategy::None => {
                    let c = fixed_clustering(&base, cluster.max_cluster.max(1));
                    CsrCluster::from_csr(&base, &c)
                }
                ClusteringStrategy::Fixed(k) => {
                    let c = fixed_clustering(&base, k.max(1));
                    CsrCluster::from_csr(&base, &c)
                }
                ClusteringStrategy::Variable => {
                    let c = variable_clustering(&base, cluster);
                    CsrCluster::from_csr(&base, &c)
                }
                ClusteringStrategy::Hierarchical => {
                    let h = hierarchical_clustering(&base, cluster);
                    let hp = h.perm;
                    let grouped = hp.permute_rows(&base);
                    let cc = CsrCluster::from_csr(&grouped, &h.clustering);
                    // Compose: the explicit reorder ran first, then `hp`.
                    perm_total = Some(match perm_total.take() {
                        None => hp,
                        Some(first) => first.then(&hp),
                    });
                    cc
                }
            };
            timings.cluster_seconds += t0.elapsed().as_secs_f64();
            CpuOperand::ClusterWise(cc)
        }
    };

    (operand, perm_total.map(|p| p.inverse()), timings)
}

/// Runs the plan's kernel family over a CPU operand with explicit options.
fn run_cpu_kernel(operand: &CpuOperand, opts: &SpGemmOptions, b: &CsrMatrix) -> CsrMatrix {
    match operand {
        CpuOperand::RowWise(pa) => spgemm_with(pa, b, opts),
        CpuOperand::ClusterWise(cc) => cw_core::clusterwise_spgemm_with(cc, b, opts),
    }
}

fn downcast<'p, P: BackendPayload>(payload: &'p dyn BackendPayload, backend: &str) -> &'p P {
    payload.as_any().downcast_ref::<P>().unwrap_or_else(|| {
        // Deliberately does not Debug-format the payload itself: it holds
        // the whole prepared matrix, and a panic string with every nonzero
        // in it helps nobody.
        panic!(
            "{backend} backend handed a foreign payload (expected {}); payloads are only valid \
             with the backend that prepared them",
            std::any::type_name::<P>()
        )
    })
}

/// The production rayon path and the default backend of every plan. The
/// plan's accumulator knob picks the kernel: fixed hash / dense / sort, or
/// the per-row zoo for [`cw_spgemm::AccumulatorKind::Adaptive`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelCpu;

impl ExecutionBackend for ParallelCpu {
    fn id(&self) -> BackendId {
        BackendId::ParallelCpu
    }

    fn caps(&self) -> BackendCaps {
        BackendId::ParallelCpu.caps()
    }

    fn prepare(
        &self,
        a: &CsrMatrix,
        plan: &Plan,
        seed: u64,
        cluster: &ClusterConfig,
    ) -> (Arc<dyn BackendPayload>, Option<Permutation>, PrepTimings) {
        let (operand, unpermute, timings) = materialize_cpu(a, plan, seed, cluster);
        (Arc::new(operand), unpermute, timings)
    }

    fn execute(&self, payload: &dyn BackendPayload, plan: &Plan, b: &CsrMatrix) -> CsrMatrix {
        let operand = downcast::<CpuOperand>(payload, "parallel-cpu");
        run_cpu_kernel(operand, &plan.spgemm_options(), b)
    }
}

/// Single-threaded oracle: same materialization as [`ParallelCpu`], but
/// execution always runs the serial kernel path regardless of
/// [`Plan::parallel`]. Because every kernel accumulates each output entry
/// in ascending-`k` order and extracts sorted columns, its output is
/// bit-identical to the parallel backend under equal plan knobs — which is
/// exactly what makes it a useful cross-validation reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialReference;

impl ExecutionBackend for SerialReference {
    fn id(&self) -> BackendId {
        BackendId::SerialReference
    }

    fn caps(&self) -> BackendCaps {
        BackendId::SerialReference.caps()
    }

    fn prepare(
        &self,
        a: &CsrMatrix,
        plan: &Plan,
        seed: u64,
        cluster: &ClusterConfig,
    ) -> (Arc<dyn BackendPayload>, Option<Permutation>, PrepTimings) {
        let (operand, unpermute, timings) = materialize_cpu(a, plan, seed, cluster);
        (Arc::new(operand), unpermute, timings)
    }

    fn execute(&self, payload: &dyn BackendPayload, plan: &Plan, b: &CsrMatrix) -> CsrMatrix {
        let operand = downcast::<CpuOperand>(payload, "serial-reference");
        let opts = SpGemmOptions { parallel: false, ..plan.spgemm_options() };
        run_cpu_kernel(operand, &opts, b)
    }
}

/// The set of execution backends a planner/engine can resolve, keyed by
/// [`BackendId`]. Registering a backend under an id that is already
/// present replaces it.
///
/// ```
/// use cw_engine::{BackendId, BackendRegistry, SerialReference};
/// use std::sync::Arc;
///
/// let mut reg = BackendRegistry::builtin();
/// assert_eq!(reg.ids(), BackendId::ALL.to_vec());
///
/// // Re-registering an id replaces the earlier instance.
/// reg.register(Arc::new(SerialReference));
/// assert_eq!(reg.len(), BackendId::ALL.len());
/// assert!(!reg.resolve(BackendId::SerialReference).caps().parallel);
/// ```
#[derive(Clone)]
pub struct BackendRegistry {
    backends: Vec<Arc<dyn ExecutionBackend>>,
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendRegistry").field("ids", &self.ids()).finish()
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        BackendRegistry::builtin()
    }
}

impl BackendRegistry {
    /// A registry with no backends (build up with [`BackendRegistry::register`]).
    pub fn empty() -> BackendRegistry {
        BackendRegistry { backends: Vec::new() }
    }

    /// The two builtin backends: [`ParallelCpu`] and [`SerialReference`].
    pub fn builtin() -> BackendRegistry {
        let mut reg = BackendRegistry::empty();
        reg.register(Arc::new(ParallelCpu));
        reg.register(Arc::new(SerialReference));
        reg
    }

    /// Adds `backend`, replacing any existing backend with the same id.
    pub fn register(&mut self, backend: Arc<dyn ExecutionBackend>) {
        let id = backend.id();
        self.backends.retain(|b| b.id() != id);
        self.backends.push(backend);
    }

    /// Registered backend count.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// True when no backend is registered.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Registered ids, in registration order.
    pub fn ids(&self) -> Vec<BackendId> {
        self.backends.iter().map(|b| b.id()).collect()
    }

    /// Iterates the registered backends in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn ExecutionBackend>> {
        self.backends.iter()
    }

    /// The backend registered under `id`, if any.
    pub fn get(&self, id: BackendId) -> Option<Arc<dyn ExecutionBackend>> {
        self.backends.iter().find(|b| b.id() == id).cloned()
    }

    /// Like [`BackendRegistry::get`] but panics with a diagnostic when the
    /// backend is missing — the engine-internal resolution path, where an
    /// unregistered id in a plan is a configuration bug.
    pub fn resolve(&self, id: BackendId) -> Arc<dyn ExecutionBackend> {
        self.get(id).unwrap_or_else(|| {
            panic!("execution backend {id:?} is not registered (registered: {:?})", self.ids())
        })
    }

    /// The capability descriptor for `id` as registered here, falling back
    /// to the builtin descriptor when `id` is unregistered (so cost
    /// estimation never panics on a foreign plan).
    pub fn caps(&self, id: BackendId) -> BackendCaps {
        self.get(id).map_or_else(|| id.caps(), |b| b.caps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;
    use cw_spgemm::{spgemm_serial, AccumulatorKind};

    fn prepared_product(backend: &dyn ExecutionBackend, a: &CsrMatrix, plan: Plan) -> CsrMatrix {
        let cfg = ClusterConfig::default();
        let (payload, unpermute, _) = backend.prepare(a, &plan, 7, &cfg);
        let c = backend.execute(payload.as_ref(), &plan, a);
        match unpermute {
            None => c,
            Some(q) => q.permute_rows(&c),
        }
    }

    /// Every accumulator knob the parallel backend must run bit-identically
    /// to the oracle.
    const ACCS: [AccumulatorKind; 4] = [
        AccumulatorKind::Hash,
        AccumulatorKind::Dense,
        AccumulatorKind::Sort,
        AccumulatorKind::Adaptive,
    ];

    #[test]
    fn builtin_registry_has_all_builtin_backends() {
        let reg = BackendRegistry::builtin();
        assert_eq!(reg.len(), BackendId::ALL.len());
        for id in BackendId::ALL {
            let b = reg.resolve(id);
            assert_eq!(b.id(), id);
            assert_eq!(b.caps().backend, id);
        }
        assert!(reg.caps(BackendId::ParallelCpu).parallel);
        assert!(!reg.caps(BackendId::SerialReference).parallel);
    }

    #[test]
    fn register_replaces_same_id() {
        let mut reg = BackendRegistry::builtin();
        reg.register(Arc::new(ParallelCpu));
        assert_eq!(reg.len(), BackendId::ALL.len());
        assert_eq!(reg.ids(), [BackendId::SerialReference, BackendId::ParallelCpu]);
    }

    #[test]
    fn unregistered_caps_fall_back_to_builtin() {
        let reg = BackendRegistry::empty();
        assert!(reg.is_empty());
        assert_eq!(reg.caps(BackendId::SerialReference), BackendId::SerialReference.caps());
        assert!(reg.get(BackendId::ParallelCpu).is_none());
    }

    #[test]
    fn all_backends_agree_bit_identically_on_rowwise_plans() {
        let a = gen::mesh::tri_mesh(12, 12, true, 3);
        for acc in ACCS {
            let plan = Plan { reorder: Some(Reordering::Rcm), acc, ..Plan::baseline() };
            let oracle = prepared_product(&SerialReference, &a, plan);
            assert!(oracle.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
            let got = prepared_product(&ParallelCpu, &a, plan);
            assert!(got.approx_eq(&oracle, 0.0), "{acc:?} diverges from the serial oracle");
        }
    }

    #[test]
    fn all_backends_agree_bit_identically_on_clusterwise_plans() {
        let a = gen::banded::block_diagonal(96, (4, 8), 0.1, 2);
        for acc in ACCS {
            let plan = Plan {
                clustering: ClusteringStrategy::Variable,
                kernel: KernelChoice::ClusterWise,
                acc,
                ..Plan::baseline()
            };
            let oracle = prepared_product(&SerialReference, &a, plan);
            assert!(oracle.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
            let got = prepared_product(&ParallelCpu, &a, plan);
            assert!(got.approx_eq(&oracle, 0.0), "{acc:?} diverges from the serial oracle");
        }
    }

    /// A payload no builtin backend produced.
    #[derive(Debug)]
    struct ForeignPayload;

    impl BackendPayload for ForeignPayload {
        fn approx_bytes(&self) -> usize {
            0
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    #[should_panic(expected = "foreign payload")]
    fn foreign_payload_is_rejected() {
        let a = gen::grid::poisson2d(4, 4);
        // A payload from another backend handed to the plain CPU backend
        // must not be silently misinterpreted.
        let _ = ParallelCpu.execute(&ForeignPayload, &Plan::baseline(), &a);
    }

    #[test]
    fn backend_ids_name_and_order() {
        assert_eq!(BackendId::default(), BackendId::ParallelCpu);
        let names: Vec<_> = BackendId::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["parallel-cpu", "serial-reference"]);
        for id in BackendId::ALL {
            assert_eq!(BackendId::parse(id.name()), Some(id));
        }
        assert_eq!(BackendId::parse("tiled-cpu"), None);
    }
}
