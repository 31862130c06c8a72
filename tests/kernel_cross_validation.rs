//! Cross-validation of five independent SpGEMM implementations: row-wise
//! two-phase, row-wise per-row adaptive (single pass), pattern-only,
//! cluster-wise, and the cluster-wise row-major ablation. Any bug that
//! slips one kernel's unit tests must also fool four structurally
//! different implementations to pass here.

use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;
use clusterwise_spgemm::spgemm::{spgemm_pattern, spgemm_row_adaptive, AdaptiveThresholds};

fn matrices() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("mesh", gen::mesh::tri_mesh(11, 10, true, 1)),
        ("rmat", gen::rmat::rmat(7, 5, gen::rmat::RmatParams::default(), 2)),
        ("blocks", gen::banded::block_diagonal(70, (3, 6), 0.08, 3)),
        ("kkt", gen::kkt::kkt(60, 20, 2, 2, 4)),
        ("er", gen::er::erdos_renyi(80, 5, 5)),
    ]
}

#[test]
fn five_kernels_agree_on_a_squared() {
    let cfg = ClusterConfig::default();
    for (name, a) in matrices() {
        let rowwise = spgemm_serial(&a, &a);
        let adaptive = spgemm_row_adaptive(&a, &a, &AdaptiveThresholds::default(), true);
        assert!(adaptive.approx_eq(&rowwise, 1e-9), "{name}: adaptive");
        let pattern = spgemm_pattern(&a, &a);
        assert_eq!(pattern.col_idx, rowwise.col_idx, "{name}: pattern");
        let cc = CsrCluster::from_csr(&a, &variable_clustering(&a, &cfg));
        let cluster = clusterwise_spgemm(&cc, &a);
        assert!(cluster.approx_eq(&rowwise, 1e-9), "{name}: clusterwise");
        let ablate = clusterwise_spgemm::core::ablation::clusterwise_row_major(&cc, &a);
        assert!(ablate.approx_eq(&rowwise, 1e-9), "{name}: row-major ablation");
    }
}

#[test]
fn spgemm_against_spmv_oracle() {
    // (A·B)·x == A·(B·x) for dense x: cross-checks SpGEMM against SpMV.
    use clusterwise_spgemm::sparse::spmv::spmv;
    for (name, a) in matrices() {
        let b = gen::er::erdos_renyi(a.nrows, 4, 99);
        let c = spgemm(&a, &b);
        let x: Vec<f64> = (0..a.nrows).map(|i| ((i * 7 + 1) as f64).recip()).collect();
        let via_c = spmv(&c, &x);
        let bx = spmv(&b, &x);
        let via_chain = spmv(&a, &bx);
        for (u, v) in via_c.iter().zip(&via_chain) {
            assert!((u - v).abs() < 1e-9, "{name}");
        }
    }
}

#[test]
fn kron_product_identity_via_spgemm() {
    // (A ⊗ I)(I ⊗ B) == A ⊗ B.
    use clusterwise_spgemm::sparse::gen::kron::kron;
    let a = gen::er::erdos_renyi(6, 2, 1);
    let b = gen::er::erdos_renyi(5, 2, 2);
    let i_a = CsrMatrix::identity(6);
    let i_b = CsrMatrix::identity(5);
    let lhs = spgemm(&kron(&a, &i_b), &kron(&i_a, &b));
    let rhs = kron(&a, &b);
    assert!(lhs.numerically_eq(&rhs, 1e-10));
}

#[test]
fn advisor_suggestions_are_executable() {
    use clusterwise_spgemm::reorder::advisor::{advise, Suggestion};
    for (name, a) in matrices() {
        let reference = spgemm_serial(&a, &a);
        for s in advise(&a) {
            match s {
                Suggestion::Reorder(algo) => {
                    let p = algo.compute(&a, 3);
                    let pa = p.permute_symmetric(&a);
                    let c = spgemm_serial(&pa, &pa);
                    assert!(
                        c.numerically_eq(&p.permute_symmetric(&reference), 1e-8),
                        "{name}: {algo:?}"
                    );
                }
                Suggestion::ClusterInPlace => {
                    let cc = CsrCluster::from_csr(
                        &a,
                        &variable_clustering(&a, &ClusterConfig::default()),
                    );
                    assert!(clusterwise_spgemm(&cc, &a).approx_eq(&reference, 1e-9), "{name}");
                }
                Suggestion::Hierarchical => {
                    let h = hierarchical_clustering(&a, &ClusterConfig::default());
                    let (cc, pa) = h.build_symmetric(&a);
                    let c = clusterwise_spgemm(&cc, &pa);
                    assert!(
                        c.numerically_eq(&h.perm.permute_symmetric(&reference), 1e-8),
                        "{name}"
                    );
                }
                Suggestion::LeaveOriginal => {}
            }
        }
    }
}
