//! Seeded inputs, oracle helpers, layer counts and machine context shared
//! by the workloads.

use crate::report::Tally;
use crate::Args;
use cw_sparse::CsrMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::mem::size_of;

/// The operand with every stored value redrawn from `seed`: the structure
/// (and therefore the work) is the dataset's, the numbers are the run's.
pub fn seeded_values(a: &CsrMatrix, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = a.clone();
    for v in &mut out.vals {
        *v = rng.gen_range(0.5..1.5);
    }
    out
}

/// Bit-for-bit equality of two products (structure and `f64` bit patterns).
pub fn bit_equal(x: &CsrMatrix, y: &CsrMatrix) -> bool {
    x.nrows == y.nrows
        && x.ncols == y.ncols
        && x.row_ptr == y.row_ptr
        && x.col_idx == y.col_idx
        && x.vals.len() == y.vals.len()
        && x.vals.iter().zip(&y.vals).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Counts one product, compared with its oracle outside any timed
/// interval. With `--inject-mismatch` the run's first product is
/// corrupted first, which exercises this check.
pub fn check(tally: &mut Tally, args: &Args, mut c: CsrMatrix, oracle: &CsrMatrix) -> bool {
    if args.inject_mismatch && tally.attempted == 0 {
        corrupt(&mut c);
    }
    let ok = bit_equal(&c, oracle);
    tally.check(ok);
    ok
}

/// Flips the last bit of one stored value.
fn corrupt(c: &mut CsrMatrix) {
    if let Some(v) = c.vals.last_mut() {
        *v = f64::from_bits(v.to_bits() ^ 1);
    }
}

fn csr_bytes(nrows: usize, nnz: usize) -> u64 {
    ((nrows + 1) * size_of::<usize>() + nnz * (size_of::<u32>() + size_of::<f64>())) as u64
}

/// Compulsory bytes of `C = A·B`: `A` once, every `B` row that `A`
/// touches once, and `C` once.
pub fn bytes_moved(a: &CsrMatrix, b: &CsrMatrix, c: &CsrMatrix) -> u64 {
    let mut touched = vec![false; b.nrows];
    for &k in &a.col_idx {
        touched[k as usize] = true;
    }
    let b_rows: u64 = touched
        .iter()
        .enumerate()
        .filter(|(_, t)| **t)
        .map(|(k, _)| {
            (2 * size_of::<usize>() + b.row_nnz(k) * (size_of::<u32>() + size_of::<f64>())) as u64
        })
        .sum();
    csr_bytes(a.nrows, a.nnz()) + b_rows + csr_bytes(c.nrows, c.nnz())
}

/// Peak resident set of process `pid` (`self` for this one) in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak RSS to its current RSS (Linux
/// `clear_refs` 5), so a later [`peak_rss_mb`] reads the peak reached
/// after this point: the program's, not input and oracle generation's.
/// Where the kernel refuses, the peak keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the level-`level` data/unified cache of CPU 0.
pub fn cache_bytes(level: u32) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for i in 0..8 {
        let read = |f: &str| std::fs::read_to_string(format!("{base}/index{i}/{f}")).ok();
        let (Some(l), Some(t), Some(s)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if l.trim() == level.to_string() && t.trim() != "Instruction" {
            let s = s.trim();
            let (digits, mult) = match s.strip_suffix('K') {
                Some(d) => (d, 1024),
                None => match s.strip_suffix('M') {
                    Some(d) => (d, 1024 * 1024),
                    None => (s, 1),
                },
            };
            return digits.parse::<u64>().map_or(0, |v| v * mult);
        }
    }
    0
}

/// One line of machine context printed before the result line.
pub fn context_line(workload: &str, operands: &[(&str, u64)], server_process: bool) -> String {
    let l2 = cache_bytes(2);
    let ops: Vec<String> = operands
        .iter()
        .map(|(n, b)| format!("{{\"name\": \"{n}\", \"bytes\": {b}, \"over_l2\": {}}}", *b > l2))
        .collect();
    format!(
        "{{\"context\": {{\"workload\": \"{workload}\", \"nproc\": {}, \"pool_width\": {}, \
         \"l2_bytes\": {l2}, \"l3_bytes\": {}, \"server_separate_process\": {server_process}, \
         \"operands\": [{}]}}}}",
        nproc(),
        nproc(),
        cache_bytes(3),
        ops.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_values_keep_structure_and_depend_on_seed() {
        let a = cw_sparse::gen::grid::poisson2d(6, 6);
        let x = seeded_values(&a, 1);
        let y = seeded_values(&a, 1);
        let z = seeded_values(&a, 2);
        assert_eq!(x.col_idx, a.col_idx);
        assert!(bit_equal(&x, &y));
        assert!(!bit_equal(&x, &z));
    }

    #[test]
    fn corrupt_breaks_bit_equality() {
        let a = cw_sparse::gen::grid::poisson2d(4, 4);
        let mut b = a.clone();
        corrupt(&mut b);
        assert!(!bit_equal(&a, &b));
    }

    #[test]
    fn bytes_moved_counts_each_b_row_once() {
        let a = CsrMatrix::identity(3);
        let c = a.clone();
        let once = csr_bytes(3, 3);
        let rows = 3 * (2 * size_of::<usize>() + 12) as u64;
        assert_eq!(bytes_moved(&a, &a, &c), 2 * once + rows);
    }
}
