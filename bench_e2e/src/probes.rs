//! Kernel probes: one `x·P` on a materialized TPM, one Kronecker apply,
//! and a STREAM-triad yardstick, with the computed bytes each moves.

use std::hint::black_box;
use std::time::Instant;

use stochcdr::CdrModel;
use stochcdr_linalg::{par, TransitionOp};
use stochcdr_markov::ImplicitStochastic;

use crate::stats::median;
use crate::workload::Inputs;

/// Largest triad array. Four times this machine's reported LLC would be
/// 1.2 GiB per array; the cap keeps the probe's footprint at 768 MiB on
/// a shared host, still 2.5× the LLC in total.
const TRIAD_CAP_BYTES: u64 = 256 << 20;

/// Results of the kernel probes.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub spmv_s: f64,
    pub spmv_bytes: u64,
    pub spmv_speedup: f64,
    pub spmv_threads: usize,
    pub kron_apply_s: f64,
    pub kron_apply_cost: u64,
    pub kron_bytes: u64,
    pub triad_gbps: f64,
    pub triad_array_bytes: u64,
    pub llc_bytes: u64,
    /// Why a probe's own check failed, if one did.
    pub error: Option<String>,
}

impl Probes {
    pub fn spmv_gbps(&self) -> f64 {
        self.spmv_bytes as f64 / self.spmv_s * 1e-9
    }

    pub fn kron_gbps(&self) -> f64 {
        self.kron_bytes as f64 / self.kron_apply_s * 1e-9
    }
}

/// Computed bytes of one CSR `x·P`: value and column index per stored
/// entry, plus row pointer, `x` and `y` per row. Cache misses are not
/// modelled, so this is a floor on real traffic.
pub fn csr_bytes(n: usize, nnz: usize) -> u64 {
    12 * nnz as u64 + 24 * n as u64
}

/// Computed bytes of one Kronecker apply done as mode products: the CSR
/// model per mode, i.e. value and index per multiply-add (`apply_cost`)
/// plus one read and one write of the joint vector per lane. Set against
/// the measured apply, it says how far the kernel is from the memory roof.
pub fn kron_bytes(apply_cost: usize, dim: usize, lanes: usize) -> u64 {
    12 * apply_cost as u64 + 16 * (dim * lanes) as u64
}

/// Median seconds per call of `f`, over five batches sized to ~0.1 s.
fn per_call(mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.1 / one) as usize).clamp(1, 100_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&batches)
}

/// Runs every probe. Leaves the thread count at 1.
pub fn run(inputs: &Inputs) -> Probes {
    let mut p = Probes::default();

    // SpMV on the stiff chain: its 318k stored entries clear the
    // parallel-dispatch gate, so the two-thread timing exercises the
    // pooled kernel rather than the serial fallback.
    let chain = CdrModel::new(inputs.stiff.clone())
        .build_chain()
        .expect("stiff chain");
    let n = chain.state_count();
    let x = vec![1.0 / n as f64; n];
    let mut y1 = vec![0.0; n];
    let mut yn = vec![0.0; n];
    p.spmv_bytes = csr_bytes(n, chain.nnz());
    par::set_threads(Some(1));
    p.spmv_s = per_call(|| chain.tpm().step_into(black_box(&x), &mut y1));
    p.spmv_threads = par::available().min(2);
    par::set_threads(Some(p.spmv_threads));
    par::prewarm();
    let spmv_nt = per_call(|| chain.tpm().step_into(black_box(&x), &mut yn));
    par::set_threads(Some(1));
    p.spmv_speedup = p.spmv_s / spmv_nt;
    if y1 != yn {
        p.error = Some("SpMV differs between 1 and 2 threads".into());
    }
    drop(chain);

    // The implicit solve's fine-grid apply: the row-renormalized view
    // over the Kronecker operator that smoothing and residuals call.
    let lane = CdrModel::new(inputs.lane.clone())
        .build_chain()
        .expect("lane chain");
    let product = lane.replicate(2).expect("product");
    let op = product.operator();
    let chain =
        ImplicitStochastic::with_tolerance(op, op.transposed(), 1e-6).expect("implicit chain");
    let dim = op.rows();
    let x = vec![1.0 / dim as f64; dim];
    let mut y = vec![0.0; dim];
    p.kron_apply_cost = op.apply_cost() as u64;
    p.kron_bytes = kron_bytes(op.apply_cost(), dim, product.lanes().len());
    p.kron_apply_s = per_call(|| chain.mul_left_into(black_box(&x), &mut y));

    p.llc_bytes = llc_bytes().unwrap_or(0);
    p.triad_array_bytes = match p.llc_bytes {
        0 => TRIAD_CAP_BYTES,
        llc => (4 * llc).min(TRIAD_CAP_BYTES),
    };
    p.triad_gbps = triad_gbps(p.triad_array_bytes as usize / 8);
    p
}

/// STREAM triad `a = b + s·c` over `len`-element arrays: best of five
/// timed passes after one untimed pass, counting 24 bytes per element as
/// STREAM does.
pub fn triad_gbps(len: usize) -> f64 {
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for pass in 0..6 {
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        if pass > 0 {
            best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    assert_eq!(a[len / 2], 7.0, "triad result");
    24.0 * len as f64 / best * 1e-9
}

/// Size of the highest-level CPU cache, from sysfs.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let path = e.ok()?.path();
        let level: u32 = std::fs::read_to_string(path.join("level"))
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let size = parse_cache_size(&std::fs::read_to_string(path.join("size")).ok()?)?;
        Some((level, size))
    })
    .max()
    .map(|(_, size)| size)
}

/// Parses a sysfs cache size such as `307200K` or `32M`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * scale)
}

/// The CPU model string, from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_models_count_what_they_say() {
        // 8,108 states, 190,589 entries: 12 B per entry + 24 B per row.
        assert_eq!(csr_bytes(8108, 190_589), 12 * 190_589 + 24 * 8108);
        assert_eq!(csr_bytes(0, 0), 0);
        // Two 256-state lanes of 4,028 entries each: every mode product
        // touches each factor entry once per fiber (256 fibers).
        let cost = 2 * 256 * 4028;
        assert_eq!(
            kron_bytes(cost, 65_536, 2),
            12 * cost as u64 + 16 * 2 * 65_536
        );
    }

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("307200K\n"), Some(300 << 20));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("4096"), Some(4096));
        assert_eq!(parse_cache_size("K"), None);
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn triad_moves_data() {
        let gbps = triad_gbps(1 << 16);
        assert!(gbps.is_finite() && gbps > 0.0);
    }
}
