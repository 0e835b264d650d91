//! Shared fixtures for the criterion benchmarks.
//!
//! The benches in `benches/` regenerate Figure 11's operation timings
//! (`fig11_operations`) and add ablation measurements for the paper's
//! main design choices (`ablation`): register-width alignment,
//! the cost of martingale bookkeeping, and Newton-solver convergence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ell_hash::SplitMix64;

/// Generates `n` pseudo-random 16-byte elements (the paper's benchmark
/// input shape) deterministically from a seed.
#[must_use]
pub fn elements(n: usize, seed: u64) -> Vec<[u8; 16]> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let mut e = [0u8; 16];
            e[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            e[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
            e
        })
        .collect()
}

/// Generates `n` pseudo-random 64-bit hashes.
#[must_use]
pub fn hashes(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Handles a `--kernel NAME` benchmark flag: pins the process-wide scan
/// kernel before first use. Exits with status 2 on an unknown name or a
/// conflicting already-active kernel, so a bench run never silently
/// measures the wrong kernel.
pub fn force_kernel_or_exit(bench: &str, name: &str) {
    let Some(kernel) = exaloglog::kernels::Kernel::parse(name) else {
        eprintln!("{bench}: --kernel expects scalar|swar|avx2, got {name:?}");
        std::process::exit(2);
    };
    match exaloglog::kernels::force(kernel) {
        Ok(pinned) => {
            if pinned != kernel {
                eprintln!(
                    "{bench}: kernel {} unavailable on this hardware; running {}",
                    kernel.name(),
                    pinned.name()
                );
            }
        }
        Err(active) => {
            eprintln!(
                "{bench}: kernel already selected as {} before --kernel {name} took effect",
                active.name()
            );
            std::process::exit(2);
        }
    }
}

/// The name of the scan kernel the process is running (`"scalar"`,
/// `"swar"`, `"avx2"`), for bench JSON records.
#[must_use]
pub fn active_kernel_name() -> &'static str {
    exaloglog::kernels::active().name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(elements(10, 1), elements(10, 1));
        assert_ne!(elements(10, 1), elements(10, 2));
        assert_eq!(hashes(10, 1), hashes(10, 1));
    }
}
