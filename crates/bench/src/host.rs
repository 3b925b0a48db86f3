//! Host fingerprinting for benchmark provenance.
//!
//! Kernel-level numbers (elements/s, lane-fold speedups) are meaningless
//! without knowing what machine produced them: the same binary can be
//! memory-bound on one host and issue-bound on another. Every bench
//! harness prints [`fingerprint`] next to its results, and
//! EXPERIMENTS.md entries record it verbatim, so a reader can tell a
//! 1-core CI container from a 32-core workstation at a glance.

use parlap_primitives::detected_simd_width;

/// A point-in-time description of the machine running the benchmark.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostFingerprint {
    /// Logical cores visible to the process
    /// (`std::thread::available_parallelism`).
    pub cores: usize,
    /// Compile-target architecture (`target_arch`).
    pub arch: &'static str,
    /// Widest f64 SIMD lane count the CPU advertises (8 = AVX-512,
    /// 4 = AVX2, 2 = SSE2/NEON, 1 = unknown). Informational only —
    /// kernel bit-layout never depends on it.
    pub simd_width: usize,
}

impl HostFingerprint {
    /// One-line form for bench output and EXPERIMENTS.md provenance.
    pub fn summary(&self) -> String {
        format!(
            "host: {} cores, arch {}, simd width {} (f64 lanes)",
            self.cores, self.arch, self.simd_width
        )
    }
}

/// Capture the current host's fingerprint.
pub fn fingerprint() -> HostFingerprint {
    HostFingerprint {
        cores: std::thread::available_parallelism().map(|x| x.get()).unwrap_or(1),
        arch: std::env::consts::ARCH,
        simd_width: detected_simd_width(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_sane() {
        let fp = fingerprint();
        assert!(fp.cores >= 1);
        assert!(fp.simd_width >= 1 && fp.simd_width <= 8);
        assert!(!fp.arch.is_empty());
        let s = fp.summary();
        assert!(s.contains("cores") && s.contains(fp.arch));
    }
}
