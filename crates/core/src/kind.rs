//! Lifeguard selection for the experiment layer.

use std::fmt;

use lba_lifeguard::Lifeguard;
use lba_workloads::Benchmark;

use crate::pipeline::{MonitorSpec, MONITORS};

/// One of the paper's three lifeguards, as an experiment parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifeguardKind {
    /// Memory-allocation checking (Figure 2(a)).
    AddrCheck,
    /// Dynamic information-flow tracking (Figure 2(b)).
    TaintCheck,
    /// Eraser-style race detection (Figure 2(c)).
    LockSet,
}

impl LifeguardKind {
    /// All three, in figure order.
    pub const ALL: [LifeguardKind; 3] = [
        LifeguardKind::AddrCheck,
        LifeguardKind::TaintCheck,
        LifeguardKind::LockSet,
    ];

    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LifeguardKind::AddrCheck => "addrcheck",
            LifeguardKind::TaintCheck => "taintcheck",
            LifeguardKind::LockSet => "lockset",
        }
    }

    /// This lifeguard's [`MONITORS`] row.
    #[must_use]
    pub(crate) fn spec(self) -> &'static MonitorSpec {
        MONITORS
            .iter()
            .find(|m| m.name == self.name())
            .expect("every LifeguardKind has a MONITORS row")
    }

    /// Builds a fresh lifeguard instance configured for the LBA run
    /// (hardware-assisted: LockSet memoises lockset operations).
    #[must_use]
    pub fn make_lba(self) -> Box<dyn Lifeguard> {
        (self.spec().make)()
    }

    /// Builds a fresh lifeguard instance configured for the DBI baseline
    /// (software-only: LockSet recomputes lockset operations, as the
    /// paper-era software race detectors did; DESIGN.md §5).
    #[must_use]
    pub fn make_dbi(self) -> Box<dyn Lifeguard> {
        (self.spec().make_dbi)()
    }

    /// The benchmarks this lifeguard is evaluated on in Figure 2:
    /// AddrCheck/TaintCheck run the seven single-threaded programs,
    /// LockSet the two multi-threaded ones.
    #[must_use]
    pub fn benchmarks(self) -> &'static [Benchmark] {
        match self {
            LifeguardKind::AddrCheck | LifeguardKind::TaintCheck => &Benchmark::SINGLE_THREADED,
            LifeguardKind::LockSet => &Benchmark::MULTI_THREADED,
        }
    }

    /// The paper's reported average LBA slowdown for this lifeguard
    /// (§3: 3.9×, 4.8×, 9.7×) — used by the reproduction reports.
    #[must_use]
    pub fn paper_avg_slowdown(self) -> f64 {
        match self {
            LifeguardKind::AddrCheck => 3.9,
            LifeguardKind::TaintCheck => 4.8,
            LifeguardKind::LockSet => 9.7,
        }
    }
}

impl fmt::Display for LifeguardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_benchmark_sets() {
        assert_eq!(LifeguardKind::AddrCheck.benchmarks().len(), 7);
        assert_eq!(LifeguardKind::TaintCheck.benchmarks().len(), 7);
        assert_eq!(LifeguardKind::LockSet.benchmarks().len(), 2);
        assert_eq!(LifeguardKind::LockSet.to_string(), "lockset");
    }

    #[test]
    fn factories_build_matching_lifeguards() {
        for kind in LifeguardKind::ALL {
            assert_eq!(kind.make_lba().name(), kind.name());
            assert_eq!(kind.make_dbi().name(), kind.name());
        }
    }

    #[test]
    fn paper_averages_are_ordered() {
        assert!(
            LifeguardKind::AddrCheck.paper_avg_slowdown()
                < LifeguardKind::TaintCheck.paper_avg_slowdown()
        );
        assert!(
            LifeguardKind::TaintCheck.paper_avg_slowdown()
                < LifeguardKind::LockSet.paper_avg_slowdown()
        );
    }
}
