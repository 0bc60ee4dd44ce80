//! Synthetic MiniISA workloads mirroring the paper's nine benchmarks.
//!
//! The paper evaluates on seven single-threaded programs — `bc`, `gnuplot`,
//! `gs`, `gzip`, `mcf`, `tidy`, `w3m` — and two multi-threaded ones —
//! `water`, `zchaff` — reporting that "on average, a benchmark executes 209
//! million x86 instructions, of which 51% are memory references".
//!
//! We cannot ship those binaries, so each generator here reproduces the
//! *drivers* of the paper's results for its namesake (DESIGN.md §2):
//! instruction mix (the memory-reference fraction), working-set size and
//! locality (cache behaviour), allocation churn (AddrCheck event rate),
//! input consumption (TaintCheck sources) and locking discipline (LockSet
//! event rate) — scaled from 209 M instructions down to a few hundred
//! thousand so the whole suite simulates in seconds.
//!
//! Every workload is deterministic: generators use fixed-seed RNGs, so the
//! same [`Benchmark`] and scale always produce the same instruction stream.
//!
//! The [`bugs`] module contains separate *planted-bug* programs used by the
//! examples and detection tests; the figure workloads themselves are clean.
//!
//! # Examples
//!
//! ```
//! use lba_workloads::Benchmark;
//!
//! let program = Benchmark::Gzip.build();
//! assert_eq!(program.name(), "gzip");
//! assert!(program.len() > 10);
//!
//! assert_eq!(Benchmark::ALL.len(), 9);
//! assert!(Benchmark::Water.is_multithreaded());
//! ```

#![forbid(unsafe_code)]

mod bc;
pub mod bugs;
mod gnuplot;
mod gs;
mod gzip;
mod mcf;
mod rng;
mod tidy;
mod w3m;
mod water;
mod zchaff;

use lba_isa::Program;

/// One of the paper's nine evaluation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// Arbitrary-precision calculator: ALU-heavy digit loops, small
    /// working set.
    Bc,
    /// Plotting tool: samples → transformed points, medium arrays.
    Gnuplot,
    /// PostScript renderer: allocation churn plus buffer fills and blends.
    Gs,
    /// Compressor: sliding-window hashing over received input.
    Gzip,
    /// Network-simplex optimiser: pointer chasing over a >L2 arena.
    Mcf,
    /// HTML fixer: byte classification with small node allocations.
    Tidy,
    /// Text browser: received (tainted) pages driving a handler jump table.
    W3m,
    /// SPLASH-2 style molecular dynamics: 4 threads, locked force updates.
    Water,
    /// SAT solver: threads sharing a clause database under locks.
    Zchaff,
}

impl Benchmark {
    /// All nine benchmarks in the paper's presentation order.
    pub const ALL: [Benchmark; 9] = [
        Benchmark::Bc,
        Benchmark::Gnuplot,
        Benchmark::Gs,
        Benchmark::Gzip,
        Benchmark::Mcf,
        Benchmark::Tidy,
        Benchmark::W3m,
        Benchmark::Water,
        Benchmark::Zchaff,
    ];

    /// The seven single-threaded benchmarks (Figures 2(a) and 2(b)).
    pub const SINGLE_THREADED: [Benchmark; 7] = [
        Benchmark::Bc,
        Benchmark::Gnuplot,
        Benchmark::Gs,
        Benchmark::Gzip,
        Benchmark::Mcf,
        Benchmark::Tidy,
        Benchmark::W3m,
    ];

    /// The two multi-threaded benchmarks (Figure 2(c)).
    pub const MULTI_THREADED: [Benchmark; 2] = [Benchmark::Water, Benchmark::Zchaff];

    /// The benchmark's canonical name as used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bc => "bc",
            Benchmark::Gnuplot => "gnuplot",
            Benchmark::Gs => "gs",
            Benchmark::Gzip => "gzip",
            Benchmark::Mcf => "mcf",
            Benchmark::Tidy => "tidy",
            Benchmark::W3m => "w3m",
            Benchmark::Water => "water",
            Benchmark::Zchaff => "zchaff",
        }
    }

    /// Whether the benchmark runs more than one application thread.
    #[must_use]
    pub fn is_multithreaded(self) -> bool {
        matches!(self, Benchmark::Water | Benchmark::Zchaff)
    }

    /// Builds the benchmark program at the default scale (hundreds of
    /// thousands of retired instructions; see crate docs).
    #[must_use]
    pub fn build(self) -> Program {
        self.build_scaled(1)
    }

    /// Builds the benchmark with its iteration counts multiplied by
    /// `scale` (for longer benchmarking runs).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    #[must_use]
    pub fn build_scaled(self, scale: u32) -> Program {
        assert!(scale > 0, "scale must be non-zero");
        match self {
            Benchmark::Bc => bc::build(scale),
            Benchmark::Gnuplot => gnuplot::build(scale),
            Benchmark::Gs => gs::build(scale),
            Benchmark::Gzip => gzip::build(scale),
            Benchmark::Mcf => mcf::build(scale),
            Benchmark::Tidy => tidy::build(scale),
            Benchmark::W3m => w3m::build(scale),
            Benchmark::Water => water::build(scale),
            Benchmark::Zchaff => zchaff::build(scale),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_cache::{MemSystem, MemSystemConfig};
    use lba_cpu::{Machine, MachineConfig};
    use lba_record::{EventKind, TraceStats};

    fn run(benchmark: Benchmark) -> (TraceStats, Vec<(EventKind, u64)>) {
        let program = benchmark.build();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        let mut stats = TraceStats::new();
        machine
            .run(&mut mem, |r| stats.observe(&r.record))
            .unwrap_or_else(|e| panic!("{} failed: {e}", benchmark.name()));
        let counts = EventKind::ALL
            .iter()
            .map(|&k| (k, stats.count(k)))
            .collect();
        (stats, counts)
    }

    #[test]
    fn every_benchmark_builds_and_terminates() {
        for benchmark in Benchmark::ALL {
            let (stats, _) = run(benchmark);
            assert!(
                stats.instructions() > 50_000,
                "{} too small: {} instructions",
                benchmark.name(),
                stats.instructions()
            );
            assert!(
                stats.instructions() < 3_000_000,
                "{} too large: {} instructions",
                benchmark.name(),
                stats.instructions()
            );
        }
    }

    #[test]
    fn memory_fraction_averages_near_the_papers_51_percent() {
        let mut total = 0.0;
        for benchmark in Benchmark::ALL {
            let (stats, _) = run(benchmark);
            let frac = stats.memory_ref_fraction();
            assert!(
                (0.15..0.80).contains(&frac),
                "{}: memory fraction {frac:.2} out of plausible band",
                benchmark.name()
            );
            total += frac;
        }
        let avg = total / Benchmark::ALL.len() as f64;
        // The paper reports 51% for x86, whose CISC encodings fold memory
        // operands into ALU instructions; on a load/store RISC the same
        // programs sit somewhat lower (EXPERIMENTS.md discusses this).
        assert!(
            (0.35..0.62).contains(&avg),
            "average memory fraction {avg:.3} should sit near the paper's 0.51"
        );
    }

    #[test]
    fn multithreaded_benchmarks_use_locks_and_threads() {
        for benchmark in Benchmark::MULTI_THREADED {
            let program = benchmark.build();
            assert!(program.entries().len() >= 2, "{}", benchmark.name());
            let (stats, _) = run(benchmark);
            assert!(
                stats.count(EventKind::Lock) > 0,
                "{} must lock",
                benchmark.name()
            );
            assert_eq!(
                stats.count(EventKind::Lock),
                stats.count(EventKind::Unlock),
                "{}: lock/unlock balance",
                benchmark.name()
            );
        }
    }

    #[test]
    fn single_threaded_benchmarks_have_one_entry() {
        for benchmark in Benchmark::SINGLE_THREADED {
            assert_eq!(benchmark.build().entries().len(), 1, "{}", benchmark.name());
        }
    }

    #[test]
    fn taint_source_benchmarks_recv_input() {
        for benchmark in [Benchmark::Gzip, Benchmark::Tidy, Benchmark::W3m] {
            let (stats, _) = run(benchmark);
            assert!(
                stats.count(EventKind::Recv) > 0,
                "{} must recv",
                benchmark.name()
            );
        }
    }

    #[test]
    fn w3m_exercises_indirect_jumps() {
        let (stats, _) = run(Benchmark::W3m);
        assert!(stats.count(EventKind::IndirectJump) > 100);
    }

    #[test]
    fn gs_and_tidy_churn_the_allocator() {
        for benchmark in [Benchmark::Gs, Benchmark::Tidy] {
            let (stats, _) = run(benchmark);
            assert!(stats.count(EventKind::Alloc) > 20, "{}", benchmark.name());
            assert!(stats.count(EventKind::Free) > 20, "{}", benchmark.name());
        }
    }

    #[test]
    fn every_benchmark_issues_syscalls() {
        // The syscall-stall containment policy needs syscalls to exist.
        for benchmark in Benchmark::ALL {
            let (stats, _) = run(benchmark);
            assert!(stats.count(EventKind::Syscall) > 0, "{}", benchmark.name());
        }
    }

    #[test]
    fn determinism_same_program_twice() {
        let a = Benchmark::Gzip.build();
        let b = Benchmark::Gzip.build();
        assert_eq!(a, b);
    }

    #[test]
    fn scale_multiplies_work() {
        let p1 = Benchmark::Bc.build_scaled(1);
        let p2 = Benchmark::Bc.build_scaled(2);
        let count = |p: &lba_isa::Program| {
            let mut machine = Machine::new(p, MachineConfig::default());
            let mut mem = MemSystem::new(MemSystemConfig::single_core());
            let mut n = 0u64;
            machine.run(&mut mem, |_| n += 1).unwrap();
            n
        };
        let (n1, n2) = (count(&p1), count(&p2));
        assert!(
            n2 > n1 * 3 / 2,
            "scale 2 ({n2}) should do much more work than scale 1 ({n1})"
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_scale_rejected() {
        let _ = Benchmark::Bc.build_scaled(0);
    }

    #[test]
    fn mcf_has_poor_locality_relative_to_bc() {
        let miss_ratio = |benchmark: Benchmark| {
            let program = benchmark.build();
            let mut machine = Machine::new(&program, MachineConfig::default());
            let mut mem = MemSystem::new(MemSystemConfig::single_core());
            machine.run(&mut mem, |_| {}).unwrap();
            mem.core_stats(0).l1d.miss_ratio()
        };
        let (mcf, bc) = (miss_ratio(Benchmark::Mcf), miss_ratio(Benchmark::Bc));
        assert!(
            mcf > 2.0 * bc,
            "mcf miss ratio {mcf:.3} should dwarf bc's {bc:.3}"
        );
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Benchmark::W3m.to_string(), "w3m");
    }
}
