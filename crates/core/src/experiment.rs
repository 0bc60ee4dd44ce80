//! The experiment layer: one function per table/figure in the paper.
//!
//! Each function returns plain data rows; the `figures` binary in
//! `lba-bench` renders them as text tables, and the Criterion benches call
//! the same functions. See DESIGN.md §4 for the experiment ↔ paper index.

use lba_lifeguard::AddrRangeFilter;
use lba_lifeguards::{AddrCheck, TaintCheck};
use lba_mem::layout;
use lba_record::RAW_RECORD_BYTES;
use lba_workloads::Benchmark;

use crate::config::SystemConfig;
use crate::cosim::run_lba;
use crate::kind::LifeguardKind;
use crate::parallel::run_lba_parallel;
use crate::report::RunReport;
use crate::run::{run_dbi, run_unmonitored};
use crate::RunError;

/// One bar pair of Figure 2: a benchmark's Valgrind-style and LBA
/// slowdowns, normalised to unmonitored execution.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// DBI (Valgrind-model) slowdown ×.
    pub valgrind: f64,
    /// LBA slowdown ×.
    pub lba: f64,
    /// The full LBA report (log stats, stalls) for downstream tables.
    pub lba_report: RunReport,
}

impl Fig2Row {
    /// How much faster LBA is than the DBI baseline on this benchmark.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.valgrind / self.lba
    }
}

/// Reproduces one panel of **Figure 2**: runs every benchmark of `kind`
/// unmonitored, under DBI and under LBA, and reports normalised execution
/// times.
///
/// # Errors
///
/// Propagates any [`RunError`] from the runs.
pub fn figure2(
    kind: LifeguardKind,
    config: &SystemConfig,
    scale: u32,
) -> Result<Vec<Fig2Row>, RunError> {
    let mut rows = Vec::new();
    for &benchmark in kind.benchmarks() {
        let program = benchmark.build_scaled(scale);
        let base = run_unmonitored(&program, config)?;
        let dbi = run_dbi(&program, (kind.spec().make_dbi)().as_mut(), config)?;
        let lba = run_lba(&program, (kind.spec().make)().as_mut(), config)?;
        rows.push(Fig2Row {
            benchmark,
            valgrind: dbi.slowdown_vs(&base),
            lba: lba.slowdown_vs(&base),
            lba_report: lba,
        });
    }
    Ok(rows)
}

/// One row of the workload-characterisation table (§3 prose: "on average,
/// a benchmark executes 209 million x86 instructions, of which 51% are
/// memory references").
#[derive(Debug, Clone, Copy)]
pub struct WorkloadRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Retired instructions.
    pub instructions: u64,
    /// Fraction of instructions that are memory references.
    pub memory_fraction: f64,
    /// Unmonitored cycles per instruction.
    pub cpi: f64,
}

/// Reproduces the workload-characterisation statistics.
///
/// # Errors
///
/// Propagates any [`RunError`] from the runs.
pub fn workload_table(config: &SystemConfig, scale: u32) -> Result<Vec<WorkloadRow>, RunError> {
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        let program = benchmark.build_scaled(scale);
        let report = run_unmonitored(&program, config)?;
        rows.push(WorkloadRow {
            benchmark,
            instructions: report.trace.instructions(),
            memory_fraction: report.trace.memory_ref_fraction(),
            cpi: report.total_cycles as f64 / report.trace.instructions().max(1) as f64,
        });
    }
    Ok(rows)
}

/// One row of the compression table (§2: "less than one byte per
/// instruction").
#[derive(Debug, Clone, Copy)]
pub struct CompressionRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Records logged.
    pub records: u64,
    /// Compressed bytes per instruction.
    pub bytes_per_instruction: f64,
    /// Compression ratio versus the 25-byte raw record.
    pub ratio_vs_raw: f64,
}

/// Reproduces the §2 compression claim across all nine benchmarks.
///
/// # Errors
///
/// Propagates any [`RunError`] from the runs.
pub fn compression_table(
    config: &SystemConfig,
    scale: u32,
) -> Result<Vec<CompressionRow>, RunError> {
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        let program = benchmark.build_scaled(scale);
        // AddrCheck subscribes to few events, so the lifeguard never
        // back-pressures the compressor measurement.
        let report = run_lba(&program, &mut AddrCheck::new(), config)?;
        let raw = report.log.records * RAW_RECORD_BYTES as u64;
        rows.push(CompressionRow {
            benchmark,
            records: report.log.records,
            bytes_per_instruction: report.log.bytes_per_instruction,
            ratio_vs_raw: raw as f64 / (report.log.compressed_bits as f64 / 8.0),
        });
    }
    Ok(rows)
}

/// The §3 summary: average slowdowns per lifeguard and the LBA-vs-Valgrind
/// speedup range (paper: averages 3.9× / 4.8× / 9.7×; speedups 4–19×).
#[derive(Debug, Clone, Copy)]
pub struct SummaryRow {
    /// The lifeguard.
    pub kind: LifeguardKind,
    /// Mean LBA slowdown over its benchmarks.
    pub lba_avg: f64,
    /// Mean DBI slowdown over its benchmarks.
    pub valgrind_avg: f64,
    /// Smallest per-benchmark LBA-vs-DBI speedup.
    pub speedup_min: f64,
    /// Largest per-benchmark LBA-vs-DBI speedup.
    pub speedup_max: f64,
    /// The paper's reported average LBA slowdown for reference.
    pub paper_lba_avg: f64,
}

/// Summarises Figure 2 panels into the §3 headline numbers.
#[must_use]
pub fn summarize(kind: LifeguardKind, rows: &[Fig2Row]) -> SummaryRow {
    assert!(!rows.is_empty(), "summary of an empty panel");
    let n = rows.len() as f64;
    SummaryRow {
        kind,
        lba_avg: rows.iter().map(|r| r.lba).sum::<f64>() / n,
        valgrind_avg: rows.iter().map(|r| r.valgrind).sum::<f64>() / n,
        speedup_min: rows
            .iter()
            .map(Fig2Row::speedup)
            .fold(f64::INFINITY, f64::min),
        speedup_max: rows.iter().map(Fig2Row::speedup).fold(0.0, f64::max),
        paper_lba_avg: kind.paper_avg_slowdown(),
    }
}

/// One row of ablation A: decoupled versus lock-step dispatch.
#[derive(Debug, Clone, Copy)]
pub struct DecouplingRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Slowdown with the paper's decoupled cores.
    pub decoupled: f64,
    /// Slowdown when the application waits for the lifeguard after every
    /// record.
    pub lockstep: f64,
}

/// Ablation A: quantifies §2's claim that the "lack of tight
/// synchronization significantly improves performance".
///
/// # Errors
///
/// Propagates any [`RunError`] from the runs.
pub fn ablation_decoupling(
    config: &SystemConfig,
    scale: u32,
) -> Result<Vec<DecouplingRow>, RunError> {
    let mut rows = Vec::new();
    for benchmark in [Benchmark::Gzip, Benchmark::Mcf] {
        let program = benchmark.build_scaled(scale);
        let base = run_unmonitored(&program, config)?;
        let decoupled = run_lba(&program, &mut AddrCheck::new(), config)?;
        let mut lockstep_cfg = config.clone();
        lockstep_cfg.log.decoupled = false;
        let lockstep = run_lba(&program, &mut AddrCheck::new(), &lockstep_cfg)?;
        rows.push(DecouplingRow {
            benchmark,
            decoupled: decoupled.slowdown_vs(&base),
            lockstep: lockstep.slowdown_vs(&base),
        });
    }
    Ok(rows)
}

/// One row of ablation B: the log-buffer size sweep.
#[derive(Debug, Clone, Copy)]
pub struct BufferRow {
    /// Buffer capacity in bytes.
    pub buffer_bytes: u64,
    /// TaintCheck-on-gzip slowdown at this size.
    pub slowdown: f64,
    /// Application cycles lost to back-pressure.
    pub buffer_stall_cycles: u64,
}

/// Ablation B: how buffer capacity trades application stalls for memory.
///
/// # Errors
///
/// Propagates any [`RunError`] from the runs.
pub fn ablation_buffer(config: &SystemConfig, scale: u32) -> Result<Vec<BufferRow>, RunError> {
    let program = Benchmark::Gzip.build_scaled(scale);
    let base = run_unmonitored(&program, config)?;
    let mut rows = Vec::new();
    for kib in [1u64, 4, 16, 64, 256, 1024] {
        let mut cfg = config.clone();
        cfg.log.buffer_bytes = kib << 10;
        let report = run_lba(&program, &mut TaintCheck::new(), &cfg)?;
        rows.push(BufferRow {
            buffer_bytes: kib << 10,
            slowdown: report.slowdown_vs(&base),
            buffer_stall_cycles: report.stalls.buffer_full_cycles,
        });
    }
    Ok(rows)
}

/// One row of ablation C: compression on/off.
#[derive(Debug, Clone, Copy)]
pub struct CompressionAblationRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Slowdown with the VPC compressor.
    pub compressed: f64,
    /// Slowdown shipping raw 25-byte records.
    pub raw: f64,
    /// Compressed bytes/instruction (raw is always 25).
    pub compressed_bytes_per_inst: f64,
}

/// Ablation C: what the compression engine buys (§2's motivation for it).
///
/// # Errors
///
/// Propagates any [`RunError`] from the runs.
pub fn ablation_compression(
    config: &SystemConfig,
    scale: u32,
) -> Result<Vec<CompressionAblationRow>, RunError> {
    let mut rows = Vec::new();
    for benchmark in [Benchmark::Gzip, Benchmark::Mcf] {
        let program = benchmark.build_scaled(scale);
        let base = run_unmonitored(&program, config)?;
        let compressed = run_lba(&program, &mut TaintCheck::new(), config)?;
        let mut raw_cfg = config.clone();
        raw_cfg.log.compression = false;
        let raw = run_lba(&program, &mut TaintCheck::new(), &raw_cfg)?;
        rows.push(CompressionAblationRow {
            benchmark,
            compressed: compressed.slowdown_vs(&base),
            raw: raw.slowdown_vs(&base),
            compressed_bytes_per_inst: compressed.log.bytes_per_instruction,
        });
    }
    Ok(rows)
}

/// One row of the filtering extension study.
#[derive(Debug, Clone, Copy)]
pub struct FilterRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// AddrCheck slowdown with every event logged.
    pub unfiltered: f64,
    /// AddrCheck slowdown with heap-only address filtering.
    pub filtered: f64,
    /// Fraction of records the filter removed.
    pub dropped_fraction: f64,
}

/// Extension: §3's proposed address-range filtering, applied to AddrCheck
/// (which only checks heap addresses, so a heap filter is sound).
///
/// # Errors
///
/// Propagates any [`RunError`] from the runs.
pub fn ext_filtering(config: &SystemConfig, scale: u32) -> Result<Vec<FilterRow>, RunError> {
    let mut rows = Vec::new();
    for benchmark in [Benchmark::Bc, Benchmark::Gzip, Benchmark::Tidy] {
        let program = benchmark.build_scaled(scale);
        let base = run_unmonitored(&program, config)?;
        let plain = run_lba(&program, &mut AddrCheck::new(), config)?;
        let mut cfg = config.clone();
        cfg.log.filter = Some(AddrRangeFilter::new(vec![(
            layout::HEAP_BASE,
            layout::HEAP_END,
        )]));
        let filtered = run_lba(&program, &mut AddrCheck::new(), &cfg)?;
        let total = (filtered.log.records + filtered.log.filtered).max(1);
        rows.push(FilterRow {
            benchmark,
            unfiltered: plain.slowdown_vs(&base),
            filtered: filtered.slowdown_vs(&base),
            dropped_fraction: filtered.log.filtered as f64 / total as f64,
        });
    }
    Ok(rows)
}

/// One row of the parallel-lifeguard extension study.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRow {
    /// Lifeguard cores used.
    pub shards: usize,
    /// LockSet-on-zchaff slowdown with that many cores.
    pub slowdown: f64,
}

/// Extension: §1/§3's parallel lifeguards — LockSet sharded by address
/// over 1–4 lifeguard cores on zchaff.
///
/// # Errors
///
/// Propagates any [`RunError`] from the runs.
pub fn ext_parallel(config: &SystemConfig, scale: u32) -> Result<Vec<ParallelRow>, RunError> {
    let program = Benchmark::Zchaff.build_scaled(scale);
    let base = run_unmonitored(&program, config)?;
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let report =
            run_lba_parallel(&program, LifeguardKind::LockSet.spec().make, shards, config)?;
        rows.push(ParallelRow {
            shards,
            slowdown: report.total_cycles as f64 / base.total_cycles as f64,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::default()
    }

    #[test]
    fn figure2_lockset_panel_has_expected_shape() {
        let rows = figure2(LifeguardKind::LockSet, &cfg(), 1).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                row.valgrind > row.lba,
                "{}: DBI must be slower",
                row.benchmark
            );
            assert!(row.lba > 1.0);
            assert!(row.speedup() > 1.0);
        }
    }

    #[test]
    fn workload_table_covers_all_benchmarks() {
        let rows = workload_table(&cfg(), 1).unwrap();
        assert_eq!(rows.len(), 9);
        let avg: f64 = rows.iter().map(|r| r.memory_fraction).sum::<f64>() / rows.len() as f64;
        assert!(avg > 0.3 && avg < 0.62, "avg memory fraction {avg:.2}");
    }

    #[test]
    fn compression_below_one_byte_everywhere() {
        let rows = compression_table(&cfg(), 1).unwrap();
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert!(
                row.bytes_per_instruction < 1.0,
                "{}: {:.3} B/inst",
                row.benchmark,
                row.bytes_per_instruction
            );
            assert!(
                row.ratio_vs_raw > 25.0 * 0.8,
                "{}: weak ratio",
                row.benchmark
            );
        }
    }

    #[test]
    fn summarize_computes_means_and_ranges() {
        let rows = figure2(LifeguardKind::LockSet, &cfg(), 1).unwrap();
        let s = summarize(LifeguardKind::LockSet, &rows);
        assert!(s.valgrind_avg > s.lba_avg);
        assert!(s.speedup_max >= s.speedup_min);
        assert!((s.paper_lba_avg - 9.7).abs() < 1e-9);
    }

    #[test]
    fn decoupling_ablation_shows_benefit() {
        let rows = ablation_decoupling(&cfg(), 1).unwrap();
        for row in &rows {
            assert!(
                row.lockstep >= row.decoupled,
                "{}: lock-step must not be faster",
                row.benchmark
            );
        }
    }

    #[test]
    fn buffer_ablation_monotone_in_stalls() {
        let rows = ablation_buffer(&cfg(), 1).unwrap();
        // Stalls shrink (weakly) as the buffer grows.
        for pair in rows.windows(2) {
            assert!(pair[0].buffer_stall_cycles >= pair[1].buffer_stall_cycles);
        }
    }
}
