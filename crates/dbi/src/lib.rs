//! The Valgrind-style dynamic-binary-instrumentation baseline.
//!
//! The paper's comparison point runs the *same* lifeguard analyses via
//! software-only DBI on the application's own core. That design has two
//! overhead sources the paper calls out explicitly:
//!
//! 1. the monitor and the application **compete for processor resources**
//!    (cycles, registers, L1 cache) because they share a core, and
//! 2. the software **recreates hardware state** (instruction pointers,
//!    effective addresses, …) that LBA's capture hardware provides for
//!    free.
//!
//! [`DbiEngine`] models this by charging, per retired instruction:
//! amortised binary-translation/dispatch cost, per-event register
//! save/restore, basic-block entry overhead, and the lifeguard's own work
//! inflated by a register-pressure factor — with all shadow-memory traffic
//! going through the **application core's** caches
//! ([`HandlerCtx::with_work_factor`](lba_lifeguard::HandlerCtx)), so cache
//! pollution emerges from the simulation.
//!
//! The lifeguard implementations are shared verbatim with the LBA path;
//! only the execution model differs, exactly as in the paper.
//!
//! # Examples
//!
//! ```
//! use lba_cache::{MemSystem, MemSystemConfig};
//! use lba_dbi::DbiEngine;
//! use lba_lifeguards::AddrCheck;
//! use lba_record::EventRecord;
//!
//! let mut mem = MemSystem::new(MemSystemConfig::single_core());
//! let mut findings = Vec::new();
//! let engine = DbiEngine::default();
//! let mut lifeguard = AddrCheck::new();
//!
//! let rec = EventRecord::load(0x1000, 0, Some(1), Some(2), 0x4000_0000, 8);
//! let overhead = engine.instrument(&mut lifeguard, &rec, &mut mem, 0, &mut findings);
//! assert!(overhead > 10, "DBI charges translation + dispatch + analysis");
//! ```

#![forbid(unsafe_code)]

use lba_cache::MemSystem;
use lba_lifeguard::{Finding, HandlerCtx, Lifeguard};
use lba_record::{EventKind, EventRecord};

/// Cycle model of the DBI baseline.
///
/// Defaults are calibrated so the three lifeguards land in the paper's
/// reported Valgrind band (10–85× slowdowns) with per-benchmark variation
/// coming from the cache model; see DESIGN.md §2 and §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbiConfig {
    /// Amortised binary-translation and dispatch cycles per retired
    /// instruction (code-cache lookups, IR bookkeeping).
    pub translation_cycles: u64,
    /// Extra cycles at each basic-block entry (chaining, environment
    /// checks); charged when a control-flow instruction retires.
    pub block_entry_cycles: u64,
    /// Register save/restore plus argument marshalling per instrumented
    /// event.
    pub event_overhead_cycles: u64,
    /// Multiplier (percent) on the lifeguard's instruction work: software
    /// instrumentation suffers register pressure and lacks the hardware
    /// dispatch assist (100 = parity with the LBA lifeguard core).
    pub work_factor_pct: u64,
    /// Cycles to recreate hardware state the architecture does not expose
    /// (effective addresses, branch targets) — the paper's second DBI
    /// overhead source (§1). Charged per event that carries an address.
    pub state_reconstruction_cycles: u64,
}

impl Default for DbiConfig {
    fn default() -> Self {
        DbiConfig {
            translation_cycles: 5,
            block_entry_cycles: 8,
            event_overhead_cycles: 14,
            work_factor_pct: 250,
            state_reconstruction_cycles: 6,
        }
    }
}

/// The DBI execution engine: instruments every retired instruction inline
/// on the application core.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbiEngine {
    config: DbiConfig,
}

impl DbiEngine {
    /// Creates an engine with the given cycle model.
    #[must_use]
    pub fn new(config: DbiConfig) -> Self {
        DbiEngine { config }
    }

    /// The engine's cycle model.
    #[must_use]
    pub fn config(&self) -> &DbiConfig {
        &self.config
    }

    /// Charges the instrumentation overhead for one retired instruction and
    /// runs the lifeguard handler inline. Returns the extra cycles beyond
    /// the application's own execution.
    pub fn instrument(
        &self,
        lifeguard: &mut dyn Lifeguard,
        record: &EventRecord,
        mem: &mut MemSystem,
        core: usize,
        findings: &mut Vec<Finding>,
    ) -> u64 {
        let mut cycles = self.config.translation_cycles;
        if is_block_end(record.kind) {
            cycles += self.config.block_entry_cycles;
        }
        if lifeguard.subscriptions().contains(record.kind) {
            cycles += self.config.event_overhead_cycles;
            if record.kind.has_addr() {
                cycles += self.config.state_reconstruction_cycles;
            }
            let mut ctx =
                HandlerCtx::with_work_factor(mem, core, findings, self.config.work_factor_pct);
            lifeguard.on_event(record, &mut ctx);
            cycles += ctx.cycles();
        }
        cycles
    }

    /// Runs the lifeguard's end-of-program hook inline.
    pub fn finish(
        &self,
        lifeguard: &mut dyn Lifeguard,
        mem: &mut MemSystem,
        core: usize,
        findings: &mut Vec<Finding>,
    ) -> u64 {
        let mut ctx =
            HandlerCtx::with_work_factor(mem, core, findings, self.config.work_factor_pct);
        lifeguard.on_finish(&mut ctx);
        ctx.cycles()
    }
}

fn is_block_end(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Branch
            | EventKind::Jump
            | EventKind::IndirectJump
            | EventKind::Call
            | EventKind::Return
            | EventKind::ThreadEnd
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_cache::MemSystemConfig;
    use lba_lifeguards::{AddrCheck, TaintCheck};
    use lba_mem::layout;

    fn mem() -> MemSystem {
        MemSystem::new(MemSystemConfig::single_core())
    }

    #[test]
    fn unsubscribed_events_still_pay_translation() {
        let mut mem = mem();
        let mut findings = Vec::new();
        let engine = DbiEngine::default();
        let mut lg = AddrCheck::new();
        // AddrCheck does not subscribe to ALU events; Valgrind still
        // translates them.
        let rec = EventRecord::alu(0x1000, 0, Some(1), Some(2), Some(3));
        let cycles = engine.instrument(&mut lg, &rec, &mut mem, 0, &mut findings);
        assert_eq!(cycles, DbiConfig::default().translation_cycles);
    }

    #[test]
    fn control_flow_pays_block_entry() {
        let mut mem = mem();
        let mut findings = Vec::new();
        let engine = DbiEngine::default();
        let mut lg = AddrCheck::new();
        let rec = EventRecord {
            pc: 0x1000,
            kind: EventKind::Branch,
            tid: 0,
            in1: Some(1),
            in2: Some(2),
            out: None,
            addr: 0x1000,
            size: 1,
        };
        let cfg = DbiConfig::default();
        let cycles = engine.instrument(&mut lg, &rec, &mut mem, 0, &mut findings);
        assert_eq!(cycles, cfg.translation_cycles + cfg.block_entry_cycles);
    }

    #[test]
    fn dbi_event_costs_more_than_lba_dispatch() {
        // The same record through DBI and through the LBA dispatch engine:
        // DBI must be strictly more expensive.
        let rec = EventRecord::load(0x1000, 0, Some(1), Some(2), layout::HEAP_BASE, 8);

        let mut mem_dbi = mem();
        let mut f1 = Vec::new();
        let mut lg1 = AddrCheck::new();
        let dbi = DbiEngine::default();
        // Warm shadow caches.
        dbi.instrument(&mut lg1, &rec, &mut mem_dbi, 0, &mut f1);
        let dbi_cost = dbi.instrument(&mut lg1, &rec, &mut mem_dbi, 0, &mut f1);

        let mut mem_lba = MemSystem::new(MemSystemConfig::dual_core());
        let mut f2 = Vec::new();
        let mut lg2 = AddrCheck::new();
        let engine = lba_lifeguard::DispatchEngine::default();
        engine.deliver(&mut lg2, &rec, &mut mem_lba, 1, &mut f2);
        let lba_cost = engine.deliver(&mut lg2, &rec, &mut mem_lba, 1, &mut f2);

        assert!(
            dbi_cost > 2 * lba_cost,
            "DBI ({dbi_cost}) should far exceed LBA dispatch ({lba_cost})"
        );
    }

    #[test]
    fn shadow_traffic_pollutes_application_cache() {
        let mut m = mem();
        let mut findings = Vec::new();
        let engine = DbiEngine::default();
        let mut lg = TaintCheck::new();
        // Warm an application line.
        m.data_access(0, 0x4000_0000, 8, false);
        assert_eq!(m.data_access(0, 0x4000_0000, 8, false), 0);
        // Stream enough distinct taint-shadow stores through the same core
        // to evict it (shadow region is disjoint from app data).
        for i in 0..4096u64 {
            let rec = EventRecord::store(0x1000, 0, Some(1), Some(2), 0x5000_0000 + i * 64, 8);
            engine.instrument(&mut lg, &rec, &mut m, 0, &mut findings);
        }
        assert!(
            m.data_access(0, 0x4000_0000, 8, false) > 0,
            "application line must have been evicted by shadow traffic"
        );
    }

    #[test]
    fn findings_identical_to_lba_path() {
        // The same buggy event stream must produce the same findings under
        // both execution models (analysis code is shared).
        let stream = [
            EventRecord {
                pc: 0x1000,
                kind: EventKind::Alloc,
                tid: 0,
                in1: Some(1),
                in2: None,
                out: Some(2),
                addr: layout::HEAP_BASE,
                size: 32,
            },
            EventRecord {
                pc: 0x1008,
                kind: EventKind::Free,
                tid: 0,
                in1: Some(2),
                in2: None,
                out: None,
                addr: layout::HEAP_BASE,
                size: 0,
            },
            EventRecord {
                pc: 0x1010,
                kind: EventKind::Free,
                tid: 0,
                in1: Some(2),
                in2: None,
                out: None,
                addr: layout::HEAP_BASE,
                size: 0,
            },
            EventRecord::load(0x1018, 0, Some(2), Some(3), layout::HEAP_BASE, 8),
        ];

        let run_dbi = || {
            let mut m = mem();
            let mut findings = Vec::new();
            let mut lg = AddrCheck::new();
            let engine = DbiEngine::default();
            for rec in &stream {
                engine.instrument(&mut lg, rec, &mut m, 0, &mut findings);
            }
            engine.finish(&mut lg, &mut m, 0, &mut findings);
            findings
        };
        let run_lba = || {
            let mut m = MemSystem::new(MemSystemConfig::dual_core());
            let mut findings = Vec::new();
            let mut lg = AddrCheck::new();
            let engine = lba_lifeguard::DispatchEngine::default();
            for rec in &stream {
                engine.deliver(&mut lg, rec, &mut m, 1, &mut findings);
            }
            engine.finish(&mut lg, &mut m, 1, &mut findings);
            findings
        };
        assert_eq!(run_dbi(), run_lba());
    }
}
