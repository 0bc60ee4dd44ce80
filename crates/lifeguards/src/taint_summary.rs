//! Symbolic taint transfer functions: the worker-side half of
//! epoch-parallel TaintCheck.
//!
//! A [`TaintSummarizer`] consumes one epoch's records through the
//! ordinary dispatch path and computes, instead of concrete taint, a
//! *transfer function*: for every register it writes and every shadow
//! byte it touches, an out-state expressed over the unknown epoch-entry
//! state, plus the epoch's *conditional findings* — exploit reports whose
//! guard references unknown inputs. The merge thread resolves everything
//! against the concrete entry state (`TaintCheck::absorb` in
//! `taintcheck.rs`), reproducing the sequential run's findings and state
//! byte for byte.
//!
//! # The epoch DAG
//!
//! Every symbolic value is a `u32` id into a per-epoch, hash-consed DAG
//! of `Node`s: the constants *clean* and *tainted*, the epoch-entry
//! taint of one register (`Reg`) or of any byte of one shadow range
//! (`Mem`), and `Or(a, b)` over two earlier ids. A node's operands always
//! precede it, so the merge thread resolves the whole DAG in one pass in
//! id order, each `Or` costing one lookup of two earlier results.
//!
//! The summarizer keeps registers as a dense per-thread `[u32; 16]`
//! (0: not written this epoch, i.e. still the entry value) and shadow
//! bytes as a [`ShadowMemory<u32>`] of ids (0: untouched). OR is O(1): it
//! short-circuits *clean*, *tainted* and `a == b`, absorbs an operand
//! already directly under the other, and otherwise makes one memo lookup.
//! The shadow memory lives across epochs; the summarizer tracks the span
//! it dirtied in each page, in first-touch order, and
//! [`finish_epoch`](EpochSummarizer::finish_epoch) walks only those spans
//! to emit the epoch's writes as `(addr, len, id)` runs and clear them.
//!
//! # Why a disjunction lattice suffices
//!
//! Taint propagation is monotone: every rule ORs source taints into the
//! destination (`taint(out) = taint(in1) | taint(in2)`, loads OR the
//! loaded bytes, stores copy the source register). There is no negation
//! — an operation either *clears* (constant out-state) or *ORs
//! unknowns*. Every DAG node therefore denotes a disjunction
//! `definite ∨ dep₁ ∨ dep₂ ∨ …` over epoch-entry registers and
//! epoch-entry shadow ranges, saturating to the constant *tainted* the
//! moment any definite source joins. Composition (substituting one
//! epoch's out-state into the next epoch's deps) and concretization
//! (evaluating deps against concrete entry state) both distribute over
//! the disjunction, which is the whole soundness argument:
//! compose-then-concretize ≡ concretize-then-run ≡ sequential. Sharing
//! subterms in a DAG changes how the disjunction is stored, not what it
//! denotes.
//!
//! The one construct that is *not* a disjunction — TaintCheck's syscall
//! check reports the **first** tainted register of `r1..r3` — is kept
//! conditional instead: the pending finding carries all three guards and
//! the merge thread picks the first that fires, mirroring the
//! sequential `(1..=3).find(..)` exactly.

use std::collections::{HashMap, HashSet};

use lba_lifeguard::{
    EpochSummarizer, EpochSummary, FindingKind, HandlerCtx, IdempotencyClass, Lifeguard,
    ShadowMemory,
};
use lba_mem::PageDirectory;
use lba_record::{EventKind, EventMask, EventRecord};

use crate::taintcheck::TaintCheck;

/// Reserved id: a register or shadow cell not written this epoch.
const UNWRITTEN: u32 = 0;
/// The id of the constant *clean* value.
const CLEAN: u32 = 1;
/// The id of the constant *tainted* value.
const TAINTED: u32 = 2;

/// Dirty spans are tracked per shadow page.
const PAGE_CELLS: u64 = ShadowMemory::<u32>::PAGE_CELLS;

/// One node of an epoch's taint DAG; operands of `Or` are earlier ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    /// Definitely clean (also fills the reserved id 0).
    Clean,
    /// Definitely tainted.
    Tainted,
    /// Epoch-entry taint of register `reg` on thread `tid`.
    Reg { tid: u8, reg: u8 },
    /// Epoch-entry taint of any byte in `[addr, addr + len)`.
    Mem { addr: u64, len: u64 },
    /// The disjunction of two earlier nodes.
    Or(u32, u32),
}

/// The DAG every epoch starts from: reserved id 0, then the constants.
const ROOTS: [Node; 3] = [Node::Clean, Node::Clean, Node::Tainted];

/// A finding whose guard references unknown epoch-entry state; the merge
/// thread evaluates the guard id(s) against the concrete entry state and
/// reports through the master's dedup, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PendingFinding {
    /// An indirect control transfer through a possibly tainted register.
    Jump {
        /// Faulting pc.
        pc: u64,
        /// Thread id.
        tid: u8,
        /// Jump target (diagnostic).
        addr: u64,
        /// Taint id of the jump-target register at this point.
        guard: u32,
    },
    /// A syscall with possibly tainted argument registers. The report
    /// names the *first* tainted register of `r1..r3`, so all three
    /// guards travel and the merge thread picks.
    Syscall {
        /// Faulting pc.
        pc: u64,
        /// Thread id.
        tid: u8,
        /// The record's addr field (diagnostic).
        addr: u64,
        /// Syscall number (diagnostic).
        size: u32,
        /// Taint ids of argument registers r1, r2, r3 at this point.
        guards: [u32; 3],
    },
}

/// The symbolic transfer function of one epoch of TaintCheck's stream.
#[derive(Debug)]
pub struct TaintSummary {
    /// The epoch's DAG, indexed by id.
    pub(crate) nodes: Vec<Node>,
    /// Out-state id of every register written this epoch, in
    /// `(tid, reg)` order. Registers absent here pass through unchanged.
    pub(crate) reg_out: Vec<(u8, u8, u32)>,
    /// The epoch's final shadow writes as `(addr, len, id)` runs of equal
    /// id, per dirtied page in first-touch order, ascending within a page.
    pub(crate) writes: Vec<(u64, u32, u32)>,
    /// Distinct ids stored to shadow memory this epoch (the stitch's
    /// modeled per-value resolve charge).
    pub(crate) stored_values: u32,
    /// Conditional findings, in program order.
    pub(crate) findings: Vec<PendingFinding>,
    /// Input bytes marked tainted this epoch (`recv`).
    pub(crate) tainted_bytes: u64,
    /// Records folded in (subscribed kinds).
    pub(crate) records: u64,
}

impl EpochSummary for TaintSummary {
    fn records(&self) -> u64 {
        self.records
    }
}

/// The span `[lo, hi)` of one shadow page written this epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    page: u64,
    lo: u32,
    hi: u32,
}

/// Worker-side TaintCheck: same subscriptions, same handler costs, but
/// the state it builds is the symbolic [`TaintSummary`] of the records
/// seen since the last [`finish_epoch`](EpochSummarizer::finish_epoch).
#[derive(Debug)]
pub struct TaintSummarizer {
    nodes: Vec<Node>,
    /// Hash-consing table over `nodes` (`Reg`, `Mem` and `Or` nodes).
    memo: HashMap<Node, u32>,
    /// Whether each id was stored to shadow memory this epoch.
    stored: Vec<bool>,
    stored_values: u32,
    /// Per-thread register ids; `UNWRITTEN` reads as the entry value.
    regs: Vec<[u32; 16]>,
    /// Per-thread ids of the `Reg` entry nodes made so far this epoch.
    entry: Vec<[u32; 16]>,
    /// Shadow ids, kept across epochs; cells outside `spans` are 0.
    mem: ShadowMemory<u32>,
    /// Page number → index into `spans`, kept across epochs.
    span_dir: PageDirectory,
    spans: Vec<Span>,
    /// Indices of the spans dirtied this epoch, in first-touch order.
    dirty: Vec<u32>,
    findings: Vec<PendingFinding>,
    /// Exact-duplicate pending findings suppressed (same key, same
    /// guards, same diagnostics: if the first fires the master dedups
    /// the rest; if it doesn't, an identical guard doesn't either).
    finding_seen: HashSet<PendingFinding>,
    /// `(pc, kind, tid)` keys guaranteed to have fired already this
    /// epoch (a definite guard): later pendings with the key are dead.
    reported: HashSet<(u64, FindingKind, u8)>,
    tainted_bytes: u64,
    records: u64,
}

impl Default for TaintSummarizer {
    fn default() -> Self {
        TaintSummarizer {
            nodes: ROOTS.to_vec(),
            memo: HashMap::new(),
            stored: vec![false; ROOTS.len()],
            stored_values: 0,
            regs: Vec::new(),
            entry: Vec::new(),
            mem: ShadowMemory::new(),
            span_dir: PageDirectory::new(),
            spans: Vec::new(),
            dirty: Vec::new(),
            findings: Vec::new(),
            finding_seen: HashSet::new(),
            reported: HashSet::new(),
            tainted_bytes: 0,
            records: 0,
        }
    }
}

impl TaintSummarizer {
    /// Creates a summarizer holding the identity transfer function.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `node`, made on first use.
    fn node(&mut self, node: Node) -> u32 {
        let next = u32::try_from(self.nodes.len()).expect("fewer than 2^32 nodes per epoch");
        let id = *self.memo.entry(node).or_insert(next);
        if id == next {
            self.nodes.push(node);
            self.stored.push(false);
        }
        id
    }

    /// `a ∨ b`.
    fn or(&mut self, a: u32, b: u32) -> u32 {
        if a == CLEAN || a == b {
            return b;
        }
        if b == CLEAN {
            return a;
        }
        if a == TAINTED || b == TAINTED {
            return TAINTED;
        }
        if let Node::Or(x, y) = self.nodes[a as usize] {
            if b == x || b == y {
                return a;
            }
        }
        if let Node::Or(x, y) = self.nodes[b as usize] {
            if a == x || a == y {
                return b;
            }
        }
        self.node(Node::Or(a, b))
    }

    /// The current id of a register: its in-epoch write if any, else its
    /// epoch-entry node.
    fn reg_val(&mut self, tid: u8, reg: u8) -> u32 {
        let (t, r) = (tid as usize, (reg & 0xf) as usize);
        if let Some(&id) = self.regs.get(t).map(|regs| &regs[r]) {
            if id != UNWRITTEN {
                return id;
            }
        }
        if self.entry.len() <= t {
            self.entry.resize(t + 1, [UNWRITTEN; 16]);
        }
        if self.entry[t][r] == UNWRITTEN {
            let id = self.node(Node::Reg {
                tid,
                reg: reg & 0xf,
            });
            self.entry[t][r] = id;
        }
        self.entry[t][r]
    }

    fn set_reg(&mut self, tid: u8, reg: u8, id: u32) {
        let t = tid as usize;
        if self.regs.len() <= t {
            self.regs.resize(t + 1, [UNWRITTEN; 16]);
        }
        self.regs[t][(reg & 0xf) as usize] = id;
    }

    /// The merged taint of `len` shadow bytes at `addr`: untouched runs
    /// become epoch-entry `Mem` nodes, touched bytes OR their ids in.
    fn range_val(&mut self, addr: u64, len: u64) -> u32 {
        let mut out = CLEAN;
        let mut untouched: Option<(u64, u64)> = None; // (start, len)
        for i in 0..len {
            let byte = addr.wrapping_add(i);
            let id = self.mem.get(byte);
            if id == UNWRITTEN {
                untouched = match untouched {
                    Some((start, run)) => Some((start, run + 1)),
                    None => Some((byte, 1)),
                };
            } else {
                if let Some((addr, len)) = untouched.take() {
                    let dep = self.node(Node::Mem { addr, len });
                    out = self.or(out, dep);
                }
                out = self.or(out, id);
                if out == TAINTED {
                    return out;
                }
            }
        }
        if let Some((addr, len)) = untouched {
            let dep = self.node(Node::Mem { addr, len });
            out = self.or(out, dep);
        }
        out
    }

    /// Writes `id` over `len` shadow bytes at `addr`, widening the dirty
    /// span of every page covered (in the page order `set_range` walks).
    fn store(&mut self, addr: u64, len: u64, id: u32) {
        if !self.stored[id as usize] {
            self.stored[id as usize] = true;
            self.stored_values += 1;
        }
        self.mem.set_range(addr, len, id);
        let mut index = addr;
        let mut remaining = len;
        while remaining > 0 {
            let offset = index & (PAGE_CELLS - 1);
            let chunk = (PAGE_CELLS - offset).min(remaining);
            let page = index / PAGE_CELLS;
            let slot = match self.span_dir.get(page) {
                Some(slot) => slot as usize,
                None => {
                    let slot = self.spans.len();
                    self.spans.push(Span { page, lo: 0, hi: 0 });
                    self.span_dir.insert(
                        page,
                        u32::try_from(slot).expect("fewer than 2^32 shadow pages"),
                    );
                    slot
                }
            };
            let span = &mut self.spans[slot];
            let (lo, hi) = (offset as u32, (offset + chunk) as u32);
            if span.lo == span.hi {
                self.dirty.push(slot as u32);
                (span.lo, span.hi) = (lo, hi);
            } else {
                span.lo = span.lo.min(lo);
                span.hi = span.hi.max(hi);
            }
            index = index.wrapping_add(chunk);
            remaining -= chunk;
        }
    }

    fn pend(&mut self, key: (u64, FindingKind, u8), finding: PendingFinding, definite: bool) {
        if self.reported.contains(&key) || !self.finding_seen.insert(finding) {
            return;
        }
        if definite {
            self.reported.insert(key);
        }
        self.findings.push(finding);
    }
}

impl Lifeguard for TaintSummarizer {
    fn name(&self) -> &'static str {
        "taintcheck-summarizer"
    }

    fn subscriptions(&self) -> EventMask {
        EventMask::of(&[
            EventKind::Alu,
            EventKind::Load,
            EventKind::Store,
            EventKind::Alloc,
            EventKind::Recv,
            EventKind::IndirectJump,
            EventKind::Syscall,
        ])
    }

    fn idempotency(&self) -> IdempotencyClass {
        IdempotencyClass::None
    }

    /// Mirrors `TaintCheck::on_event` rule for rule — same `ctx` cost
    /// charges, symbolic instead of concrete propagation.
    fn on_event(&mut self, rec: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        self.records += 1;
        match rec.kind {
            EventKind::Alu => {
                ctx.alu(3);
                if let Some(out) = rec.out {
                    let a = rec.in1.map_or(CLEAN, |r| self.reg_val(rec.tid, r));
                    let b = rec.in2.map_or(CLEAN, |r| self.reg_val(rec.tid, r));
                    let t = self.or(a, b);
                    self.set_reg(rec.tid, out, t);
                }
            }
            EventKind::Load => {
                ctx.alu(4);
                ctx.shadow_read(TaintCheck::shadow_addr(rec.addr), rec.size);
                if let Some(out) = rec.out {
                    let t = self.range_val(rec.addr, u64::from(rec.size));
                    self.set_reg(rec.tid, out, t);
                }
            }
            EventKind::Store => {
                ctx.alu(4);
                ctx.shadow_write(TaintCheck::shadow_addr(rec.addr), rec.size);
                let t = rec.in1.map_or(CLEAN, |r| self.reg_val(rec.tid, r));
                self.store(rec.addr, u64::from(rec.size), t);
            }
            EventKind::Alloc => {
                ctx.alu(1);
                if let Some(out) = rec.out {
                    self.set_reg(rec.tid, out, CLEAN);
                }
            }
            EventKind::Recv => {
                ctx.alu(2);
                self.tainted_bytes += u64::from(rec.size);
                let mut off = 0u64;
                let len = u64::from(rec.size);
                while off < len {
                    let chunk = (len - off).min(8);
                    ctx.shadow_write(TaintCheck::shadow_addr(rec.addr + off), chunk as u32);
                    ctx.alu(1);
                    off += chunk;
                }
                self.store(rec.addr, len, TAINTED);
            }
            EventKind::IndirectJump => {
                ctx.alu(2);
                let guard = rec.in1.map_or(CLEAN, |r| self.reg_val(rec.tid, r));
                if guard != CLEAN {
                    self.pend(
                        (rec.pc, FindingKind::TaintedJump, rec.tid),
                        PendingFinding::Jump {
                            pc: rec.pc,
                            tid: rec.tid,
                            addr: rec.addr,
                            guard,
                        },
                        guard == TAINTED,
                    );
                }
            }
            EventKind::Syscall => {
                ctx.alu(3);
                let guards = [
                    self.reg_val(rec.tid, 1),
                    self.reg_val(rec.tid, 2),
                    self.reg_val(rec.tid, 3),
                ];
                if guards.iter().any(|&g| g != CLEAN) {
                    self.pend(
                        (rec.pc, FindingKind::TaintedSyscallArg, rec.tid),
                        PendingFinding::Syscall {
                            pc: rec.pc,
                            tid: rec.tid,
                            addr: rec.addr,
                            size: rec.size,
                            guards,
                        },
                        guards.contains(&TAINTED),
                    );
                }
            }
            _ => {}
        }
    }
}

impl EpochSummarizer for TaintSummarizer {
    type Summary = TaintSummary;

    fn finish_epoch(&mut self) -> TaintSummary {
        let mut reg_out = Vec::new();
        for (tid, regs) in self.regs.iter_mut().enumerate() {
            for (reg, id) in regs.iter_mut().enumerate() {
                if *id != UNWRITTEN {
                    reg_out.push((tid as u8, reg as u8, std::mem::take(id)));
                }
            }
        }
        for entry in &mut self.entry {
            *entry = [UNWRITTEN; 16];
        }

        // Runs of equal id per dirty span; every cell outside the spans
        // is already 0, so this is exactly a scan of the whole page.
        let mut writes = Vec::new();
        for slot in self.dirty.drain(..) {
            let span = &mut self.spans[slot as usize];
            let base = span.page * PAGE_CELLS;
            let (lo, len) = (u64::from(span.lo), u64::from(span.hi - span.lo));
            let cells = self
                .mem
                .cells(base + lo, len)
                .expect("a dirty span lies in one resident page");
            let mut i = 0;
            while i < cells.len() {
                let id = cells[i];
                let mut run = 1;
                while i + run < cells.len() && cells[i + run] == id {
                    run += 1;
                }
                if id != UNWRITTEN {
                    writes.push((base + lo + i as u64, run as u32, id));
                }
                i += run;
            }
            self.mem.set_range(base + lo, len, UNWRITTEN);
            (span.lo, span.hi) = (0, 0);
        }

        let nodes = std::mem::replace(&mut self.nodes, ROOTS.to_vec());
        self.memo.clear();
        self.stored.clear();
        self.stored.resize(ROOTS.len(), false);
        self.finding_seen.clear();
        self.reported.clear();
        TaintSummary {
            nodes,
            reg_out,
            writes,
            stored_values: std::mem::take(&mut self.stored_values),
            findings: std::mem::take(&mut self.findings),
            tainted_bytes: std::mem::take(&mut self.tainted_bytes),
            records: std::mem::take(&mut self.records),
        }
    }

    fn is_open(&self) -> bool {
        self.records > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_short_circuits_and_hash_conses() {
        let mut s = TaintSummarizer::new();
        let (a, b) = (s.reg_val(0, 3), s.reg_val(1, 4));
        assert_eq!(s.reg_val(0, 0x13), a, "registers mask to the 16-file");
        assert_eq!(s.or(CLEAN, a), a);
        assert_eq!(s.or(a, a), a);
        assert_eq!(s.or(a, TAINTED), TAINTED, "tainted saturates");
        let ab = s.or(a, b);
        assert_eq!(s.or(a, b), ab, "one node per distinct disjunction");
        assert_eq!(s.or(ab, b), ab, "an operand already under it is absorbed");
        assert_eq!(s.or(a, ab), ab);
        assert!(matches!(s.nodes[ab as usize], Node::Or(x, y) if x == a && y == b));
    }

    #[test]
    fn dirty_spans_emit_runs_and_reset() {
        let mut s = TaintSummarizer::new();
        let page = PAGE_CELLS * 3;
        s.store(page + 8, 4, TAINTED);
        s.store(page - 2, 4, CLEAN); // straddles into the same page
        s.store(page + 20, 2, TAINTED);
        let summary = s.finish_epoch();
        assert_eq!(
            summary.writes,
            vec![
                (page, 2, CLEAN),
                (page + 8, 4, TAINTED),
                (page + 20, 2, TAINTED),
                (page - 2, 2, CLEAN),
            ],
            "pages in first-touch order, runs ascending within a page"
        );
        assert_eq!(summary.stored_values, 2);
        assert!(s.mem.range_is(page - 4, 32, UNWRITTEN), "spans cleared");
        s.store(page + 100, 1, CLEAN);
        assert_eq!(s.finish_epoch().writes, vec![(page + 100, 1, CLEAN)]);
    }
}
