//! The seeded job set: which (program, monitor, scale) triples a workload
//! runs, in which order, and with which `recv` input bytes.
//!
//! A job is one `Run::run` of one program under one monitor in the
//! workload's run mode. A pass runs every (program, monitor) pair of the
//! workload once. The seed draws each pair's `build_scaled` factor from
//! {1, 2} for even passes; odd passes run the pair at the other factor,
//! and runs end after an even number of passes. So every run times the
//! same multiset of jobs whatever the seed, and the seed moves the job
//! order, which pairs share a pass at which scale, and the program
//! inputs. That keeps run-to-run spread down to what the machine does,
//! not what the dice did.

use lba::{MonitorSpec, RunMode, RunModeSpec, MONITORS, RUN_MODES};
use lba_isa::Program;
use lba_workloads::{bugs, Benchmark};

/// The `build_scaled` factors a job can draw.
pub const SCALES: [u32; 2] = [1, 2];

/// Fan-out width of the remote and epoch-parallel workloads.
pub const WORKERS: usize = 2;

/// One benchmark workload: a run mode and the monitors it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `RunMode::Live` with every monitor and the flight-recorder tee on.
    Live,
    /// `RunMode::Replay` of recordings made in setup, every monitor.
    Replay,
    /// `RunMode::Remote` with two socket workers, shardable monitors.
    Remote,
    /// `RunMode::LiveEpochParallel`, TaintCheck, two workers.
    TaintEpoch,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::Live,
        Workload::Replay,
        Workload::Remote,
        Workload::TaintEpoch,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Live => "live",
            Workload::Replay => "replay",
            Workload::Remote => "remote",
            Workload::TaintEpoch => "taint-epoch",
        }
    }

    /// Parses a `--workload` value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The run mode every job of the workload uses.
    #[must_use]
    pub fn mode(self) -> RunMode {
        match self {
            Workload::Live => RunMode::Live,
            Workload::Replay => RunMode::Replay,
            Workload::Remote => RunMode::Remote,
            Workload::TaintEpoch => RunMode::LiveEpochParallel,
        }
    }

    /// The mode's registry row: how its outcome compares with the
    /// sequential `RunMode::Lba` reference.
    #[must_use]
    pub fn row(self) -> &'static RunModeSpec {
        let name = self.mode().registry_name().expect("a registry mode");
        RUN_MODES
            .iter()
            .find(|row| row.name == name)
            .expect("every registry mode has a row")
    }

    /// The monitors the workload runs: every row its mode supports.
    #[must_use]
    pub fn monitors(self) -> Vec<&'static MonitorSpec> {
        let row = self.row();
        MONITORS.iter().filter(|m| (row.supports)(m)).collect()
    }
}

/// A planted-bug program and what its reference run must report.
#[derive(Debug, Clone, Copy)]
pub struct PlantedBug {
    /// Program name.
    pub program: &'static str,
    /// The monitor that catches it.
    pub monitor: &'static str,
    /// Findings the `RunMode::Lba` reference reports.
    pub findings: usize,
    /// Builds the program.
    pub build: fn() -> Program,
}

/// The planted-bug programs of `lba_workloads::bugs`.
pub const PLANTED: [PlantedBug; 4] = [
    PlantedBug {
        program: "memory-bugs",
        monitor: "addrcheck",
        findings: 5,
        build: bugs::memory_bugs,
    },
    PlantedBug {
        program: "exploit",
        monitor: "taintcheck",
        findings: 1,
        build: bugs::exploit,
    },
    PlantedBug {
        program: "data-race",
        monitor: "lockset",
        findings: 2,
        build: bugs::data_race,
    },
    PlantedBug {
        program: "tainted-syscall",
        monitor: "taintcheck",
        findings: 1,
        build: bugs::tainted_syscall,
    },
];

/// One built program of the job set.
#[derive(Debug)]
pub struct PlanProgram {
    /// The program, with seeded `recv` input where it reads any.
    pub program: Program,
    /// Its `build_scaled` factor (1 for the planted-bug programs).
    pub scale: u32,
    /// The bug planted in it, for the planted-bug programs.
    pub planted: Option<PlantedBug>,
}

/// One job: a program of the plan under one monitor.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Index into [`Plan::programs`].
    pub program: usize,
    /// The monitor.
    pub monitor: &'static MonitorSpec,
}

/// A workload's job set for one seed.
#[derive(Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Every program a job runs, each built once.
    pub programs: Vec<PlanProgram>,
    /// The even and the odd pass, each in run order.
    pub passes: [Vec<Job>; 2],
}

/// The seeded generator: SplitMix64, so the job set depends on the seed
/// alone and on no library's choice of algorithm.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, with `stream` separating independent draws.
    fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Rebuilds `program` so that `recv` reads seeded bytes: the same length
/// as the built-in input, drawn from the seed.
fn with_seeded_input(program: Program, rng: &mut SplitMix) -> Program {
    if program.input().is_empty() {
        return program;
    }
    let input: Vec<u8> = (0..program.input().len())
        .map(|_| rng.next_u64() as u8)
        .collect();
    Program::new(
        program.name(),
        program.code().to_vec(),
        program.entries().to_vec(),
        program.data().to_vec(),
        input,
    )
    .expect("a program rebuilt from its own parts with a new input is valid")
}

impl Plan {
    /// The job set of `workload` for `seed`. `benchmarks` are the
    /// `Benchmark::ALL` programs to include (all nine outside the
    /// self-test); the planted-bug programs whose monitor the workload
    /// runs are always included.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, benchmarks: &[Benchmark]) -> Plan {
        let monitors = workload.monitors();
        let mut programs = Vec::new();
        // (index at scale 1, index at scale 2) per benchmark.
        let mut scaled = Vec::new();
        for (b, bench) in benchmarks.iter().enumerate() {
            let mut at = [0usize; 2];
            for (s, &scale) in SCALES.iter().enumerate() {
                let mut rng = SplitMix::new(seed, 1 + (b * SCALES.len() + s) as u64);
                at[s] = programs.len();
                programs.push(PlanProgram {
                    program: with_seeded_input(bench.build_scaled(scale), &mut rng),
                    scale,
                    planted: None,
                });
            }
            scaled.push(at);
        }
        let mut bug_programs = Vec::new();
        for bug in PLANTED
            .iter()
            .filter(|bug| monitors.iter().any(|m| m.name == bug.monitor))
        {
            bug_programs.push(programs.len());
            programs.push(PlanProgram {
                program: (bug.build)(),
                scale: 1,
                planted: Some(*bug),
            });
        }

        let mut rng = SplitMix::new(seed, 0);
        let mut passes = [Vec::new(), Vec::new()];
        for at in &scaled {
            for &monitor in &monitors {
                let first = rng.below(SCALES.len());
                passes[0].push(Job {
                    program: at[first],
                    monitor,
                });
                passes[1].push(Job {
                    program: at[1 - first],
                    monitor,
                });
            }
        }
        for &program in &bug_programs {
            for &monitor in &monitors {
                for pass in &mut passes {
                    pass.push(Job { program, monitor });
                }
            }
        }
        for pass in &mut passes {
            rng.shuffle(pass);
        }
        Plan {
            workload,
            programs,
            passes,
        }
    }

    /// Both passes, even then odd: every job of the plan once.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.passes.iter().flatten()
    }

    /// The program a job runs.
    #[must_use]
    pub fn program(&self, job: &Job) -> &Program {
        &self.programs[job.program].program
    }

    /// The distinct (program, monitor) pairs of the plan, in program
    /// then monitor order (not run order, so set-up does the same work in
    /// the same order for every seed): the unit the references are
    /// computed over.
    #[must_use]
    pub fn pairs(&self) -> Vec<Job> {
        let mut pairs: Vec<Job> = self.passes[0].clone();
        pairs.extend(self.passes[1].iter().filter(|job| {
            !self.passes[0]
                .iter()
                .any(|j| j.program == job.program && j.monitor.name == job.monitor.name)
        }));
        let rank = |m: &str| MONITORS.iter().position(|spec| spec.name == m);
        pairs.sort_by_key(|job| (job.program, rank(job.monitor.name)));
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_job_list() {
        let a = Plan::new(Workload::Remote, 7, &Benchmark::ALL);
        let b = Plan::new(Workload::Remote, 7, &Benchmark::ALL);
        let key = |p: &Plan| -> Vec<(String, u32, &str, Vec<u8>)> {
            p.jobs()
                .map(|j| {
                    let prog = &p.programs[j.program];
                    (
                        prog.program.name().to_string(),
                        prog.scale,
                        j.monitor.name,
                        prog.program.input().to_vec(),
                    )
                })
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        let c = Plan::new(Workload::Remote, 8, &Benchmark::ALL);
        assert_ne!(key(&a), key(&c), "another seed moves the job list");
    }

    #[test]
    fn two_passes_hold_each_pair_at_both_scales() {
        let plan = Plan::new(Workload::TaintEpoch, 3, &Benchmark::ALL);
        // Nine benchmarks plus two planted-bug programs, one monitor.
        assert!(plan.passes.iter().all(|pass| pass.len() == 9 + 2));
        let mut scales: Vec<(&str, u32)> = plan
            .jobs()
            .map(|j| {
                let p = &plan.programs[j.program];
                (p.program.name(), p.scale)
            })
            .collect();
        scales.sort_unstable();
        scales.dedup();
        assert_eq!(scales.len(), 9 * 2 + 2);
    }
}
