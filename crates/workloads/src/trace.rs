//! Deterministic statistical trace generation.
//!
//! A [`TraceGenerator`] turns a [`WorkloadProfile`] into an arbitrarily long
//! instruction stream, organized as *intervals*: `interval(i)` always yields
//! the identical sequence for a given profile, independent of how many
//! instructions the caller consumes or what else has been generated. The
//! program's phase schedule assigns each interval to a phase, so different
//! intervals exercise different code (basic-block ids), instruction mixes,
//! and working sets — the structure SimPoint discovers and exploits.

use crate::instr::{Instruction, OpClass};
use crate::profile::{AccessPattern, ProfileError, WorkloadProfile};
use crate::spec::Benchmark;
use archpredict_stats::rng::{SplitMix64, Xoshiro256};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Maximum dependency distance encoded in a trace (bounds simulator state).
pub const MAX_DEP_DISTANCE: u32 = 64;

/// Distinct stochastic variants per phase: interval `i` of a phase reuses
/// the variant stream `i % VARIANTS_PER_PHASE`. Real programs revisit a
/// small family of behaviors within each phase (input-dependent but
/// recurring); a bounded variant count reproduces that, and it is what
/// makes SimPoint-style representative sampling meaningful.
pub const VARIANTS_PER_PHASE: usize = 7;

/// Bytes of code attributed to each static basic block (for I-cache
/// behavior: a phase's code footprint is `static_blocks * BLOCK_CODE_BYTES`).
pub const BLOCK_CODE_BYTES: u64 = 32;

/// Base virtual address of the code segment.
const CODE_BASE: u64 = 0x0040_0000;
/// Base virtual address of the data segment.
const DATA_BASE: u64 = 0x1000_0000;

/// Deterministic trace generator for one benchmark.
///
/// # Example
///
/// ```
/// use archpredict_workloads::{Benchmark, TraceGenerator};
/// let generator = TraceGenerator::new(Benchmark::Gzip);
/// let head: Vec<_> = generator.interval(3).take(10).collect();
/// assert_eq!(head.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    /// Immutable once built and shared by every clone.
    tables: Arc<Tables>,
}

/// A generator's profile and the code and data layout derived from it.
#[derive(Debug)]
struct Tables {
    profile: WorkloadProfile,
    /// First global basic-block id of each phase.
    phase_bb_base: Vec<u32>,
    /// Disjoint data-segment base address of each region of each phase.
    region_bases: Vec<Vec<u64>>,
}

impl TraceGenerator {
    /// Builds a generator for a named benchmark: a clone of one built once
    /// per process, sharing its tables.
    ///
    /// # Panics
    ///
    /// Never panics: the built-in benchmark profiles are statically valid.
    pub fn new(benchmark: Benchmark) -> Self {
        static BUILT: [OnceLock<TraceGenerator>; Benchmark::ALL.len()] =
            [const { OnceLock::new() }; Benchmark::ALL.len()];
        BUILT[benchmark as usize]
            .get_or_init(|| {
                Self::from_profile(benchmark.profile()).expect("built-in profiles are valid")
            })
            .clone()
    }

    /// Builds a generator from a custom profile.
    ///
    /// # Errors
    ///
    /// Returns the profile's validation error, if any.
    pub fn from_profile(profile: WorkloadProfile) -> Result<Self, ProfileError> {
        profile.validate()?;
        let mut phase_bb_base = Vec::with_capacity(profile.phases.len());
        let mut next_bb = 0u32;
        let mut region_bases = Vec::with_capacity(profile.phases.len());
        let mut next_addr = DATA_BASE;
        for phase in &profile.phases {
            phase_bb_base.push(next_bb);
            next_bb += phase.static_blocks;
            let mut bases = Vec::with_capacity(phase.memory.regions.len());
            for region in &phase.memory.regions {
                bases.push(next_addr);
                // Keep regions disjoint and page-aligned.
                next_addr += region.bytes.div_ceil(4096) * 4096 + 4096;
            }
            region_bases.push(bases);
        }
        Ok(Self {
            tables: Arc::new(Tables {
                profile,
                phase_bb_base,
                region_bases,
            }),
        })
    }

    /// The underlying profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.tables.profile
    }

    /// Number of intervals in one complete pass of the program's phase
    /// schedule (the "whole benchmark" for SimPoint purposes).
    pub fn num_intervals(&self) -> usize {
        self.tables.profile.phase_schedule.len()
    }

    /// Phase index executed during `interval`.
    pub fn phase_of_interval(&self, interval: usize) -> usize {
        let schedule = &self.tables.profile.phase_schedule;
        schedule[interval % schedule.len()] as usize
    }

    /// Total number of distinct basic-block ids across all phases
    /// (the dimensionality of basic-block vectors).
    pub fn total_static_blocks(&self) -> u32 {
        let tables = &self.tables;
        tables
            .phase_bb_base
            .last()
            .copied()
            .unwrap_or(0)
            .saturating_add(tables.profile.phases.last().map_or(0, |p| p.static_blocks))
    }

    /// Returns the (infinite) instruction stream of `interval`.
    ///
    /// The stream is a pure function of `(profile.seed, interval)`.
    pub fn interval(&self, interval: usize) -> IntervalTrace<'_> {
        let phase_idx = self.phase_of_interval(interval);
        let phase = &self.tables.profile.phases[phase_idx];
        let variant = (interval % VARIANTS_PER_PHASE) as u64;
        let rng = Xoshiro256::seed_from(self.tables.profile.seed)
            .derive(0x5EED_0000 ^ ((phase_idx as u64) << 8) ^ variant);
        let mix_weights = [
            phase.mix.int_alu,
            phase.mix.int_mul,
            phase.mix.fp_alu,
            phase.mix.fp_mul,
            phase.mix.load,
            phase.mix.store,
        ];
        let mut cursor_rng = rng.derive(17);
        let cursors = phase
            .memory
            .regions
            .iter()
            .map(|r| (cursor_rng.below(r.bytes.max(1)) / 8) * 8)
            .collect();
        IntervalTrace {
            generator: &self.tables,
            phase_idx,
            rng,
            mix_weights,
            bb: 0,
            block_left: 0,
            pending_branch: None,
            cursors,
            loop_counters: HashMap::new(),
        }
    }

    /// Basic-block vector of `interval` over its first `len` instructions:
    /// a `total_static_blocks()`-dimensional count vector, normalized to sum
    /// to one. This is the SimPoint fingerprint of the interval.
    pub fn bbv(&self, interval: usize, len: usize) -> Vec<f64> {
        let dim = self.total_static_blocks() as usize;
        let mut counts = vec![0.0f64; dim];
        for instr in self.interval(interval).take(len) {
            counts[instr.bb as usize] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        counts
    }
}

/// Per-static-branch behavioral category, derived by hashing the branch PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BranchKind {
    /// Strongly biased; `taken_bias` is the dominant direction.
    Biased { taken_bias: bool },
    /// Loop back-edge with a fixed trip count.
    Loop { period: u32 },
    /// Data-dependent coin flip.
    Random,
}

/// Infinite iterator over the instructions of one interval.
///
/// Produced by [`TraceGenerator::interval`]. Never returns `None`.
#[derive(Debug, Clone)]
pub struct IntervalTrace<'a> {
    generator: &'a Tables,
    phase_idx: usize,
    rng: Xoshiro256,
    mix_weights: [f64; 6],
    /// Current basic block (phase-local index).
    bb: u32,
    /// Non-branch instructions remaining in the current block.
    block_left: u32,
    /// Branch to be emitted at the end of the current block.
    pending_branch: Option<()>,
    /// Per-region streaming cursors.
    cursors: Vec<u64>,
    /// Loop branch trip counters, keyed by phase-local block id.
    loop_counters: HashMap<u32, u32>,
}

impl IntervalTrace<'_> {
    fn phase(&self) -> &crate::profile::Phase {
        &self.generator.profile.phases[self.phase_idx]
    }

    fn global_bb(&self) -> u32 {
        self.generator.phase_bb_base[self.phase_idx] + self.bb
    }

    fn block_pc(&self, bb: u32, offset: u32) -> u64 {
        let global = self.generator.phase_bb_base[self.phase_idx] + bb;
        CODE_BASE + global as u64 * BLOCK_CODE_BYTES + (offset as u64 * 4) % BLOCK_CODE_BYTES
    }

    /// Deterministic branch category of the branch terminating block `bb`.
    fn branch_kind(&self, bb: u32) -> BranchKind {
        let b = &self.generator.profile.branches;
        let h = SplitMix64::new(
            self.generator.profile.seed ^ 0xB4A9_C0DE ^ (self.global_bb_of(bb) as u64) << 3,
        )
        .next_u64();
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        if frac < b.biased_fraction {
            BranchKind::Biased {
                taken_bias: h & 1 == 0,
            }
        } else if frac < b.biased_fraction + b.loop_fraction {
            // Period in [2, 2*mean), deterministic per branch.
            let span = (2.0 * b.mean_trip_count - 2.0).max(1.0) as u64;
            BranchKind::Loop {
                period: (2 + (h >> 8) % span) as u32,
            }
        } else {
            BranchKind::Random
        }
    }

    fn global_bb_of(&self, bb: u32) -> u32 {
        self.generator.phase_bb_base[self.phase_idx] + bb
    }

    fn sample_block_len(&mut self) -> u32 {
        // Static code has fixed block sizes: derive the length of this block
        // deterministically from its id, uniform on [2, 2*mean-2] so the
        // phase mean is preserved.
        let mean = self.phase().mean_block_len;
        let span = ((2.0 * (mean - 2.0)).max(0.0) as u64) + 1;
        let h = SplitMix64::new(
            self.generator.profile.seed ^ 0x0B10_C51E ^ ((self.global_bb() as u64) << 5),
        )
        .next_u64();
        2 + (h % span).min(30) as u32
    }

    fn sample_dep(&mut self) -> u32 {
        let mean = self.generator.profile.mean_dep_distance;
        let p = 1.0 / mean.max(1.0);
        (1 + self.rng.next_geometric(p) as u32).min(MAX_DEP_DISTANCE)
    }

    fn memory_address(&mut self, region_idx: usize) -> u64 {
        let region = self.phase().memory.regions[region_idx];
        let base = self.generator.region_bases[self.phase_idx][region_idx];
        match region.pattern {
            AccessPattern::Sequential => {
                // Occasional restart models a new buffer/scan.
                if self.rng.chance(0.002) {
                    self.cursors[region_idx] = (self.rng.below(region.bytes) / 8) * 8;
                }
                let addr = base + self.cursors[region_idx];
                self.cursors[region_idx] = (self.cursors[region_idx] + 8) % region.bytes;
                addr
            }
            AccessPattern::Strided { stride } => {
                let addr = base + self.cursors[region_idx];
                self.cursors[region_idx] = (self.cursors[region_idx] + stride) % region.bytes;
                addr
            }
            AccessPattern::Random => {
                // Skewed ("Zipf-like") random access: real pointer-chasing
                // codes hammer a hot head of their structures while the
                // tail supplies steady capacity pressure. Raising a uniform
                // deviate to the fifth power sends ~40% of accesses to the
                // first 1% of the region and spreads the rest over all of it.
                let u = self.rng.next_f64();
                let off = (u.powi(5) * region.bytes as f64) as u64;
                base + (off.min(region.bytes - 1) / 8) * 8
            }
        }
    }

    fn choose_region(&mut self) -> usize {
        let regions = &self.generator.profile.phases[self.phase_idx].memory.regions;
        self.rng.weighted_pick(regions.iter().map(|r| r.weight))
    }

    fn emit_branch(&mut self) -> Instruction {
        let bb = self.bb;
        let pc = self.block_pc(bb, 31); // terminating slot of the block
        let kind = self.branch_kind(bb);
        let taken = match kind {
            BranchKind::Biased { taken_bias } => {
                let follow = self.rng.chance(self.generator.profile.branches.bias);
                if follow {
                    taken_bias
                } else {
                    !taken_bias
                }
            }
            BranchKind::Loop { period } => {
                let counter = self.loop_counters.entry(bb).or_insert(0);
                *counter += 1;
                if *counter >= period {
                    *counter = 0;
                    false // loop exit
                } else {
                    true // back edge
                }
            }
            BranchKind::Random => self
                .rng
                .chance(self.generator.profile.branches.random_taken),
        };
        let static_blocks = self.phase().static_blocks;
        // Control flow: loop back-edges re-execute their block; other taken
        // branches are short forward jumps (as in real code), so execution
        // sweeps the phase's static code cyclically. This locality is what
        // makes same-phase intervals produce similar basic-block vectors.
        let target_bb = match kind {
            BranchKind::Loop { .. } => bb, // tight loop re-executes the block
            _ => {
                let h = SplitMix64::new(self.generator.profile.seed ^ (bb as u64) << 17).next_u64();
                (bb + 1 + (h % 12) as u32) % static_blocks
            }
        };
        let next_bb = if taken {
            target_bb
        } else {
            (bb + 1) % static_blocks
        };
        let target_pc = self.block_pc(target_bb, 0);
        let dep1 = self.sample_dep();
        let instr = Instruction {
            op: OpClass::Branch,
            pc,
            addr: 0,
            taken,
            target: target_pc,
            dep1,
            dep2: 0,
            bb: self.global_bb(),
        };
        self.bb = next_bb;
        self.block_left = 0;
        instr
    }
}

impl Iterator for IntervalTrace<'_> {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        if self.block_left == 0 {
            if self.pending_branch.take().is_some() {
                return Some(self.emit_branch());
            }
            // Start a new block: schedule its body then its branch.
            self.block_left = self.sample_block_len() - 1;
            self.pending_branch = Some(());
        }
        // Emit a body instruction.
        let offset = 30 - self.block_left.min(30);
        self.block_left -= 1;
        let class_idx = self.rng.weighted_index(&self.mix_weights);
        let op = OpClass::ALL[class_idx];
        let pc = self.block_pc(self.bb, offset);
        let dep1 = self.sample_dep();
        let dep2 = if self.rng.chance(self.generator.profile.second_source_prob) {
            self.sample_dep()
        } else {
            0
        };
        let instr = match op {
            OpClass::Load | OpClass::Store => {
                let region = self.choose_region();
                let addr = self.memory_address(region);
                Instruction {
                    op,
                    pc,
                    addr,
                    taken: false,
                    target: 0,
                    dep1,
                    dep2,
                    bb: self.global_bb(),
                }
            }
            _ => Instruction {
                op,
                pc,
                addr: 0,
                taken: false,
                target: 0,
                dep1,
                dep2,
                bb: self.global_bb(),
            },
        };
        Some(instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Benchmark;

    #[test]
    fn intervals_are_deterministic() {
        let generator = TraceGenerator::new(Benchmark::Twolf);
        let a: Vec<_> = generator.interval(5).take(2000).collect();
        let b: Vec<_> = generator.interval(5).take(2000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn same_phase_same_variant_intervals_are_identical() {
        // Interval i and i + lcm(schedule period alignment) share phase and
        // variant; find such a pair explicitly.
        let generator = TraceGenerator::new(Benchmark::Gzip);
        let n = generator.num_intervals();
        let pair = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .find(|&(a, b)| {
                generator.phase_of_interval(a) == generator.phase_of_interval(b)
                    && a % VARIANTS_PER_PHASE == b % VARIANTS_PER_PHASE
            })
            .expect("schedule long enough for a repeat");
        let x: Vec<_> = generator.interval(pair.0).take(1000).collect();
        let y: Vec<_> = generator.interval(pair.1).take(1000).collect();
        assert_eq!(x, y, "intervals {pair:?} must replay the same variant");
    }

    #[test]
    fn same_phase_different_variant_intervals_differ() {
        let generator = TraceGenerator::new(Benchmark::Gzip);
        let n = generator.num_intervals();
        let pair = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .find(|&(a, b)| {
                generator.phase_of_interval(a) == generator.phase_of_interval(b)
                    && a % VARIANTS_PER_PHASE != b % VARIANTS_PER_PHASE
            })
            .expect("distinct variants exist");
        let x: Vec<_> = generator.interval(pair.0).take(1000).collect();
        let y: Vec<_> = generator.interval(pair.1).take(1000).collect();
        assert_ne!(x, y);
    }

    #[test]
    fn different_intervals_differ() {
        let generator = TraceGenerator::new(Benchmark::Twolf);
        let a: Vec<_> = generator.interval(0).take(500).collect();
        let b: Vec<_> = generator.interval(1).take(500).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mix_roughly_matches_profile() {
        let generator = TraceGenerator::new(Benchmark::Gzip);
        let n = 50_000;
        let mut loads = 0usize;
        let mut branches = 0usize;
        for i in generator.interval(0).take(n) {
            match i.op {
                OpClass::Load => loads += 1,
                OpClass::Branch => branches += 1,
                _ => {}
            }
        }
        // gzip: roughly 20-30% loads, 10-25% branches.
        let load_frac = loads as f64 / n as f64;
        let br_frac = branches as f64 / n as f64;
        assert!((0.10..0.40).contains(&load_frac), "load frac {load_frac}");
        assert!((0.05..0.35).contains(&br_frac), "branch frac {br_frac}");
    }

    #[test]
    fn memory_instructions_have_addresses_in_data_segment() {
        let generator = TraceGenerator::new(Benchmark::Mcf);
        for i in generator.interval(2).take(10_000) {
            if i.op.is_memory() {
                assert!(i.addr >= super::DATA_BASE, "addr {:#x}", i.addr);
            } else {
                assert_eq!(i.addr, 0);
            }
        }
    }

    #[test]
    fn branches_terminate_blocks_and_set_targets() {
        let generator = TraceGenerator::new(Benchmark::Crafty);
        let mut saw_taken = false;
        let mut saw_not_taken = false;
        for i in generator.interval(0).take(20_000) {
            if i.op == OpClass::Branch {
                assert!(i.target >= super::CODE_BASE);
                saw_taken |= i.taken;
                saw_not_taken |= !i.taken;
            }
        }
        assert!(saw_taken && saw_not_taken);
    }

    #[test]
    fn bb_ids_stay_within_phase_range() {
        let generator = TraceGenerator::new(Benchmark::Applu);
        let total = generator.total_static_blocks();
        for interval in 0..4 {
            for i in generator.interval(interval).take(3000) {
                assert!(i.bb < total, "bb {} out of range {}", i.bb, total);
            }
        }
    }

    #[test]
    fn bbv_is_normalized_and_phase_distinct() {
        let generator = TraceGenerator::new(Benchmark::Mgrid);
        // Find two intervals in different phases.
        let p0 = generator.phase_of_interval(0);
        let other = (0..generator.num_intervals())
            .find(|&i| generator.phase_of_interval(i) != p0)
            .expect("mgrid has multiple phases");
        let v0 = generator.bbv(0, 5000);
        let v1 = generator.bbv(other, 5000);
        let sum0: f64 = v0.iter().sum();
        assert!((sum0 - 1.0).abs() < 1e-9);
        // Different phases touch different code: cosine similarity low.
        let dot: f64 = v0.iter().zip(&v1).map(|(a, b)| a * b).sum();
        let n0: f64 = v0.iter().map(|x| x * x).sum::<f64>().sqrt();
        let n1: f64 = v1.iter().map(|x| x * x).sum::<f64>().sqrt();
        let cos = dot / (n0 * n1);
        assert!(cos < 0.5, "phases too similar: cos={cos}");
    }

    #[test]
    fn same_phase_intervals_have_similar_bbvs() {
        let generator = TraceGenerator::new(Benchmark::Mgrid);
        let p0 = generator.phase_of_interval(0);
        let same = (1..generator.num_intervals())
            .find(|&i| generator.phase_of_interval(i) == p0)
            .expect("phase repeats");
        let v0 = generator.bbv(0, 20_000);
        let v1 = generator.bbv(same, 20_000);
        let dot: f64 = v0.iter().zip(&v1).map(|(a, b)| a * b).sum();
        let n0: f64 = v0.iter().map(|x| x * x).sum::<f64>().sqrt();
        let n1: f64 = v1.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(dot / (n0 * n1) > 0.7);
    }

    #[test]
    fn dependency_distances_bounded_and_positive() {
        let generator = TraceGenerator::new(Benchmark::Equake);
        for i in generator.interval(0).take(5000) {
            assert!(i.dep1 >= 1 && i.dep1 <= MAX_DEP_DISTANCE);
            assert!(i.dep2 <= MAX_DEP_DISTANCE);
        }
    }

    #[test]
    fn loop_branches_mostly_taken_for_loopy_benchmark() {
        // mgrid is loop-dominated: overall taken rate should be high.
        let generator = TraceGenerator::new(Benchmark::Mgrid);
        let (mut taken, mut total) = (0usize, 0usize);
        for i in generator.interval(1).take(30_000) {
            if i.op == OpClass::Branch {
                total += 1;
                taken += i.taken as usize;
            }
        }
        let rate = taken as f64 / total as f64;
        assert!(rate > 0.6, "taken rate {rate}");
    }
}
