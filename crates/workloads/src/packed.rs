//! Intervals synthesized once and replayed from a compact buffer.
//!
//! A trace depends only on `(benchmark, interval)`, never on the machine
//! simulating it, so an evaluator that simulates the same intervals at
//! every design point can synthesize them once. [`PackedInterval`] holds
//! an interval's first instructions at 12 bytes each — the fields the
//! simulator reads, without the basic-block id — and
//! [`PackedInterval::replay`] streams them back, continuing from the live
//! generator past the end of the buffer. A replay therefore yields the
//! interval's instructions exactly, however far a simulation reads.

use crate::instr::{Instruction, OpClass};
use crate::trace::{IntervalTrace, TraceGenerator};

/// Bits of each dependency distance in [`Packed::word`].
const DEP_BITS: u32 = 14;
const DEP_MASK: u32 = (1 << DEP_BITS) - 1;

/// One instruction in 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packed {
    pc: u32,
    /// A branch's target, otherwise the effective address (0 for
    /// non-memory instructions).
    operand: u32,
    /// `op | taken << 3 | dep1 << 4 | dep2 << 18`.
    word: u32,
}

impl Packed {
    /// Packs `instr`, or `None` when a field does not fit. The basic-block
    /// id is not kept.
    fn new(instr: &Instruction) -> Option<Packed> {
        let operand = if instr.op == OpClass::Branch {
            instr.target
        } else {
            instr.addr
        };
        let packed = Packed {
            pc: u32::try_from(instr.pc).ok()?,
            operand: u32::try_from(operand).ok()?,
            word: instr.op.index() as u32
                | u32::from(instr.taken) << 3
                | (instr.dep1 & DEP_MASK) << 4
                | (instr.dep2 & DEP_MASK) << (4 + DEP_BITS),
        };
        // Whatever the word or the shared operand field cannot represent
        // (a long dependency, an address on a branch) fails the round trip.
        let unpacked = packed.unpack();
        (unpacked == Instruction { bb: 0, ..*instr }).then_some(packed)
    }

    fn unpack(self) -> Instruction {
        let op = OpClass::ALL[(self.word & 7) as usize];
        let operand = u64::from(self.operand);
        let (addr, target) = if op == OpClass::Branch {
            (0, operand)
        } else {
            (operand, 0)
        };
        Instruction {
            op,
            pc: u64::from(self.pc),
            addr,
            taken: self.word >> 3 & 1 == 1,
            target,
            dep1: self.word >> 4 & DEP_MASK,
            dep2: self.word >> (4 + DEP_BITS),
            bb: 0,
        }
    }
}

/// The first instructions of one interval, synthesized once and packed.
///
/// # Example
///
/// ```
/// use archpredict_workloads::{Benchmark, PackedInterval, TraceGenerator};
///
/// let generator = TraceGenerator::new(Benchmark::Gzip);
/// let packed = PackedInterval::new(&generator, 2, 100);
/// let live: Vec<_> = generator.interval(2).take(150).collect();
/// let replayed: Vec<_> = packed.replay(&generator).take(150).collect();
/// // Identical apart from the basic-block ids of the packed prefix.
/// for (i, (r, l)) in replayed.iter().zip(&live).enumerate() {
///     let bb = if i < packed.len() { 0 } else { l.bb };
///     assert_eq!(*r, archpredict_workloads::Instruction { bb, ..*l });
/// }
/// ```
#[derive(Clone)]
pub struct PackedInterval {
    interval: usize,
    instrs: Box<[Packed]>,
}

impl PackedInterval {
    /// Synthesizes the first `len` instructions of `interval` and packs
    /// them. Packing stops early at an instruction that does not fit;
    /// [`PackedInterval::replay`] takes over from the live generator there.
    pub fn new(generator: &TraceGenerator, interval: usize, len: usize) -> Self {
        let instrs = generator
            .interval(interval)
            .take(len)
            .map_while(|instr| Packed::new(&instr))
            .collect();
        Self { interval, instrs }
    }

    /// Instructions held.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether no instruction is held.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Bytes the packed instructions occupy.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.instrs)
    }

    /// The interval's instruction stream: the packed instructions, then
    /// the live `generator.interval(…)` from where they end. Equal to
    /// the live stream except that the packed instructions carry `bb = 0`.
    /// `generator` must be the one the buffer was packed from.
    pub fn replay<'a>(&'a self, generator: &'a TraceGenerator) -> Replay<'a> {
        Replay {
            packed: self.instrs.iter(),
            generator,
            interval: self.interval,
            skip: self.instrs.len(),
            live: None,
        }
    }
}

impl std::fmt::Debug for PackedInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedInterval")
            .field("interval", &self.interval)
            .field("len", &self.instrs.len())
            .finish()
    }
}

/// Infinite iterator returned by [`PackedInterval::replay`].
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    packed: std::slice::Iter<'a, Packed>,
    generator: &'a TraceGenerator,
    interval: usize,
    skip: usize,
    /// The live generator past the buffer, built on first use.
    live: Option<std::iter::Skip<IntervalTrace<'a>>>,
}

impl Iterator for Replay<'_> {
    type Item = Instruction;

    #[inline]
    fn next(&mut self) -> Option<Instruction> {
        if let Some(packed) = self.packed.next() {
            return Some(packed.unpack());
        }
        let (generator, interval, skip) = (self.generator, self.interval, self.skip);
        self.live
            .get_or_insert_with(|| generator.interval(interval).skip(skip))
            .next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Benchmark;

    #[test]
    fn packs_in_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Packed>(), 12);
        let generator = TraceGenerator::new(Benchmark::Mcf);
        let packed = PackedInterval::new(&generator, 1, 1000);
        assert_eq!(packed.len(), 1000);
        assert_eq!(packed.bytes(), 12_000);
    }

    #[test]
    fn replay_matches_the_live_stream_past_the_buffer() {
        for benchmark in Benchmark::ALL {
            let generator = TraceGenerator::new(benchmark);
            let packed = PackedInterval::new(&generator, 3, 2000);
            let live = generator.interval(3).take(2500);
            for (i, (replayed, live)) in packed.replay(&generator).zip(live).enumerate() {
                let bb = if i < 2000 { 0 } else { live.bb };
                assert_eq!(replayed, Instruction { bb, ..live }, "{benchmark:?} #{i}");
            }
        }
    }

    #[test]
    fn unpackable_instructions_are_refused() {
        let load = Instruction {
            op: OpClass::Load,
            pc: 0x40_0000,
            addr: 0x1000_0008,
            taken: false,
            target: 0,
            dep1: 3,
            dep2: 64,
            bb: 7,
        };
        assert_eq!(
            Packed::new(&load).map(Packed::unpack),
            Some(Instruction { bb: 0, ..load })
        );
        for misfit in [
            Instruction {
                pc: 1 << 32,
                ..load
            },
            Instruction {
                addr: 1 << 32,
                ..load
            },
            Instruction { target: 4, ..load },
            Instruction {
                dep1: 1 << DEP_BITS,
                ..load
            },
            Instruction {
                dep2: u32::MAX,
                ..load
            },
            Instruction {
                op: OpClass::Branch,
                ..load
            },
        ] {
            assert_eq!(Packed::new(&misfit), None, "{misfit:?}");
        }
    }
}
