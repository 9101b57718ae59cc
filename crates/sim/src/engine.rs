//! The cycle-by-cycle out-of-order execution engine.
//!
//! Each cycle proceeds commit → issue → dispatch → fetch (so a newly
//! dispatched instruction issues at the earliest one cycle later, and a
//! newly issued one commits no earlier than its completion cycle). The
//! engine models:
//!
//! * a fetch unit limited by fetch width, taken branches, I-cache misses,
//!   BTB misses, and branch mispredictions (front end redirects when the
//!   branch *resolves*, plus the frequency-derived minimum penalty);
//! * dispatch limited by ROB, load/store queues, physical registers, and
//!   the in-flight branch cap;
//! * out-of-order issue limited by issue width, per-family functional-unit
//!   throughput, and load/store ports, with wakeup driven by the trace's
//!   producer–consumer dependency distances;
//! * in-order commit limited by commit width, with stores draining to the
//!   memory hierarchy at commit time.
//!
//! Issue is event-driven. Each entry counts its producers that have not
//! issued yet, and each producer links the entries waiting on it (an
//! intrusive list: one link per operand, so nothing is allocated per
//! instruction). When a producer issues, its completion cycle is known,
//! so each waiter whose count drops to zero is scheduled for the cycle
//! its last operand completes: into a set for the next cycle when that is
//! at most one cycle away, and into a wake queue ordered by cycle
//! otherwise. At the start of a cycle both release every entry due by
//! then into the ready set, a bitmap over reorder-buffer slots, and issue
//! walks that bitmap from the head of the buffer — oldest first — under
//! the width, functional-unit and port limits. These are exactly the
//! entries, in exactly the order, that a scan of the whole buffer for
//! completed operands would visit, which is what keeps memory accesses
//! and results independent of this bookkeeping. The idle-cycle skip's
//! next event is the minimum of three heads: reorder buffer, wake queue,
//! fetch redirect.
//!
//! Dispatch and commit are table-driven, with no branch on the op class.
//! The free integer and FP registers, load- and store-queue entries and
//! branch slots are five lanes of one word, each count clamped to
//! `rob_size`. Clamping is exact: at most `rob_size` instructions are in
//! flight, so a larger count never binds, and a count of exactly
//! `rob_size` runs out only when the reorder buffer is full, which
//! dispatch checks first. Each op class holds a fixed set of units
//! ([`HOLDS`]): dispatch takes them with one subtraction, which borrows a
//! lane's guard bit when that lane has none free, and commit returns them
//! with one addition. The fetch queue is a ring of just the fields
//! dispatch reads, indexed by the sequence numbers its entries will
//! dispatch with.

use crate::branch::{Btb, TournamentPredictor};
use crate::config::SimConfig;
use crate::memory::MemoryHierarchy;
use crate::result::SimResult;
use archpredict_workloads::{Instruction, OpClass};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-cycle issue units: integer ALU (which also resolves branches),
/// multiply, floating point, load port, store port.
const UNITS: usize = 5;

/// Issue unit of each op class, indexed by [`OpClass::index`].
const UNIT: [usize; 7] = [0, 1, 2, 2, 3, 4, 0];

/// Execution latency (cycles) of each op class, indexed by
/// [`OpClass::index`]; a load's is its address generation, after which
/// the memory hierarchy adds its own time.
const LATENCY: [u64; 7] = [1, 8, 4, 6, 1, 1, 1];

/// Bits per lane of the engine's free-resource word: a free count of at
/// most `rob_size` under a guard bit.
const LANE_BITS: u32 = 12;

/// One unit of each lane of the free-resource word: an integer register,
/// an FP register, a load-queue entry, a store-queue entry, a branch slot.
const INT: u64 = 1;
const FP: u64 = 1 << LANE_BITS;
const LOAD: u64 = 1 << (2 * LANE_BITS);
const STORE: u64 = 1 << (3 * LANE_BITS);
const BRANCH: u64 = 1 << (4 * LANE_BITS);

/// The guard bit above every lane's count.
const TOP: u64 = (INT | FP | LOAD | STORE | BRANCH) << (LANE_BITS - 1);

/// What each op class holds from dispatch to commit, indexed by
/// [`OpClass::index`]: a load takes a load-queue entry and an integer
/// register, a store only its store-queue entry.
const HOLDS: [u64; 7] = [INT, INT, FP, FP, LOAD | INT, STORE, BRANCH];

/// Low bits of a wake-queue key, which hold the slot under the cycle.
const SLOT_BITS: u32 = 11;

// `SimConfig::derive` refuses larger reorder buffers: a lane must hold a
// count clamped to `rob_size`, and a wake key any slot.
const _: () = assert!(SimConfig::MAX_ROB_SIZE < 1 << (LANE_BITS - 1));
const _: () = assert!(SimConfig::MAX_ROB_SIZE.next_power_of_two() <= 1 << SLOT_BITS);

/// Front-end bubble when a predicted-taken branch misses in the BTB.
const BTB_BUBBLE: u64 = 2;

/// End of a consumer list.
const NIL: u32 = u32::MAX;

/// Instructions the engine may pull from its trace beyond the last one it
/// commits under `config`: a full reorder buffer, a full fetch queue, and
/// the one instruction held back by an instruction-cache miss. A buffer of
/// `warmup + measured + lookahead(config)` instructions therefore feeds a
/// whole [`crate::simulate_with_warmup`] run.
pub fn lookahead(config: &SimConfig) -> u64 {
    u64::from(config.rob_size) + fetch_queue_cap(config) as u64 + 1
}

/// Fetch-queue capacity under `config`.
fn fetch_queue_cap(config: &SimConfig) -> usize {
    2 * config.width as usize + 8
}

#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    cycle: u64,
    committed: u64,
    branches: u64,
    mispredicts: u64,
    btb_misses: u64,
    fetch_stall_cycles: u64,
    stall_icache: u64,
    stall_branch: u64,
    stall_btb: u64,
    mem: crate::memory::MemoryStats,
}

/// What dispatch reads of a fetched instruction.
#[derive(Debug, Clone, Copy)]
struct Fetched {
    addr: u64,
    dep1: u32,
    dep2: u32,
    op: OpClass,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    addr: u64,
    /// Completion cycle; `u64::MAX` until issued.
    complete: u64,
    /// Latest completion cycle among the producers issued so far.
    ready_at: u64,
    /// Head of the list of entries waiting on this one, as
    /// `slot << 1 | operand`; [`NIL`] when empty.
    consumers: u32,
    /// This entry's link in each of its producers' consumer lists.
    next: [u32; 2],
    /// Producers that have not issued yet.
    waiting: u8,
    op: OpClass,
}

impl RobEntry {
    const EMPTY: RobEntry = RobEntry {
        seq: 0,
        addr: 0,
        complete: 0,
        ready_at: 0,
        consumers: NIL,
        next: [NIL; 2],
        waiting: 0,
        op: OpClass::IntAlu,
    };
}

/// A set of reorder-buffer slots, one bit each.
#[derive(Debug)]
struct SlotSet {
    words: Box<[u64]>,
    len: usize,
}

impl SlotSet {
    fn new(slots: usize) -> Self {
        Self {
            words: vec![0; slots.div_ceil(64)].into_boxed_slice(),
            len: 0,
        }
    }

    /// Adds `slot`, which must not be in the set.
    fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
        self.len += 1;
    }

    /// Removes `slot`, which must be in the set.
    fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
        self.len -= 1;
    }

    /// Moves every slot of `other`, disjoint from this set, into it.
    fn absorb(&mut self, other: &mut SlotSet) {
        if other.len > 0 {
            for (word, from) in self.words.iter_mut().zip(other.words.iter_mut()) {
                *word |= std::mem::take(from);
            }
            self.len += std::mem::take(&mut other.len);
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Debug)]
pub(crate) struct Engine<I: Iterator<Item = Instruction>> {
    cfg: SimConfig,
    /// Issue limit per cycle of each of the [`UNITS`].
    unit_limits: [u32; UNITS],
    mem: MemoryHierarchy,
    predictor: TournamentPredictor,
    btb: Btb,
    trace: I,
    pending: Option<Instruction>,
    trace_done: bool,

    /// The reorder buffer: a ring holding sequence numbers `head..seq`,
    /// entry `s` at slot `s & rob_mask`.
    rob: Box<[RobEntry]>,
    rob_mask: u64,
    /// Sequence number of the oldest in-flight instruction.
    head: u64,
    /// Slots of entries whose producers have all issued, keyed by the
    /// cycle their last operand completes, when that is more than one
    /// cycle after they were scheduled: `ready_at << SLOT_BITS | slot`.
    wake: BinaryHeap<Reverse<u64>>,
    /// Slots of entries that can issue from the next cycle on.
    soon: SlotSet,
    /// Slots of entries that can issue now.
    ready: SlotSet,
    /// The fetch queue: a ring holding the instructions that will
    /// dispatch as sequence numbers `seq..fetch_tail`, entry `s` at index
    /// `s & fetch_mask`.
    fetch_q: Box<[Fetched]>,
    fetch_mask: u64,
    fetch_tail: u64,

    /// Free integer and FP registers, load- and store-queue entries and
    /// branch slots, one lane each (see [`HOLDS`]).
    free: u64,
    /// `free` at the start: each configured count clamped to `rob_size`.
    capacity: u64,

    cycle: u64,
    /// Sequence number of the next instruction to dispatch.
    seq: u64,
    committed: u64,
    target: u64,
    warmup: u64,
    warmup_snapshot: Option<Snapshot>,

    fetch_stall_until: u64,
    /// Sequence number of the mispredicted branch fetch waits on; no
    /// other instruction carries it, so entries need no mispredict flag.
    stalled_on_branch: Option<u64>,
    last_fetch_block: u64,

    branches: u64,
    mispredicts: u64,
    btb_misses: u64,
    fetch_stall_cycles: u64,
    stall_cause: StallCause,
    stall_icache: u64,
    stall_branch: u64,
    stall_btb: u64,
}

/// Why the front end is currently stalled (for cycle attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallCause {
    None,
    Icache,
    Branch,
    Btb,
}

impl<I: Iterator<Item = Instruction>> Engine<I> {
    /// An engine that commits `warmup + measured` instructions of
    /// `trace`; the first `warmup` warm the caches and predictors without
    /// being counted in the result.
    pub(crate) fn with_warmup(cfg: &SimConfig, trace: I, warmup: u64, measured: u64) -> Self {
        let mem = MemoryHierarchy::new(cfg);
        let rob_slots = (cfg.rob_size as usize).next_power_of_two();
        let fetch_slots = fetch_queue_cap(cfg).next_power_of_two();
        let fu = cfg.fu_throughput();
        // Clamping is exact (see the module doc).
        let capacity = [
            (cfg.int_regs, INT),
            (cfg.fp_regs, FP),
            (cfg.lsq_loads, LOAD),
            (cfg.lsq_stores, STORE),
            (cfg.max_branches, BRANCH),
        ]
        .into_iter()
        .map(|(count, lane)| u64::from(count.min(cfg.rob_size)) * lane)
        .sum();
        Self {
            unit_limits: [fu.int_alu, fu.mul, fu.fp, cfg.load_ports, cfg.store_ports],
            predictor: TournamentPredictor::new(cfg.predictor_entries),
            btb: Btb::new(cfg.btb_sets),
            mem,
            trace,
            pending: None,
            trace_done: false,
            rob: vec![RobEntry::EMPTY; rob_slots].into_boxed_slice(),
            rob_mask: rob_slots as u64 - 1,
            head: 0,
            wake: BinaryHeap::with_capacity(rob_slots),
            soon: SlotSet::new(rob_slots),
            ready: SlotSet::new(rob_slots),
            fetch_q: vec![
                Fetched {
                    addr: 0,
                    dep1: 0,
                    dep2: 0,
                    op: OpClass::IntAlu,
                };
                fetch_slots
            ]
            .into_boxed_slice(),
            fetch_mask: fetch_slots as u64 - 1,
            fetch_tail: 0,
            free: capacity,
            capacity,
            cycle: 0,
            seq: 0,
            committed: 0,
            target: warmup + measured,
            warmup,
            warmup_snapshot: None,
            fetch_stall_until: 0,
            stalled_on_branch: None,
            last_fetch_block: u64::MAX,
            branches: 0,
            mispredicts: 0,
            btb_misses: 0,
            fetch_stall_cycles: 0,
            stall_cause: StallCause::None,
            stall_icache: 0,
            stall_branch: 0,
            stall_btb: 0,
            cfg: cfg.clone(),
        }
    }

    pub(crate) fn run(mut self) -> SimResult {
        let mut last_progress = (0u64, 0u64); // (cycle, committed)
        while self.committed < self.target {
            self.cycle += 1;
            let committed = self.commit();
            let issued = self.issue();
            let dispatched = self.dispatch();
            let tail = self.fetch_tail;
            self.fetch();
            let fetched = self.fetch_tail != tail;
            // Idle-cycle skip: when nothing moved, jump to the next known
            // event (a completion, a wakeup or a fetch redirect). Stall
            // counters are advanced as if the cycles had been stepped.
            if committed == 0 && issued == 0 && dispatched == 0 && !fetched {
                if let Some(next) = self.next_event() {
                    if next > self.cycle + 1 {
                        let skipped = next - 1 - self.cycle;
                        if self.stalled_on_branch.is_some() || self.cycle < self.fetch_stall_until {
                            self.charge_stall(skipped);
                        }
                        self.cycle = next - 1;
                    }
                }
            }
            if self.warmup_snapshot.is_none() && self.committed >= self.warmup {
                self.warmup_snapshot = Some(Snapshot {
                    cycle: self.cycle,
                    committed: self.committed,
                    branches: self.branches,
                    mispredicts: self.mispredicts,
                    btb_misses: self.btb_misses,
                    fetch_stall_cycles: self.fetch_stall_cycles,
                    stall_icache: self.stall_icache,
                    stall_branch: self.stall_branch,
                    stall_btb: self.stall_btb,
                    mem: self.mem.stats(),
                });
            }
            // Nothing left in the reorder buffer or the fetch queue.
            if self.trace_exhausted() && self.head == self.fetch_tail {
                break;
            }
            // Forward-progress watchdog: a structural deadlock is a
            // simulator bug and must be loud, not a hang.
            if self.committed > last_progress.1 {
                last_progress = (self.cycle, self.committed);
            } else {
                assert!(
                    self.cycle - last_progress.0 < 1_000_000,
                    "simulator deadlock at cycle {} ({} committed)",
                    self.cycle,
                    self.committed
                );
            }
        }
        let base = self.warmup_snapshot.unwrap_or_default();
        let mem = self.mem.stats();
        SimResult {
            instructions: self.committed - base.committed,
            cycles: self.cycle - base.cycle,
            l1i_misses: mem.l1i_misses - base.mem.l1i_misses,
            l1d_misses: mem.l1d_misses - base.mem.l1d_misses,
            l2_misses: mem.l2_misses - base.mem.l2_misses,
            branches: self.branches - base.branches,
            mispredicts: self.mispredicts - base.mispredicts,
            btb_misses: self.btb_misses - base.btb_misses,
            l2_bus_busy: mem.l2_bus_busy - base.mem.l2_bus_busy,
            fsb_busy: mem.fsb_busy - base.mem.fsb_busy,
            fetch_stall_cycles: self.fetch_stall_cycles - base.fetch_stall_cycles,
            icache_stall_cycles: self.stall_icache - base.stall_icache,
            branch_stall_cycles: self.stall_branch - base.stall_branch,
            btb_stall_cycles: self.stall_btb - base.stall_btb,
        }
    }

    fn trace_exhausted(&self) -> bool {
        self.trace_done && self.pending.is_none()
    }

    fn rob_len(&self) -> u64 {
        self.seq - self.head
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.rob_mask) as usize
    }

    fn commit(&mut self) -> u32 {
        let mut committed = 0;
        for _ in 0..self.cfg.width {
            if self.committed >= self.target || self.rob_len() == 0 {
                break;
            }
            let entry = &self.rob[self.slot(self.head)];
            // Unissued entries complete at `u64::MAX`.
            if entry.complete > self.cycle {
                break;
            }
            let (op, addr) = (entry.op, entry.addr);
            self.head += 1;
            if op == OpClass::Store {
                self.mem.store(addr, self.cycle);
            }
            self.free += HOLDS[op.index()];
            // No lane may hold more than it started with.
            debug_assert_eq!(((self.capacity | TOP) - self.free) & TOP, TOP);
            self.committed += 1;
            committed += 1;
        }
        committed
    }

    /// Issues ready entries oldest first; returns how many issued.
    fn issue(&mut self) -> u32 {
        let cycle = self.cycle;
        self.ready.absorb(&mut self.soon);
        while let Some(&Reverse(key)) = self.wake.peek() {
            if key >> SLOT_BITS > cycle {
                break;
            }
            self.wake.pop();
            self.ready.insert(key as usize & ((1 << SLOT_BITS) - 1));
        }
        if self.ready.is_empty() {
            return 0;
        }
        let mut issued = 0u32;
        let mut used = [0u32; UNITS];
        // Age order is slot order starting at the head's slot: its word
        // from the head's bit up, the other words in turn, then the
        // head's word below its bit. Entries a busy unit turns away stay
        // ready for the next cycle.
        let words = self.ready.words.len();
        let head = self.slot(self.head);
        let upper = u64::MAX << (head % 64);
        let mut unvisited = self.ready.len;
        'walk: for step in 0..=words {
            // `words` is a power of two, like the slot count.
            let word = (head / 64 + step) & (words - 1);
            let mask = match step {
                0 => upper,
                s if s == words => !upper,
                _ => u64::MAX,
            };
            let mut bits = self.ready.words[word] & mask;
            while bits != 0 {
                if issued >= self.cfg.width || unvisited == 0 {
                    break 'walk;
                }
                unvisited -= 1;
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let slot = word * 64 + bit as usize;
                let RobEntry { op, addr, .. } = self.rob[slot];
                let unit = UNIT[op.index()];
                if used[unit] == self.unit_limits[unit] {
                    continue;
                }
                used[unit] += 1;
                let executed = cycle + LATENCY[op.index()];
                let complete = if op == OpClass::Load {
                    self.mem.load(addr, executed)
                } else {
                    executed
                };
                self.ready.remove(slot);
                self.complete(slot, complete);
                issued += 1;
            }
        }
        issued
    }

    /// Makes the entry at `slot` issuable from cycle `ready_at` on.
    fn schedule(&mut self, slot: usize, ready_at: u64) {
        if ready_at <= self.cycle + 1 {
            self.soon.insert(slot);
        } else {
            self.wake.push(Reverse(ready_at << SLOT_BITS | slot as u64));
        }
    }

    /// Records that the entry at `slot` completes at `complete`, redirects
    /// the front end if it is the mispredicted branch fetch waits on, and
    /// schedules every consumer whose last producer this was.
    fn complete(&mut self, slot: usize, complete: u64) {
        let entry = &mut self.rob[slot];
        entry.complete = complete;
        let mut link = std::mem::replace(&mut entry.consumers, NIL);
        if self.stalled_on_branch == Some(entry.seq) {
            // Redirect the front end when the branch resolves, plus the
            // frequency-derived minimum pipeline-refill penalty.
            let penalty = self.mem.timing().mispredict_penalty;
            self.fetch_stall_until = complete + penalty;
            self.stall_cause = StallCause::Branch;
            self.stalled_on_branch = None;
        }
        while link != NIL {
            let consumer_slot = (link >> 1) as usize;
            let consumer = &mut self.rob[consumer_slot];
            link = consumer.next[(link & 1) as usize];
            consumer.ready_at = consumer.ready_at.max(complete);
            consumer.waiting -= 1;
            if consumer.waiting == 0 {
                let ready_at = consumer.ready_at;
                self.schedule(consumer_slot, ready_at);
            }
        }
    }

    /// Earliest future cycle at which anything can change, used to skip
    /// idle cycles. `None` when no bound is known.
    fn next_event(&self) -> Option<u64> {
        // Called only after a cycle in which nothing issued or dispatched:
        // nothing was scheduled, and with every issue limit at least one,
        // nothing was left ready.
        debug_assert!(self.ready.is_empty() && self.soon.is_empty());
        let mut t = u64::MAX;
        if self.rob_len() > 0 {
            t = self.rob[self.slot(self.head)].complete;
        }
        if let Some(&Reverse(key)) = self.wake.peek() {
            t = t.min((key >> SLOT_BITS).max(self.cycle + 1));
        }
        if self.stalled_on_branch.is_none() && self.cycle < self.fetch_stall_until {
            t = t.min(self.fetch_stall_until);
        }
        (t != u64::MAX).then_some(t)
    }

    fn dispatch(&mut self) -> u32 {
        let mut dispatched = 0;
        for _ in 0..self.cfg.width {
            if self.rob_len() >= u64::from(self.cfg.rob_size) || self.seq == self.fetch_tail {
                break;
            }
            let instr = self.fetch_q[(self.seq & self.fetch_mask) as usize];
            // Take every structural resource of the class at once: a lane
            // with nothing free borrows its guard bit.
            let left = (self.free | TOP) - HOLDS[instr.op.index()];
            if left & TOP != TOP {
                break;
            }
            self.free = left ^ TOP;
            self.allocate(instr);
            dispatched += 1;
        }
        dispatched
    }

    /// Places `instr`, the head of the fetch queue, at the tail of the
    /// reorder buffer and links it to the producers it still waits on.
    fn allocate(&mut self, instr: Fetched) {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.slot(seq);
        let mut entry = RobEntry {
            seq,
            addr: instr.addr,
            complete: u64::MAX,
            ready_at: 0,
            consumers: NIL,
            next: [NIL; 2],
            waiting: 0,
            op: instr.op,
        };
        for (operand, distance) in [instr.dep1, instr.dep2].into_iter().enumerate() {
            // Both operands may name one producer: wait on it once.
            if distance == 0 || (operand == 1 && distance == instr.dep1) {
                continue;
            }
            // A producer that has left the reorder buffer committed, so it
            // completed by this cycle and cannot delay this instruction.
            let producer = match seq.checked_sub(u64::from(distance)) {
                Some(p) if p >= self.head => p,
                _ => continue,
            };
            let producer = &mut self.rob[(producer & self.rob_mask) as usize];
            if producer.complete == u64::MAX {
                entry.next[operand] = producer.consumers;
                producer.consumers = (slot as u32) << 1 | operand as u32;
                entry.waiting += 1;
            } else {
                entry.ready_at = entry.ready_at.max(producer.complete);
            }
        }
        self.rob[slot] = entry;
        if entry.waiting == 0 {
            self.schedule(slot, entry.ready_at);
        }
    }

    fn next_instr(&mut self) -> Option<Instruction> {
        if let Some(i) = self.pending.take() {
            return Some(i);
        }
        let next = self.trace.next();
        if next.is_none() {
            self.trace_done = true;
        }
        next
    }

    fn charge_stall(&mut self, cycles: u64) {
        self.fetch_stall_cycles += cycles;
        match self.stall_cause {
            StallCause::Icache => self.stall_icache += cycles,
            StallCause::Btb => self.stall_btb += cycles,
            // Waiting on an unresolved mispredicted branch, or in its
            // post-resolution refill window.
            StallCause::Branch | StallCause::None => self.stall_branch += cycles,
        }
    }

    fn fetch(&mut self) {
        if self.stalled_on_branch.is_some() {
            self.stall_cause = StallCause::Branch;
            self.charge_stall(1);
            return;
        }
        if self.cycle < self.fetch_stall_until {
            self.charge_stall(1);
            return;
        }
        self.stall_cause = StallCause::None;
        let cap = fetch_queue_cap(&self.cfg) as u64;
        let mut fetched = 0;
        while fetched < self.cfg.width && self.fetch_tail - self.seq < cap {
            let Some(instr) = self.next_instr() else {
                break;
            };
            // Instruction cache: one access per new block.
            let block = self.mem.l1i_block_of(instr.pc);
            if block != self.last_fetch_block {
                if self.mem.l1i_has(instr.pc) {
                    self.mem.fetch(instr.pc, self.cycle);
                    self.last_fetch_block = block;
                } else {
                    let ready = self.mem.fetch(instr.pc, self.cycle);
                    self.last_fetch_block = block;
                    self.fetch_stall_until = ready;
                    self.stall_cause = StallCause::Icache;
                    self.pending = Some(instr);
                    return;
                }
            }
            fetched += 1;
            let (mut mispredicted, mut ends_group) = (false, false);
            if instr.op == OpClass::Branch {
                self.branches += 1;
                let predicted = self.predictor.predict_and_update(instr.pc, instr.taken);
                mispredicted = predicted != instr.taken;
                if predicted {
                    // Need a target from the BTB; a miss costs a bubble.
                    if !self.btb.lookup_and_update(instr.pc, instr.target) {
                        self.btb_misses += 1;
                        self.fetch_stall_until = self.cycle + BTB_BUBBLE;
                        self.stall_cause = StallCause::Btb;
                    }
                    ends_group = true; // taken branches end the fetch group
                }
            }
            self.fetch_q[(self.fetch_tail & self.fetch_mask) as usize] = Fetched {
                addr: instr.addr,
                dep1: instr.dep1,
                dep2: instr.dep2,
                op: instr.op,
            };
            self.fetch_tail += 1;
            if mispredicted {
                self.mispredicts += 1;
                // Fetch goes down the wrong path; it resumes when the
                // branch resolves (see `issue`).
                self.stalled_on_branch = Some(self.fetch_tail - 1);
                return;
            }
            if ends_group {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use archpredict_workloads::{Benchmark, TraceGenerator};

    fn run(cfg: &SimConfig, benchmark: Benchmark, n: u64) -> SimResult {
        let generator = TraceGenerator::new(benchmark);
        crate::simulate_with_warmup(cfg, generator.interval(0), n / 2, n)
    }

    #[test]
    fn deterministic() {
        let cfg = SimConfig::default();
        let a = run(&cfg, Benchmark::Gzip, 5000);
        let b = run(&cfg, Benchmark::Gzip, 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn commits_exactly_target() {
        let cfg = SimConfig::default();
        let r = run(&cfg, Benchmark::Mesa, 3000);
        assert_eq!(r.instructions, 3000);
        assert!(r.cycles > 0);
    }

    #[test]
    fn ipc_is_bounded_by_width() {
        let cfg = SimConfig::default();
        for b in Benchmark::ALL {
            let r = run(&cfg, b, 8000);
            let ipc = r.ipc();
            assert!(
                ipc > 0.02 && ipc <= cfg.width as f64,
                "{}: ipc {ipc}",
                b.name()
            );
        }
    }

    #[test]
    fn memory_bound_app_has_low_ipc() {
        let cfg = SimConfig::default();
        let mcf = run(&cfg, Benchmark::Mcf, 8000);
        let gzip = run(&cfg, Benchmark::Gzip, 8000);
        assert!(
            mcf.ipc() < gzip.ipc(),
            "mcf {} should trail gzip {}",
            mcf.ipc(),
            gzip.ipc()
        );
    }

    #[test]
    fn bigger_l1d_helps_cache_sensitive_app() {
        let mut small = SimConfig::default();
        small.l1d.capacity_bytes = 8 * 1024;
        let mut large = SimConfig::default();
        large.l1d.capacity_bytes = 64 * 1024;
        let rs = run(&small, Benchmark::Twolf, 10_000);
        let rl = run(&large, Benchmark::Twolf, 10_000);
        assert!(rs.l1d_misses > rl.l1d_misses);
        assert!(rl.ipc() > rs.ipc(), "{} !> {}", rl.ipc(), rs.ipc());
    }

    #[test]
    fn bigger_l2_helps_l2_sensitive_app() {
        let mut small = SimConfig::default();
        small.l2.capacity_bytes = 256 * 1024;
        let mut large = SimConfig::default();
        large.l2.capacity_bytes = 2048 * 1024;
        let rs = run(&small, Benchmark::Equake, 12_000);
        let rl = run(&large, Benchmark::Equake, 12_000);
        assert!(rs.l2_misses > rl.l2_misses);
    }

    #[test]
    fn wider_machine_is_not_slower() {
        let narrow = SimConfig {
            width: 4,
            ..SimConfig::default()
        };
        let wide = SimConfig {
            width: 8,
            functional_units: 8,
            ..SimConfig::default()
        };
        let rn = run(&narrow, Benchmark::Mgrid, 8000);
        let rw = run(&wide, Benchmark::Mgrid, 8000);
        assert!(rw.ipc() >= rn.ipc() * 0.98, "{} vs {}", rw.ipc(), rn.ipc());
    }

    #[test]
    fn branch_stats_are_sane() {
        let cfg = SimConfig::default();
        let r = run(&cfg, Benchmark::Crafty, 10_000);
        assert!(r.branches > 500);
        let rate = r.mispredict_rate();
        assert!((0.01..0.40).contains(&rate), "rate {rate}");
    }

    #[test]
    fn frequency_tradeoff_materializes() {
        // At 2 GHz memory is relatively closer: IPC should be at least as
        // high as at 4 GHz for a memory-bound code.
        let slow = SimConfig {
            freq_ghz: 2.0,
            ..SimConfig::default()
        };
        let fast = SimConfig {
            freq_ghz: 4.0,
            ..SimConfig::default()
        };
        let r2 = run(&slow, Benchmark::Mcf, 8000);
        let r4 = run(&fast, Benchmark::Mcf, 8000);
        assert!(r2.ipc() >= r4.ipc(), "{} vs {}", r2.ipc(), r4.ipc());
    }

    #[test]
    fn write_policy_changes_behavior() {
        let wb = SimConfig::default();
        let mut wt = SimConfig::default();
        wt.l1d.write_policy = crate::config::WritePolicy::WriteThrough;
        let rb = run(&wb, Benchmark::Gzip, 8000);
        let rt = run(&wt, Benchmark::Gzip, 8000);
        assert_ne!(rb.cycles, rt.cycles);
        assert!(rt.l2_bus_busy > rb.l2_bus_busy, "WT must add bus traffic");
    }

    #[test]
    fn stall_attribution_sums_and_responds() {
        let cfg = SimConfig::default();
        let r = run(&cfg, Benchmark::Crafty, 10_000);
        assert_eq!(
            r.fetch_stall_cycles,
            r.icache_stall_cycles + r.branch_stall_cycles + r.btb_stall_cycles,
            "attribution must partition the total"
        );
        // crafty is branchy with a large code footprint: both major causes
        // must register.
        assert!(r.branch_stall_cycles > 0);
        // A tiny L1I must shift stalls toward the I-cache.
        let mut small_icache = SimConfig::default();
        small_icache.l1i.capacity_bytes = 8 * 1024;
        small_icache.l1i.associativity = 1;
        let rs = run(&small_icache, Benchmark::Crafty, 10_000);
        assert!(
            rs.icache_stall_cycles > r.icache_stall_cycles,
            "{} !> {}",
            rs.icache_stall_cycles,
            r.icache_stall_cycles
        );
    }

    #[test]
    fn banked_sdram_helps_streaming_workloads() {
        let flat = SimConfig::default();
        let banked = SimConfig {
            sdram_banks: 8,
            ..SimConfig::default()
        };
        let rf = run(&flat, Benchmark::Applu, 10_000);
        let rb = run(&banked, Benchmark::Applu, 10_000);
        // applu streams rows: the open-row model must not be slower, and
        // usually wins outright.
        assert!(
            rb.ipc() >= rf.ipc() * 0.98,
            "banked {} vs flat {}",
            rb.ipc(),
            rf.ipc()
        );
    }

    #[test]
    fn lookahead_bounds_the_instructions_pulled() {
        for (width, rob_size) in [(4, 128), (8, 160), (6, 96), (2, 24)] {
            let cfg = SimConfig {
                width,
                rob_size,
                ..SimConfig::default()
            };
            for b in Benchmark::ALL {
                let generator = TraceGenerator::new(b);
                let pulled = std::cell::Cell::new(0u64);
                let trace = generator
                    .interval(1)
                    .inspect(|_| pulled.set(pulled.get() + 1));
                crate::simulate_with_warmup(&cfg, trace, 500, 2_000);
                assert!(
                    pulled.get() <= 2_500 + lookahead(&cfg),
                    "{}: pulled {} with width {width}, rob {rob_size}",
                    b.name(),
                    pulled.get()
                );
            }
        }
    }

    #[test]
    fn finite_trace_drains() {
        let cfg = SimConfig::default();
        let generator = TraceGenerator::new(Benchmark::Gzip);
        let trace: Vec<_> = generator.interval(0).take(500).collect();
        let r = simulate(&cfg, trace.into_iter(), 10_000);
        assert_eq!(r.instructions, 500);
    }
}
