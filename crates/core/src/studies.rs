//! The paper's two sensitivity studies (Tables 4.1 and 4.2).
//!
//! [`Study::MemorySystem`] spans the memory-hierarchy space of Table 4.1
//! (23,040 points per application); [`Study::Processor`] spans the
//! microprocessor space of Table 4.2 (20,736 points per application,
//! including the ROB-dependent register-file rule). [`Study::config_at`]
//! maps a design point to a full simulator configuration, applying every
//! fixed parameter and dependency the paper specifies (dependent cache
//! associativities, CACTI-derived latencies, frequency-derived
//! misprediction penalties).

use crate::param::Param;
use crate::space::{DesignPoint, DesignSpace};
use archpredict_sim::{CacheParams, SimConfig, WritePolicy};
use std::sync::OnceLock;

const KB: f64 = 1024.0;

/// Which of the paper's studies a space/configuration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Study {
    /// Table 4.1: memory-system parameters, fixed 4 GHz core.
    MemorySystem,
    /// Table 4.2: processor parameters.
    Processor,
}

impl Study {
    /// Both studies.
    pub const ALL: [Study; 2] = [Study::MemorySystem, Study::Processor];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Study::MemorySystem => "memory",
            Study::Processor => "processor",
        }
    }

    /// Parses a study from its lower-case name.
    pub fn from_name(name: &str) -> Option<Study> {
        Study::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// The study's design space: a clone of one built once per process,
    /// sharing its tables.
    pub fn space(self) -> DesignSpace {
        static MEMORY: OnceLock<DesignSpace> = OnceLock::new();
        static PROCESSOR: OnceLock<DesignSpace> = OnceLock::new();
        match self {
            Study::MemorySystem => MEMORY.get_or_init(memory_space),
            Study::Processor => PROCESSOR.get_or_init(processor_space),
        }
        .clone()
    }

    /// Maps a design point of this study's space to a simulator
    /// configuration (fixed parameters per the tables' right-hand sides).
    ///
    /// # Panics
    ///
    /// Panics if `point` does not belong to this study's `space`.
    pub fn config_at(self, space: &DesignSpace, point: &DesignPoint) -> SimConfig {
        match self {
            Study::MemorySystem => memory_config(space, point),
            Study::Processor => processor_config(space, point),
        }
    }

    /// The standard simulation oracle for this study and `benchmark`: the
    /// full-detail [`StudyEvaluator`](crate::simulate::StudyEvaluator)
    /// behind a sharded, deduplicating
    /// [`CachedEvaluator`](crate::simulate::CachedEvaluator).
    pub fn oracle(
        self,
        benchmark: archpredict_workloads::Benchmark,
    ) -> crate::simulate::CachedEvaluator<crate::simulate::StudyEvaluator> {
        crate::simulate::CachedEvaluator::new(
            crate::simulate::StudyEvaluator::new(self, benchmark),
            self.space(),
        )
    }
}

impl std::fmt::Display for Study {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The memory-system design space of Table 4.1 (23,040 points).
pub fn memory_space() -> DesignSpace {
    DesignSpace::new(vec![
        Param::cardinal("l1d_size", [8.0 * KB, 16.0 * KB, 32.0 * KB, 64.0 * KB]),
        Param::cardinal("l1d_block", [32.0, 64.0]),
        Param::cardinal("l1d_assoc", [1.0, 2.0, 4.0, 8.0]),
        Param::nominal("l1_write_policy", ["WT", "WB"]),
        Param::cardinal(
            "l2_size",
            [256.0 * KB, 512.0 * KB, 1024.0 * KB, 2048.0 * KB],
        ),
        Param::cardinal("l2_block", [64.0, 128.0]),
        Param::cardinal("l2_assoc", [1.0, 2.0, 4.0, 8.0, 16.0]),
        Param::cardinal("l2_bus_bytes", [8.0, 16.0, 32.0]),
        Param::cardinal("fsb_ghz", [0.533, 0.8, 1.4]),
    ])
    .expect("static space is valid")
}

fn memory_config(space: &DesignSpace, point: &DesignPoint) -> SimConfig {
    let policy = if space.choice(point, "l1_write_policy") == "WT" {
        WritePolicy::WriteThrough
    } else {
        WritePolicy::WriteBack
    };
    SimConfig {
        l1d: CacheParams {
            capacity_bytes: space.number(point, "l1d_size") as u64,
            associativity: space.number(point, "l1d_assoc") as u32,
            block_bytes: space.number(point, "l1d_block") as u32,
            write_policy: policy,
        },
        l2: CacheParams::write_back(
            space.number(point, "l2_size") as u64,
            space.number(point, "l2_assoc") as u32,
            space.number(point, "l2_block") as u32,
        ),
        l2_bus_bytes: space.number(point, "l2_bus_bytes") as u32,
        fsb_ghz: space.number(point, "fsb_ghz"),
        // Fixed side of Table 4.1 is the simulator default machine.
        ..SimConfig::default()
    }
}

/// The processor design space of Table 4.2 (20,736 points).
pub fn processor_space() -> DesignSpace {
    DesignSpace::new(vec![
        Param::cardinal("width", [4.0, 6.0, 8.0]),
        Param::cardinal("freq_ghz", [2.0, 4.0]),
        Param::cardinal("max_branches", [16.0, 32.0]),
        Param::cardinal("predictor_entries", [1024.0, 2048.0, 4096.0]),
        Param::cardinal("btb_sets", [1024.0, 2048.0]),
        Param::cardinal("functional_units", [4.0, 8.0]),
        Param::cardinal("rob_size", [96.0, 128.0, 160.0]),
        // Register file: two choices per ROB size (Table 4.2).
        Param::linked_cardinal(
            "register_file",
            6,
            vec![vec![64.0, 80.0], vec![80.0, 96.0], vec![96.0, 112.0]],
        ),
        Param::cardinal("lsq_entries", [32.0, 48.0, 64.0]),
        Param::cardinal("l1i_size", [8.0 * KB, 32.0 * KB]),
        Param::cardinal("l1d_size", [8.0 * KB, 32.0 * KB]),
        Param::cardinal("l2_size", [256.0 * KB, 1024.0 * KB]),
    ])
    .expect("static space is valid")
}

fn processor_config(space: &DesignSpace, point: &DesignPoint) -> SimConfig {
    let l1i_size = space.number(point, "l1i_size") as u64;
    let l1d_size = space.number(point, "l1d_size") as u64;
    let l2_size = space.number(point, "l2_size") as u64;
    // Dependent associativities per Table 4.2's right-hand side.
    let l1_assoc = |size: u64| if size <= 8 * 1024 { 1 } else { 2 };
    let l2_assoc = if l2_size <= 256 * 1024 { 4 } else { 8 };
    let regs = space.number(point, "register_file") as u32;
    let lsq = space.number(point, "lsq_entries") as u32;
    SimConfig {
        freq_ghz: space.number(point, "freq_ghz"),
        width: space.number(point, "width") as u32,
        rob_size: space.number(point, "rob_size") as u32,
        int_regs: regs,
        fp_regs: regs,
        lsq_loads: lsq,
        lsq_stores: lsq,
        max_branches: space.number(point, "max_branches") as u32,
        functional_units: space.number(point, "functional_units") as u32,
        predictor_entries: space.number(point, "predictor_entries") as u32,
        btb_sets: space.number(point, "btb_sets") as u32,
        l1i: CacheParams::write_back(l1i_size, l1_assoc(l1i_size), 32),
        l1d: CacheParams::write_back(l1d_size, l1_assoc(l1d_size), 32),
        l2: CacheParams::write_back(l2_size, l2_assoc, 64),
        l2_bus_bytes: 32,
        fsb_ghz: 0.8,
        ..SimConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_sizes_match_the_paper() {
        assert_eq!(memory_space().size(), 23_040, "Table 4.1");
        assert_eq!(processor_space().size(), 20_736, "Table 4.2");
    }

    #[test]
    fn every_memory_point_yields_a_valid_config() {
        let space = memory_space();
        // Exhaustively validating 23K configs is cheap (validation only).
        for i in (0..space.size()).step_by(7) {
            let point = space.point(i);
            let config = Study::MemorySystem.config_at(&space, &point);
            config.derive().unwrap_or_else(|e| panic!("point {i}: {e}"));
            assert_eq!(config.freq_ghz, 4.0, "core fixed at 4 GHz");
            assert_eq!(config.width, 4);
        }
    }

    #[test]
    fn every_processor_point_yields_a_valid_config() {
        let space = processor_space();
        for i in (0..space.size()).step_by(5) {
            let point = space.point(i);
            let config = Study::Processor.config_at(&space, &point);
            config.derive().unwrap_or_else(|e| panic!("point {i}: {e}"));
        }
    }

    #[test]
    fn register_file_respects_rob_link() {
        let space = processor_space();
        for i in (0..space.size()).step_by(11) {
            let point = space.point(i);
            let rob = space.number(&point, "rob_size");
            let regs = space.number(&point, "register_file");
            let allowed: &[f64] = match rob as u32 {
                96 => &[64.0, 80.0],
                128 => &[80.0, 96.0],
                160 => &[96.0, 112.0],
                _ => unreachable!(),
            };
            assert!(allowed.contains(&regs), "rob {rob} regs {regs}");
        }
    }

    #[test]
    fn dependent_associativities_follow_the_table() {
        let space = processor_space();
        let point = space.point(0);
        let config = Study::Processor.config_at(&space, &point);
        // 8KB L1s are direct-mapped; 256KB L2 is 4-way.
        if config.l1d.capacity_bytes == 8 * 1024 {
            assert_eq!(config.l1d.associativity, 1);
        }
        // Find a point with the big caches.
        let big = (0..space.size())
            .map(|i| space.point(i))
            .find(|p| {
                space.number(p, "l1d_size") == 32.0 * KB
                    && space.number(p, "l2_size") == 1024.0 * KB
            })
            .expect("exists");
        let config = Study::Processor.config_at(&space, &big);
        assert_eq!(config.l1d.associativity, 2);
        assert_eq!(config.l2.associativity, 8);
    }

    #[test]
    fn memory_point_maps_every_varied_field() {
        let space = memory_space();
        let point = space.point(space.size() - 1);
        let config = Study::MemorySystem.config_at(&space, &point);
        assert_eq!(config.l1d.capacity_bytes, 64 * 1024);
        assert_eq!(config.l1d.block_bytes, 64);
        assert_eq!(config.l1d.associativity, 8);
        assert_eq!(config.l1d.write_policy, WritePolicy::WriteBack);
        assert_eq!(config.l2.capacity_bytes, 2048 * 1024);
        assert_eq!(config.l2.block_bytes, 128);
        assert_eq!(config.l2.associativity, 16);
        assert_eq!(config.l2_bus_bytes, 32);
        assert_eq!(config.fsb_ghz, 1.4);
    }
}
