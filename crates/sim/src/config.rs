//! Simulator configuration.
//!
//! [`SimConfig`] carries every parameter of the paper's two design spaces
//! (Tables 4.1 and 4.2) plus the fixed machine parameters. Cache latencies
//! and the branch misprediction penalty are *derived* — via the CACTI-style
//! model and the frequency rule the paper describes — rather than set by
//! hand, so a configuration is fully determined by its architectural knobs.

use archpredict_cacti::{access_time_ns, cycles_at_ghz, CacheGeometry, GeometryError};

/// L1 data cache write policy (Table 4.1 varies this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-through, no write-allocate: stores propagate to L2.
    WriteThrough,
    /// Write-back, write-allocate: dirty lines written on eviction.
    WriteBack,
}

impl std::fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WritePolicy::WriteThrough => "WT",
            WritePolicy::WriteBack => "WB",
        })
    }
}

/// Geometry + policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Line size in bytes.
    pub block_bytes: u32,
    /// Write policy (only meaningful for the L1 data cache; L2 is
    /// write-back, per Table 4.2).
    pub write_policy: WritePolicy,
}

impl CacheParams {
    /// Write-back cache with the given geometry.
    pub fn write_back(capacity_bytes: u64, associativity: u32, block_bytes: u32) -> Self {
        Self {
            capacity_bytes,
            associativity,
            block_bytes,
            write_policy: WritePolicy::WriteBack,
        }
    }

    /// Validated CACTI geometry for this cache.
    ///
    /// # Errors
    ///
    /// Propagates [`GeometryError`] for invalid dimensions.
    pub fn geometry(&self) -> Result<CacheGeometry, GeometryError> {
        CacheGeometry::new(self.capacity_bytes, self.associativity, self.block_bytes)
    }
}

/// Full machine configuration.
///
/// Defaults (via [`SimConfig::default`]) reproduce the *fixed* machine of
/// the memory-system study (right side of Table 4.1): a 4 GHz, 4-wide
/// out-of-order core with a 128-entry ROB, 96+96 registers, 48/48 LSQ,
/// 2/2 load-store units, a 32 KB 2-cycle L1I, tournament predictor, 100 ns
/// SDRAM, and a 64-bit 800 MHz front-side bus.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Core clock in GHz (Table 4.2 varies 2 and 4).
    pub freq_ghz: f64,
    /// Fetch = issue = commit width in instructions (Tables 4.1/4.2).
    pub width: u32,
    /// Reorder buffer entries.
    pub rob_size: u32,
    /// Integer physical registers beyond the architectural set.
    pub int_regs: u32,
    /// FP physical registers beyond the architectural set.
    pub fp_regs: u32,
    /// Load-queue entries.
    pub lsq_loads: u32,
    /// Store-queue entries.
    pub lsq_stores: u32,
    /// Maximum branches in flight (Table 4.2 varies 16/32).
    pub max_branches: u32,
    /// Total simple functional units; integer ALU throughput equals this,
    /// FP throughput is half, multiply/divide a quarter (minimum one each).
    pub functional_units: u32,
    /// Load ports per cycle (fixed 2 in both studies).
    pub load_ports: u32,
    /// Store ports per cycle (fixed 2 in both studies).
    pub store_ports: u32,
    /// Tournament (21264-style) predictor capacity in entries per table.
    pub predictor_entries: u32,
    /// Branch target buffer sets (2-way, per Table 4.2).
    pub btb_sets: u32,
    /// L1 instruction cache.
    pub l1i: CacheParams,
    /// L1 data cache.
    pub l1d: CacheParams,
    /// Unified L2 cache (write-back).
    pub l2: CacheParams,
    /// L2 bus width in bytes (Table 4.1 varies 8/16/32; runs at core clock).
    pub l2_bus_bytes: u32,
    /// Front-side bus frequency in GHz (Table 4.1 varies 0.533/0.8/1.4).
    pub fsb_ghz: f64,
    /// Front-side bus width in bytes (64 bits in both studies).
    pub fsb_bytes: u32,
    /// SDRAM access latency in nanoseconds (100 ns in both studies).
    pub sdram_ns: f64,
    /// Next-line L1D prefetch on demand misses (an extension knob; both
    /// paper studies run with it disabled).
    pub prefetch_nextline: bool,
    /// SDRAM banks for the open-row-aware memory model (an extension knob;
    /// `0` selects the paper's flat 100 ns SDRAM). Must be a power of two.
    pub sdram_banks: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            freq_ghz: 4.0,
            width: 4,
            rob_size: 128,
            int_regs: 96,
            fp_regs: 96,
            lsq_loads: 48,
            lsq_stores: 48,
            max_branches: 32,
            functional_units: 4,
            load_ports: 2,
            store_ports: 2,
            predictor_entries: 4096,
            btb_sets: 2048,
            l1i: CacheParams::write_back(32 * 1024, 2, 32),
            l1d: CacheParams::write_back(32 * 1024, 4, 32),
            l2: CacheParams::write_back(1024 * 1024, 8, 64),
            l2_bus_bytes: 32,
            fsb_ghz: 0.8,
            fsb_bytes: 8,
            sdram_ns: 100.0,
            prefetch_nextline: false,
            sdram_banks: 0,
        }
    }
}

impl SimConfig {
    /// The largest reorder buffer the engine simulates: its packed words
    /// hold a free-resource count of at most `rob_size` per lane and a
    /// reorder-buffer slot under each wakeup cycle.
    pub const MAX_ROB_SIZE: u32 = 2047;

    /// Validates the configuration and computes all derived timing
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero/invalid fields or cache geometries.
    pub fn derive(&self) -> Result<DerivedTiming, ConfigError> {
        if !(self.freq_ghz > 0.0 && self.freq_ghz.is_finite()) {
            return Err(ConfigError::Frequency(self.freq_ghz));
        }
        if !(self.fsb_ghz > 0.0 && self.fsb_ghz.is_finite()) {
            return Err(ConfigError::Frequency(self.fsb_ghz));
        }
        for (field, v) in [
            ("width", self.width),
            ("rob_size", self.rob_size),
            ("int_regs", self.int_regs),
            ("fp_regs", self.fp_regs),
            ("lsq_loads", self.lsq_loads),
            ("lsq_stores", self.lsq_stores),
            ("max_branches", self.max_branches),
            ("functional_units", self.functional_units),
            ("load_ports", self.load_ports),
            ("store_ports", self.store_ports),
            ("l2_bus_bytes", self.l2_bus_bytes),
            ("fsb_bytes", self.fsb_bytes),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroField(field));
            }
        }
        if self.rob_size > Self::MAX_ROB_SIZE {
            return Err(ConfigError::RobSize(self.rob_size));
        }
        if !self.predictor_entries.is_power_of_two() {
            return Err(ConfigError::PredictorEntries(self.predictor_entries));
        }
        if !self.btb_sets.is_power_of_two() {
            return Err(ConfigError::BtbSets(self.btb_sets));
        }
        if self.sdram_ns <= 0.0 || !self.sdram_ns.is_finite() {
            return Err(ConfigError::SdramLatency(self.sdram_ns));
        }
        if self.sdram_banks != 0 && !self.sdram_banks.is_power_of_two() {
            return Err(ConfigError::SdramBanks(self.sdram_banks));
        }
        let l1i = self.l1i.geometry().map_err(ConfigError::L1i)?;
        let l1d = self.l1d.geometry().map_err(ConfigError::L1d)?;
        let l2 = self.l2.geometry().map_err(ConfigError::L2)?;
        if self.l2.block_bytes < self.l1d.block_bytes || self.l2.block_bytes < self.l1i.block_bytes
        {
            return Err(ConfigError::BlockInversion);
        }

        let l1i_lat = cycles_at_ghz(access_time_ns(l1i), self.freq_ghz) as u64;
        let l1d_lat = cycles_at_ghz(access_time_ns(l1d), self.freq_ghz) as u64;
        let l2_lat = cycles_at_ghz(access_time_ns(l2), self.freq_ghz) as u64;
        // Minimum branch misprediction penalty scales with pipeline depth,
        // i.e. with frequency: 11 cycles at 2 GHz, 20 at 4 GHz (paper §4).
        let mispredict_penalty = ((5.0 * self.freq_ghz).round() as u64).max(11);
        let dram_cycles = (self.sdram_ns * self.freq_ghz).ceil() as u64;
        // FSB transfer of one L2 block, in core cycles.
        let fsb_beats = self.l2.block_bytes.div_ceil(self.fsb_bytes) as f64;
        let fsb_block_cycles = (fsb_beats * self.freq_ghz / self.fsb_ghz).ceil() as u64;
        // L2-bus transfer (runs at core frequency) of one L1 block.
        let l2_bus_l1_block = self.l1d.block_bytes.div_ceil(self.l2_bus_bytes) as u64;
        let l2_bus_l1i_block = self.l1i.block_bytes.div_ceil(self.l2_bus_bytes) as u64;
        // A write-through store moves 8 bytes over the L2 bus.
        let l2_bus_store = 8u32.div_ceil(self.l2_bus_bytes) as u64;

        Ok(DerivedTiming {
            l1i_lat,
            l1d_lat,
            l2_lat,
            mispredict_penalty,
            dram_cycles,
            fsb_block_cycles,
            l2_bus_l1_block,
            l2_bus_l1i_block,
            l2_bus_store,
        })
    }

    /// Issue throughput per op family, derived from `functional_units`.
    pub fn fu_throughput(&self) -> FuThroughput {
        FuThroughput {
            int_alu: self.functional_units,
            fp: (self.functional_units / 2).max(1),
            mul: (self.functional_units / 4).max(1),
        }
    }
}

/// Per-cycle issue limits per functional-unit family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuThroughput {
    /// Integer ALU operations per cycle.
    pub int_alu: u32,
    /// FP operations per cycle.
    pub fp: u32,
    /// Multiply/divide operations per cycle.
    pub mul: u32,
}

/// Timing values derived from a [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivedTiming {
    /// L1I hit latency in cycles.
    pub l1i_lat: u64,
    /// L1D hit latency in cycles.
    pub l1d_lat: u64,
    /// L2 hit latency in cycles.
    pub l2_lat: u64,
    /// Minimum branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// SDRAM access latency in core cycles.
    pub dram_cycles: u64,
    /// FSB occupancy to move one L2 block, in core cycles.
    pub fsb_block_cycles: u64,
    /// L2-bus occupancy to move one L1D block, in core cycles.
    pub l2_bus_l1_block: u64,
    /// L2-bus occupancy to move one L1I block, in core cycles.
    pub l2_bus_l1i_block: u64,
    /// L2-bus occupancy of one write-through store, in core cycles.
    pub l2_bus_store: u64,
}

/// Configuration validation errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A frequency was not positive and finite.
    Frequency(f64),
    /// A structural field that must be positive was zero.
    ZeroField(&'static str),
    /// The reorder buffer exceeds [`SimConfig::MAX_ROB_SIZE`].
    RobSize(u32),
    /// Predictor entries must be a power of two.
    PredictorEntries(u32),
    /// BTB sets must be a power of two.
    BtbSets(u32),
    /// SDRAM latency must be positive.
    SdramLatency(f64),
    /// SDRAM bank count must be zero (flat model) or a power of two.
    SdramBanks(u32),
    /// Invalid L1I geometry.
    L1i(GeometryError),
    /// Invalid L1D geometry.
    L1d(GeometryError),
    /// Invalid L2 geometry.
    L2(GeometryError),
    /// L2 blocks must be at least as large as L1 blocks (inclusion).
    BlockInversion,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Frequency(v) => write!(f, "frequency {v} must be positive and finite"),
            ConfigError::ZeroField(name) => write!(f, "field `{name}` must be positive"),
            ConfigError::RobSize(v) => {
                write!(f, "rob_size {v} exceeds {}", SimConfig::MAX_ROB_SIZE)
            }
            ConfigError::PredictorEntries(v) => {
                write!(f, "predictor entries {v} must be a power of two")
            }
            ConfigError::BtbSets(v) => write!(f, "BTB sets {v} must be a power of two"),
            ConfigError::SdramLatency(v) => write!(f, "SDRAM latency {v} must be positive"),
            ConfigError::SdramBanks(v) => {
                write!(f, "SDRAM banks {v} must be zero or a power of two")
            }
            ConfigError::L1i(e) => write!(f, "L1I: {e}"),
            ConfigError::L1d(e) => write!(f, "L1D: {e}"),
            ConfigError::L2(e) => write!(f, "L2: {e}"),
            ConfigError::BlockInversion => {
                write!(f, "L2 block size must be >= L1 block sizes")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_derives() {
        let t = SimConfig::default().derive().unwrap();
        assert_eq!(t.l1i_lat, 2, "paper anchor: 32KB L1I = 2 cycles at 4GHz");
        assert_eq!(t.mispredict_penalty, 20, "paper anchor: 20 cycles at 4GHz");
        assert_eq!(t.dram_cycles, 400, "100ns at 4GHz");
    }

    #[test]
    fn two_ghz_penalty_is_eleven() {
        let cfg = SimConfig {
            freq_ghz: 2.0,
            ..SimConfig::default()
        };
        assert_eq!(cfg.derive().unwrap().mispredict_penalty, 11);
        assert_eq!(cfg.derive().unwrap().dram_cycles, 200);
    }

    #[test]
    fn fsb_transfer_scales_with_frequency_ratio() {
        let cfg = SimConfig::default(); // 64B L2 block, 8B FSB at 0.8GHz, core 4GHz
        let t = cfg.derive().unwrap();
        // 8 beats * (4.0/0.8) = 40 core cycles.
        assert_eq!(t.fsb_block_cycles, 40);
        let faster = SimConfig {
            fsb_ghz: 1.4,
            ..cfg
        };
        assert!(faster.derive().unwrap().fsb_block_cycles < t.fsb_block_cycles);
    }

    #[test]
    fn l2_bus_width_divides_transfer() {
        let narrow = SimConfig {
            l2_bus_bytes: 8,
            ..SimConfig::default()
        };
        let wide = SimConfig {
            l2_bus_bytes: 32,
            ..SimConfig::default()
        };
        assert_eq!(narrow.derive().unwrap().l2_bus_l1_block, 4);
        assert_eq!(wide.derive().unwrap().l2_bus_l1_block, 1);
    }

    #[test]
    fn fu_throughput_floors() {
        let cfg = SimConfig {
            functional_units: 4,
            ..SimConfig::default()
        };
        let t = cfg.fu_throughput();
        assert_eq!((t.int_alu, t.fp, t.mul), (4, 2, 1));
        let cfg8 = SimConfig {
            functional_units: 8,
            ..SimConfig::default()
        };
        let t8 = cfg8.fu_throughput();
        assert_eq!((t8.int_alu, t8.fp, t8.mul), (8, 4, 2));
    }

    #[test]
    fn validation_catches_errors() {
        let cfg = SimConfig {
            width: 0,
            ..SimConfig::default()
        };
        assert_eq!(cfg.derive().unwrap_err(), ConfigError::ZeroField("width"));

        let cfg = SimConfig {
            predictor_entries: 3000,
            ..SimConfig::default()
        };
        assert!(matches!(
            cfg.derive().unwrap_err(),
            ConfigError::PredictorEntries(3000)
        ));

        let mut cfg = SimConfig::default();
        cfg.l1d.block_bytes = 128; // larger than L2 block
        assert_eq!(cfg.derive().unwrap_err(), ConfigError::BlockInversion);

        let mut cfg = SimConfig::default();
        cfg.l2.capacity_bytes = 3_000_000;
        assert!(matches!(cfg.derive().unwrap_err(), ConfigError::L2(_)));
    }

    #[test]
    fn rob_size_is_bounded() {
        let mut cfg = SimConfig {
            rob_size: SimConfig::MAX_ROB_SIZE,
            ..SimConfig::default()
        };
        assert!(cfg.derive().is_ok());
        cfg.rob_size += 1;
        assert_eq!(
            cfg.derive().unwrap_err(),
            ConfigError::RobSize(cfg.rob_size)
        );
    }

    #[test]
    fn larger_l2_is_slower() {
        let small = SimConfig {
            l2: CacheParams::write_back(256 * 1024, 4, 64),
            ..SimConfig::default()
        };
        let large = SimConfig {
            l2: CacheParams::write_back(2048 * 1024, 4, 64),
            ..SimConfig::default()
        };
        assert!(small.derive().unwrap().l2_lat < large.derive().unwrap().l2_lat);
    }
}
