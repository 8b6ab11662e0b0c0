//! Direct-mapped, banked data-cache timing model (paper §4.1: 512 lines ×
//! 128-byte blocks, 8 ports).
//!
//! The cache is a *timing* model: data always comes from [`SimMemory`];
//! the tag array decides hit/miss latency. Banks are interleaved on block
//! address; simultaneous requests to one bank serialize (the
//! request/response crossbar of the paper's Figure 2), and a missing bank is
//! occupied for the duration of its line fill.
//!
//! [`SimMemory`]: crate::mem::SimMemory

use std::error::Error;
use std::fmt;

/// A [`CacheConfig`] geometry field that cannot be zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// `lines == 0` — a cache with no lines cannot map addresses.
    ZeroLines,
    /// `block_bytes == 0` — addresses cannot be split into blocks.
    ZeroBlockBytes,
    /// `banks == 0` — no port could ever service a request.
    ZeroBanks,
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (field, why) = match self {
            CacheConfigError::ZeroLines => ("lines", "a cache needs at least one line"),
            CacheConfigError::ZeroBlockBytes => ("block_bytes", "blocks need at least one byte"),
            CacheConfigError::ZeroBanks => ("banks", "a cache needs at least one port"),
        };
        write!(f, "invalid cache geometry: {field} = 0 ({why})")
    }
}

impl Error for CacheConfigError {}

/// Cache geometry and latencies.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of lines (direct mapped).
    pub lines: u32,
    /// Block size in bytes.
    pub block_bytes: u32,
    /// Number of banks = concurrently serviceable requests (the paper's
    /// "ports").
    pub banks: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
    /// Miss latency in cycles (line fill from DRAM).
    pub miss_latency: u32,
    /// Cycles a bank stays busy on a miss. Fills overlap with new requests
    /// after the critical word is forwarded, so this is shorter than
    /// `miss_latency`.
    pub miss_occupancy: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            lines: 512,
            block_bytes: 128,
            banks: 8,
            hit_latency: 1,
            miss_latency: 24,
            miss_occupancy: 6,
        }
    }
}

impl CacheConfig {
    /// Reject geometries [`CacheSystem`] cannot index — sweep drivers (the
    /// design-space explorer, tuning scripts) call this to skip nonsense
    /// points instead of relying on the constructor's clamp.
    ///
    /// # Errors
    /// [`CacheConfigError`] naming the first zero geometry field.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.lines == 0 {
            return Err(CacheConfigError::ZeroLines);
        }
        if self.block_bytes == 0 {
            return Err(CacheConfigError::ZeroBlockBytes);
        }
        if self.banks == 0 {
            return Err(CacheConfigError::ZeroBanks);
        }
        Ok(())
    }

    /// A copy with every zero geometry field raised to 1 (the smallest
    /// indexable cache). Latency fields pass through untouched.
    #[must_use]
    pub fn clamped(self) -> CacheConfig {
        CacheConfig {
            lines: self.lines.max(1),
            block_bytes: self.block_bytes.max(1),
            banks: self.banks.max(1),
            ..self
        }
    }
}

/// Access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Cycles lost to bank conflicts.
    pub conflict_cycles: u64,
}

/// The banked direct-mapped cache.
///
/// ```
/// use cgpa_sim::cache::{CacheConfig, CacheSystem};
///
/// let mut c = CacheSystem::new(CacheConfig::default());
/// let t1 = c.request(0, 0x4000);      // cold miss: full fill latency
/// let t2 = c.request(t1, 0x4000);     // hit in the same 128-byte block
/// assert!(t2 - t1 < t1);
/// assert_eq!(c.stats.misses, 1);
/// assert_eq!(c.stats.hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheSystem {
    cfg: CacheConfig,
    /// Tag per line: `Some(block_number)`.
    tags: Vec<Option<u32>>,
    /// Earliest cycle each bank is free.
    bank_free_at: Vec<u64>,
    /// Statistics.
    pub stats: CacheStats,
}

impl CacheSystem {
    /// Create a cold cache.
    ///
    /// Zero geometry fields (`lines`, `block_bytes`, `banks`) are clamped to
    /// 1 via [`CacheConfig::clamped`] — a degenerate but well-defined
    /// single-line cache — so a zero produced by a tuning sweep degrades the
    /// model instead of dividing by zero. Callers that would rather reject
    /// such configs call [`CacheConfig::validate`] first.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let cfg = cfg.clamped();
        CacheSystem {
            cfg,
            tags: vec![None; cfg.lines as usize],
            bank_free_at: vec![0; cfg.banks as usize],
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Issue an access at `cycle`; returns the cycle at which the data is
    /// available (stores complete at the same latency — write-allocate,
    /// write-back). Hot path: inlined into the simulator's step loop.
    #[inline]
    pub fn request(&mut self, cycle: u64, addr: u32) -> u64 {
        let block = addr / self.cfg.block_bytes;
        let line = (block % self.cfg.lines) as usize;
        let bank = (block % self.cfg.banks) as usize;
        let hit = self.tags[line] == Some(block);
        self.stats.accesses += 1;
        let service = if hit {
            self.stats.hits += 1;
            u64::from(self.cfg.hit_latency)
        } else {
            self.stats.misses += 1;
            self.tags[line] = Some(block);
            u64::from(self.cfg.miss_latency)
        };
        let start = self.bank_free_at[bank].max(cycle);
        self.stats.conflict_cycles += start - cycle;
        let done = start + service;
        // The bank is busy for the occupancy window (shorter than the miss
        // latency: fills stream in the background).
        let occupancy =
            if hit { u64::from(self.cfg.hit_latency) } else { u64::from(self.cfg.miss_occupancy) };
        self.bank_free_at[bank] = start + occupancy;
        done
    }

    /// Non-timed warm-up / occupancy probe: true if `addr` currently hits.
    #[inline]
    #[must_use]
    pub fn probe(&self, addr: u32) -> bool {
        let block = addr / self.cfg.block_bytes;
        let line = (block % self.cfg.lines) as usize;
        self.tags[line] == Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = CacheSystem::new(CacheConfig::default());
        let t1 = c.request(0, 0x1000);
        assert_eq!(t1, 24);
        let t2 = c.request(t1, 0x1000);
        assert_eq!(t2, t1 + 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn same_block_shares_a_line() {
        let mut c = CacheSystem::new(CacheConfig::default());
        c.request(0, 0x1000);
        assert!(c.probe(0x1000 + 64)); // same 128-byte block
        assert!(!c.probe(0x1000 + 128));
    }

    #[test]
    fn conflicting_lines_evict() {
        let cfg = CacheConfig::default();
        let mut c = CacheSystem::new(cfg);
        let stride = cfg.lines * cfg.block_bytes; // maps to same line
        c.request(0, 0);
        c.request(100, stride);
        assert!(!c.probe(0));
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut c = CacheSystem::new(CacheConfig::default());
        // Two requests to the same bank at the same cycle: the second waits
        // for the bank's occupancy window.
        let _ = c.request(0, 0); // miss: bank busy for miss_occupancy
        let b = c.request(0, 0); // same block again: a hit, but delayed
        assert_eq!(b, 6 + 1); // starts after occupancy, then 1-cycle hit
        assert_eq!(c.stats.conflict_cycles, 6);
    }

    #[test]
    fn different_banks_overlap() {
        let mut c = CacheSystem::new(CacheConfig::default());
        let a = c.request(0, 0);
        let b = c.request(0, 128); // next block, different bank
        assert_eq!(a, b); // both miss in parallel
    }

    #[test]
    fn zero_geometry_is_clamped_not_a_panic() {
        // A sweep handing the model an all-zero geometry must not divide by
        // zero: the constructor clamps to a 1-line, 1-byte-block, 1-bank
        // cache and requests stay well defined.
        let cfg = CacheConfig { lines: 0, block_bytes: 0, banks: 0, ..CacheConfig::default() };
        let mut c = CacheSystem::new(cfg);
        assert_eq!(c.config().lines, 1);
        assert_eq!(c.config().block_bytes, 1);
        assert_eq!(c.config().banks, 1);
        let t = c.request(0, 0x1234);
        assert_eq!(t, u64::from(cfg.miss_latency));
        assert!(c.probe(0x1234));
        assert_eq!(c.stats.accesses, 1);
    }

    #[test]
    fn validate_names_the_offending_field() {
        assert_eq!(CacheConfig::default().validate(), Ok(()));
        let zl = CacheConfig { lines: 0, ..CacheConfig::default() };
        assert_eq!(zl.validate(), Err(CacheConfigError::ZeroLines));
        let zb = CacheConfig { block_bytes: 0, ..CacheConfig::default() };
        assert_eq!(zb.validate(), Err(CacheConfigError::ZeroBlockBytes));
        let zk = CacheConfig { banks: 0, ..CacheConfig::default() };
        assert_eq!(zk.validate(), Err(CacheConfigError::ZeroBanks));
        assert!(zl.clamped().validate().is_ok());
    }
}
