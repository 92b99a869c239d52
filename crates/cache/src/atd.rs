//! Embedded auxiliary tag directory (ATD) profiling via set sampling.
//!
//! Paper §3.2: profiling data for Algorithm 1 comes from *leader sets* —
//! every `R_s`-th set of the cache. The ATD is embedded in the main tag
//! directory: leader sets are ordinary sets that simply (a) never undergo
//! reconfiguration (all `A` ways stay active) and (b) feed the
//! `nL2Hit[m][pos]` counters, credited to the module the leader set
//! belongs to. Counters are read and reset once per interval by the energy
//! saving algorithm.

/// Per-interval, per-module, per-LRU-position hit counters.
#[derive(Debug, Clone)]
pub struct AtdCounters {
    modules: u16,
    ways: u8,
    /// `hits[m * ways + pos]`.
    hits: Vec<u64>,
    /// Leader-set count per module (0 possible only for degenerate configs).
    leaders_per_module: Vec<u32>,
}

impl AtdCounters {
    /// `leader_stride` is the paper's `R_s`; `None` means the cache has no
    /// leader sampling at all (the L1s), so every module reports zero
    /// leaders. (A sentinel stride would wrongly count set 0 as a leader
    /// and make `module_has_leaders(0)` claim profiling data that never
    /// arrives — found by the differential checker, see `crates/check`.)
    pub fn new(
        modules: u16,
        ways: u8,
        sets: u32,
        sets_per_module: u32,
        leader_stride: Option<u32>,
    ) -> Self {
        let mut leaders_per_module = vec![0u32; modules as usize];
        if let Some(stride) = leader_stride {
            assert!(stride >= 1, "leader stride must be >= 1");
            let mut set = 0;
            while set < sets {
                leaders_per_module[(set / sets_per_module) as usize] += 1;
                set += stride;
            }
        }
        Self {
            modules,
            ways,
            hits: vec![0; modules as usize * ways as usize],
            leaders_per_module,
        }
    }

    #[inline]
    pub fn record_hit(&mut self, module: u16, pos: u8) {
        self.hits[module as usize * self.ways as usize + pos as usize] += 1;
    }

    /// Hit histogram of one module for the current interval.
    pub fn module_hits(&self, module: u16) -> &[u64] {
        let w = self.ways as usize;
        &self.hits[module as usize * w..(module as usize + 1) * w]
    }

    /// Sum of the hit histograms of *all* modules — the fallback profile
    /// used for modules that contain no leader set.
    pub fn global_hits(&self) -> Vec<u64> {
        let w = self.ways as usize;
        let mut out = vec![0u64; w];
        for m in 0..self.modules as usize {
            for (p, o) in out.iter_mut().enumerate() {
                *o += self.hits[m * w + p];
            }
        }
        out
    }

    pub fn module_has_leaders(&self, module: u16) -> bool {
        self.leaders_per_module[module as usize] > 0
    }

    pub fn leaders_in_module(&self, module: u16) -> u32 {
        self.leaders_per_module[module as usize]
    }

    /// Clears all counters (end of interval).
    pub fn reset(&mut self) {
        self.hits.fill(0);
    }

    pub fn modules(&self) -> u16 {
        self.modules
    }

    pub fn ways(&self) -> u8 {
        self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_distribution_paper_defaults() {
        // 4MB L2: 4096 sets, 8 modules (single-core default), R_s = 64
        // => 64 leader sets, 8 per module.
        let atd = AtdCounters::new(8, 16, 4096, 512, Some(64));
        for m in 0..8 {
            assert_eq!(atd.leaders_in_module(m), 8);
            assert!(atd.module_has_leaders(m));
        }
    }

    #[test]
    fn one_leader_per_module_edge() {
        // 32 modules, R_s = 128, 4096 sets: 32 leaders, 1 per module.
        let atd = AtdCounters::new(32, 16, 4096, 128, Some(128));
        for m in 0..32 {
            assert_eq!(atd.leaders_in_module(m), 1);
        }
    }

    #[test]
    fn leaderless_modules_detected() {
        // R_s = 256 with 64-set modules: only every 4th module has a leader.
        let atd = AtdCounters::new(64, 16, 4096, 64, Some(256));
        let with: u32 = (0..64).map(|m| u32::from(atd.module_has_leaders(m))).sum();
        assert_eq!(with, 16);
        assert!(atd.module_has_leaders(0));
        assert!(!atd.module_has_leaders(1));
    }

    #[test]
    fn record_and_reset() {
        let mut atd = AtdCounters::new(2, 4, 64, 32, Some(16));
        atd.record_hit(0, 0);
        atd.record_hit(0, 0);
        atd.record_hit(1, 3);
        assert_eq!(atd.module_hits(0), &[2, 0, 0, 0]);
        assert_eq!(atd.module_hits(1), &[0, 0, 0, 1]);
        assert_eq!(atd.global_hits(), vec![2, 0, 0, 1]);
        atd.reset();
        assert_eq!(atd.global_hits(), vec![0, 0, 0, 0]);
    }

    /// Regression (differential checker, repro `div-0-1`): with no leader
    /// stride there are no leader sets anywhere — module 0 used to report
    /// one phantom leader because the sentinel `u32::MAX` stride still
    /// counted set 0.
    #[test]
    fn no_stride_means_no_leaders() {
        let atd = AtdCounters::new(4, 4, 64, 16, None);
        for m in 0..4 {
            assert_eq!(atd.leaders_in_module(m), 0);
            assert!(!atd.module_has_leaders(m));
        }
    }
}
