//! Self-modifying-code region detection.
//!
//! A page is an SMC region when the static analysis shows it may be
//! both *executed* (it holds a reachable basic block) and *written*
//! (the store summary overlaps it). Pages use the VM's 4 KiB granule —
//! the same granule at which the address space bumps its code version,
//! so the dynamic SMC path and the static flag agree on units.
//!
//! The soundness oracle checks every dynamically observed code write
//! against these regions; on the generated workload catalog the set is
//! empty (no workload writes its own code), which is itself asserted
//! by the property suite.

use std::collections::BTreeSet;

use superpin_isa::Program;

use crate::cfg::Cfg;
use crate::targets::StoreSummary;

/// Page size used for SMC granularity.
pub const SMC_PAGE: u64 = 4096;

/// Pages that may be both written and executed.
#[derive(Clone, Debug, Default)]
pub struct SmcRegions {
    /// Page indices (`addr / SMC_PAGE`) flagged as SMC.
    pages: BTreeSet<u64>,
    /// True if an unbounded store forced every executed code page to
    /// be flagged.
    all_code: bool,
}

impl SmcRegions {
    /// Flags pages both executed (reachable code) and written (store
    /// summary).
    pub fn compute(program: &Program, cfg: &Cfg, stores: &StoreSummary) -> SmcRegions {
        let code_lo = program.code_base();
        let code_hi = code_lo + program.code_len();

        // Executed pages: spans of reachable blocks.
        let reachable = cfg.reachable();
        let mut executed: BTreeSet<u64> = BTreeSet::new();
        for (id, block) in cfg.blocks().iter().enumerate() {
            if !reachable[id] || block.insts.is_empty() {
                continue;
            }
            for page in (block.start / SMC_PAGE)..=((block.end() - 1) / SMC_PAGE) {
                executed.insert(page);
            }
        }

        if stores.unknown {
            return SmcRegions {
                pages: executed,
                all_code: true,
            };
        }

        // Written pages within the code section.
        let mut written: BTreeSet<u64> = BTreeSet::new();
        for region in &stores.regions {
            let lo = region.lo.max(code_lo);
            let hi_byte = region.hi.saturating_add(region.width).min(code_hi);
            if lo >= hi_byte {
                continue;
            }
            let count = (region.hi - region.lo) / region.stride.max(1) + 1;
            if count <= (SMC_PAGE / region.stride.max(1)).max(64) {
                // Few distinct stores: flag exactly the pages touched.
                for k in 0..count {
                    let p = region.lo + k * region.stride.max(1);
                    let end = p.saturating_add(region.width);
                    if end <= code_lo || p >= code_hi {
                        continue;
                    }
                    for page in (p.max(code_lo) / SMC_PAGE)..=((end.min(code_hi) - 1) / SMC_PAGE) {
                        written.insert(page);
                    }
                }
            } else {
                // Dense region: flag the whole span.
                for page in (lo / SMC_PAGE)..=((hi_byte - 1) / SMC_PAGE) {
                    written.insert(page);
                }
            }
        }

        SmcRegions {
            pages: executed.intersection(&written).copied().collect(),
            all_code: false,
        }
    }

    /// True if the byte range `[addr, addr + len)` lies entirely
    /// within flagged SMC pages (the check the oracle applies to each
    /// observed code write).
    pub fn covers(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let end = match addr.checked_add(len) {
            Some(end) => end,
            None => return false,
        };
        ((addr / SMC_PAGE)..=((end - 1) / SMC_PAGE)).all(|p| self.pages.contains(&p))
    }

    /// True if no page is flagged.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// True if an unbounded store degraded the analysis to "every
    /// executed code page might be rewritten".
    pub fn degraded(&self) -> bool {
        self.all_code
    }
}
