//! Hierarchical (multi-tier) all-reduce latency model for cluster-scale
//! synchronization.
//!
//! A multi-rack cluster synchronizes gradients in phases: a ring inside each
//! server over NVLink, a ring across the servers of a rack over the ToR
//! switch, and a ring across racks over the spine. Each phase is an
//! all-reduce over that tier's participant count and link budget, and the
//! phases are serialized — a participant cannot start the ToR phase until its
//! local reduction holds the server-wide gradient sum. Total latency is
//! therefore the **sum of the per-tier ring latencies**, each computed by the
//! same chunked-ring model ([`RingModel`]) the single-server simulator uses.
//!
//! This deliberately reuses the Fig 2b-calibrated model per tier instead of
//! inventing a new cluster law: the paper's scale-up argument (§VII) is that
//! ring latency saturates with participant count, and that saturation
//! compounds per tier — which this model exhibits.

use crate::model::RingModel;

/// One tier of a hierarchical all-reduce: a ring over `participants` peers
/// whose pairwise links follow `link`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier {
    /// Link model for this tier (bandwidth, hop latency, chunking).
    pub link: RingModel,
    /// Ring size at this tier (servers per rack, racks, ...). A tier with
    /// fewer than 2 participants contributes zero latency.
    pub participants: usize,
}

/// A serialized stack of ring all-reduce tiers, innermost first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HierarchicalModel {
    /// Tiers in execution order (e.g. `[intra-server, ToR, spine]`).
    pub tiers: Vec<Tier>,
}

impl HierarchicalModel {
    /// A model with no tiers (zero latency); push tiers with [`Self::tier`].
    pub fn new() -> Self {
        HierarchicalModel { tiers: Vec::new() }
    }

    /// Append a tier, builder-style.
    pub fn tier(mut self, link: RingModel, participants: usize) -> Self {
        self.tiers.push(Tier { link, participants });
        self
    }

    /// Seconds to all-reduce `model_bytes` of gradients through every tier.
    ///
    /// Each tier moves the full gradient payload (the reduction does not
    /// shrink it — all-reduce output size equals input size), so each tier
    /// contributes its own `RingModel::allreduce_secs` over the full
    /// `model_bytes`. Degenerate tiers (< 2 participants) cost nothing.
    pub fn allreduce_secs(&self, model_bytes: u64) -> f64 {
        self.tiers
            .iter()
            .filter(|t| t.participants >= 2)
            .map(|t| t.link.allreduce_secs(model_bytes, t.participants))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> RingModel {
        RingModel { link_bytes_per_sec: 300e9, hop_latency_secs: 100e-9, chunk_bytes: 4096 }
    }

    fn slow() -> RingModel {
        RingModel { link_bytes_per_sec: 12.5e9, hop_latency_secs: 5e-6, chunk_bytes: 65536 }
    }

    #[test]
    fn tiers_sum_and_degenerate_tiers_are_free() {
        let m = 512 * 1024 * 1024;
        let intra = fast().allreduce_secs(m, 16);
        let tor = slow().allreduce_secs(m, 8);
        let h = HierarchicalModel::new().tier(fast(), 16).tier(slow(), 8).tier(slow(), 1);
        assert!((h.allreduce_secs(m) - (intra + tor)).abs() < 1e-12);

        let single = HierarchicalModel::new().tier(fast(), 1);
        assert_eq!(single.allreduce_secs(m), 0.0);
        assert_eq!(HierarchicalModel::new().allreduce_secs(m), 0.0);
    }

    #[test]
    fn slower_outer_tier_dominates() {
        let m = 512 * 1024 * 1024;
        let h = HierarchicalModel::new().tier(fast(), 16).tier(slow(), 8);
        let tor = slow().allreduce_secs(m, 8);
        // ToR Ethernet is ~24x slower than NVLink; it must carry the cost.
        assert!(tor / h.allreduce_secs(m) > 0.9);
    }

    #[test]
    fn outer_tier_latency_saturates_with_rack_count() {
        // The paper's Fig 2b shape must survive the hierarchy: doubling racks
        // far from doubles the spine-tier latency.
        let m = 512 * 1024 * 1024;
        let at = |racks| HierarchicalModel::new().tier(slow(), racks).allreduce_secs(m);
        let l4 = at(4);
        let l32 = at(32);
        assert!(l32 < l4 * 1.5, "ring saturation: {l4} -> {l32}");
    }
}
