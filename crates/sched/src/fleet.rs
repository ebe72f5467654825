//! Fleet-level scheduling: a weighted-fair virtual-time queue over
//! whole instrumentation *jobs*, layered above the per-run
//! [`EpochPlanner`](crate::EpochPlanner).
//!
//! The service front end (`superpin-serve`) runs many guest programs
//! over one shared worker pool. Each **round** it asks this queue which
//! jobs deserve the next epoch of machine time. The queue implements
//! classic weighted fair queueing in the virtual-time formulation:
//! every member carries a virtual timestamp that advances by
//! `cycles / weight` whenever the member consumes `cycles` of machine
//! time, and selection always picks the members with the smallest
//! timestamps. Heavier weights therefore advance more slowly per
//! consumed cycle and get selected proportionally more often, while a
//! starved light-weight member's timestamp eventually becomes the
//! minimum — starvation-freedom by construction.
//!
//! All arithmetic is integer (cycles are scaled by [`WFQ_SCALE`] before
//! the weight division) and all tie-breaks are by member id, so a
//! selection sequence is a pure function of the charge sequence —
//! the determinism bar the service's byte-identical reports rest on.

/// Fixed-point scale applied to cycle charges before the weight
/// division, so small epochs under large weights still advance the
/// virtual clock.
pub const WFQ_SCALE: u128 = 1 << 20;

/// One schedulable member of the fleet queue.
#[derive(Clone, Copy, Debug)]
struct Member {
    id: u32,
    weight: u64,
    vtime: u128,
}

/// A weighted-fair virtual-time queue of job ids.
///
/// Determinism contract: `select`, `charge`, `add`, and `remove` are
/// pure functions of the call sequence — no host time, no randomness,
/// no hash-order iteration (members are kept sorted by id).
#[derive(Clone, Debug, Default)]
pub struct FleetQueue {
    members: Vec<Member>,
}

impl FleetQueue {
    /// An empty queue.
    pub fn new() -> FleetQueue {
        FleetQueue::default()
    }

    /// Number of members currently queued.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the queue has no members.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Adds a member with the given weight (clamped to ≥ 1).
    ///
    /// The newcomer's virtual clock starts at the current minimum of
    /// the active members (the system virtual time), not at zero — a
    /// late arrival must compete from *now* rather than replaying the
    /// machine time it never consumed, which would starve incumbents.
    ///
    /// Adding an id that is already queued is a no-op.
    pub fn add(&mut self, id: u32, weight: u64) {
        if self.members.iter().any(|m| m.id == id) {
            return;
        }
        let vtime = self.members.iter().map(|m| m.vtime).min().unwrap_or(0);
        let pos = self
            .members
            .iter()
            .position(|m| m.id > id)
            .unwrap_or(self.members.len());
        self.members.insert(
            pos,
            Member {
                id,
                weight: weight.max(1),
                vtime,
            },
        );
    }

    /// Removes a member (a completed job). Unknown ids are ignored.
    pub fn remove(&mut self, id: u32) {
        self.members.retain(|m| m.id != id);
    }

    /// Charges `cycles` of consumed machine time to a member: its
    /// virtual clock advances by `cycles × WFQ_SCALE / weight`.
    pub fn charge(&mut self, id: u32, cycles: u64) {
        if let Some(member) = self.members.iter_mut().find(|m| m.id == id) {
            member.vtime = member
                .vtime
                .saturating_add(cycles as u128 * WFQ_SCALE / member.weight as u128);
        }
    }

    /// Selects up to `n` members with the smallest virtual timestamps,
    /// id-ascending within equal timestamps. The returned order is the
    /// dispatch order; the members are *not* removed.
    pub fn select(&self, n: usize) -> Vec<u32> {
        let mut ranked: Vec<(u128, u32)> = self.members.iter().map(|m| (m.vtime, m.id)).collect();
        ranked.sort_unstable();
        ranked.into_iter().take(n).map(|(_, id)| id).collect()
    }

    /// The member's current virtual timestamp (`None` if not queued).
    #[cfg(test)]
    pub(crate) fn vtime(&self, id: u32) -> Option<u128> {
        self.members.iter().find(|m| m.id == id).map(|m| m.vtime)
    }
}

/// Splits `total` capacity into deterministic proportional shares by
/// weight: each share is `total × weight / Σweights` (floor), with the
/// remainder handed out one unit at a time in input order — so shares
/// always sum to exactly `total` and the split is a pure function of
/// the weights. Zero weights receive zero; an all-zero weight vector
/// yields all-zero shares.
pub fn fair_shares(total: u64, weights: &[u64]) -> Vec<u64> {
    let sum: u128 = weights.iter().map(|&w| w as u128).sum();
    if sum == 0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<u64> = weights
        .iter()
        .map(|&w| (total as u128 * w as u128 / sum) as u64)
        .collect();
    let mut leftover = total - shares.iter().sum::<u64>();
    for (share, &w) in shares.iter_mut().zip(weights) {
        if leftover == 0 {
            break;
        }
        if w > 0 {
            *share += 1;
            leftover -= 1;
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the queue like the service does: select one, charge it a
    /// fixed epoch cost, repeat. Returns per-id selection counts.
    fn selection_counts(weights: &[(u32, u64)], rounds: usize, epoch_cycles: u64) -> Vec<usize> {
        let mut queue = FleetQueue::new();
        for &(id, w) in weights {
            queue.add(id, w);
        }
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..rounds {
            let picked = queue.select(1)[0];
            let idx = weights.iter().position(|&(id, _)| id == picked).unwrap();
            counts[idx] += 1;
            queue.charge(picked, epoch_cycles);
        }
        counts
    }

    #[test]
    fn service_is_proportional_to_weight() {
        let counts = selection_counts(&[(1, 3), (2, 1)], 4_000, 1_000);
        // 3:1 weights → ~3000:1000 selections, give or take rounding.
        assert!((2_900..=3_100).contains(&counts[0]), "counts {counts:?}");
        assert!((900..=1_100).contains(&counts[1]), "counts {counts:?}");
    }

    #[test]
    fn low_weight_member_is_never_starved() {
        let counts = selection_counts(&[(1, 100), (2, 1)], 1_010, 1_000);
        assert!(counts[1] >= 9, "light tenant got {counts:?}");
    }

    #[test]
    fn ties_break_by_id_ascending() {
        let mut queue = FleetQueue::new();
        queue.add(7, 2);
        queue.add(3, 2);
        queue.add(5, 2);
        assert_eq!(queue.select(3), vec![3, 5, 7]);
        assert_eq!(queue.select(2), vec![3, 5]);
    }

    #[test]
    fn late_arrival_inherits_system_virtual_time() {
        let mut queue = FleetQueue::new();
        queue.add(1, 1);
        queue.charge(1, 10_000);
        queue.add(2, 1);
        // The newcomer starts at the minimum (= member 1's clock), so
        // it does not monopolize the queue replaying history; after one
        // charge the incumbents rotate back in.
        assert_eq!(queue.vtime(2), queue.vtime(1));
        assert_eq!(queue.select(1), vec![1], "tie falls to the lower id");
        queue.charge(1, 1);
        assert_eq!(queue.select(1), vec![2]);
    }

    #[test]
    fn selection_is_deterministic_in_the_charge_sequence() {
        let drive = || {
            let mut queue = FleetQueue::new();
            queue.add(1, 5);
            queue.add(2, 3);
            queue.add(3, 1);
            let mut order = Vec::new();
            for round in 0..500u64 {
                let picked = queue.select(2);
                for &id in &picked {
                    queue.charge(id, 700 + (round % 7) * 13);
                }
                order.extend(picked);
            }
            order
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    fn remove_and_zero_weight_clamp() {
        let mut queue = FleetQueue::new();
        queue.add(1, 0); // clamped to 1, not a division by zero
        queue.charge(1, 100);
        assert!(queue.vtime(1).unwrap() > 0);
        queue.remove(1);
        assert!(queue.is_empty());
        queue.remove(1); // unknown id: no-op
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn fair_shares_sum_to_total_and_follow_weights() {
        assert_eq!(fair_shares(100, &[1, 1]), vec![50, 50]);
        assert_eq!(fair_shares(100, &[3, 1]), vec![75, 25]);
        let shares = fair_shares(100, &[1, 1, 1]);
        assert_eq!(shares.iter().sum::<u64>(), 100);
        assert_eq!(shares, vec![34, 33, 33], "remainder lands in input order");
        assert_eq!(fair_shares(10, &[0, 2]), vec![0, 10]);
        assert_eq!(fair_shares(10, &[0, 0]), vec![0, 0]);
    }
}
