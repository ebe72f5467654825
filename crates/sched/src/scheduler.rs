//! Per-quantum fair-share scheduling.

use crate::machine::Machine;

/// One task's share of the machine for a quantum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Share {
    /// Caller-assigned task identifier.
    pub task: u64,
    /// Throughput in core-equivalents for the quantum: the task advances
    /// `quantum_ticks × throughput` ticks of work.
    pub throughput: f64,
}

impl Share {
    /// The task's tick budget for one quantum of `quantum_ticks`.
    ///
    /// This is **the** budget computation for the whole system: the
    /// serial and parallel runners and the epoch planner all call it, so
    /// the `f64 → u64` truncation happens in exactly one place. Every
    /// task always makes at least one tick of progress per quantum.
    pub fn budget(&self, quantum_ticks: u64) -> u64 {
        ((quantum_ticks as f64) * self.throughput).max(1.0) as u64
    }
}

/// Scheduling policy for a quantum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Policy {
    /// All runnable tasks share machine throughput equally — what a stock
    /// OS scheduler converges to with long-running CPU-bound tasks, and
    /// the model used for the paper's figures (the master visibly slows
    /// when the machine is oversubscribed, Fig. 7 at 16 slices).
    #[default]
    FairShare,
    /// The first task (the master) is pinned to a dedicated core and only
    /// the remaining throughput is shared — an idealized-OS ablation.
    MasterFirst,
}

/// Computes per-quantum shares of a [`Machine`] among runnable tasks.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuantumScheduler {
    machine: Machine,
    policy: Policy,
}

impl QuantumScheduler {
    /// Creates a scheduler over `machine` with the given policy.
    pub fn new(machine: Machine, policy: Policy) -> QuantumScheduler {
        QuantumScheduler { machine, policy }
    }

    /// The machine being scheduled.
    #[cfg(test)]
    pub(crate) fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Per-quantum throughput split for `n` runnable tasks: the first
    /// task's throughput and every other task's throughput.
    ///
    /// This is the single share-computation path behind both policies
    /// (under [`Policy::FairShare`] the two components are equal); the
    /// epoch planner and [`shares`](QuantumScheduler::shares) both use
    /// it, so policy arithmetic lives in exactly one place.
    pub fn throughput_split(&self, n: usize) -> (f64, f64) {
        if n == 0 {
            return (0.0, 0.0);
        }
        match self.policy {
            Policy::FairShare => {
                let per = self.machine.per_task_throughput(n);
                (per, per)
            }
            Policy::MasterFirst => {
                let total = self.machine.total_throughput(n);
                let master = self
                    .machine
                    .per_task_throughput(n.min(self.machine.physical_cores))
                    .min(1.0)
                    .min(total);
                let rest = if n > 1 {
                    (total - master).max(0.0) / (n - 1) as f64
                } else {
                    0.0
                };
                (master, rest)
            }
        }
    }

    /// Assigns shares for one quantum to the given runnable tasks.
    ///
    /// Returns one [`Share`] per task (all tasks make progress every
    /// quantum; oversubscription shows up as lower throughput, i.e.
    /// intra-quantum time multiplexing).
    pub fn shares(&self, runnable: &[u64]) -> Vec<Share> {
        let n = runnable.len();
        if n == 0 {
            return Vec::new();
        }
        let (first, rest) = self.throughput_split(n);
        runnable
            .iter()
            .enumerate()
            .map(|(i, &task)| Share {
                task,
                throughput: if i == 0 { first } else { rest },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_runnable_set() {
        let sched = QuantumScheduler::new(Machine::paper_testbed(), Policy::FairShare);
        assert!(sched.shares(&[]).is_empty());
    }

    #[test]
    fn fair_share_is_uniform() {
        let sched = QuantumScheduler::new(Machine::smp(4), Policy::FairShare);
        let shares = sched.shares(&[1, 2, 3]);
        assert_eq!(shares.len(), 3);
        // Epsilon compare: uniformity is a numeric property, not a
        // bit-pattern one — the shares travel through `total / n * …`
        // style arithmetic that may round differently per lane.
        assert!(shares
            .windows(2)
            .all(|w| (w[0].throughput - w[1].throughput).abs() < 1e-12));
        assert!(shares[0].throughput < 1.0, "SMP tax applies");
    }

    #[test]
    fn fair_share_split_components_are_equal() {
        let sched = QuantumScheduler::new(Machine::smp(8), Policy::FairShare);
        for n in 1..=16 {
            let (first, rest) = sched.throughput_split(n);
            assert!((first - rest).abs() < 1e-12, "n={n}");
        }
    }

    /// Pins the `(quantum × throughput).max(1.0) as u64` truncation for
    /// the exact runnable-set sizes the parallel runner fans out over.
    /// If the budget arithmetic drifts (different rounding, a reordered
    /// multiply), the parallel path silently diverges from the serial
    /// cycle accounting — these constants are the contract.
    #[test]
    fn budget_truncation_is_exact_for_paper_machine() {
        let machine = Machine::smp(8); // Figures 3-6 machine: no SMT.
        let sched = QuantumScheduler::new(machine, Policy::FairShare);
        let quantum = 2_200_000u64; // 1 ms of 2.2 GHz cycles.
                                    // (runnable tasks, expected per-task budget). Hand-computed:
                                    //   n=1 : throughput 1.0                  → 2_200_000
                                    //   n=2 : (2/1.02)/2   = 0.98039215…      → 2_156_862
                                    //   n=4 : (4/1.06)/4   = 0.94339622…      → 2_075_471
                                    //   n=16: (8/1.14)/16  = 0.43859649…      →   964_912
        for (n, expected) in [
            (1usize, 2_200_000u64),
            (2, 2_156_862),
            (4, 2_075_471),
            (16, 964_912),
        ] {
            let tasks: Vec<u64> = (0..n as u64).collect();
            let shares = sched.shares(&tasks);
            for share in &shares {
                assert_eq!(
                    share.budget(quantum),
                    expected,
                    "n={n}: budget must truncate to the pinned value"
                );
            }
        }
        // The floor: a share too small for one tick still gets one.
        let starved = Share {
            task: 1,
            throughput: 1e-12,
        };
        assert_eq!(starved.budget(100), 1);
    }

    #[test]
    fn master_first_uses_the_shared_split_path() {
        let sched = QuantumScheduler::new(Machine::smp(4), Policy::MasterFirst);
        let (first, rest) = sched.throughput_split(6);
        let shares = sched.shares(&[0, 1, 2, 3, 4, 5]);
        assert!((shares[0].throughput - first).abs() < 1e-12);
        assert!(shares[1..]
            .iter()
            .all(|s| (s.throughput - rest).abs() < 1e-12));
    }

    #[test]
    fn fair_share_degrades_when_oversubscribed() {
        let machine = Machine::smp(2);
        let sched = QuantumScheduler::new(machine, Policy::FairShare);
        let two = sched.shares(&[1, 2])[0].throughput;
        let four = sched.shares(&[1, 2, 3, 4])[0].throughput;
        assert!(four < two / 1.5, "4 tasks on 2 cores must time-slice");
    }

    #[test]
    fn master_first_pins_task_zero() {
        let sched = QuantumScheduler::new(Machine::smp(4), Policy::MasterFirst);
        let shares = sched.shares(&[0, 1, 2, 3, 4, 5]);
        let master = shares[0].throughput;
        let slice = shares[1].throughput;
        assert!(master > slice);
        // Total never exceeds machine capability.
        let total: f64 = shares.iter().map(|s| s.throughput).sum();
        assert!(total <= sched.machine().total_throughput(6) + 1e-9);
    }

    #[test]
    fn shares_preserve_task_ids() {
        let sched = QuantumScheduler::new(Machine::smp(2), Policy::FairShare);
        let shares = sched.shares(&[42, 7]);
        assert_eq!(shares[0].task, 42);
        assert_eq!(shares[1].task, 7);
    }
}
