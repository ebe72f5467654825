//! Divergence diffing: lockstep replay of two runs with an epoch-barrier
//! state comparison that bisects the first divergence to an instruction
//! range.
//!
//! Both runs execute serially (`step_serial`), one epoch at a time, and
//! after every barrier their [`RunProbe`]s are compared component by
//! component: the schedule (virtual time, epoch count, exit state)
//! first, then the master's architectural state, then every live
//! slice, then the merged slice reports. The first mismatch is reported
//! with the quantum window and master instruction range since the last
//! *identical* barrier — the tightest bracket the epoch structure
//! offers — plus the register and memory deltas at the diverging
//! component. A run that refuses its own log ([`SpError::ReplayDivergence`])
//! is itself a divergence, attributed to the side that threw.

use crate::drive::ReplayError;
use crate::log::ReplayLog;
use std::fmt;
use superpin::{RunMode, RunProbe, Runner, SpError};
use superpin_isa::Reg;

/// One register's disagreement between the two runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegDelta {
    /// Register name (`r5`, `sp`, …).
    pub reg: String,
    /// Value in run A.
    pub a: u64,
    /// Value in run B.
    pub b: u64,
}

/// Where and how two runs first disagreed.
#[derive(Clone, Debug, PartialEq)]
pub struct DivergenceReport {
    /// Epochs completed when the divergence surfaced (the diverging
    /// barrier is the end of epoch `epoch`).
    pub epoch: u64,
    /// Quantum window `[from, to)` bracketing the divergence: the last
    /// identical barrier's quantum index to the diverging barrier's.
    pub quantum_window: (u64, u64),
    /// Which component diverged first: `"schedule"`, `"master"`,
    /// `"slice"`, `"merged"`, or a replay-refusal context.
    pub component: String,
    /// The diverging slice number, for slice-scoped components.
    pub slice: Option<u32>,
    /// Guest pc in run A and run B at the diverging component.
    pub pc: (u64, u64),
    /// Master instruction range `[from, to]` bracketing the divergence
    /// (instructions retired at the last identical barrier and at the
    /// diverging barrier, whichever run retired more).
    pub inst_range: (u64, u64),
    /// Registers that disagree at the diverging component.
    pub reg_deltas: Vec<RegDelta>,
    /// Guest-memory digests of the diverging component in each run.
    pub mem_digests: (u64, u64),
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "first divergence at epoch {}, quanta {}..{} ({} component",
            self.epoch, self.quantum_window.0, self.quantum_window.1, self.component
        )?;
        if let Some(slice) = self.slice {
            write!(f, ", slice {slice}")?;
        }
        writeln!(f, ")")?;
        writeln!(
            f,
            "  pc: {:#x} vs {:#x}; master insts {}..{}",
            self.pc.0, self.pc.1, self.inst_range.0, self.inst_range.1
        )?;
        if self.mem_digests.0 != self.mem_digests.1 {
            writeln!(
                f,
                "  mem digest: {:#018x} vs {:#018x}",
                self.mem_digests.0, self.mem_digests.1
            )?;
        }
        for delta in &self.reg_deltas {
            writeln!(f, "  {}: {:#x} vs {:#x}", delta.reg, delta.a, delta.b)?;
        }
        write!(f, "  {}", self.detail)
    }
}

/// Result of a lockstep diff.
#[derive(Clone, Debug, PartialEq)]
pub enum DiffOutcome {
    /// Every barrier compared equal through run end.
    Identical {
        /// Epochs both runs executed.
        epochs: u64,
    },
    /// The runs disagree; here is the first place they do.
    Diverged(Box<DivergenceReport>),
}

fn reg_deltas(a: &[u64], b: &[u64]) -> Vec<RegDelta> {
    a.iter()
        .zip(b)
        .enumerate()
        .filter(|(_, (va, vb))| va != vb)
        .map(|(i, (va, vb))| RegDelta {
            reg: Reg::try_new(i as u8).map_or_else(|| format!("r{i}"), |r| r.to_string()),
            a: *va,
            b: *vb,
        })
        .collect()
}

/// Compares two barrier probes; `prev` is the last identical pair (for
/// the quantum/instruction bracket). `None` means the barriers agree.
fn compare_probes(
    epoch: u64,
    prev: Option<&RunProbe>,
    a: &RunProbe,
    b: &RunProbe,
) -> Option<DivergenceReport> {
    let quantum = a.quantum.max(1);
    let from_quantum = prev.map_or(0, |p| p.now / quantum);
    let from_insts = prev.map_or(0, |p| p.master_insts);
    let bracket = |detail: String,
                   component: &str,
                   slice: Option<u32>,
                   pc: (u64, u64),
                   regs: Vec<RegDelta>,
                   mem: (u64, u64)| {
        DivergenceReport {
            epoch,
            quantum_window: (from_quantum, (a.now.max(b.now)) / quantum),
            component: component.to_string(),
            slice,
            pc,
            inst_range: (from_insts, a.master_insts.max(b.master_insts)),
            reg_deltas: regs,
            mem_digests: mem,
            detail,
        }
    };

    if a.now != b.now || a.epochs != b.epochs || a.master_exited != b.master_exited {
        return Some(bracket(
            format!(
                "schedule state: now {} vs {}, epochs {} vs {}, exited {} vs {}",
                a.now, b.now, a.epochs, b.epochs, a.master_exited, b.master_exited
            ),
            "schedule",
            None,
            (a.master_pc, b.master_pc),
            Vec::new(),
            (a.master_mem_digest, b.master_mem_digest),
        ));
    }
    if a.master_insts != b.master_insts
        || a.master_pc != b.master_pc
        || a.master_regs != b.master_regs
        || a.master_mem_digest != b.master_mem_digest
    {
        return Some(bracket(
            format!(
                "master state: insts {} vs {}",
                a.master_insts, b.master_insts
            ),
            "master",
            None,
            (a.master_pc, b.master_pc),
            reg_deltas(&a.master_regs, &b.master_regs),
            (a.master_mem_digest, b.master_mem_digest),
        ));
    }
    if a.slices.len() != b.slices.len() {
        return Some(bracket(
            format!("live slice count: {} vs {}", a.slices.len(), b.slices.len()),
            "slice",
            None,
            (a.master_pc, b.master_pc),
            Vec::new(),
            (a.master_mem_digest, b.master_mem_digest),
        ));
    }
    for (sa, sb) in a.slices.iter().zip(&b.slices) {
        if sa != sb {
            return Some(bracket(
                format!(
                    "slice state: num {} vs {}, insts {} vs {}",
                    sa.num, sb.num, sa.insts, sb.insts
                ),
                "slice",
                Some(sa.num),
                (sa.pc, sb.pc),
                Vec::new(),
                (sa.mem_digest, sb.mem_digest),
            ));
        }
    }
    if a.merged.len() != b.merged.len() {
        return Some(bracket(
            format!(
                "merged slice count: {} vs {}",
                a.merged.len(),
                b.merged.len()
            ),
            "merged",
            None,
            (a.master_pc, b.master_pc),
            Vec::new(),
            (a.master_mem_digest, b.master_mem_digest),
        ));
    }
    for (ra, rb) in a.merged.iter().zip(&b.merged) {
        if ra != rb {
            return Some(bracket(
                format!(
                    "merged slice report: num {} insts {} vs num {} insts {}",
                    ra.num, ra.insts, rb.num, rb.insts
                ),
                "merged",
                Some(ra.num),
                (a.master_pc, b.master_pc),
                Vec::new(),
                (a.master_mem_digest, b.master_mem_digest),
            ));
        }
    }
    None
}

/// Turns one run's replay refusal into a divergence report bracketed by
/// the other run's probe.
fn refusal(
    epoch: u64,
    prev: Option<&RunProbe>,
    here: &RunProbe,
    side: &str,
    context: &'static str,
    detail: String,
) -> DivergenceReport {
    let quantum = here.quantum.max(1);
    DivergenceReport {
        epoch,
        quantum_window: (prev.map_or(0, |p| p.now / quantum), here.now / quantum),
        component: format!("{side}: {context}"),
        slice: None,
        pc: (here.master_pc, here.master_pc),
        inst_range: (prev.map_or(0, |p| p.master_insts), here.master_insts),
        reg_deltas: Vec::new(),
        mem_digests: (here.master_mem_digest, here.master_mem_digest),
        detail,
    }
}

fn step(runner: &mut dyn Runner) -> Result<Result<bool, String>, SpError> {
    match runner.step_serial() {
        Ok(more) => Ok(Ok(more)),
        Err(SpError::ReplayDivergence { context, detail }) => {
            Ok(Err(format!("{context}: {detail}")))
        }
        Err(err) => Err(err),
    }
}

/// Runs two runners in lockstep, comparing barrier probes, until the
/// first divergence or both runs end.
///
/// # Errors
///
/// Simulator errors other than replay refusals (those become
/// [`DiffOutcome::Diverged`]).
pub fn diff_runners(a: &mut dyn Runner, b: &mut dyn Runner) -> Result<DiffOutcome, ReplayError> {
    a.start().map_err(ReplayError::Sim)?;
    b.start().map_err(ReplayError::Sim)?;
    let mut prev: Option<(RunProbe, RunProbe)> = None;
    let mut epoch = 0u64;
    loop {
        let more_a = step(a).map_err(ReplayError::Sim)?;
        let more_b = step(b).map_err(ReplayError::Sim)?;
        epoch += 1;
        let pa = a.probe();
        let pb = b.probe();
        match (more_a, more_b) {
            (Err(detail), _) => {
                return Ok(DiffOutcome::Diverged(Box::new(refusal(
                    epoch,
                    prev.as_ref().map(|(p, _)| p),
                    &pb,
                    "run A refused its log",
                    "replay",
                    detail,
                ))))
            }
            (_, Err(detail)) => {
                return Ok(DiffOutcome::Diverged(Box::new(refusal(
                    epoch,
                    prev.as_ref().map(|(p, _)| p),
                    &pa,
                    "run B refused its log",
                    "replay",
                    detail,
                ))))
            }
            (Ok(more_a), Ok(more_b)) => {
                if let Some(report) = compare_probes(epoch, prev.as_ref().map(|(p, _)| p), &pa, &pb)
                {
                    return Ok(DiffOutcome::Diverged(Box::new(report)));
                }
                if !more_a && !more_b {
                    return Ok(DiffOutcome::Identical { epochs: pa.epochs });
                }
                if more_a != more_b {
                    // Probes compared equal but one run thinks it is
                    // done: a scheduling divergence at the very end.
                    return Ok(DiffOutcome::Diverged(Box::new(
                        compare_probes(epoch, None, &pa, &pb).unwrap_or_else(|| {
                            refusal(
                                epoch,
                                prev.as_ref().map(|(p, _)| p),
                                &pa,
                                "run end",
                                "schedule",
                                format!("run A more={more_a}, run B more={more_b}"),
                            )
                        }),
                    )));
                }
                prev = Some((pa, pb));
            }
        }
    }
}

/// Replays two logs in lockstep (each against its own recording) and
/// reports the first divergence between *the runs they describe*. `a`
/// and `b` are built from each log's recipe at `threads = 1` with
/// `replaying` set (see [`build_runner`](crate::build_runner)), whatever
/// the recorded thread counts — report equality across thread counts is
/// the simulator's contract, so the comparison is fair.
///
/// # Errors
///
/// Simulator errors other than replay refusals.
pub fn diff_logs(
    log_a: &ReplayLog,
    a: &mut dyn Runner,
    log_b: &ReplayLog,
    b: &mut dyn Runner,
) -> Result<DiffOutcome, ReplayError> {
    a.set_mode(RunMode::Replay(log_a.events.clone().into()));
    b.set_mode(RunMode::Replay(log_b.events.clone().into()));
    diff_runners(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{build_runner, record_run};
    use crate::testutil::Nop;
    use superpin::{NondetEvent, SharedMem};
    use superpin_workloads::Scale;

    fn recorded(name: &str) -> ReplayLog {
        let recipe = crate::recipe::RunRecipe::standard(name, Scale::Tiny);
        record_run(&recipe, Nop, &SharedMem::new()).expect("record")
    }

    fn diff(log_a: &ReplayLog, log_b: &ReplayLog) -> DiffOutcome {
        let runner = |log: &ReplayLog| {
            build_runner(&log.recipe, 1, true, Nop, &SharedMem::new()).expect("runner")
        };
        diff_logs(log_a, &mut runner(log_a), log_b, &mut runner(log_b)).expect("diff")
    }

    #[test]
    fn identical_logs_diff_identical() {
        let log = recorded("gcc");
        let outcome = diff(&log, &log.clone());
        assert!(
            matches!(outcome, DiffOutcome::Identical { epochs } if epochs > 0),
            "clean pair must be identical: {outcome:?}"
        );
    }

    #[test]
    fn perturbed_epoch_plan_pinpoints_a_schedule_divergence() {
        let log = recorded("gcc");
        let mut perturbed = log.clone();
        let plan_at = perturbed
            .events
            .iter()
            .position(|e| matches!(e, NondetEvent::EpochPlan { .. }))
            .expect("a planned epoch");
        if let NondetEvent::EpochPlan { planned } = &mut perturbed.events[plan_at] {
            *planned += 1;
        }
        let outcome = diff(&log, &perturbed);
        match outcome {
            DiffOutcome::Diverged(report) => {
                assert!(report.epoch >= 1);
                // A longer first epoch shows up at the very first
                // barrier as a virtual-time ("schedule") divergence, or
                // as run B refusing its now-misaligned log downstream.
                assert!(
                    report.component.contains("schedule") || report.component.contains("run B"),
                    "unexpected component: {report:?}"
                );
                assert!(report.quantum_window.1 >= report.quantum_window.0);
                let rendered = report.to_string();
                assert!(rendered.contains("first divergence at epoch"));
            }
            DiffOutcome::Identical { .. } => panic!("perturbed log must diverge"),
        }
    }
}
