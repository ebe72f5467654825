//! Baselines for the paper's comparisons: native execution and
//! traditional (serial) Pin.

use crate::error::SpError;
use superpin_dbi::{CostModel, Engine, EngineStats, Pintool};
use superpin_vm::process::{Process, RunExit};

/// Result of a native (uninstrumented) run.
#[derive(Clone, Debug)]
pub struct NativeReport {
    /// Exit code.
    pub exit_code: i64,
    /// Total virtual cycles (instructions × native CPI + kernel time).
    pub cycles: u64,
    /// Dynamic instruction count — the ground truth for icount tools.
    pub insts: u64,
    /// Syscalls serviced.
    pub syscalls: u64,
    /// Captured stdout/stderr.
    pub output: Vec<u8>,
}

/// Runs a process natively to completion on one core.
///
/// # Errors
///
/// Propagates guest errors.
pub fn run_native(process: Process) -> Result<NativeReport, SpError> {
    run_native_with_cost(process, &CostModel::paper_default())
}

/// [`run_native`] with an explicit cost model.
///
/// # Errors
///
/// Propagates guest errors.
pub fn run_native_with_cost(
    mut process: Process,
    cost: &CostModel,
) -> Result<NativeReport, SpError> {
    let mut syscalls = 0u64;
    let mut kernel_cycles = 0u64;
    let exit_code = loop {
        match process.run_until_syscall(u64::MAX / 4)? {
            RunExit::SyscallEntry => {
                let app_cycles = process.inst_count() * cost.native_cpi;
                let record = process.do_syscall(superpin_dbi::cycles_to_ns(app_cycles))?;
                syscalls += 1;
                kernel_cycles += cost.syscall;
                if let Some(code) = record.exited {
                    break code;
                }
            }
            RunExit::Exited(code) => break code,
            RunExit::Halted => {
                return Err(SpError::Vm(superpin_vm::VmError::UnexpectedHalt {
                    pc: process.cpu.pc,
                }))
            }
            RunExit::BudgetExhausted => {}
        }
    };
    let insts = process.inst_count();
    Ok(NativeReport {
        exit_code,
        cycles: insts * cost.native_cpi + kernel_cycles,
        insts,
        syscalls,
        output: process.output().to_vec(),
    })
}

/// Result of a traditional (serial, single-core) Pin run.
#[derive(Clone, Debug)]
pub struct PinReport<T> {
    /// Exit code.
    pub exit_code: i64,
    /// Total virtual cycles including JIT, dispatch, analysis, syscalls.
    pub cycles: u64,
    /// Dynamic instruction count.
    pub insts: u64,
    /// The tool, with its accumulated results.
    pub tool: T,
    /// Engine statistics.
    pub stats: EngineStats,
    /// Code-cache statistics.
    pub cache: superpin_dbi::CacheStats,
}

/// Runs a process under traditional Pin with the given tool, serially on
/// one core — the paper's "Pin" bars in Figures 3 and 5.
///
/// # Errors
///
/// Propagates guest errors.
pub fn run_pin<T: Pintool + 'static>(process: Process, tool: T) -> Result<PinReport<T>, SpError> {
    run_pin_with_cost(process, tool, &CostModel::paper_default())
}

/// [`run_pin`] with an explicit cost model.
///
/// # Errors
///
/// Propagates guest errors.
pub fn run_pin_with_cost<T: Pintool + 'static>(
    process: Process,
    tool: T,
    cost: &CostModel,
) -> Result<PinReport<T>, SpError> {
    let mut engine = Engine::with_config(
        process,
        tool,
        *cost,
        superpin_dbi::cache::DEFAULT_CAPACITY_INSTS,
    );
    let (exit_code, cycles) = engine.run_to_exit()?;
    let stats = engine.stats();
    let cache = engine.cache_stats();
    let (process, tool) = engine.into_parts();
    Ok(PinReport {
        exit_code,
        cycles,
        insts: process.inst_count(),
        tool,
        stats,
        cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_dbi::NullTool;
    use superpin_isa::asm::assemble;

    fn process(src: &str) -> Process {
        Process::load(1, &assemble(src).expect("assemble")).expect("load")
    }

    const LOOP: &str = "main:\n li r1, 5000\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";

    #[test]
    fn native_and_pin_agree_on_instruction_count() {
        let native = run_native(process(LOOP)).expect("native");
        let pin = run_pin(process(LOOP), NullTool).expect("pin");
        assert_eq!(native.exit_code, 0);
        assert_eq!(pin.exit_code, 0);
        assert_eq!(native.insts, pin.insts);
    }

    #[test]
    fn pin_overhead_is_modest_without_instrumentation() {
        let native = run_native(process(LOOP)).expect("native");
        let pin = run_pin(process(LOOP), NullTool).expect("pin");
        let overhead = pin.cycles as f64 / native.cycles as f64;
        // Paper §1: "10% overhead for no instrumentation" up to a few ×
        // for cold code. A hot loop amortizes the JIT almost fully.
        assert!(overhead > 1.0);
        assert!(overhead < 3.0, "null-tool overhead {overhead:.2} too high");
    }

    #[test]
    fn native_collects_output() {
        let native = run_native(process(
            r#"
            .data
            msg: .byte 111, 107
            .text
            main:
                li r0, 1
                li r1, 1
                la r2, msg
                li r3, 2
                syscall
                exit 0
            "#,
        ))
        .expect("native");
        assert_eq!(native.output, b"ok");
        assert_eq!(native.syscalls, 2);
    }
}
