//! Binary codecs for the payloads the `.splog` framing carries: syscall
//! records, nondeterministic events, and complete run reports.
//!
//! Every codec is a hand-rolled, versioned little-endian layout (the
//! build is offline — no serde). Encoding is infallible; decoding
//! returns [`CodecError`] on truncation or unknown tags, never panics.

use crate::wire::{put_i64, put_opt_u64, put_u32, put_u64, put_u8, CodecError, Reader};
use superpin::{
    AdmissionDecision, NondetEvent, SignatureStats, SliceEnd, SliceReport, SuperPinReport,
    TimeBreakdown,
};
use superpin_dbi::{CacheStats, CycleBreakdown, EngineStats};
use superpin_isa::Reg;
use superpin_vm::kernel::{MapOp, MemDelta, SyscallNo, SyscallRecord};
use superpin_vm::ptrace::PtraceStats;

/// Encodes one syscall record.
pub fn put_syscall_record(out: &mut Vec<u8>, record: &SyscallRecord) {
    put_u8(out, record.number as u64 as u8);
    for arg in record.args {
        put_u64(out, arg);
    }
    put_u64(out, record.ret);
    put_u32(out, record.mem_writes.len() as u32);
    for delta in &record.mem_writes {
        put_u64(out, delta.addr);
        crate::wire::put_bytes(out, &delta.bytes);
    }
    put_u32(out, record.map_ops.len() as u32);
    for op in &record.map_ops {
        match *op {
            MapOp::Map { addr, len } => {
                put_u8(out, 0);
                put_u64(out, addr);
                put_u64(out, len);
            }
            MapOp::Unmap { addr } => {
                put_u8(out, 1);
                put_u64(out, addr);
            }
            MapOp::Brk { brk } => {
                put_u8(out, 2);
                put_u64(out, brk);
            }
        }
    }
    put_u32(out, record.reg_writes.len() as u32);
    for &(reg, value) in &record.reg_writes {
        put_u8(out, reg.raw());
        put_u64(out, value);
    }
    put_opt_u64(out, record.pc_override);
    match record.exited {
        Some(code) => {
            put_u8(out, 1);
            put_i64(out, code);
        }
        None => put_u8(out, 0),
    }
}

/// Decodes one syscall record.
pub fn get_syscall_record(reader: &mut Reader<'_>) -> Result<SyscallRecord, CodecError> {
    let raw = reader.u8("syscall number")?;
    let number = SyscallNo::from_raw(raw as u64).ok_or(CodecError::BadTag {
        what: "syscall number",
        tag: raw as u64,
    })?;
    let mut args = [0u64; 5];
    for arg in &mut args {
        *arg = reader.u64("syscall arg")?;
    }
    let ret = reader.u64("syscall ret")?;
    let mem_writes = reader.vec("mem_writes count", 8 + 4, |r| {
        Ok(MemDelta {
            addr: r.u64("mem_write addr")?,
            bytes: r.bytes("mem_write bytes")?.into(),
        })
    })?;
    let map_ops = reader.vec("map_ops count", 1 + 8, |r| match r.u8("map_op tag")? {
        0 => Ok(MapOp::Map {
            addr: r.u64("map addr")?,
            len: r.u64("map len")?,
        }),
        1 => Ok(MapOp::Unmap {
            addr: r.u64("unmap addr")?,
        }),
        2 => Ok(MapOp::Brk { brk: r.u64("brk")? }),
        tag => Err(CodecError::BadTag {
            what: "map_op tag",
            tag: tag as u64,
        }),
    })?;
    let reg_writes = reader.vec("reg_writes count", 1 + 8, |r| {
        let index = r.u8("reg index")?;
        let reg = Reg::try_new(index).ok_or(CodecError::BadTag {
            what: "reg index",
            tag: index as u64,
        })?;
        Ok((reg, r.u64("reg value")?))
    })?;
    let pc_override = reader.opt_u64("pc_override")?;
    let exited = match reader.u8("exited flag")? {
        0 => None,
        1 => Some(reader.i64("exit code")?),
        tag => {
            return Err(CodecError::BadTag {
                what: "exited flag",
                tag: tag as u64,
            })
        }
    };
    Ok(SyscallRecord {
        number,
        args,
        ret,
        mem_writes,
        map_ops,
        reg_writes,
        pc_override,
        exited,
    })
}

/// Encodes one nondeterministic event.
pub fn put_event(out: &mut Vec<u8>, event: &NondetEvent) {
    match event {
        NondetEvent::Syscall(record) => {
            put_u8(out, 1);
            put_syscall_record(out, record);
        }
        NondetEvent::EpochPlan { planned } => {
            put_u8(out, 2);
            put_u64(out, *planned);
        }
        NondetEvent::Admission {
            decision,
            dropped,
            evicted,
        } => {
            put_u8(out, 3);
            put_u8(
                out,
                match decision {
                    AdmissionDecision::Admit => 0,
                    AdmissionDecision::AdmitDegraded => 1,
                    AdmissionDecision::Defer => 2,
                },
            );
            put_u32(out, dropped.len() as u32);
            for num in dropped {
                put_u32(out, *num);
            }
            put_u32(out, evicted.len() as u32);
            for num in evicted {
                put_u32(out, *num);
            }
        }
        NondetEvent::FaultLedger {
            slice_retries,
            slices_degraded,
        } => {
            put_u8(out, 4);
            put_u64(out, *slice_retries);
            put_u64(out, *slices_degraded);
        }
    }
}

/// Decodes one nondeterministic event.
pub fn get_event(reader: &mut Reader<'_>) -> Result<NondetEvent, CodecError> {
    match reader.u8("event tag")? {
        1 => Ok(NondetEvent::Syscall(get_syscall_record(reader)?)),
        2 => Ok(NondetEvent::EpochPlan {
            planned: reader.u64("planned quanta")?,
        }),
        3 => {
            let decision = match reader.u8("admission decision")? {
                0 => AdmissionDecision::Admit,
                1 => AdmissionDecision::AdmitDegraded,
                2 => AdmissionDecision::Defer,
                tag => {
                    return Err(CodecError::BadTag {
                        what: "admission decision",
                        tag: tag as u64,
                    })
                }
            };
            let dropped = reader.vec("dropped count", 4, |r| r.u32("dropped slice"))?;
            let evicted = reader.vec("evicted count", 4, |r| r.u32("evicted slice"))?;
            Ok(NondetEvent::Admission {
                decision,
                dropped,
                evicted,
            })
        }
        4 => Ok(NondetEvent::FaultLedger {
            slice_retries: reader.u64("slice_retries")?,
            slices_degraded: reader.u64("slices_degraded")?,
        }),
        tag => Err(CodecError::BadTag {
            what: "event tag",
            tag: tag as u64,
        }),
    }
}

fn put_slice_report(out: &mut Vec<u8>, slice: &SliceReport) {
    put_u32(out, slice.num);
    put_u64(out, slice.insts);
    put_u64(out, slice.records_played);
    put_u8(
        out,
        match slice.end {
            SliceEnd::SignatureDetected => 0,
            SliceEnd::RecordsExhausted => 1,
            SliceEnd::Exited => 2,
            SliceEnd::ToolEnded => 3,
        },
    );
    put_u64(out, slice.start_cycles);
    put_u64(out, slice.wake_cycles);
    put_u64(out, slice.end_cycles);
    for value in [
        slice.engine.cycles.app,
        slice.engine.cycles.analysis,
        slice.engine.cycles.jit,
        slice.engine.cycles.dispatch,
        slice.engine.cycles.syscall,
        slice.engine.insts_executed,
        slice.engine.traces_executed,
        slice.engine.analysis_calls,
        slice.engine.if_checks,
        slice.engine.then_calls,
        slice.engine.shared_cache_adoptions,
        slice.engine.shared_cache_misses,
        slice.engine.shared_cache_contention,
        slice.cache.lookups,
        slice.cache.hits,
        slice.cache.traces_compiled,
        slice.cache.insts_compiled,
        slice.cache.flushes,
        slice.cache.smc_flushes,
        slice.cow_copies,
    ] {
        put_u64(out, value);
    }
}

/// A slice report is fixed-width: num, three u64s either side of the
/// end tag, and the 20 stats.
const SLICE_REPORT_BYTES: usize = 4 + 1 + (2 + 3 + 20) * 8;

fn get_slice_report(reader: &mut Reader<'_>) -> Result<SliceReport, CodecError> {
    let num = reader.u32("slice num")?;
    let insts = reader.u64("slice insts")?;
    let records_played = reader.u64("records_played")?;
    let end = match reader.u8("slice end")? {
        0 => SliceEnd::SignatureDetected,
        1 => SliceEnd::RecordsExhausted,
        2 => SliceEnd::Exited,
        3 => SliceEnd::ToolEnded,
        tag => {
            return Err(CodecError::BadTag {
                what: "slice end",
                tag: tag as u64,
            })
        }
    };
    let start_cycles = reader.u64("start_cycles")?;
    let wake_cycles = reader.u64("wake_cycles")?;
    let end_cycles = reader.u64("end_cycles")?;
    let mut values = [0u64; 20];
    for value in &mut values {
        *value = reader.u64("slice stat")?;
    }
    Ok(SliceReport {
        num,
        insts,
        records_played,
        end,
        start_cycles,
        wake_cycles,
        end_cycles,
        engine: EngineStats {
            cycles: CycleBreakdown {
                app: values[0],
                analysis: values[1],
                jit: values[2],
                dispatch: values[3],
                syscall: values[4],
            },
            insts_executed: values[5],
            traces_executed: values[6],
            analysis_calls: values[7],
            if_checks: values[8],
            then_calls: values[9],
            shared_cache_adoptions: values[10],
            shared_cache_misses: values[11],
            shared_cache_contention: values[12],
        },
        cache: CacheStats {
            lookups: values[13],
            hits: values[14],
            traces_compiled: values[15],
            insts_compiled: values[16],
            flushes: values[17],
            smc_flushes: values[18],
        },
        cow_copies: values[19],
    })
}

/// Encodes a complete run report.
pub fn put_report(out: &mut Vec<u8>, report: &SuperPinReport) {
    for value in [
        report.total_cycles,
        report.master_exit_cycles,
        report.breakdown.native_cycles,
        report.breakdown.fork_other_cycles,
        report.breakdown.sleep_cycles,
        report.breakdown.pipeline_cycles,
        report.master_insts,
        report.master_syscalls,
        report.ptrace.syscall_stops,
        report.ptrace.timeout_stops,
        report.sig_stats.quick_checks,
        report.sig_stats.full_checks,
        report.sig_stats.stack_checks,
        report.sig_stats.detections,
        report.forks_on_timeout,
        report.forks_on_syscall,
        report.stall_events,
        report.master_cow_copies,
        report.epochs,
        report.slice_retries,
        report.slices_degraded,
        report.peak_resident_bytes,
        report.slices_deferred,
        report.checkpoints_dropped,
        report.caches_evicted,
    ] {
        put_u64(out, value);
    }
    put_u32(out, report.slices.len() as u32);
    for slice in &report.slices {
        put_slice_report(out, slice);
    }
}

/// Decodes a complete run report.
pub fn get_report(reader: &mut Reader<'_>) -> Result<SuperPinReport, CodecError> {
    let mut values = [0u64; 25];
    for value in &mut values {
        *value = reader.u64("report field")?;
    }
    let slices = reader.vec("slice count", SLICE_REPORT_BYTES, get_slice_report)?;
    Ok(SuperPinReport {
        total_cycles: values[0],
        master_exit_cycles: values[1],
        breakdown: TimeBreakdown {
            native_cycles: values[2],
            fork_other_cycles: values[3],
            sleep_cycles: values[4],
            pipeline_cycles: values[5],
        },
        master_insts: values[6],
        master_syscalls: values[7],
        ptrace: PtraceStats {
            syscall_stops: values[8],
            timeout_stops: values[9],
        },
        slices,
        sig_stats: SignatureStats {
            quick_checks: values[10],
            full_checks: values[11],
            stack_checks: values[12],
            detections: values[13],
        },
        forks_on_timeout: values[14],
        forks_on_syscall: values[15],
        stall_events: values[16],
        master_cow_copies: values[17],
        epochs: values[18],
        slice_retries: values[19],
        slices_degraded: values[20],
        peak_resident_bytes: values[21],
        slices_deferred: values[22],
        checkpoints_dropped: values[23],
        caches_evicted: values[24],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> SyscallRecord {
        SyscallRecord {
            number: SyscallNo::Read,
            args: [3, 0x1000, 64, 0, 0],
            ret: 64,
            mem_writes: vec![MemDelta {
                addr: 0x1000,
                bytes: vec![1u8, 2, 3, 4].into(),
            }],
            map_ops: vec![
                MapOp::Map {
                    addr: 0x2000,
                    len: 0x1000,
                },
                MapOp::Unmap { addr: 0x2000 },
                MapOp::Brk { brk: 0x3000 },
            ],
            reg_writes: vec![(Reg::SP, 0xFF00), (Reg::new(1), 7)],
            pc_override: Some(0x400),
            exited: Some(-3),
        }
    }

    fn sample_report() -> SuperPinReport {
        SuperPinReport {
            total_cycles: 123_456,
            master_exit_cycles: 100_000,
            breakdown: TimeBreakdown {
                native_cycles: 90_000,
                fork_other_cycles: 5_000,
                sleep_cycles: 5_000,
                pipeline_cycles: 23_456,
            },
            master_insts: 45_000,
            master_syscalls: 12,
            ptrace: PtraceStats {
                syscall_stops: 12,
                timeout_stops: 4,
            },
            slices: vec![SliceReport {
                num: 1,
                insts: 20_000,
                records_played: 3,
                end: SliceEnd::SignatureDetected,
                start_cycles: 0,
                wake_cycles: 1_000,
                end_cycles: 44_000,
                engine: EngineStats {
                    cycles: CycleBreakdown {
                        app: 1,
                        analysis: 2,
                        jit: 3,
                        dispatch: 4,
                        syscall: 5,
                    },
                    insts_executed: 20_000,
                    traces_executed: 700,
                    analysis_calls: 20_000,
                    if_checks: 0,
                    then_calls: 0,
                    shared_cache_adoptions: 0,
                    shared_cache_misses: 0,
                    shared_cache_contention: 0,
                },
                cache: CacheStats {
                    lookups: 700,
                    hits: 650,
                    traces_compiled: 50,
                    insts_compiled: 400,
                    flushes: 0,
                    smc_flushes: 1,
                },
                cow_copies: 9,
            }],
            sig_stats: SignatureStats {
                quick_checks: 500,
                full_checks: 2,
                stack_checks: 1,
                detections: 1,
            },
            forks_on_timeout: 3,
            forks_on_syscall: 1,
            stall_events: 0,
            master_cow_copies: 17,
            epochs: 88,
            slice_retries: 2,
            slices_degraded: 1,
            peak_resident_bytes: 1 << 20,
            slices_deferred: 1,
            checkpoints_dropped: 2,
            caches_evicted: 1,
        }
    }

    #[test]
    fn syscall_record_round_trips() {
        let record = sample_record();
        let mut out = Vec::new();
        put_syscall_record(&mut out, &record);
        let mut reader = Reader::new(&out);
        assert_eq!(get_syscall_record(&mut reader).unwrap(), record);
        assert!(reader.is_empty());
    }

    #[test]
    fn every_event_kind_round_trips() {
        let events = vec![
            NondetEvent::Syscall(sample_record()),
            NondetEvent::EpochPlan { planned: 17 },
            NondetEvent::Admission {
                decision: AdmissionDecision::AdmitDegraded,
                dropped: vec![2, 5],
                evicted: vec![1],
            },
            NondetEvent::Admission {
                decision: AdmissionDecision::Defer,
                dropped: vec![],
                evicted: vec![],
            },
            NondetEvent::FaultLedger {
                slice_retries: 4,
                slices_degraded: 1,
            },
        ];
        let mut out = Vec::new();
        for event in &events {
            put_event(&mut out, event);
        }
        let mut reader = Reader::new(&out);
        for event in &events {
            assert_eq!(&get_event(&mut reader).unwrap(), event);
        }
        assert!(reader.is_empty());
    }

    #[test]
    fn report_round_trips() {
        let report = sample_report();
        let mut out = Vec::new();
        put_report(&mut out, &report);
        let mut reader = Reader::new(&out);
        assert_eq!(get_report(&mut reader).unwrap(), report);
        assert!(reader.is_empty());
    }

    /// The 44 GB abort: a count of `0xFFFF_FFFF` is typed truncation,
    /// not a reservation.
    #[test]
    fn huge_counts_are_truncation_not_allocation() {
        let record = SyscallRecord {
            mem_writes: vec![],
            map_ops: vec![],
            reg_writes: vec![],
            ..sample_record()
        };
        let mut out = Vec::new();
        put_syscall_record(&mut out, &record);
        // number, five args, ret, then the three (empty) lists.
        let counts = 1 + 5 * 8 + 8;
        for (offset, what) in [
            (counts, "mem_writes count"),
            (counts + 4, "map_ops count"),
            (counts + 8, "reg_writes count"),
        ] {
            let mut crafted = out.clone();
            crafted[offset..offset + 4].fill(0xFF);
            assert_eq!(
                get_syscall_record(&mut Reader::new(&crafted)),
                Err(CodecError::Truncated { what })
            );
        }

        let mut out = Vec::new();
        put_report(&mut out, &sample_report());
        out[25 * 8..25 * 8 + 4].fill(0xFF);
        assert_eq!(
            get_report(&mut Reader::new(&out)),
            Err(CodecError::Truncated {
                what: "slice count"
            })
        );

        let mut out = Vec::new();
        put_event(
            &mut out,
            &NondetEvent::Admission {
                decision: AdmissionDecision::Admit,
                dropped: vec![],
                evicted: vec![],
            },
        );
        out[2..6].fill(0xFF);
        assert_eq!(
            get_event(&mut Reader::new(&out)),
            Err(CodecError::Truncated {
                what: "dropped count"
            })
        );
    }

    /// `SLICE_REPORT_BYTES` is what one slice really encodes to.
    #[test]
    fn slice_report_width_matches_the_encoder() {
        let mut out = Vec::new();
        put_slice_report(&mut out, &sample_report().slices[0]);
        assert_eq!(out.len(), SLICE_REPORT_BYTES);
    }

    #[test]
    fn corrupt_event_tag_is_rejected() {
        let mut out = Vec::new();
        put_event(&mut out, &NondetEvent::EpochPlan { planned: 5 });
        out[0] = 0xFF;
        let mut reader = Reader::new(&out);
        assert_eq!(
            get_event(&mut reader),
            Err(CodecError::BadTag {
                what: "event tag",
                tag: 0xFF
            })
        );
    }
}
