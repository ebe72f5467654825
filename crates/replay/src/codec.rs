//! The wire layouts of what the `.splog` framing carries — syscall
//! records, nondeterministic events, the run recipe's chaos plan and
//! scale, and complete run reports — each stated once (see
//! [`crate::wire`]).
//!
//! The reports are field tables: one (JSON name, field) entry per value,
//! in wire order, nested stats flattened in from their own tables, which
//! the `Wire` impl, the report JSON and the replay verifier's diff
//! ([`crate::json`]) all walk.

use crate::wire::{wire_enum, wire_struct, wire_table, CodecError, Reader, Wire};
use superpin::master::PtraceStats;
use superpin::{
    AdmissionDecision, NondetEvent, SignatureStats, SliceEnd, SliceReport, SuperPinReport,
    TimeBreakdown,
};
use superpin_dbi::{CacheStats, CycleBreakdown, EngineStats};
use superpin_fault::{FailPlan, SiteMode, SITE_COUNT};
use superpin_isa::Reg;
use superpin_vm::kernel::{MapOp, MemDelta, SyscallNo, SyscallRecord};
use superpin_workloads::Scale;

wire_struct!(SyscallRecord {
    number,
    args,
    ret,
    mem_writes,
    map_ops,
    reg_writes,
    pc_override,
    exited,
});

wire_struct!(MemDelta { addr, bytes });

wire_enum!(MapOp, "map op" {
    0 => Map { addr: u64, len: u64 },
    1 => Unmap { addr: u64 },
    2 => Brk { brk: u64 },
});

/// The raw syscall number, in one byte.
impl Wire for SyscallNo {
    const MIN_BYTES: usize = u8::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64 as u8).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let raw = u8::get(r)?;
        SyscallNo::from_raw(raw.into()).ok_or(CodecError::BadTag {
            what: "syscall number",
            tag: raw.into(),
        })
    }
}

/// The register index, in one byte.
impl Wire for Reg {
    const MIN_BYTES: usize = u8::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.raw().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let index = u8::get(r)?;
        Reg::try_new(index).ok_or(CodecError::BadTag {
            what: "reg index",
            tag: index.into(),
        })
    }
}

wire_enum!(NondetEvent, "event" {
    1 => Syscall(record: SyscallRecord),
    2 => EpochPlan { planned: u64 },
    3 => Admission { decision: AdmissionDecision, dropped: Vec<u32>, evicted: Vec<u32> },
    4 => FaultLedger { slice_retries: u64, slices_degraded: u64 },
});

wire_enum!(AdmissionDecision, "admission decision" {
    0 => Admit {},
    1 => AdmitDegraded {},
    2 => Defer {},
});

wire_enum!(Scale, "scale" {
    0 => Tiny {},
    1 => Small {},
    2 => Medium {},
    3 => Large {},
});

wire_enum!(SiteMode, "site mode" {
    0 => Inherit {},
    1 => Off {},
    2 => Nth(n: u64),
    3 => Always {},
});

/// Seed, rate, then the writing build's site count in one byte before
/// every site's mode. A plan written with another site count is a bad
/// tag: its schedule would not reproduce.
impl Wire for FailPlan {
    const MIN_BYTES: usize =
        u64::MIN_BYTES + f64::MIN_BYTES + u8::MIN_BYTES + <[SiteMode; SITE_COUNT]>::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.seed.put(out);
        self.rate.put(out);
        (SITE_COUNT as u8).put(out);
        self.site_modes.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let seed = u64::get(r)?;
        let rate = f64::get(r)?;
        let sites = u8::get(r)?;
        if usize::from(sites) != SITE_COUNT {
            return Err(CodecError::BadTag {
                what: "chaos plan site count",
                tag: sites.into(),
            });
        }
        let site_modes = Wire::get(r)?;
        Ok(FailPlan {
            seed,
            rate,
            site_modes,
        })
    }
}

/// Every way a slice ends, in declaration order: its wire tag is its
/// index here, beside its JSON name.
const SLICE_ENDS: [(SliceEnd, &str); 4] = [
    (SliceEnd::SignatureDetected, "signature"),
    (SliceEnd::RecordsExhausted, "records"),
    (SliceEnd::Exited, "exited"),
    (SliceEnd::ToolEnded, "tool"),
];

impl Wire for SliceEnd {
    const MIN_BYTES: usize = u8::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u8).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = u8::get(r)?;
        let end = SLICE_ENDS.get(usize::from(tag)).map(|&(end, _)| end);
        end.ok_or(CodecError::BadTag {
            what: "slice end",
            tag: tag.into(),
        })
    }
}

/// A report field as the JSON and the verifier's diff see it: a count,
/// or the name of how a slice ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Value {
    /// A counter.
    Count(u64),
    /// A name.
    Name(&'static str),
}

impl From<u64> for Value {
    fn from(count: u64) -> Value {
        Value::Count(count)
    }
}

impl From<u32> for Value {
    fn from(count: u32) -> Value {
        Value::Count(count.into())
    }
}

impl From<SliceEnd> for Value {
    fn from(end: SliceEnd) -> Value {
        Value::Name(SLICE_ENDS[end as usize].1)
    }
}

wire_table!(SuperPinReport -> Value {
    "total_cycles" => total_cycles,
    "master_exit_cycles" => master_exit_cycles,
    .. => breakdown,
    "master_insts" => master_insts,
    "master_syscalls" => master_syscalls,
    .. => ptrace,
    .. => sig_stats,
    "forks_on_timeout" => forks_on_timeout,
    "forks_on_syscall" => forks_on_syscall,
    "stall_events" => stall_events,
    "master_cow_copies" => master_cow_copies,
    "epochs" => epochs,
    "slice_retries" => slice_retries,
    "slices_degraded" => slices_degraded,
    "peak_resident_bytes" => peak_resident_bytes,
    "slices_deferred" => slices_deferred,
    "checkpoints_dropped" => checkpoints_dropped,
    "caches_evicted" => caches_evicted,
} then slices);

wire_table!(TimeBreakdown -> Value {
    "native_cycles" => native_cycles,
    "fork_other_cycles" => fork_other_cycles,
    "sleep_cycles" => sleep_cycles,
    "pipeline_cycles" => pipeline_cycles,
});

wire_table!(PtraceStats -> Value {
    "syscall_stops" => syscall_stops,
    "timeout_stops" => timeout_stops,
});

wire_table!(SignatureStats -> Value {
    "quick_checks" => quick_checks,
    "full_checks" => full_checks,
    "stack_checks" => stack_checks,
    "detections" => detections,
});

wire_table!(SliceReport -> Value {
    "num" => num,
    "insts" => insts,
    "records_played" => records_played,
    "end" => end,
    "start_cycles" => start_cycles,
    "wake_cycles" => wake_cycles,
    "end_cycles" => end_cycles,
    .. => engine,
    .. => cache,
    "cow_copies" => cow_copies,
});

wire_table!(EngineStats -> Value {
    .. => cycles,
    "insts_executed" => insts_executed,
    "traces_executed" => traces_executed,
    "analysis_calls" => analysis_calls,
    "if_checks" => if_checks,
    "then_calls" => then_calls,
    "shared_adoptions" => shared_cache_adoptions,
    "shared_misses" => shared_cache_misses,
    "shared_contention" => shared_cache_contention,
});

wire_table!(CycleBreakdown -> Value {
    "app" => app,
    "analysis" => analysis,
    "jit" => jit,
    "dispatch" => dispatch,
    "syscall" => syscall,
});

wire_table!(CacheStats -> Value {
    "lookups" => lookups,
    "hits" => hits,
    "traces_compiled" => traces_compiled,
    "insts_compiled" => insts_compiled,
    "flushes" => flushes,
    "smc_flushes" => smc_flushes,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{from_bytes, to_bytes, Fields};
    use superpin_fault::Site;

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
                end: SliceEnd::ToolEnded,
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

    fn round_trips<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_bytes(value);
        let mut r = Reader::new(&bytes);
        assert_eq!(&r.field::<T>("value").expect("decodes"), value);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn syscall_record_round_trips() {
        round_trips(&sample_record());
    }

    #[test]
    fn every_event_kind_round_trips() {
        for event in [
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
        ] {
            round_trips(&event);
        }
    }

    #[test]
    fn report_round_trips() {
        round_trips(&sample_report());
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
        let out = to_bytes(&record);
        // number, five args, ret, then the three (empty) lists.
        let counts = 1 + 5 * 8 + 8;
        for (offset, what) in [
            (counts, "SyscallRecord.mem_writes"),
            (counts + 4, "SyscallRecord.map_ops"),
            (counts + 8, "SyscallRecord.reg_writes"),
        ] {
            let mut crafted = out.clone();
            crafted[offset..offset + 4].fill(0xFF);
            assert_eq!(
                from_bytes::<SyscallRecord>(&crafted, "record"),
                Err(CodecError::Truncated { what })
            );
        }

        let mut out = to_bytes(&sample_report());
        out[25 * 8..25 * 8 + 4].fill(0xFF);
        assert_eq!(
            from_bytes::<SuperPinReport>(&out, "report"),
            Err(CodecError::Truncated {
                what: "SuperPinReport.slices"
            })
        );

        let mut out = to_bytes(&NondetEvent::Admission {
            decision: AdmissionDecision::Admit,
            dropped: vec![],
            evicted: vec![],
        });
        out[2..6].fill(0xFF);
        assert_eq!(
            from_bytes::<NondetEvent>(&out, "event"),
            Err(CodecError::Truncated {
                what: "NondetEvent::Admission.dropped"
            })
        );
    }

    /// A slice report is fixed-width: num, three u64s either side of the
    /// end tag, and the 20 stats.
    #[test]
    fn slice_report_width_is_its_minimum() {
        let slice = &sample_report().slices[0];
        assert_eq!(SliceReport::MIN_BYTES, 4 + 1 + (2 + 3 + 20) * 8);
        assert_eq!(to_bytes(slice).len(), SliceReport::MIN_BYTES);
        let mut fields = Vec::new();
        slice.each(&mut |name, value| fields.push((name, value)));
        assert_eq!(fields.len(), 27);
        assert_eq!(fields[3], ("end", Value::Name("tool")));
    }

    /// `SliceEnd as u8` is the wire tag: the table is in declaration order.
    #[test]
    fn slice_end_tags_are_declaration_order() {
        for (tag, &(end, _)) in SLICE_ENDS.iter().enumerate() {
            assert_eq!(end as usize, tag);
        }
    }

    #[test]
    fn corrupt_tags_are_rejected_by_name() {
        let mut out = to_bytes(&NondetEvent::EpochPlan { planned: 5 });
        out[0] = 0xFF;
        assert_eq!(
            from_bytes::<NondetEvent>(&out, "event"),
            Err(CodecError::BadTag {
                what: "event",
                tag: 0xFF
            })
        );
        let mut out = to_bytes(&sample_report());
        out[25 * 8 + 4 + 4 + 8 + 8] = 4;
        assert_eq!(
            from_bytes::<SuperPinReport>(&out, "report"),
            Err(CodecError::BadTag {
                what: "slice end",
                tag: 4
            })
        );
    }

    fn sample_plans() -> [FailPlan; 3] {
        [
            FailPlan::new(0, 0.0),
            FailPlan::new(u64::MAX, 1.0),
            FailPlan::new(3, 0.05)
                .with_site(Site::VmForkCow, SiteMode::Off)
                .with_site(Site::ParallelWorkerChannel, SiteMode::Nth(17))
                .with_site(Site::DbiEngineDispatch, SiteMode::Always),
        ]
    }

    #[test]
    fn chaos_plan_round_trips_and_leaves_trailing_bytes() {
        for plan in sample_plans() {
            let mut bytes = to_bytes(&plan);
            bytes.extend_from_slice(&[0xAA, 0xBB]);
            let mut r = Reader::new(&bytes);
            assert_eq!(r.field::<FailPlan>("plan"), Ok(plan));
            assert_eq!(r.remaining(), 2);
        }
    }

    #[test]
    fn chaos_plan_truncated_anywhere_is_truncation() {
        let bytes = to_bytes(&sample_plans()[2]);
        for cut in 0..bytes.len() {
            let read = from_bytes::<FailPlan>(&bytes[..cut], "chaos plan");
            assert!(
                matches!(read, Err(CodecError::Truncated { .. })),
                "cut at {cut}: {read:?}"
            );
        }
    }

    #[test]
    fn chaos_plan_with_an_unknown_site_mode_is_a_bad_site_mode_tag() {
        let mut bad = to_bytes(&FailPlan::new(9, 0.25));
        *bad.last_mut().expect("nonempty") = 0xFF;
        assert_eq!(
            from_bytes::<FailPlan>(&bad, "chaos plan"),
            Err(CodecError::BadTag {
                what: "site mode",
                tag: 0xFF
            })
        );
    }

    /// Another build's site count: the schedule would not reproduce.
    #[test]
    fn chaos_plan_from_another_site_count_is_a_bad_site_count_tag() {
        let mut wrong = to_bytes(&FailPlan::new(9, 0.25));
        assert_eq!(wrong[16], SITE_COUNT as u8);
        wrong[16] = SITE_COUNT as u8 + 1;
        assert_eq!(
            from_bytes::<FailPlan>(&wrong, "chaos plan"),
            Err(CodecError::BadTag {
                what: "chaos plan site count",
                tag: SITE_COUNT as u64 + 1
            })
        );
    }
}
