//! The `.splog` recording: one run's recipe, decision stream and
//! final report, in the shared framed container.
//!
//! Framing, CRCs and damage reporting are [`crate::container`]'s; this
//! module only says what the [`SPLOG`] frames carry: `0x01` Header (one
//! [`RunRecipe`], first), `0x02` Event (one [`NondetEvent`], in
//! decision order), `0x03` Report (the recorded run's final
//! [`SuperPinReport`]), `0x04` End (empty; guards against silent
//! truncation).

use crate::container::{encode_frame, walk, KIND_HEADER, SPLOG};
use crate::recipe::RunRecipe;
use crate::wire::{from_bytes, CodecError, Wire};
use superpin::{NondetEvent, SuperPinReport};

const FRAME_EVENT: u8 = 0x02;
const FRAME_REPORT: u8 = 0x03;

/// Appends one frame holding `value`, encoded through the reused
/// `payload` buffer.
fn put_frame<T: Wire>(out: &mut Vec<u8>, payload: &mut Vec<u8>, kind: u8, value: &T) {
    payload.clear();
    value.put(payload);
    encode_frame(out, kind, payload);
}

/// A fully parsed recording: recipe, decision stream, final report.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayLog {
    /// How to reconstruct the run's initial state.
    pub recipe: RunRecipe,
    /// The recorded decision stream, in order.
    pub events: Vec<NondetEvent>,
    /// The recorded run's final report (replay verifies against it).
    pub report: SuperPinReport,
}

impl ReplayLog {
    /// Serializes the log to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = SPLOG.preamble();
        let mut payload = Vec::new();
        put_frame(&mut out, &mut payload, KIND_HEADER, &self.recipe);
        for event in &self.events {
            put_frame(&mut out, &mut payload, FRAME_EVENT, event);
        }
        put_frame(&mut out, &mut payload, FRAME_REPORT, &self.report);
        encode_frame(&mut out, SPLOG.end, &[]);
        out
    }

    /// Parses a log from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a bad magic/version, any torn or
    /// corrupt frame, a missing header/report/end frame, or a
    /// malformed payload.
    pub fn decode(bytes: &[u8]) -> Result<ReplayLog, CodecError> {
        let walked = walk(bytes, &SPLOG)?;
        walked.complete()?;
        let mut recipe = None;
        let mut events = Vec::new();
        let mut report = None;
        for frame in &walked.frames {
            let payload = frame.payload;
            match frame.kind {
                KIND_HEADER => recipe = Some(from_bytes(payload, "run recipe")?),
                FRAME_EVENT => events.push(from_bytes(payload, "event")?),
                FRAME_REPORT => report = Some(from_bytes(payload, "report")?),
                _ => {} // the end frame `complete` vouched for
            }
        }
        Ok(ReplayLog {
            recipe: recipe.ok_or(CodecError::BadHeader {
                detail: "log has no header frame".to_string(),
            })?,
            events,
            report: report.ok_or(CodecError::BadHeader {
                detail: "log has no report frame".to_string(),
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::to_bytes;
    use superpin::master::PtraceStats;
    use superpin::{AdmissionDecision, FailPlan, TimeBreakdown};
    use superpin_fault::SITE_COUNT;
    use superpin_workloads::Scale;

    fn empty_report() -> SuperPinReport {
        SuperPinReport {
            total_cycles: 10,
            master_exit_cycles: 8,
            breakdown: TimeBreakdown::default(),
            master_insts: 5,
            master_syscalls: 1,
            ptrace: PtraceStats::default(),
            slices: Vec::new(),
            sig_stats: Default::default(),
            forks_on_timeout: 0,
            forks_on_syscall: 0,
            stall_events: 0,
            master_cow_copies: 0,
            epochs: 2,
            slice_retries: 0,
            slices_degraded: 0,
            peak_resident_bytes: 0,
            slices_deferred: 0,
            checkpoints_dropped: 0,
            caches_evicted: 0,
        }
    }

    fn sample_log() -> ReplayLog {
        ReplayLog {
            recipe: RunRecipe::standard("gcc", Scale::Tiny),
            events: vec![
                NondetEvent::EpochPlan { planned: 4 },
                NondetEvent::Admission {
                    decision: AdmissionDecision::Admit,
                    dropped: vec![],
                    evicted: vec![3],
                },
                NondetEvent::FaultLedger {
                    slice_retries: 0,
                    slices_degraded: 0,
                },
            ],
            report: empty_report(),
        }
    }

    #[test]
    fn log_round_trips() {
        let log = sample_log();
        let bytes = log.encode();
        assert_eq!(&bytes[..5], SPLOG.magic);
        assert_eq!(ReplayLog::decode(&bytes).unwrap(), log);
    }

    #[test]
    fn bad_magic_version_and_truncation_are_rejected() {
        let log = sample_log();
        let bytes = log.encode();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            ReplayLog::decode(&bad_magic),
            Err(CodecError::BadHeader { .. })
        ));

        let mut bad_version = bytes.clone();
        bad_version[5] = 0xFF;
        assert!(matches!(
            ReplayLog::decode(&bad_version),
            Err(CodecError::BadHeader { .. })
        ));

        // v3 recipes carried the plan flag; there is no v3 reader.
        let v3 = [&bytes[..5], &3u16.to_le_bytes(), &bytes[7..]].concat();
        let Err(CodecError::BadHeader { detail }) = ReplayLog::decode(&v3) else {
            panic!("a v3 log must be a bad header");
        };
        assert_eq!(detail, "SPLOG version 3, this build reads 4 — re-record");

        // Cutting mid-frame, or at the last frame boundary.
        for cut in [bytes.len() - 5, bytes.len() - 9] {
            assert!(matches!(
                ReplayLog::decode(&bytes[..cut]),
                Err(CodecError::Truncated { .. })
            ));
        }

        let mut bad_frame = bytes.clone();
        bad_frame[7] = 0x7E; // header frame's kind byte
        assert!(matches!(
            ReplayLog::decode(&bad_frame),
            Err(CodecError::Corrupt { offset: 7, .. })
        ));

        // A flipped payload bit used to decode to a different report.
        let mut flipped = bytes.clone();
        let last_report_byte = bytes.len() - 9 - 4 - 1;
        flipped[last_report_byte] ^= 1;
        assert!(matches!(
            ReplayLog::decode(&flipped),
            Err(CodecError::Corrupt { .. })
        ));
    }

    /// A chaos plan this build cannot run — another build's site count,
    /// an unknown site mode — is neither truncated nor damaged: under
    /// valid CRCs it is a bad tag that says which.
    #[test]
    fn an_unrunnable_chaos_plan_is_a_bad_tag_not_truncation() {
        let mut log = sample_log();
        let plan = FailPlan::new(1, 0.05);
        log.recipe.chaos = Some(plan);
        let header = to_bytes(&log.recipe);
        let plan = to_bytes(&plan);
        let at = header
            .windows(plan.len())
            .position(|window| window == plan)
            .expect("the header carries the plan");
        for (offset, byte, what) in [
            (at + 16, SITE_COUNT as u8 + 1, "chaos plan site count"),
            (at + plan.len() - 1, 0xFF, "site mode"),
        ] {
            let mut bad = header.clone();
            bad[offset] = byte;
            let mut bytes = SPLOG.preamble();
            encode_frame(&mut bytes, KIND_HEADER, &bad);
            encode_frame(&mut bytes, FRAME_REPORT, &to_bytes(&log.report));
            encode_frame(&mut bytes, SPLOG.end, &[]);
            assert_eq!(
                ReplayLog::decode(&bytes),
                Err(CodecError::BadTag {
                    what,
                    tag: byte.into()
                })
            );
        }
    }
}
