//! Record/replay for **fleet** (multi-tenant service) runs.
//!
//! A `spin-serve` run's nondeterministic surface is tiny by design:
//! every scheduling decision — admission order, fair-share selection,
//! eviction ladder walks, epoch interleaving — is a pure function of
//! the job file and the fleet knobs. So the fleet log records exactly
//! that: the verbatim job-spec text, the knobs, the decision event
//! stream the scheduler emitted, and the final per-job outcome lines.
//! Replay re-parses the stored spec, re-runs the fleet (at *any*
//! `--threads`), and compares the fresh event stream and outcomes
//! byte-for-byte against the log — the fleet analogue of the per-run
//! `.splog` verification.

use superpin_fault::FailPlan;

use crate::container::{encode_frame, walk, FrameDamage, KIND_HEADER, SPFL};
use crate::wal::{salvage, WAL_FRAME_COMMIT, WAL_FRAME_END, WAL_FRAME_HEADER, WAL_FRAME_RECORD};
use crate::wire::{put_bool, put_opt_u64, put_str, put_u32, put_u64, put_u8, CodecError, Reader};

const FRAME_EVENT: u8 = 0x02;
const FRAME_OUTCOME: u8 = 0x03;

/// Everything needed to rebuild a fleet run's inputs: the job-spec
/// text verbatim plus the CLI knobs that shape scheduling. The
/// recorded thread count is informational only — replay may run at a
/// different `--threads` and must still match.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetRecipe {
    /// The job file exactly as parsed (tenants + jobs + arrivals).
    pub spec_text: String,
    /// Worker threads the recording ran with (informational).
    pub threads: u32,
    /// Fleet round width (`--fleet-slots`).
    pub slots: u32,
    /// Shared fleet memory budget in bytes (`--fleet-budget`).
    pub fleet_budget: Option<u64>,
    /// Fleet-level chaos plan; tenants derive their domains from it.
    pub chaos: Option<FailPlan>,
    /// Paper-time timeslice in milliseconds (`--spmsec`).
    pub spmsec: u64,
}

impl FleetRecipe {
    /// Appends the recipe's wire form (the header frame of both the
    /// SPFL log and the WAL).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_str(out, &self.spec_text);
        put_u32(out, self.threads);
        put_u32(out, self.slots);
        put_opt_u64(out, self.fleet_budget);
        match &self.chaos {
            Some(plan) => {
                put_bool(out, true);
                plan.encode(out);
            }
            None => put_bool(out, false),
        }
        put_u64(out, self.spmsec);
    }

    /// Decodes a recipe written by [`FleetRecipe::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] describing the first malformed field.
    pub fn decode_from(reader: &mut Reader) -> Result<FleetRecipe, CodecError> {
        let spec_text = reader.str("spec text")?;
        let threads = reader.u32("threads")?;
        let slots = reader.u32("slots")?;
        let fleet_budget = reader.opt_u64("fleet budget")?;
        let chaos = if reader.bool("chaos presence")? {
            let tail = reader.tail();
            let mut pos = 0usize;
            let plan = FailPlan::decode(tail, &mut pos)
                .ok_or(CodecError::Truncated { what: "chaos plan" })?;
            reader.skip(pos, "chaos plan")?;
            Some(plan)
        } else {
            None
        };
        let spmsec = reader.u64("spmsec")?;
        Ok(FleetRecipe {
            spec_text,
            threads,
            slots,
            fleet_budget,
            chaos,
            spmsec,
        })
    }
}

/// One scheduling decision at a fleet round barrier, stamped with the
/// fleet virtual clock. The stream of these is the run's complete
/// decision trace; two runs with equal traces and equal outcomes are
/// the same run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetEvent {
    /// A job was admitted; `budget` carries the clamp when the
    /// admission was degraded (ladder rung 3), `None` for full-budget.
    Admit {
        /// Job index in spec order.
        job: u32,
        /// Fleet virtual time at the decision.
        fleet_now: u64,
        /// Degraded-admission budget clamp, if any.
        budget: Option<u64>,
    },
    /// A job's first deferral (ladder rung 2); retries are not logged.
    Defer {
        /// Job index in spec order.
        job: u32,
        /// Fleet virtual time at the decision.
        fleet_now: u64,
    },
    /// The fleet evicted code caches from a running job (ladder rung 1).
    Evict {
        /// Job index in spec order.
        job: u32,
        /// Simulated bytes freed.
        bytes: u64,
        /// Fleet virtual time at the decision.
        fleet_now: u64,
    },
    /// A job completed and merged its final report.
    Complete {
        /// Job index in spec order.
        job: u32,
        /// Fleet virtual time at the round barrier observing completion.
        fleet_now: u64,
    },
}

/// Appends one event's wire form (an SPFL event frame, or one entry
/// of a WAL round frame).
fn put_fleet_event(out: &mut Vec<u8>, event: &FleetEvent) {
    match *event {
        FleetEvent::Admit {
            job,
            fleet_now,
            budget,
        } => {
            put_u8(out, 0);
            put_u32(out, job);
            put_u64(out, fleet_now);
            put_opt_u64(out, budget);
        }
        FleetEvent::Defer { job, fleet_now } => {
            put_u8(out, 1);
            put_u32(out, job);
            put_u64(out, fleet_now);
        }
        FleetEvent::Evict {
            job,
            bytes,
            fleet_now,
        } => {
            put_u8(out, 2);
            put_u32(out, job);
            put_u64(out, bytes);
            put_u64(out, fleet_now);
        }
        FleetEvent::Complete { job, fleet_now } => {
            put_u8(out, 3);
            put_u32(out, job);
            put_u64(out, fleet_now);
        }
    }
}

/// The shortest event on the wire: tag, job, one timestamp.
const MIN_EVENT_BYTES: usize = 1 + 4 + 8;

/// Decodes one event written by [`put_fleet_event`].
fn get_fleet_event(reader: &mut Reader) -> Result<FleetEvent, CodecError> {
    let tag = reader.u8("event tag")?;
    Ok(match tag {
        0 => FleetEvent::Admit {
            job: reader.u32("admit job")?,
            fleet_now: reader.u64("admit time")?,
            budget: reader.opt_u64("admit budget")?,
        },
        1 => FleetEvent::Defer {
            job: reader.u32("defer job")?,
            fleet_now: reader.u64("defer time")?,
        },
        2 => FleetEvent::Evict {
            job: reader.u32("evict job")?,
            bytes: reader.u64("evict bytes")?,
            fleet_now: reader.u64("evict time")?,
        },
        3 => FleetEvent::Complete {
            job: reader.u32("complete job")?,
            fleet_now: reader.u64("complete time")?,
        },
        other => {
            return Err(CodecError::BadTag {
                what: "fleet event",
                tag: u64::from(other),
            })
        }
    })
}

/// A complete fleet log: recipe, decision trace, and the per-job
/// outcome JSON lines in job order.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetLog {
    /// Inputs (see [`FleetRecipe`]).
    pub recipe: FleetRecipe,
    /// The scheduler's decision trace.
    pub events: Vec<FleetEvent>,
    /// Per-job outcome lines (deterministic JSON), job-id order.
    pub outcomes: Vec<String>,
}

impl FleetLog {
    /// Serializes the log: a header frame (the recipe), one frame per
    /// event, one per outcome line, and the end frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = SPFL.preamble();
        let mut payload = Vec::new();
        self.recipe.encode_into(&mut payload);
        encode_frame(&mut out, KIND_HEADER, &payload);
        for event in &self.events {
            payload.clear();
            put_fleet_event(&mut payload, event);
            encode_frame(&mut out, FRAME_EVENT, &payload);
        }
        for line in &self.outcomes {
            encode_frame(&mut out, FRAME_OUTCOME, line.as_bytes());
        }
        encode_frame(&mut out, SPFL.end, &[]);
        out
    }

    /// Decodes a log, rejecting unknown magic/version, torn or corrupt
    /// frames, a missing header or end frame, and malformed payloads.
    ///
    /// # Errors
    ///
    /// [`CodecError`] describing the first fault.
    pub fn decode(bytes: &[u8]) -> Result<FleetLog, CodecError> {
        let walked = walk(bytes, &SPFL)?;
        walked.complete()?;
        let mut recipe = None;
        let mut events = Vec::new();
        let mut outcomes = Vec::new();
        for frame in &walked.frames {
            let mut payload = Reader::new(frame.payload);
            match frame.kind {
                KIND_HEADER => recipe = Some(FleetRecipe::decode_from(&mut payload)?),
                FRAME_EVENT => events.push(get_fleet_event(&mut payload)?),
                FRAME_OUTCOME => {
                    let line = std::str::from_utf8(frame.payload).map_err(|_| CodecError::BadUtf8);
                    outcomes.push(line?.to_owned());
                }
                _ => {} // the end frame `complete` vouched for
            }
        }
        Ok(FleetLog {
            recipe: recipe.ok_or(CodecError::BadHeader {
                detail: "fleet log has no header frame".to_owned(),
            })?,
            events,
            outcomes,
        })
    }
}

/// First divergence between a recorded fleet log and a fresh re-run's
/// (events, outcomes); `None` means bit-identical. The description
/// names the diverging event index or job line so a CI failure reads
/// without opening the log.
pub fn diff_fleet(
    recorded: &FleetLog,
    events: &[FleetEvent],
    outcomes: &[String],
) -> Option<String> {
    for (index, (old, new)) in recorded.events.iter().zip(events.iter()).enumerate() {
        if old != new {
            return Some(format!(
                "event {index}: recorded {old:?}, replay produced {new:?}"
            ));
        }
    }
    if recorded.events.len() != events.len() {
        return Some(format!(
            "event count: recorded {}, replay produced {}",
            recorded.events.len(),
            events.len()
        ));
    }
    for (index, (old, new)) in recorded.outcomes.iter().zip(outcomes.iter()).enumerate() {
        if old != new {
            let width = old
                .chars()
                .zip(new.chars())
                .take_while(|(a, b)| a == b)
                .count();
            return Some(format!(
                "job {index} outcome diverges at byte {width}: recorded `{}`, replay `{}`",
                &old[width.min(old.len())..(width + 40).min(old.len())],
                &new[width.min(new.len())..(width + 40).min(new.len())],
            ));
        }
    }
    if recorded.outcomes.len() != outcomes.len() {
        return Some(format!(
            "outcome count: recorded {}, replay produced {}",
            recorded.outcomes.len(),
            outcomes.len()
        ));
    }
    None
}

/// Everything one settled fleet round changed, journalled as one WAL
/// record. Re-executing the fleet from round 0 and comparing each
/// fresh frame against the committed one verifies — field by field —
/// that the resumed run walks the recorded run's exact path:
/// `selected`/`deltas` pin the fair-queue virtual times, `events`
/// pin admissions/deferrals/evictions/completions, and `usages` pin
/// the tenant ledger's posted residency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundFrame {
    /// Round number (1-based, matching the service report's count).
    pub round: u64,
    /// Fleet virtual time after the round's settlement.
    pub fleet_now: u64,
    /// Selected job ids, in slot order.
    pub selected: Vec<u32>,
    /// Per-slot virtual-time charges (one per selected job).
    pub deltas: Vec<u64>,
    /// Every decision event since the previous frame (admission
    /// barrier included).
    pub events: Vec<FleetEvent>,
    /// Post-settlement ledger usage per tenant, tenant-id order.
    pub usages: Vec<u64>,
}

impl RoundFrame {
    /// Serializes the frame's payload (the WAL adds its own CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.round);
        put_u64(&mut out, self.fleet_now);
        put_u32(&mut out, self.selected.len() as u32);
        for &id in &self.selected {
            put_u32(&mut out, id);
        }
        put_u32(&mut out, self.deltas.len() as u32);
        for &delta in &self.deltas {
            put_u64(&mut out, delta);
        }
        put_u32(&mut out, self.events.len() as u32);
        for event in &self.events {
            put_fleet_event(&mut out, event);
        }
        put_u32(&mut out, self.usages.len() as u32);
        for &usage in &self.usages {
            put_u64(&mut out, usage);
        }
        out
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`CodecError`] describing the first malformed field.
    pub fn decode(bytes: &[u8]) -> Result<RoundFrame, CodecError> {
        let mut reader = Reader::new(bytes);
        let round = reader.u64("round")?;
        let fleet_now = reader.u64("fleet time")?;
        let selected = reader.vec("selection count", 4, |r| r.u32("selected job"))?;
        let deltas = reader.vec("delta count", 8, |r| r.u64("delta"))?;
        let events = reader.vec("event count", MIN_EVENT_BYTES, get_fleet_event)?;
        let usages = reader.vec("usage count", 8, |r| r.u64("usage"))?;
        Ok(RoundFrame {
            round,
            fleet_now,
            selected,
            deltas,
            events,
            usages,
        })
    }
}

/// First divergence between a committed round frame and the re-executed
/// round; `None` means the resumed fleet walked the recorded path
/// exactly. Named fields keep a recovery failure readable without a
/// hex dump.
pub fn diff_round(expected: &RoundFrame, got: &RoundFrame) -> Option<String> {
    if expected == got {
        return None;
    }
    if expected.round != got.round {
        return Some(format!(
            "round number: committed {}, re-executed {}",
            expected.round, got.round
        ));
    }
    if expected.selected != got.selected {
        return Some(format!(
            "selection: committed {:?}, re-executed {:?}",
            expected.selected, got.selected
        ));
    }
    if expected.deltas != got.deltas {
        return Some(format!(
            "charges: committed {:?}, re-executed {:?}",
            expected.deltas, got.deltas
        ));
    }
    if expected.fleet_now != got.fleet_now {
        return Some(format!(
            "fleet clock: committed {}, re-executed {}",
            expected.fleet_now, got.fleet_now
        ));
    }
    for (index, (old, new)) in expected.events.iter().zip(got.events.iter()).enumerate() {
        if old != new {
            return Some(format!(
                "event {index}: committed {old:?}, re-executed {new:?}"
            ));
        }
    }
    if expected.events.len() != got.events.len() {
        return Some(format!(
            "event count: committed {}, re-executed {}",
            expected.events.len(),
            got.events.len()
        ));
    }
    Some(format!(
        "tenant usages: committed {:?}, re-executed {:?}",
        expected.usages, got.usages
    ))
}

/// The committed, replayable prefix recovered from a fleet WAL, plus a
/// census of what was (and was not) recoverable.
#[derive(Clone, Debug)]
pub struct FleetRecovery {
    /// The recorded inputs, from the WAL's header frame.
    pub recipe: FleetRecipe,
    /// The committed rounds, in order. Trailing record frames with no
    /// commit marker are discarded, like unterminated transactions.
    pub rounds: Vec<RoundFrame>,
    /// Byte offset just past the last committed frame — the durable
    /// prefix to truncate to before appending anew.
    pub committed_len: usize,
    /// Byte offset just past the last structurally intact frame.
    pub valid_len: usize,
    /// The first damage found, if any (torn tail, CRC mismatch, or a
    /// structural violation such as an unpaired commit).
    pub damage: Option<FrameDamage>,
    /// The WAL ends with a clean end frame (the run completed).
    pub clean_end: bool,
    /// Intact frames past the durable prefix, discarded on resume.
    pub discarded: usize,
}

/// Recovers the committed prefix of a fleet WAL. Damage past the
/// header is *reported*, never fatal — the longest committed prefix
/// always comes back.
///
/// # Errors
///
/// [`CodecError`] only when the preamble or the header frame is
/// unusable: with no recipe there is nothing to resume.
pub fn recover_fleet_wal(bytes: &[u8]) -> Result<FleetRecovery, CodecError> {
    let salvaged = salvage(bytes)?;
    let mut frames = salvaged.frames.iter();
    let header = frames.next().ok_or(CodecError::BadHeader {
        detail: "WAL has no intact header frame".to_owned(),
    })?;
    if header.kind != WAL_FRAME_HEADER {
        return Err(CodecError::BadHeader {
            detail: format!(
                "first frame kind is 0x{:02x}, expected the header frame",
                header.kind
            ),
        });
    }
    let recipe = FleetRecipe::decode_from(&mut Reader::new(header.payload))?;

    let mut recovery = FleetRecovery {
        recipe,
        rounds: Vec::new(),
        committed_len: header.end(),
        valid_len: salvaged.valid_len,
        damage: salvaged.damage.clone(),
        clean_end: salvaged.clean_end,
        discarded: 0,
    };
    let mut pending: Option<RoundFrame> = None;
    for frame in frames {
        // Structural violations downgrade to damage at the offending
        // frame; everything committed before it still recovers.
        let verdict = match frame.kind {
            WAL_FRAME_RECORD if pending.is_some() => {
                Err("record frame follows an uncommitted record".to_owned())
            }
            WAL_FRAME_RECORD => match RoundFrame::decode(frame.payload) {
                Ok(round) => {
                    pending = Some(round);
                    Ok(())
                }
                Err(err) => Err(format!("round frame: {err}")),
            },
            WAL_FRAME_COMMIT => {
                let seq = Reader::new(frame.payload).u64("commit sequence");
                match (seq, pending.take()) {
                    (Ok(seq), Some(round)) if round.round == seq => {
                        recovery.committed_len = frame.end();
                        recovery.rounds.push(round);
                        Ok(())
                    }
                    (Ok(seq), Some(round)) => Err(format!(
                        "commit marker {seq} does not match round {}",
                        round.round
                    )),
                    (Ok(_), None) => Err("commit marker with no record".to_owned()),
                    (Err(err), _) => Err(err.to_string()),
                }
            }
            WAL_FRAME_END => Ok(()),
            kind => Err(format!("unexpected frame kind 0x{kind:02x}")),
        };
        if let Err(detail) = verdict {
            recovery.damage = Some(FrameDamage::Corrupt {
                offset: frame.offset,
                detail,
            });
            break;
        }
    }
    recovery.discarded = salvaged
        .frames
        .iter()
        .filter(|frame| frame.offset >= recovery.committed_len)
        .count();
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetLog {
        FleetLog {
            recipe: FleetRecipe {
                spec_text: "tenant a weight=3\njob tenant=a workload=gcc\n".to_owned(),
                threads: 4,
                slots: 2,
                fleet_budget: Some(1 << 20),
                chaos: Some(FailPlan::new(3, 0.02)),
                spmsec: 1000,
            },
            events: vec![
                FleetEvent::Admit {
                    job: 0,
                    fleet_now: 0,
                    budget: None,
                },
                FleetEvent::Defer {
                    job: 1,
                    fleet_now: 500,
                },
                FleetEvent::Evict {
                    job: 0,
                    bytes: 4096,
                    fleet_now: 600,
                },
                FleetEvent::Admit {
                    job: 1,
                    fleet_now: 700,
                    budget: Some(65536),
                },
                FleetEvent::Complete {
                    job: 0,
                    fleet_now: 9000,
                },
            ],
            outcomes: vec!["{\"job\":0}".to_owned(), "{\"job\":1}".to_owned()],
        }
    }

    #[test]
    fn roundtrips() {
        let log = sample();
        let decoded = FleetLog::decode(&log.encode()).expect("decode");
        assert_eq!(decoded, log);
    }

    #[test]
    fn roundtrips_minimal() {
        let log = FleetLog {
            recipe: FleetRecipe {
                spec_text: String::new(),
                threads: 1,
                slots: 1,
                fleet_budget: None,
                chaos: None,
                spmsec: 1000,
            },
            events: Vec::new(),
            outcomes: Vec::new(),
        };
        assert_eq!(FleetLog::decode(&log.encode()).expect("decode"), log);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let bytes = sample().encode();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            FleetLog::decode(&bad),
            Err(CodecError::BadHeader { .. })
        ));
        for len in 0..bytes.len() {
            assert!(
                FleetLog::decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    /// The 44 GB abort: count and length fields of `0xFFFF_FFFF`,
    /// under valid CRCs, are typed truncation — nothing is reserved.
    #[test]
    fn huge_counts_are_truncation_not_allocation() {
        let truncated = |what| CodecError::Truncated { what };
        let round = RoundFrame {
            round: 1,
            fleet_now: 10,
            selected: vec![],
            deltas: vec![],
            events: vec![],
            usages: vec![],
        };
        // round, fleet_now, then the four counts.
        for (offset, what) in [
            (16, "selection count"),
            (20, "delta count"),
            (24, "event count"),
            (28, "usage count"),
        ] {
            let mut payload = round.encode();
            payload[offset..offset + 4].fill(0xFF);
            assert_eq!(RoundFrame::decode(&payload), Err(truncated(what)));
        }

        // An SPFL whose header claims a 4 GiB spec text.
        let mut header = Vec::new();
        sample().recipe.encode_into(&mut header);
        header[..4].fill(0xFF);
        let mut log = SPFL.preamble();
        encode_frame(&mut log, KIND_HEADER, &header);
        encode_frame(&mut log, SPFL.end, &[]);
        assert_eq!(FleetLog::decode(&log), Err(truncated("spec text")));

        // A journal whose committed record claims 4 Gi selections:
        // damage at that frame, not a failed recovery.
        let mut payload = round.encode();
        payload[16..20].fill(0xFF);
        let mut wal = crate::container::SPWAL.preamble();
        header.clear();
        sample().recipe.encode_into(&mut header);
        encode_frame(&mut wal, WAL_FRAME_HEADER, &header);
        let record_at = wal.len();
        encode_frame(&mut wal, WAL_FRAME_RECORD, &payload);
        encode_frame(&mut wal, WAL_FRAME_COMMIT, &1u64.to_le_bytes());
        let recovery = recover_fleet_wal(&wal).expect("header intact");
        assert!(recovery.rounds.is_empty());
        assert_eq!(recovery.committed_len, record_at);
        assert!(
            matches!(recovery.damage, Some(FrameDamage::Corrupt { offset, .. }) if offset == record_at)
        );
    }

    #[test]
    fn a_flipped_bit_is_corruption_not_a_different_log() {
        let bytes = sample().encode();
        for index in crate::container::PREAMBLE_LEN..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[index] ^= 0x10;
            match FleetLog::decode(&flipped) {
                Err(CodecError::Corrupt { offset, .. }) => assert!(offset <= index),
                Err(CodecError::Truncated { .. }) => {} // a length field grew
                other => panic!("byte {index}: {other:?}"),
            }
        }
    }

    #[test]
    fn diff_pinpoints_first_divergence() {
        let log = sample();
        assert_eq!(diff_fleet(&log, &log.events, &log.outcomes), None);

        let mut events = log.events.clone();
        events[1] = FleetEvent::Defer {
            job: 1,
            fleet_now: 501,
        };
        let report = diff_fleet(&log, &events, &log.outcomes).expect("diverges");
        assert!(report.starts_with("event 1:"), "{report}");

        let mut outcomes = log.outcomes.clone();
        outcomes[1] = "{\"job\":9}".to_owned();
        let report = diff_fleet(&log, &log.events, &outcomes).expect("diverges");
        assert!(report.starts_with("job 1 outcome"), "{report}");

        let short = &log.events[..3];
        let report = diff_fleet(&log, short, &log.outcomes).expect("diverges");
        assert!(report.starts_with("event count"), "{report}");
    }
}
