//! Record/replay for **fleet** (multi-tenant service) runs: what the
//! `SPWAL` journal's payloads mean.
//!
//! A `spin-serve` run's nondeterministic surface is tiny by design:
//! every scheduling decision — admission order, fair-share selection,
//! eviction ladder walks, epoch interleaving — is a pure function of
//! the job file and the fleet knobs. So the journal records exactly
//! that: a header with the verbatim job-spec text and the knobs
//! ([`FleetRecipe`]), then one [`RoundFrame`] per settled round with
//! the round's decisions and a CRC of every outcome line it completed.
//! Resume and replay both re-parse the stored spec, re-run the fleet
//! (at *any* `--threads`), and [`diff_round`]-check every re-executed
//! round against its committed frame — the fleet analogue of the
//! per-run `.splog` verification. Replay is the same read without a
//! writer.

use superpin_fault::FailPlan;

use crate::container::FrameDamage;
use crate::wal::{
    commit_sequence, salvage, WAL_FRAME_COMMIT, WAL_FRAME_END, WAL_FRAME_HEADER, WAL_FRAME_RECORD,
};
use crate::wire::{from_bytes, to_bytes, wire_enum, wire_struct, CodecError, Wire};

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
    /// Appends the recipe's wire form (the journal's header frame).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.put(out);
    }
}

wire_struct!(FleetRecipe {
    spec_text,
    threads,
    slots,
    fleet_budget,
    chaos,
    spmsec,
});

/// One scheduling decision at a fleet round barrier, stamped with the
/// fleet virtual clock. The stream of these is the run's complete
/// decision trace; two runs with equal traces and equal outcome lines
/// are the same run.
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

wire_enum!(FleetEvent, "fleet event" {
    0 => Admit { job: u32, fleet_now: u64, budget: Option<u64> },
    1 => Defer { job: u32, fleet_now: u64 },
    2 => Evict { job: u32, bytes: u64, fleet_now: u64 },
    3 => Complete { job: u32, fleet_now: u64 },
});

/// Everything one settled fleet round changed, journalled as one WAL
/// record. Re-executing the fleet from round 0 and comparing each
/// fresh frame against the committed one verifies — field by field —
/// that the resumed run walks the recorded run's exact path:
/// `selected`/`deltas` pin the fair-queue virtual times, `events`
/// pin admissions/deferrals/evictions/completions, `usages` pin each
/// tenant's resident bytes, and `outcomes` pin each completed
/// job's outcome line by its CRC.
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
    /// Each tenant's resident bytes after settlement, walked from its
    /// live jobs, tenant-id order.
    pub usages: Vec<u64>,
    /// [`crc32`](crate::crc32) of each job's outcome JSON line, one
    /// per `Complete` event in `events`, in event order.
    pub outcomes: Vec<u32>,
}

impl RoundFrame {
    /// Serializes the frame's payload (the WAL adds its own CRC).
    pub fn encode(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`CodecError`] describing the first malformed field.
    pub fn decode(bytes: &[u8]) -> Result<RoundFrame, CodecError> {
        from_bytes(bytes, "round frame")
    }
}

wire_struct!(RoundFrame {
    round,
    fleet_now,
    selected,
    deltas,
    events,
    usages,
    outcomes,
});

/// First divergence between a committed round frame and the re-executed
/// round; `None` means the resumed fleet walked the recorded path
/// exactly. Named fields keep a recovery failure readable without a
/// hex dump.
pub fn diff_round(expected: &RoundFrame, got: &RoundFrame) -> Option<String> {
    fn differs<T: PartialEq + std::fmt::Debug>(what: &str, old: T, new: T) -> Option<String> {
        (old != new).then(|| format!("{what}: committed {old:?}, re-executed {new:?}"))
    }
    if expected == got {
        return None;
    }
    let (old, new) = (expected, got);
    // Outcomes are compared once the events agree, so the events'
    // `Complete`s name the outcomes' jobs.
    let completed = new.events.iter().filter_map(|event| match *event {
        FleetEvent::Complete { job, .. } => Some(job),
        _ => None,
    });
    differs("round number", old.round, new.round)
        .or_else(|| differs("selection", &old.selected, &new.selected))
        .or_else(|| differs("charges", &old.deltas, &new.deltas))
        .or_else(|| differs("fleet clock", old.fleet_now, new.fleet_now))
        .or_else(|| {
            let mut events = old.events.iter().zip(&new.events).enumerate();
            events.find_map(|(index, (a, b))| differs(&format!("event {index}"), a, b))
        })
        .or_else(|| differs("event count", old.events.len(), new.events.len()))
        .or_else(|| differs("tenant usages", &old.usages, &new.usages))
        .or_else(|| {
            let mut crcs = completed.zip(old.outcomes.iter().zip(&new.outcomes));
            let (job, (a, b)) = crcs.find(|(_, (a, b))| a != b)?;
            Some(format!(
                "job {job} outcome: committed crc {a:#010x}, re-executed {b:#010x}"
            ))
        })
        .or_else(|| differs("outcome count", old.outcomes.len(), new.outcomes.len()))
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
    let recipe = from_bytes(header.payload, "fleet recipe")?;

    let mut recovery = FleetRecovery {
        recipe,
        rounds: Vec::new(),
        committed_len: header.end(),
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
                let seq = commit_sequence(frame.payload);
                match (seq, pending.take()) {
                    (Some(seq), Some(round)) if round.round == seq => {
                        recovery.committed_len = frame.end();
                        recovery.rounds.push(round);
                        Ok(())
                    }
                    (Some(seq), Some(round)) => Err(format!(
                        "commit marker {seq} does not match round {}",
                        round.round
                    )),
                    (Some(_), None) => Err("commit marker with no record".to_owned()),
                    (None, _) => Err("commit marker is not 8 bytes".to_owned()),
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
    use crate::container::{encode_frame, SPWAL};
    use crate::wire::Reader;
    use superpin_fault::SITE_COUNT;

    fn recipe() -> FleetRecipe {
        FleetRecipe {
            spec_text: "tenant a weight=3\njob tenant=a workload=gcc\n".to_owned(),
            threads: 4,
            slots: 2,
            fleet_budget: Some(1 << 20),
            chaos: Some(FailPlan::new(3, 0.02)),
            spmsec: 1000,
        }
    }

    /// One round with every kind of event and one completion.
    fn sample() -> RoundFrame {
        RoundFrame {
            round: 3,
            fleet_now: 9000,
            selected: vec![0, 1],
            deltas: vec![1500, 900],
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
            usages: vec![4096, 128],
            outcomes: vec![0xDEAD_BEEF],
        }
    }

    #[test]
    fn round_frames_and_recipes_round_trip() {
        let frame = sample();
        assert_eq!(RoundFrame::decode(&frame.encode()), Ok(frame));
        let mut bytes = Vec::new();
        recipe().encode_into(&mut bytes);
        assert_eq!(FleetRecipe::get(&mut Reader::new(&bytes)), Ok(recipe()));
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
            outcomes: vec![],
        };
        // round, fleet_now, then the five counts.
        for (offset, what) in [
            (16, "RoundFrame.selected"),
            (20, "RoundFrame.deltas"),
            (24, "RoundFrame.events"),
            (28, "RoundFrame.usages"),
            (32, "RoundFrame.outcomes"),
        ] {
            let mut payload = round.encode();
            payload[offset..offset + 4].fill(0xFF);
            assert_eq!(RoundFrame::decode(&payload), Err(truncated(what)));
        }

        // A journal whose header claims a 4 GiB spec text.
        let mut header = Vec::new();
        recipe().encode_into(&mut header);
        header[..4].fill(0xFF);
        let mut wal = SPWAL.preamble();
        encode_frame(&mut wal, WAL_FRAME_HEADER, &header);
        assert_eq!(
            recover_fleet_wal(&wal).map(drop),
            Err(truncated("FleetRecipe.spec_text"))
        );

        // A journal whose committed record claims 4 Gi selections:
        // damage at that frame, not a failed recovery.
        let mut payload = round.encode();
        payload[16..20].fill(0xFF);
        let mut wal = SPWAL.preamble();
        header.clear();
        recipe().encode_into(&mut header);
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
    fn diff_round_names_the_first_divergence() {
        let committed = sample();
        assert_eq!(diff_round(&committed, &committed), None);
        let diverged = |change: fn(&mut RoundFrame)| {
            let mut got = sample();
            change(&mut got);
            diff_round(&committed, &got).expect("diverges")
        };
        let report = diverged(|f| f.deltas[1] += 1);
        assert!(report.starts_with("charges:"), "{report}");
        let report = diverged(|f| {
            f.events[1] = FleetEvent::Defer {
                job: 1,
                fleet_now: 501,
            }
        });
        assert!(report.starts_with("event 1:"), "{report}");
        let report = diverged(|f| f.events.truncate(4));
        assert!(report.starts_with("event count"), "{report}");
        let report = diverged(|f| f.usages[0] = 0);
        assert!(report.starts_with("tenant usages"), "{report}");
        assert_eq!(
            diverged(|f| f.outcomes[0] = 1),
            "job 0 outcome: committed crc 0xdeadbeef, re-executed 0x00000001"
        );
        let report = diverged(|f| f.outcomes.clear());
        assert!(report.starts_with("outcome count"), "{report}");
    }

    /// The journal header's chaos plan: another build's site count, or
    /// an unknown site mode, is a bad tag under valid CRCs — not a
    /// truncated journal.
    #[test]
    fn an_unrunnable_chaos_plan_is_a_bad_tag_not_truncation() {
        let header = to_bytes(&recipe());
        let plan = to_bytes(&recipe().chaos.expect("armed"));
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
            let mut wal = SPWAL.preamble();
            encode_frame(&mut wal, WAL_FRAME_HEADER, &bad);
            assert_eq!(
                recover_fleet_wal(&wal).map(drop),
                Err(CodecError::BadTag {
                    what,
                    tag: byte.into()
                })
            );
        }
    }
}
