//! Wall time held against how fast the host is running *right now*.
//!
//! The reference sandbox shares its cores: for seconds to minutes at a
//! time identical work runs 1.3 – 2× slower than usual (and on a rare
//! quiet hour 1.15× faster), with no steal time, page faults or
//! scheduling to show for it. Raw wall seconds of the same code then
//! spread by 10 – 40 % between runs, and no statistic over one run removes
//! that (see the README). What does remove most of it is a neighbour in
//! time: a small frozen [`Reference`] kernel, run between every few tens
//! of milliseconds of measured work, slows down with the work. A
//! [`HostClock`] times work in *chunks*, brackets each chunk with a
//! reference sample before and after, and scales the chunk's wall time by
//! `(REFERENCE_S ÷ the bracket's mean) ^ sensitivity`: seconds as the
//! reference host at its usual speed would have counted them. Both
//! readings are kept, and `bench.raw_wall_s` and `bench.host_speed` report
//! the raw side.
//!
//! The *sensitivity* is the share of a workload's slowdown the kernel's
//! slowdown predicts: the slope of log raw wall against log kernel time,
//! measured over ten-seed sets of every workload (`metrics::SENSITIVITY`;
//! README, "What the reference sandbox can resolve"). It is below 1
//! because part of any workload's time — memory latency, thread hand-offs,
//! waits — does not stretch when the core slows, and further below 1 where
//! a worker pool is in play.
//!
//! The kernel is part of the benchmark and frozen with it: a change that
//! claims a gain may not edit it, so a faster engine moves the scaled
//! time exactly as it moves the raw one.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`Reference::sample`] takes on the 2-vCPU reference host
/// at its usual speed (four times 8000 back-to-back samples between two
/// slow phases: medians 2.50 – 2.57 ms; 3 – 4.5 ms in a slow phase, 1.98 ms
/// on the one quiet evening seen). It only fixes the scale of the scaled
/// seconds and cancels out of every comparison between two commits.
pub const REFERENCE_S: f64 = 0.002_5;

/// Interpreted operations per sample (two thirds of a sample's time).
const INTERP_STEPS: u64 = 800_000;
/// Rounds of the twelve arithmetic chains per sample (the other third).
const ALU_ROUNDS: u64 = 345_000;
/// Operations in the interpreted loop.
const PROGRAM_LEN: usize = 64;
/// Words of interpreted memory: 32 KiB, resident in the first-level cache.
const MEMORY_WORDS: usize = 4096;

#[derive(Clone, Copy)]
struct Op {
    a: u8,
    b: u8,
    c: u8,
    imm: u8,
}

/// The frozen reference kernel, two parts chosen by how they slow down
/// when the host does, measured beside the engine (see the README):
///
/// * a small register-machine interpreter running a fixed 64-operation
///   loop over 32 KiB of memory — loads, stores, adds, multiplies and a
///   well-predicted dispatch, like the engine's own inner loop; alone it
///   slows a little less than the engine does;
/// * twelve independent add/shift/xor chains that fill the issue width;
///   alone they slow a little more.
///
/// Two parts of the first to one of the second sit between `steady_t1`
/// (which the blend over-corrects by about 6 % of the host's slowdown)
/// and `churn_t1` (under-corrected by about 4 %). Kernels bound by
/// latency — pointer chases, hashing, mispredicted dispatch — barely slow
/// at all and are of no use here.
pub struct Reference {
    program: [Op; PROGRAM_LEN],
    memory: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    /// Builds the kernel's fixed program and memory.
    pub fn new() -> Reference {
        let mut rng = crate::stats::SplitMix::new(77);
        let program = std::array::from_fn(|_| {
            let r = rng.next_u64();
            Op {
                a: (r >> 8) as u8 % 32,
                b: (r >> 16) as u8 % 32,
                c: (r >> 24) as u8 % 32,
                imm: (r >> 32) as u8,
            }
        });
        Reference {
            program,
            memory: vec![0; MEMORY_WORDS],
        }
    }

    /// Runs the kernel once — the same work every time — and returns the
    /// seconds it took.
    pub fn sample(&mut self) -> f64 {
        // Untimed: the same start state, and the kernel's data back in the
        // cache whatever ran before.
        self.memory.fill(0);
        let mut regs = [3u64; 32];
        let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

        let start = Instant::now();
        let mut pc = 0;
        for _ in 0..black_box(INTERP_STEPS) {
            if pc == PROGRAM_LEN {
                pc = 0;
            }
            let Op { a, b, c, imm } = self.program[pc];
            let (a, b, c) = (usize::from(a), usize::from(b), usize::from(c));
            let word = (regs[b].wrapping_add(u64::from(imm)) as usize) % MEMORY_WORDS;
            match pc % 8 {
                0 | 1 => regs[a] = regs[b].wrapping_add(regs[c]),
                2 => regs[a] = regs[b] ^ regs[c].rotate_left(7),
                3 | 4 => regs[a] = self.memory[word],
                5 => self.memory[word] = regs[a],
                6 => regs[a] = regs[b].wrapping_mul(regs[c] | 1),
                _ => regs[a] = regs[b].wrapping_add(u64::from(imm)),
            }
            pc += 1;
        }
        black_box(regs);
        for round in 0..black_box(ALU_ROUNDS) {
            for (i, x) in chains.iter_mut().enumerate() {
                *x = match i % 3 {
                    0 => x.wrapping_add(round) ^ (*x >> 7),
                    1 => x.rotate_left(13).wrapping_add(round),
                    _ => (*x ^ round).wrapping_add(*x << 3),
                };
            }
        }
        black_box(chains);
        start.elapsed().as_secs_f64()
    }
}

/// What a chunk's wall time is multiplied by, given the mean of the
/// reference samples around it.
fn scale(bracket_s: f64, sensitivity: f64) -> f64 {
    (REFERENCE_S / bracket_s).powf(sensitivity)
}

/// Seconds measured two ways.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Seconds {
    /// Wall seconds as the host counted them.
    pub raw: f64,
    /// The same scaled chunk by chunk to the reference host's usual speed:
    /// what the timed metrics report.
    pub scaled: f64,
}

impl std::ops::Sub for Seconds {
    type Output = Seconds;
    fn sub(self, earlier: Seconds) -> Seconds {
        Seconds {
            raw: self.raw - earlier.raw,
            scaled: self.scaled - earlier.scaled,
        }
    }
}

/// Measured work between two reference samples: long enough that the
/// samples cost about a tenth of the run, short enough that the host
/// rarely changes speed inside one.
pub const CHUNK_S: f64 = 0.025;

/// A bracket sample older than this is taken again.
const FRESH_S: f64 = 0.001;

/// Times work in reference-bracketed chunks; see the module docs.
pub struct HostClock {
    reference: Reference,
    sensitivity: f64,
    /// The last reference sample and when it ended.
    bracket: Option<(f64, Instant)>,
    /// Start of the open chunk and the sample that preceded it.
    open: Option<(Instant, f64)>,
    total: Seconds,
    samples: Vec<f64>,
}

impl HostClock {
    /// A stopped clock at zero for work of the given sensitivity
    /// (`metrics::SENSITIVITY` holds the workloads').
    pub fn new(sensitivity: f64) -> HostClock {
        HostClock {
            reference: Reference::new(),
            sensitivity,
            bracket: None,
            open: None,
            total: Seconds::default(),
            samples: Vec::new(),
        }
    }

    fn sample(&mut self) -> f64 {
        let seconds = self.reference.sample();
        self.samples.push(seconds);
        self.bracket = Some((seconds, Instant::now()));
        seconds
    }

    /// Opens a chunk: work from here on is measured. The sample that
    /// closed the previous chunk is reused while it is fresh.
    pub fn start(&mut self) {
        debug_assert!(self.open.is_none(), "the clock is already running");
        let before = match self.bracket {
            Some((seconds, at)) if at.elapsed().as_secs_f64() < FRESH_S => seconds,
            _ => self.sample(),
        };
        self.open = Some((Instant::now(), before));
    }

    /// Closes the open chunk and adds it to the total.
    pub fn stop(&mut self) {
        let Some((start, before)) = self.open.take() else {
            return;
        };
        let raw = start.elapsed().as_secs_f64();
        let after = self.sample();
        self.total.raw += raw;
        self.total.scaled += raw * scale((before + after) / 2.0, self.sensitivity);
    }

    /// Ends the open chunk here and opens the next: a boundary between
    /// two things timed separately. A stopped clock ignores cuts, so code
    /// that cuts can also run untimed.
    pub fn cut(&mut self) {
        if self.open.is_some() {
            self.stop();
            self.start();
        }
    }

    /// [`cut`](HostClock::cut), if the open chunk has lasted [`CHUNK_S`]:
    /// called between the steps of work that can be split.
    pub fn cut_if_due(&mut self) {
        if matches!(self.open, Some((start, _)) if start.elapsed().as_secs_f64() >= CHUNK_S) {
            self.cut();
        }
    }

    /// Everything measured so far; the open chunk is not in it.
    pub fn total(&self) -> Seconds {
        self.total
    }

    /// Times `work` as one chunk (or more, if `work` cuts) on a stopped
    /// clock.
    pub fn time<T>(&mut self, work: impl FnOnce(&mut HostClock) -> T) -> (T, Seconds) {
        let before = self.total;
        self.start();
        let value = work(self);
        self.stop();
        (value, self.total - before)
    }

    /// How fast the host ran over the reference samples taken so far:
    /// `REFERENCE_S ÷ their median`; 1 is the reference host's usual speed.
    pub fn host_speed(&self) -> f64 {
        crate::stats::Summary::of(&self.samples).map_or(1.0, |s| REFERENCE_S / s.median)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_does_the_same_work_every_time() {
        let mut reference = Reference::new();
        assert!(reference.sample() > 0.0);
        let memory = reference.memory.clone();
        assert!(reference.sample() > 0.0);
        assert_eq!(reference.memory, memory);
        // The loop is not degenerate: it stored something.
        assert!(memory.iter().any(|word| *word != 0));
    }

    #[test]
    fn the_scale_is_a_power_of_the_kernels_slowdown() {
        assert_eq!(scale(REFERENCE_S, 0.7), 1.0);
        assert!((scale(2.0 * REFERENCE_S, 1.0) - 0.5).abs() < 1e-12);
        assert!((scale(4.0 * REFERENCE_S, 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(scale(4.0 * REFERENCE_S, 0.0), 1.0);
    }

    #[test]
    fn chunks_add_up_and_scale_by_the_bracket() {
        let mut clock = HostClock::new(1.0);
        let spin = |seconds: f64| {
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < seconds {
                std::hint::spin_loop();
            }
        };
        let ((), whole) = clock.time(|clock| {
            spin(0.01);
            clock.cut();
            spin(0.01);
            clock.cut_if_due(); // 10 ms: not due
        });
        assert_eq!(clock.total(), whole);
        assert!(whole.raw >= 0.02 && whole.raw < 0.2, "{whole:?}");
        // Three samples bracket two chunks: the middle one is shared.
        assert_eq!(clock.samples.len(), 3);
        let (fastest, slowest) = clock
            .samples
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), s| (lo.min(*s), hi.max(*s)));
        let scale = whole.scaled / whole.raw;
        assert!(scale >= REFERENCE_S / slowest * 0.999);
        assert!(scale <= REFERENCE_S / fastest * 1.001);
        assert!(clock.host_speed() > 0.0);

        // A stale bracket is sampled again.
        spin(0.002);
        clock.time(|_| ());
        assert_eq!(clock.samples.len(), 5);
    }
}
