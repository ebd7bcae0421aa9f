//! The host-speed meter: a small fixed piece of work that uses nothing of
//! the system under test, run every few milliseconds *between* the engine
//! calls of a timed section, on the same thread.
//!
//! The benchmark's hosts are a few cores of a shared machine. What the
//! neighbours do changes the speed at which a core executes — by ten to
//! forty percent, on every time scale from tens of milliseconds to minutes —
//! and no statistic over the repetitions of a run removes that: averaging
//! 150 times longer only halved it. The reference chunk slows down with the
//! engine's code (correlation 0.99 when both are summed over 0.1 s), so the
//! *speed* the chunks measured inside a section — nominal chunk time over
//! measured chunk time, averaged — turns the section's time into what it
//! would have been on a host that runs a chunk in exactly [`NOMINAL_CHUNK_S`].
//! Measured on the reference host with a reference chunk every 2–8 ms: the
//! standard deviation of a 0.3 s section fell from 12.8 % to 1.6–2.1 %.
//!
//! A call that cannot be interrupted (`migrate_all`, a checkpoint, a restart)
//! is bracketed by a chunk right before and right after it.

use crate::clock::thread_cpu;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// CPU time of one chunk on the 2-core host the benchmark was sized on, in
/// its usual state (its best is 180 µs). Only a scale: it makes the
/// normalised times read like that host's.
pub const NOMINAL_CHUNK_S: f64 = 290e-6;

/// Wall time between two chunks inside a loop: about 7 % of the run.
const INTERVAL: Duration = Duration::from_millis(4);

/// Entries of the sorted table the lookups go to: 256 KiB, resident in a
/// core's private cache, so that a chunk measures the core and not what
/// the engine left in the cache.
const TABLE: usize = 1 << 15;
/// Lookups, each followed by a formatted record, of one chunk.
const LOOKUPS: u64 = 1_500;
/// Chunks whose speeds [`Host::speed`] averages: the last 15 ms or so.
const RECENT: usize = 4;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The meter of one thread. Its buffers are allocated once: a chunk
/// allocates nothing, so the state of the process's heap does not show.
#[derive(Debug)]
pub struct Host {
    table: Vec<u64>,
    text: String,
    x: u64,
    last_chunk: Instant,
    recent: [f64; RECENT],
    // Running totals over every chunk so far; a section is a difference.
    chunks: u64,
    speed_sum: f64,
    chunk_cpu: Duration,
}

/// Where a section began (see [`Host::begin`]).
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    cpu: Duration,
    chunks: u64,
    speed_sum: f64,
    chunk_cpu: Duration,
}

/// What a section took.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Timed {
    /// CPU seconds of the thread, the chunks inside the section left out.
    pub raw_s: f64,
    /// Mean speed of the host over the section, 1 being nominal.
    pub speed: f64,
}

impl Timed {
    /// The section's seconds on a host of nominal speed.
    pub fn secs(self) -> f64 {
        self.raw_s * self.speed
    }
}

impl Host {
    pub fn new() -> Self {
        let mut x = 0x0ade_9720_u64;
        let mut table: Vec<u64> = (0..TABLE).map(|_| splitmix(&mut x)).collect();
        table.sort_unstable();
        let mut host = Self {
            table,
            text: String::with_capacity(LOOKUPS as usize * 48),
            x,
            last_chunk: Instant::now(),
            recent: [1.0; RECENT],
            chunks: 0,
            speed_sum: 0.0,
            chunk_cpu: Duration::ZERO,
        };
        // The first chunks touch the buffers' pages and fill `recent`.
        for _ in 0..RECENT {
            host.chunk();
        }
        host
    }

    /// The reference work: binary searches with unpredictable branches, a
    /// record formatted per search, the text scanned back.
    fn work(&mut self) -> u64 {
        self.text.clear();
        for i in 0..LOOKUPS {
            let z = splitmix(&mut self.x);
            let at = self.table.partition_point(|&v| v < z);
            let _ = writeln!(
                self.text,
                "{{\"id\":{i},\"at\":{at},\"tag\":\"n{}\"}}",
                z & 0xffff
            );
        }
        self.text
            .bytes()
            .filter(u8::is_ascii_digit)
            .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(u64::from(b)))
    }

    /// Runs one chunk now and books its speed.
    pub fn chunk(&mut self) {
        let before = thread_cpu();
        black_box(self.work());
        let took = thread_cpu().saturating_sub(before);
        let speed = NOMINAL_CHUNK_S / took.as_secs_f64().max(1e-9);
        self.recent[self.chunks as usize % RECENT] = speed;
        self.chunks += 1;
        self.speed_sum += speed;
        self.chunk_cpu += took;
        self.last_chunk = Instant::now();
    }

    /// Call between two engine calls of a loop: runs a chunk when one is due.
    #[inline]
    pub fn tick(&mut self) {
        if self.last_chunk.elapsed() >= INTERVAL {
            self.chunk();
        }
    }

    /// The host's speed over the last few chunks, for scaling one latency
    /// sample: `measured × speed` is the sample at nominal speed.
    #[inline]
    pub fn speed(&self) -> f32 {
        (self.recent.iter().sum::<f64>() / RECENT as f64) as f32
    }

    /// Opens a section with a chunk.
    pub fn begin(&mut self) -> Mark {
        let (chunks, speed_sum) = (self.chunks, self.speed_sum);
        self.chunk();
        Mark {
            cpu: thread_cpu(),
            chunks,
            speed_sum,
            chunk_cpu: self.chunk_cpu,
        }
    }

    /// Closes a section with a chunk. Sections may nest and overlap.
    pub fn end(&mut self, mark: Mark) -> Timed {
        let cpu = thread_cpu();
        let inside = self.chunk_cpu - mark.chunk_cpu;
        self.chunk();
        Timed {
            raw_s: cpu.saturating_sub(mark.cpu + inside).as_secs_f64(),
            speed: (self.speed_sum - mark.speed_sum) / (self.chunks - mark.chunks) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_deterministic() {
        let (mut a, mut b) = (Host::new(), Host::new());
        assert_eq!(a.work(), b.work());
    }

    #[test]
    fn a_section_leaves_its_chunks_out_and_averages_their_speeds() {
        let mut host = Host::new();
        let outer = host.begin();
        let inner = host.begin();
        let mut x = 1u64;
        for _ in 0..200_000 {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let inner = host.end(inner);
        for _ in 0..8 {
            host.chunk();
        }
        let outer = host.end(outer);
        // The chunks between the inner section's end and the outer one's are
        // in neither.
        assert!(outer.raw_s >= inner.raw_s);
        assert!(
            outer.raw_s < inner.raw_s + 8.0 * NOMINAL_CHUNK_S,
            "{outer:?} {inner:?}"
        );
        assert!(inner.speed > 0.0 && outer.speed > 0.0);
        assert_eq!(
            Timed {
                raw_s: 2.0,
                speed: 0.5
            }
            .secs(),
            1.0
        );
        assert!(host.speed() > 0.0);
    }
}
