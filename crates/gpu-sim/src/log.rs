//! The request log of a pipelined launch: warps execute on the calling
//! thread and append every request (and every warp, block and worker
//! boundary) to fixed-size chunks, which the replay hands to
//! [`Pricer`] in the order they were written — the trace-driven split of
//! functional execution and timing.
//!
//! A record is one header word — kind in the low bits, sector count above
//! it, a payload above that — followed by the record's sectors when they
//! are not a run, or by a retired warp's three counters. The log is a
//! ring of [`LOG_CHUNKS`] chunks of [`CHUNK_WORDS`] words, allocated once
//! per pipelined launch: when every chunk is waiting to be replayed the
//! writer waits for one (or, if the replay is not running, replays the
//! oldest itself), so the log never holds more than [`LOG_WORDS`] words
//! however long the launch runs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use crate::cache::SectorCache;
use crate::config::{DeviceConfig, WARP_SIZE};
use crate::mem::SectorGeometry;
use crate::price::{Mark, Op, PriceState, Pricer, WarpEnd};
use crate::warp::Sectors;

/// Words per log chunk (128 KiB).
pub(crate) const CHUNK_WORDS: usize = 1 << 14;

/// Chunks in a pipelined launch's log.
pub(crate) const LOG_CHUNKS: usize = 4;

/// The most words a pipelined launch's log ever holds.
#[doc(hidden)]
pub const LOG_WORDS: usize = LOG_CHUNKS * CHUNK_WORDS;

const LOAD_RUN: u64 = 0;
const LOAD_SET: u64 = 1;
const STORE_RUN: u64 = 2;
const STORE_SET: u64 = 3;
const ATOMIC: u64 = 4;
const WARP: u64 = 5;
const BLOCK: u64 = 6;
const WORKER: u64 = 7;

const KIND_MASK: u64 = 0b111;
const COUNT_SHIFT: u32 = 3;
/// Sector counts go up to [`WARP_SIZE`], and so do an atomic's distinct
/// addresses and its worst conflict.
const COUNT_MASK: u64 = 0b11_1111;
const PAYLOAD_SHIFT: u32 = 9;
/// An atomic's payload: distinct addresses in the low count bits, the
/// worst conflict above them.
const CONFLICT_SHIFT: u32 = 6;
/// The words of a [`Mark::Warp`] record after its header.
const WARP_WORDS: usize = 3;

#[inline]
fn header(kind: u64, n: usize, payload: u64) -> u64 {
    debug_assert!(n <= WARP_SIZE);
    assert!(
        payload < 1 << (64 - PAYLOAD_SHIFT),
        "a log payload fits above the header bits"
    );
    kind | (n as u64) << COUNT_SHIFT | payload << PAYLOAD_SHIFT
}

/// The sectors `first..first + n`.
#[inline]
pub(crate) fn run(first: u64, n: usize) -> impl ExactSizeIterator<Item = u64> {
    (0..n).map(move |i| first + i as u64)
}

/// Where a writer's full chunk goes; the writer gets an empty one back.
pub(crate) trait Spill {
    fn spill(&self, chunk: &mut Vec<u64>);
}

/// Appends a warp's requests to the current chunk.
pub(crate) struct LogWriter<'a> {
    chunk: &'a mut Vec<u64>,
    spill: &'a dyn Spill,
}

impl<'a> LogWriter<'a> {
    pub(crate) fn new(chunk: &'a mut Vec<u64>, spill: &'a dyn Spill) -> Self {
        Self { chunk, spill }
    }

    /// The same writer, borrowed for a shorter while.
    #[inline]
    pub(crate) fn reborrow(&mut self) -> LogWriter<'_> {
        LogWriter {
            chunk: self.chunk,
            spill: self.spill,
        }
    }

    /// Make room for a record of `words` words.
    #[inline]
    fn room(&mut self, words: usize) {
        if self.chunk.len() + words > CHUNK_WORDS {
            self.spill.spill(self.chunk);
        }
    }

    /// Log one request.
    #[inline]
    pub(crate) fn request(&mut self, op: Op, sectors: Sectors<'_>) {
        let (run_kind, set_kind, payload) = match op {
            Op::Load => (LOAD_RUN, LOAD_SET, 0),
            Op::Store => (STORE_RUN, STORE_SET, 0),
            Op::Atomic { distinct, conflict } => (
                ATOMIC,
                ATOMIC,
                (distinct | conflict << CONFLICT_SHIFT) as u64,
            ),
        };
        match sectors {
            Sectors::One(first) if run_kind != set_kind => {
                self.room(1);
                self.chunk.push(header(run_kind, 1, first));
            }
            Sectors::Run { first, n } if run_kind != set_kind => {
                self.room(1);
                self.chunk.push(header(run_kind, n, first));
            }
            _ => {
                let n = sectors.len();
                self.room(1 + n);
                self.chunk.push(header(set_kind, n, payload));
                match sectors {
                    Sectors::One(sector) => self.chunk.push(sector),
                    Sectors::Run { first, n } => self.chunk.extend(run(first, n)),
                    Sectors::Set(set) => self.chunk.extend_from_slice(set),
                }
            }
        }
    }

    /// Log a boundary.
    pub(crate) fn mark(&mut self, mark: Mark) {
        match mark {
            Mark::Warp(end) => {
                self.room(1 + WARP_WORDS);
                self.chunk.extend_from_slice(&[
                    header(WARP, 0, 0),
                    end.issue_cycles,
                    end.store_sectors,
                    end.atomic_sectors,
                ]);
            }
            Mark::Block(block) => {
                self.room(1);
                self.chunk.push(header(BLOCK, 0, block as u64));
            }
            Mark::Worker => {
                self.room(1);
                self.chunk.push(header(WORKER, 0, 0));
            }
        }
    }

    /// Hand the current chunk over now, however full.
    #[cfg(test)]
    pub(crate) fn flush(&mut self) {
        self.spill.spill(self.chunk);
    }
}

/// Price every record of `words` in order: the calls the warps would have
/// made had they priced as they went.
pub(crate) fn replay(words: &[u64], p: &mut Pricer<'_>) {
    let mut rest = words;
    while let Some((&h, tail)) = rest.split_first() {
        rest = tail;
        let n = ((h >> COUNT_SHIFT) & COUNT_MASK) as usize;
        let payload = h >> PAYLOAD_SHIFT;
        match h & KIND_MASK {
            LOAD_RUN if n == 1 => p.price(Op::Load, std::iter::once(payload)),
            LOAD_RUN => p.price(Op::Load, run(payload, n)),
            STORE_RUN => p.price(Op::Store, run(payload, n)),
            kind @ (LOAD_SET | STORE_SET | ATOMIC) => {
                let (set, tail) = rest.split_at(n);
                rest = tail;
                let op = match kind {
                    LOAD_SET => Op::Load,
                    STORE_SET => Op::Store,
                    _ => Op::Atomic {
                        distinct: (payload & COUNT_MASK) as usize,
                        conflict: (payload >> CONFLICT_SHIFT) as usize,
                    },
                };
                p.price(op, set.iter().copied());
            }
            WARP => {
                let (end, tail) = rest.split_at(WARP_WORDS);
                rest = tail;
                p.mark(Mark::Warp(WarpEnd {
                    issue_cycles: end[0],
                    store_sectors: end[1],
                    atomic_sectors: end[2],
                }));
            }
            BLOCK => p.mark(Mark::Block(payload as usize)),
            _ => p.mark(Mark::Worker),
        }
    }
}

/// Most words any pipelined launch's log has held (its chunks'
/// capacity), over the life of the process.
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// The most words any pipelined launch's log has held so far in this
/// process; [`LOG_WORDS`] once one has run, whatever its length.
#[doc(hidden)]
pub fn log_high_water_words() -> usize {
    HIGH_WATER.load(Ordering::Relaxed)
}

struct Ring {
    /// Chunks written and not yet replayed, oldest first.
    full: VecDeque<Vec<u64>>,
    /// Chunks free for the writer.
    empty: Vec<Vec<u64>>,
    /// The writer is done: the replay ends once `full` is empty.
    closed: bool,
    /// Parties asleep on [`Log::wake`].
    sleepers: usize,
}

/// The replay's side: what a [`Pricer`] is made from.
struct Pricing<'p> {
    cfg: &'p DeviceConfig,
    geometry: SectorGeometry,
    l2: &'p mut SectorCache,
    state: PriceState,
}

impl Pricing<'_> {
    fn replay(&mut self, chunk: &[u64]) {
        let mut p = Pricer::new(self.cfg, self.geometry, self.l2, &mut self.state);
        replay(chunk, &mut p);
    }
}

/// How long a party that finds nothing to do polls for the other side
/// before it sleeps: about the time the other side takes to fill or
/// replay a chunk, so a steady pipeline hands chunks over without a
/// system call, and a stalled one costs little.
const SPIN: Duration = Duration::from_micros(500);

/// One pipelined launch's log, shared by the writer (the calling thread)
/// and the replay (a pool helper, or the caller when none is free).
pub(crate) struct Log<'p> {
    ring: Mutex<Ring>,
    /// Bumped, with `ring` locked, whenever a chunk changes hands, the log
    /// closes or the replay ends; read unlocked by a waiting party.
    version: AtomicU64,
    /// Where a party that waited out [`SPIN`] sleeps.
    wake: Condvar,
    /// Held by whoever is replaying; chunks are taken off `full` only
    /// under it, so they are priced in the order they were written.
    pricing: Mutex<Pricing<'p>>,
}

impl<'p> Log<'p> {
    /// A log whose replay goes on pricing where `state` and `l2` stand.
    pub(crate) fn new(
        cfg: &'p DeviceConfig,
        geometry: SectorGeometry,
        l2: &'p mut SectorCache,
        state: PriceState,
    ) -> Self {
        Self {
            ring: Mutex::new(Ring {
                full: VecDeque::with_capacity(LOG_CHUNKS),
                empty: (0..LOG_CHUNKS)
                    .map(|_| Vec::with_capacity(CHUNK_WORDS))
                    .collect(),
                closed: false,
                sleepers: 0,
            }),
            version: AtomicU64::new(0),
            wake: Condvar::new(),
            pricing: Mutex::new(Pricing {
                cfg,
                geometry,
                l2,
                state,
            }),
        }
    }

    /// The ring is consistent between any two statements that touch it,
    /// so a panic elsewhere while it was locked leaves nothing to repair.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Announce a change made with `ring` locked.
    fn changed(&self, ring: &Ring) {
        self.version.fetch_add(1, Ordering::Release);
        if ring.sleepers > 0 {
            self.wake.notify_all();
        }
    }

    /// Unlock the ring until its next change, then lock it again.
    fn wait<'g>(&'g self, ring: MutexGuard<'g, Ring>) -> MutexGuard<'g, Ring> {
        let seen = self.version.load(Ordering::Relaxed);
        drop(ring);
        let start = Instant::now();
        while start.elapsed() < SPIN {
            for _ in 0..64 {
                if self.version.load(Ordering::Acquire) != seen {
                    return self.ring();
                }
                std::hint::spin_loop();
            }
        }
        let mut ring = self.ring();
        ring.sleepers += 1;
        while self.version.load(Ordering::Relaxed) == seen {
            ring = self.wake.wait(ring).unwrap_or_else(PoisonError::into_inner);
        }
        ring.sleepers -= 1;
        ring
    }

    /// Replay chunks as the writer hands them over, until it closes the
    /// log and every chunk is priced.
    pub(crate) fn replay_all(&self) {
        let _span = telemetry::span!("sim.replay");
        // Wake a waiting writer however this ends, so a replay that
        // panics is reported rather than waited for.
        struct WakeOnExit<'l, 'p>(&'l Log<'p>);
        impl Drop for WakeOnExit<'_, '_> {
            fn drop(&mut self) {
                self.0.changed(&self.0.ring());
            }
        }
        let _wake = WakeOnExit(self);
        let mut pricing = self.pricing.lock().expect("a replay panicked");
        loop {
            let mut chunk = {
                let mut ring = self.ring();
                loop {
                    if let Some(chunk) = ring.full.pop_front() {
                        break chunk;
                    }
                    if ring.closed {
                        return;
                    }
                    ring = self.wait(ring);
                }
            };
            pricing.replay(&chunk);
            chunk.clear();
            let mut ring = self.ring();
            ring.empty.push(chunk);
            self.changed(&ring);
        }
    }

    /// The pricing state once the whole log has been replayed.
    pub(crate) fn finish(self) -> PriceState {
        let ring = self
            .ring
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(
            ring.closed && ring.full.is_empty(),
            "a log is finished after its replay"
        );
        let words = ring.empty.iter().map(Vec::capacity).sum();
        HIGH_WATER.fetch_max(words, Ordering::Relaxed);
        self.pricing.into_inner().expect("a replay panicked").state
    }
}

impl Spill for Log<'_> {
    fn spill(&self, chunk: &mut Vec<u64>) {
        let mut ring = self.ring();
        ring.full.push_back(std::mem::take(chunk));
        self.changed(&ring);
        loop {
            if let Some(empty) = ring.empty.pop() {
                *chunk = empty;
                return;
            }
            // Every chunk awaits replay. If nobody is replaying (no helper,
            // or it has not started yet), price the oldest one here.
            match self.pricing.try_lock() {
                Ok(mut pricing) => {
                    let mut oldest = ring.full.pop_front().expect("a full ring");
                    drop(ring);
                    pricing.replay(&oldest);
                    oldest.clear();
                    *chunk = oldest;
                    return;
                }
                Err(TryLockError::WouldBlock) => ring = self.wait(ring),
                Err(TryLockError::Poisoned(_)) => panic!("a replay panicked"),
            }
        }
    }
}

/// The writing end of a [`Log`]: owns the current chunk, and closes the
/// log when dropped — also when a warp panics, so the replay never waits
/// for records that will not come.
pub(crate) struct Producer<'l, 'p> {
    log: &'l Log<'p>,
    chunk: Vec<u64>,
}

impl<'l, 'p> Producer<'l, 'p> {
    pub(crate) fn new(log: &'l Log<'p>) -> Self {
        let chunk = log.ring().empty.pop().expect("a new log has empty chunks");
        Self { log, chunk }
    }

    pub(crate) fn writer(&mut self) -> LogWriter<'_> {
        LogWriter::new(&mut self.chunk, self.log)
    }
}

impl Drop for Producer<'_, '_> {
    fn drop(&mut self) {
        let mut ring = self.log.ring();
        ring.full.push_back(std::mem::take(&mut self.chunk));
        ring.closed = true;
        self.log.changed(&ring);
    }
}
