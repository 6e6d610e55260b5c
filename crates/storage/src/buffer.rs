//! Buffer pool with LRU eviction, pin counts, and dirty-page write-back.
//!
//! Mirrors the role of the paper's 40 MB DB2 buffer pool (§5.1.1): all
//! page access from the B+-tree and heap-file layers goes through
//! [`BufferPool::fetch`] / [`BufferPool::fetch_mut`], so logical and
//! physical I/O are observable per experiment.
//!
//! Concurrency: the page table and replacement state sit behind one
//! mutex; page contents sit behind per-frame `RwLock`s. Pins are counted
//! so a resident, in-use page is never evicted. Eviction picks the
//! least-recently-used unpinned frame (timestamp scan — O(frames), which
//! is fine at the pool sizes used here).
//!
//! Frames materialize on first use: a frame's 8 KiB page buffer is
//! allocated when the frame first holds a page, not when the pool is
//! created. A pool costs a few words per frame until it caches pages,
//! which matters because reopened pools are sized to their whole
//! extent and every MVCC commit forks a fresh, cold pool
//! ([`BufferPool::cow_fork`]). [`BufferPool::content_hash`] reads
//! non-resident pages straight from the backend, so verifying an index
//! at open neither warms the pool nor materializes a frame.
//!
//! Read-path concurrency audit (the invariants `xtwig-service` relies
//! on; guarded by `tests/pool_stress.rs`):
//!
//! * A frame's pin count only rises 0→1 under the table mutex (hit path
//!   in `lookup_or_load`, install path in `install`), so `pick_victim`
//!   — also under the mutex — can never evict a frame that a guard is
//!   about to reference.
//! * Page-content locks are only acquired while holding the table mutex
//!   for frames with **zero** pins (eviction write-back, `flush_all`),
//!   where no outstanding guard can hold the content lock — otherwise a
//!   reader that holds a page guard and fetches a second page (which
//!   needs the mutex) could deadlock against the mutex holder waiting
//!   on its page lock. This is why `flush_all` skips pinned frames.
//! * `clear_cache` requires quiescence (it panics on pinned pages); it
//!   is a bench/ablation facility, not a serving-path operation.
//!
//! Write-path concurrency audit (for the sharded index builds in
//! `xtwig-core::parallel`): `allocate` is safe to call from any number
//! of threads — the backend hands out ids under its own mutex/atomic,
//! `install` pins the fresh frame under the table mutex before the
//! guard is handed out, and the returned write guard owns the content
//! lock. What concurrent allocation does **not** give is a
//! deterministic id order, which is why the sharded builders
//! deliberately keep all allocation on the calling thread (workers only
//! enumerate and sort rows) so a parallel build's page image stays
//! byte-identical to the sequential one. `pool_stress` exercises the
//! multi-threaded allocate path.

use crate::disk::DiskManager;
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::stats::{IoStats, PoolCounters};
use parking_lot::{ArcRwLockReadGuard, ArcRwLockWriteGuard, Mutex, RawRwLock, RwLock};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

struct Frame {
    /// The page buffer, allocated on the frame's first install.
    page: OnceLock<Arc<RwLock<PageBuf>>>,
    pin: AtomicUsize,
    dirty: AtomicBool,
    last_used: AtomicU64,
}

impl Frame {
    /// The frame's page buffer, materializing it on first use.
    fn data(&self) -> &Arc<RwLock<PageBuf>> {
        self.page.get_or_init(|| Arc::new(RwLock::new(PageBuf::zeroed())))
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct PoolInner {
    /// page id -> frame index
    table: HashMap<PageId, usize>,
    /// frame index -> resident page id (INVALID when free)
    resident: Vec<PageId>,
    free: Vec<usize>,
}

/// A fixed-capacity page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: DiskManager,
    frames: Vec<Frame>,
    inner: Mutex<PoolInner>,
    clock: AtomicU64,
    stats: Arc<IoStats>,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `disk`. No page buffer
    /// is allocated until a frame first holds a page.
    pub fn new(disk: DiskManager, capacity: usize) -> Self {
        assert!(capacity >= 2, "buffer pool needs at least 2 frames");
        let frames = (0..capacity)
            .map(|_| Frame {
                page: OnceLock::new(),
                pin: AtomicUsize::new(0),
                dirty: AtomicBool::new(false),
                last_used: AtomicU64::new(0),
            })
            .collect();
        BufferPool {
            disk,
            frames,
            inner: Mutex::new(PoolInner {
                table: HashMap::new(),
                resident: vec![PageId::INVALID; capacity],
                free: (0..capacity).rev().collect(),
            }),
            clock: AtomicU64::new(1),
            stats: Arc::new(IoStats::new()),
        }
    }

    /// Convenience: in-memory pool with `capacity` frames.
    pub fn in_memory(capacity: usize) -> Self {
        BufferPool::new(DiskManager::in_memory(), capacity)
    }

    /// Pool sized to hold `bytes` of pages (rounded up), like "a 40 MB
    /// buffer pool".
    pub fn with_bytes(disk: DiskManager, bytes: u64) -> Self {
        // Saturate rather than unwrap: a byte budget beyond the address
        // space clamps to the largest representable frame count.
        let frames = bytes.div_ceil(PAGE_SIZE as u64).min(u64::from(u32::MAX)) as usize;
        BufferPool::new(disk, frames.max(2))
    }

    /// The shared I/O statistics.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// A cheap cloneable handle onto this pool's page-read/miss/pin
    /// counters, for observability layers that sample them without
    /// holding the pool.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters::new(self.stats.clone())
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Pages allocated in the underlying disk manager.
    pub fn num_pages(&self) -> u32 {
        self.disk.num_pages()
    }

    /// Bytes allocated in the underlying disk manager.
    pub fn allocated_bytes(&self) -> u64 {
        self.disk.allocated_bytes()
    }

    /// FNV-1a hash over the byte content of every allocated page, in
    /// page-id order. Two pools built the same way hash equal iff their
    /// page images are byte-identical — the assertion behind the
    /// sharded-build equivalence tests and the digest check at index
    /// open (`QueryEngine::structure_digest`).
    ///
    /// Residency is decided per page under the pool mutex. A resident
    /// page is hashed through its frame, so dirty content counts before
    /// write-back. Any other page is read from the backend into one
    /// scratch buffer without being installed: the scan neither evicts,
    /// warms nor materializes frames, and records no page reads.
    pub fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut scratch = PageBuf::zeroed();
        for pid in (0..self.num_pages()).map(PageId) {
            let inner = self.inner.lock();
            if let Some(&idx) = inner.table.get(&pid) {
                // The pin keeps the frame from eviction once the mutex
                // is released; the content lock is taken only after.
                let frame = &self.frames[idx];
                frame.pin.fetch_add(1, Ordering::SeqCst);
                drop(inner);
                let _pin = PinToken { pool: self, frame_idx: idx };
                let data = frame.data();
                h = fnv1a_extend(h, data.read().bytes());
            } else {
                // Held across the read so the page cannot be installed
                // and dirtied in between; eviction writes back under the
                // same mutex, so the backend copy is the latest.
                self.disk.read_page(pid, scratch.bytes_mut());
                drop(inner);
                h = fnv1a_extend(h, scratch.bytes());
            }
        }
        h
    }

    /// Pages in the underlying backend's copy-on-write overlay (0 for
    /// plain backends) — observability for the MVCC fork path.
    pub fn overlay_pages(&self) -> usize {
        self.disk.overlay_pages()
    }

    /// Forks this pool into an independent copy-on-write sibling: the
    /// fork starts cold over a [`DiskManager::fork_cow`] view of the
    /// current page image, so writes through the fork never reach this
    /// pool's backend (and vice versa). The fork materializes no frame
    /// until it caches a page.
    ///
    /// Dirty resident frames are flushed down to the backend first so
    /// the fork's view is complete. Frames pinned *dirty* by an
    /// outstanding write guard cannot be flushed safely (see
    /// [`BufferPool::flush_all`]); the fork is refused with the skipped
    /// count — `Err` means a concurrent writer owns part of the image,
    /// and the caller retries once that writer finishes. Read pins on
    /// clean frames never block a fork.
    ///
    /// **Contract:** after a successful fork, this pool must not be
    /// written again — it is the sealed base the fork's COW view reads
    /// through. The engine-level fork upholds this by always forking
    /// the newest generation and retiring the old one to read-only
    /// service.
    pub fn cow_fork(&self) -> Result<BufferPool, usize> {
        let skipped = self.flush_all();
        if skipped > 0 {
            return Err(skipped);
        }
        Ok(BufferPool::new(self.disk.fork_cow(), self.capacity()))
    }

    /// Allocates a fresh zeroed page and returns it pinned for writing.
    pub fn allocate(&self) -> (PageId, PageWriteGuard<'_>) {
        let pid = self.disk.allocate();
        self.stats.record_allocation();
        let frame_idx = self.install(pid, false);
        let frame = &self.frames[frame_idx];
        frame.dirty.store(true, Ordering::Relaxed);
        let guard = frame.data().write_arc();
        (
            pid,
            PageWriteGuard {
                guard,
                _pin: PinToken { pool: self, frame_idx },
                pool: self,
                frame_idx,
            },
        )
    }

    /// Fetches page `pid` for reading.
    pub fn fetch(&self, pid: PageId) -> PageReadGuard<'_> {
        self.stats.record_logical();
        let frame_idx = self.lookup_or_load(pid);
        let guard = self.frames[frame_idx].data().read_arc();
        PageReadGuard { guard, _pin: PinToken { pool: self, frame_idx } }
    }

    /// Fetches page `pid` for writing; marks it dirty.
    pub fn fetch_mut(&self, pid: PageId) -> PageWriteGuard<'_> {
        self.stats.record_logical();
        let frame_idx = self.lookup_or_load(pid);
        let frame = &self.frames[frame_idx];
        frame.dirty.store(true, Ordering::Relaxed);
        let guard = frame.data().write_arc();
        PageWriteGuard { guard, _pin: PinToken { pool: self, frame_idx }, pool: self, frame_idx }
    }

    /// Writes all dirty **unpinned** resident pages back to disk, and
    /// returns the number of dirty pages it had to *skip* because they
    /// were pinned.
    ///
    /// Pinned frames are skipped: their content lock may be held by an
    /// outstanding guard whose owner could be blocked on the table
    /// mutex we hold here (see the module-level audit) — and they stay
    /// dirty, so eviction or a later flush still writes them back. For
    /// cache hygiene ([`BufferPool::clear_cache`]) that is harmless and
    /// the count is ignored; a persistence pass, however, needs every
    /// page on the backend, so it treats `skipped > 0` as an error (a
    /// concurrent writer holds part of the image it is copying).
    pub fn flush_all(&self) -> usize {
        let inner = self.inner.lock();
        let mut skipped = 0usize;
        for (idx, &pid) in inner.resident.iter().enumerate() {
            if !pid.is_valid() {
                continue;
            }
            let frame = &self.frames[idx];
            if frame.pin.load(Ordering::SeqCst) != 0 {
                if frame.dirty.load(Ordering::Relaxed) {
                    skipped += 1;
                }
                continue;
            }
            if frame.dirty.swap(false, Ordering::Relaxed) {
                let data = frame.data();
                let page = data.read();
                self.disk.write_page(pid, page.bytes());
                self.stats.record_physical_write();
            }
        }
        skipped
    }

    /// Drops every clean resident page so the next access is a physical
    /// read — the "cold cache" setting of the paper's omitted experiment.
    /// Dirty pages are flushed first. Panics if any page is pinned.
    pub fn clear_cache(&self) {
        self.flush_all();
        let mut inner = self.inner.lock();
        let mut freed = Vec::new();
        for (idx, pid) in inner.resident.iter_mut().enumerate() {
            if !pid.is_valid() {
                continue;
            }
            assert_eq!(
                self.frames[idx].pin.load(Ordering::SeqCst),
                0,
                "clear_cache with pinned pages"
            );
            freed.push((idx, *pid));
            *pid = PageId::INVALID;
        }
        for (idx, pid) in freed {
            inner.table.remove(&pid);
            inner.free.push(idx);
        }
    }

    fn touch(&self, frame_idx: usize) {
        let t = self.clock.fetch_add(1, Ordering::Relaxed);
        self.frames[frame_idx].last_used.store(t, Ordering::Relaxed);
    }

    /// Finds `pid`'s frame, loading it from disk (with eviction) if absent.
    /// The returned frame has its pin count already incremented.
    fn lookup_or_load(&self, pid: PageId) -> usize {
        {
            let inner = self.inner.lock();
            if let Some(&idx) = inner.table.get(&pid) {
                self.frames[idx].pin.fetch_add(1, Ordering::SeqCst);
                self.stats.record_pin();
                self.touch(idx);
                return idx;
            }
        }
        self.stats.record_physical_read();
        self.install(pid, true)
    }

    /// Installs `pid` into a frame (evicting if needed), optionally
    /// loading its content from disk. Returns the pinned frame index.
    fn install(&self, pid: PageId, load: bool) -> usize {
        let mut inner = self.inner.lock();
        // Re-check: another thread may have installed it concurrently.
        if let Some(&idx) = inner.table.get(&pid) {
            self.frames[idx].pin.fetch_add(1, Ordering::SeqCst);
            self.stats.record_pin();
            self.touch(idx);
            return idx;
        }
        let idx = if let Some(idx) = inner.free.pop() {
            idx
        } else {
            let victim = self.pick_victim(&inner);
            let old = inner.resident[victim];
            let frame = &self.frames[victim];
            if frame.dirty.swap(false, Ordering::Relaxed) {
                let data = frame.data();
                let page = data.read();
                self.disk.write_page(old, page.bytes());
                self.stats.record_physical_write();
            }
            inner.table.remove(&old);
            self.stats.record_eviction();
            victim
        };
        let frame = &self.frames[idx];
        frame.pin.store(1, Ordering::SeqCst);
        self.stats.record_pin();
        {
            // First install of this frame allocates its page buffer.
            let data = frame.data();
            let mut page = data.write();
            if load {
                self.disk.read_page(pid, page.bytes_mut());
            } else {
                page.bytes_mut().fill(0);
            }
        }
        inner.table.insert(pid, idx);
        inner.resident[idx] = pid;
        self.touch(idx);
        idx
    }

    /// Frames whose page buffer has been allocated.
    #[cfg(test)]
    fn materialized_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.page.get().is_some()).count()
    }

    /// Resident page ids, ascending.
    #[cfg(test)]
    fn resident_pages(&self) -> Vec<PageId> {
        let mut pids: Vec<PageId> = self.inner.lock().table.keys().copied().collect();
        pids.sort();
        pids
    }

    fn pick_victim(&self, inner: &PoolInner) -> usize {
        let mut best: Option<(u64, usize)> = None;
        for (idx, &pid) in inner.resident.iter().enumerate() {
            if !pid.is_valid() {
                continue;
            }
            let frame = &self.frames[idx];
            if frame.pin.load(Ordering::SeqCst) != 0 {
                continue;
            }
            let t = frame.last_used.load(Ordering::Relaxed);
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, idx));
            }
        }
        best.map(|(_, idx)| idx)
            .expect("buffer pool exhausted: every frame is pinned (pool too small for working set)")
    }
}

/// Decrements the frame pin count on drop. Declared *after* the page
/// guard inside [`PageReadGuard`]/[`PageWriteGuard`] so the data lock is
/// released before the pin drops (eviction then never waits on a lock).
struct PinToken<'a> {
    pool: &'a BufferPool,
    frame_idx: usize,
}

impl Drop for PinToken<'_> {
    fn drop(&mut self) {
        self.pool.frames[self.frame_idx].pin.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shared read access to a pinned page.
pub struct PageReadGuard<'a> {
    guard: ArcRwLockReadGuard<RawRwLock, PageBuf>,
    _pin: PinToken<'a>,
}

impl Deref for PageReadGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.guard.bytes()
    }
}

/// Exclusive write access to a pinned, dirty page.
pub struct PageWriteGuard<'a> {
    guard: ArcRwLockWriteGuard<RawRwLock, PageBuf>,
    _pin: PinToken<'a>,
    pool: &'a BufferPool,
    frame_idx: usize,
}

impl Deref for PageWriteGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.guard.bytes()
    }
}

impl DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.guard.bytes_mut()
    }
}

impl PageWriteGuard<'_> {
    /// The pool this page belongs to (used by tests).
    pub fn pool_capacity(&self) -> usize {
        let _ = self.frame_idx;
        self.pool.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::put_u64;

    #[test]
    fn allocate_write_read_roundtrip() {
        let pool = BufferPool::in_memory(4);
        let (pid, mut g) = pool.allocate();
        put_u64(&mut g, 0, 42);
        drop(g);
        let g = pool.fetch(pid);
        assert_eq!(crate::page::get_u64(&g, 0), 42);
    }

    #[test]
    fn counters_handle_counts_reads_misses_and_pins() {
        let pool = BufferPool::in_memory(4);
        let counters = pool.counters();
        let (pid, g) = pool.allocate();
        assert_eq!(counters.pins(), 1); // allocate pins the fresh frame
        drop(g);
        let g = pool.fetch(pid); // hit: logical, no miss, one more pin
        drop(g);
        assert_eq!(counters.page_reads(), 1);
        assert_eq!(counters.misses(), 0);
        assert_eq!(counters.pins(), 2);
        pool.clear_cache();
        let g = pool.fetch(pid); // cold: logical + miss + pin
        drop(g);
        assert_eq!(counters.page_reads(), 2);
        assert_eq!(counters.misses(), 1);
        assert_eq!(counters.pins(), 3);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let pool = BufferPool::in_memory(2);
        let mut pids = Vec::new();
        for i in 0..10u64 {
            let (pid, mut g) = pool.allocate();
            put_u64(&mut g, 0, i);
            pids.push(pid);
        }
        // Everything must still be readable after heavy eviction.
        for (i, &pid) in pids.iter().enumerate() {
            let g = pool.fetch(pid);
            assert_eq!(crate::page::get_u64(&g, 0), i as u64);
        }
        let snap = pool.stats().snapshot();
        assert!(snap.evictions > 0);
        assert!(snap.physical_writes > 0);
    }

    #[test]
    fn warm_cache_has_no_physical_reads() {
        let pool = BufferPool::in_memory(8);
        let (pid, mut g) = pool.allocate();
        put_u64(&mut g, 0, 7);
        drop(g);
        pool.stats().reset();
        for _ in 0..5 {
            let g = pool.fetch(pid);
            assert_eq!(crate::page::get_u64(&g, 0), 7);
        }
        let snap = pool.stats().snapshot();
        assert_eq!(snap.logical_reads, 5);
        assert_eq!(snap.physical_reads, 0);
        assert_eq!(snap.hit_ratio(), 1.0);
    }

    #[test]
    fn clear_cache_forces_cold_reads() {
        let pool = BufferPool::in_memory(8);
        let (pid, mut g) = pool.allocate();
        put_u64(&mut g, 0, 9);
        drop(g);
        pool.clear_cache();
        pool.stats().reset();
        let g = pool.fetch(pid);
        assert_eq!(crate::page::get_u64(&g, 0), 9);
        assert_eq!(pool.stats().snapshot().physical_reads, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = BufferPool::in_memory(2);
        let (p0, g) = pool.allocate();
        drop(g);
        let (p1, g) = pool.allocate();
        drop(g);
        // Touch p0 so p1 is LRU.
        drop(pool.fetch(p0));
        let (_p2, g) = pool.allocate(); // must evict p1
        drop(g);
        pool.stats().reset();
        drop(pool.fetch(p0)); // still resident
        assert_eq!(pool.stats().snapshot().physical_reads, 0);
        drop(pool.fetch(p1)); // was evicted
        assert_eq!(pool.stats().snapshot().physical_reads, 1);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let pool = BufferPool::in_memory(3);
        let (p0, mut g0) = pool.allocate();
        put_u64(&mut g0, 0, 123);
        // Keep g0 pinned while cycling many pages through the pool.
        for _ in 0..20 {
            let (_, g) = pool.allocate();
            drop(g);
        }
        assert_eq!(crate::page::get_u64(&g0, 0), 123);
        drop(g0);
        let g = pool.fetch(p0);
        assert_eq!(crate::page::get_u64(&g, 0), 123);
    }

    #[test]
    #[should_panic(expected = "every frame is pinned")]
    fn exhausted_pool_panics() {
        let pool = BufferPool::in_memory(2);
        let (_, _g1) = pool.allocate();
        let (_, _g2) = pool.allocate();
        let (_, _g3) = pool.allocate();
    }

    #[test]
    fn concurrent_readers_share_pages() {
        let pool = std::sync::Arc::new(BufferPool::in_memory(16));
        let mut pids = Vec::new();
        for i in 0..8u64 {
            let (pid, mut g) = pool.allocate();
            put_u64(&mut g, 0, i * 11);
            pids.push(pid);
        }
        pool.flush_all();
        let pids = std::sync::Arc::new(pids);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = pool.clone();
            let pids = pids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200 {
                    let pid = pids[round % pids.len()];
                    let g = pool.fetch(pid);
                    assert_eq!(crate::page::get_u64(&g, 0), (round % pids.len()) as u64 * 11);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn cow_fork_gives_an_isolated_writable_sibling() {
        let pool = BufferPool::in_memory(4);
        let (pid, mut g) = pool.allocate();
        put_u64(&mut g, 0, 11);
        drop(g);
        // Dirty-resident state must be visible through the fork (the
        // fork flushes first).
        let fork = pool.cow_fork().expect("no writer holds pages");
        assert_eq!(fork.capacity(), pool.capacity());
        assert_eq!(fork.num_pages(), pool.num_pages());
        assert_eq!(crate::page::get_u64(&fork.fetch(pid), 0), 11);
        // Writes through the fork land in its COW overlay only.
        put_u64(&mut fork.fetch_mut(pid), 0, 22);
        fork.flush_all();
        assert_eq!(fork.overlay_pages(), 1);
        assert_eq!(crate::page::get_u64(&fork.fetch(pid), 0), 22);
        assert_eq!(crate::page::get_u64(&pool.fetch(pid), 0), 11, "base image frozen");
        // Fork allocations never grow the base.
        let (p2, g) = fork.allocate();
        drop(g);
        assert_eq!(p2.0, pool.num_pages());
        assert_eq!(pool.num_pages(), 1);
        // A fork of the fork sees the fork's state (flat chain).
        let fork2 = fork.cow_fork().expect("fork of fork");
        assert_eq!(crate::page::get_u64(&fork2.fetch(pid), 0), 22);
    }

    #[test]
    fn cow_fork_refuses_while_a_writer_pins_a_dirty_page() {
        let pool = BufferPool::in_memory(4);
        let (_pid, mut g) = pool.allocate();
        put_u64(&mut g, 0, 5);
        // An outstanding write guard means the image could be torn.
        assert_eq!(pool.cow_fork().err(), Some(1));
        drop(g);
        assert!(pool.cow_fork().is_ok(), "fork succeeds once the writer finishes");
    }

    /// A disk of `n` pages, page `i` filled with byte `i + 1`.
    fn disk_with_pages(n: u8) -> DiskManager {
        let disk = DiskManager::in_memory();
        for i in 0..n {
            let pid = disk.allocate();
            disk.write_page(pid, &[i + 1; PAGE_SIZE]);
        }
        disk
    }

    #[test]
    fn frames_materialize_on_first_use_only() {
        let pool = BufferPool::new(disk_with_pages(10), 5120);
        assert_eq!(pool.materialized_frames(), 0, "creation allocates no page buffer");
        // What index open does: hash every page of a cold pool.
        pool.content_hash();
        assert_eq!(pool.materialized_frames(), 0, "digest verification warms nothing");
        assert!(pool.resident_pages().is_empty());
        for pid in [0, 4, 9] {
            assert_eq!(pool.fetch(PageId(pid))[0], pid as u8 + 1);
        }
        drop(pool.fetch(PageId(4))); // a hit reuses its frame
        assert_eq!(pool.materialized_frames(), 3);
    }

    #[test]
    fn cow_fork_of_a_warm_pool_materializes_nothing_in_the_fork() {
        let pool = BufferPool::new(disk_with_pages(10), 64);
        for pid in 0..10 {
            drop(pool.fetch(PageId(pid)));
        }
        put_u64(&mut pool.fetch_mut(PageId(3)), 0, 77);
        assert_eq!(pool.materialized_frames(), 10);
        let fork = pool.cow_fork().expect("no writer holds pages");
        assert_eq!(fork.materialized_frames(), 0);
        assert_eq!(crate::page::get_u64(&fork.fetch(PageId(3)), 0), 77);
        assert_eq!(fork.materialized_frames(), 1);
    }

    #[test]
    fn content_hash_reads_through_dirty_frames_and_leaves_residency_alone() {
        let pool = BufferPool::new(disk_with_pages(10), 4);
        put_u64(&mut pool.fetch_mut(PageId(2)), 0, 0xfeed); // dirty, resident
        drop(pool.fetch(PageId(5))); // clean, resident
        let resident = pool.resident_pages();
        assert_eq!(resident, vec![PageId(2), PageId(5)]);

        let hash = pool.content_hash();
        assert_eq!(pool.resident_pages(), resident, "the scan installs nothing");
        assert_eq!(pool.materialized_frames(), 2);

        // The backend alone still holds page 2's old bytes, so a hash
        // that skipped the dirty frame would differ.
        let backend_only = (0..10u32).fold(FNV_OFFSET, |h, pid| {
            let mut page = [0u8; PAGE_SIZE];
            pool.disk.read_page(PageId(pid), &mut page);
            fnv1a_extend(h, &page)
        });
        assert_ne!(hash, backend_only);
        // Page by page through the pool: the same digest.
        let fetched =
            (0..10u32).fold(FNV_OFFSET, |h, pid| fnv1a_extend(h, &pool.fetch(PageId(pid))));
        assert_eq!(hash, fetched);
    }

    #[test]
    fn with_bytes_sizes_pool() {
        let pool = BufferPool::with_bytes(DiskManager::in_memory(), 40 * 1024 * 1024);
        assert_eq!(pool.capacity(), 40 * 1024 * 1024 / PAGE_SIZE);
    }
}
