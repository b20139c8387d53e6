//! Simulated global device memory.
//!
//! Memory is organized as typed buffers carved out of a single simulated
//! address space by a bump allocator. Each buffer is backed by a slab of
//! `AtomicU32` words: kernels and host copies write through a shared
//! `&DeviceMemory`, and relaxed atomics are the interior mutability that
//! costs nothing (the launcher runs one warp at a time; the simulator
//! enforces correctness at the algorithm level exactly as CUDA does —
//! racy plain writes are a kernel bug, not a simulator bug).
//!
//! Buffer *addresses* matter: the coalescing model groups the 32 lane
//! addresses of one warp request into 32-byte sectors, so consecutive
//! elements of one buffer fall into the same sector exactly as on hardware.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};

/// Modelled DRAM row-buffer span, bytes. Consecutive sectors that fall in
/// the same row are served from the open row buffer (a "row hit"); crossing
/// a row boundary forces a precharge/activate. The counter model tracks row
/// hits/misses over each warp's below-L1 load stream at this granularity —
/// it is an *observability* constant, not a priced cost-model input, so
/// changing it cannot perturb modelled cycles.
pub const DRAM_ROW_BYTES: u64 = 1024;

/// DRAM row index of a sector id (sectors are `sector_bytes` wide).
#[inline]
pub(crate) fn dram_row(sector: u64, sector_bytes: usize) -> u64 {
    sector / (DRAM_ROW_BYTES / sector_bytes as u64).max(1)
}

/// Byte address → sector id → DRAM row for one device's sector width,
/// worked out once per launch: every stock device has power-of-two
/// sectors, where both maps are shifts; any other width divides.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SectorGeometry {
    sector_bytes: u64,
    /// `Some((log2(sector_bytes), log2(sectors per DRAM row)))`.
    shifts: Option<(u32, u32)>,
}

impl SectorGeometry {
    pub(crate) fn new(sector_bytes: usize) -> Self {
        // A run of consecutive words then touches every sector between its
        // first and its last (what `WarpCtx::ld_run` relies on).
        assert!(sector_bytes >= 4, "a sector holds at least one word");
        let sector_bytes = sector_bytes as u64;
        let row_sectors = (DRAM_ROW_BYTES / sector_bytes).max(1);
        Self {
            sector_bytes,
            // A power-of-two sector divides or is divided by the
            // power-of-two row, so the row span is one as well.
            shifts: sector_bytes
                .is_power_of_two()
                .then(|| (sector_bytes.trailing_zeros(), row_sectors.trailing_zeros())),
        }
    }

    /// Sector id of a byte address.
    #[inline]
    pub(crate) fn sector_of(&self, addr: u64) -> u64 {
        match self.shifts {
            Some((sector_shift, _)) => addr >> sector_shift,
            None => addr / self.sector_bytes,
        }
    }

    /// [`dram_row`] of a sector id.
    #[inline]
    pub(crate) fn dram_row(&self, sector: u64) -> u64 {
        match self.shifts {
            Some((_, row_shift)) => sector >> row_shift,
            None => dram_row(sector, self.sector_bytes as usize),
        }
    }
}

/// A plain 32-bit word type storable in device memory.
///
/// The simulator stores everything as raw `u32` bits; `Word` converts the
/// user-facing type to and from those bits.
pub trait Word: Copy + Default + Send + Sync + 'static {
    /// Raw bit pattern of this value.
    fn to_bits(self) -> u32;
    /// Reconstruct the value from a raw bit pattern.
    fn from_bits(bits: u32) -> Self;
}

impl Word for f32 {
    #[inline]
    fn to_bits(self) -> u32 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

impl Word for u32 {
    #[inline]
    fn to_bits(self) -> u32 {
        self
    }
    #[inline]
    fn from_bits(bits: u32) -> Self {
        bits
    }
}

impl Word for i32 {
    #[inline]
    fn to_bits(self) -> u32 {
        self as u32
    }
    #[inline]
    fn from_bits(bits: u32) -> Self {
        bits as i32
    }
}

/// Typed handle to a device allocation. Cheap to copy; the actual storage
/// lives in [`DeviceMemory`].
pub struct DeviceBuffer<T> {
    pub(crate) id: usize,
    pub(crate) addr: u64,
    pub(crate) len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DeviceBuffer<T> {}

impl<T> DeviceBuffer<T> {
    /// Number of `T` elements in the buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cold]
#[inline(never)]
fn illegal_access(idx: usize, len: usize) -> ! {
    panic!("illegal device memory access: index {idx} out of bounds for buffer of len {len}")
}

/// The words of one live buffer plus its base address: what a warp request
/// resolves once, so each lane pays one bounds check and no lookup.
#[derive(Clone, Copy)]
pub(crate) struct BufferView<'a> {
    words: &'a [AtomicU32],
    addr: u64,
}

impl<'a> BufferView<'a> {
    /// Word `idx` and its simulated byte address; panics if out of bounds
    /// (a simulated illegal memory access).
    #[inline]
    pub(crate) fn at(&self, idx: usize) -> (&'a AtomicU32, u64) {
        match self.words.get(idx) {
            Some(word) => (word, self.addr + (idx as u64) * 4),
            None => illegal_access(idx, self.words.len()),
        }
    }

    /// Words `start..start + len` and the simulated byte address of the
    /// first: one bounds check for a whole contiguous request. Panics if
    /// any of it is out of bounds (a simulated illegal memory access).
    #[inline]
    pub(crate) fn run(&self, start: usize, len: usize) -> (&'a [AtomicU32], u64) {
        match start
            .checked_add(len)
            .and_then(|end| self.words.get(start..end))
        {
            Some(words) => (words, self.addr + (start as u64) * 4),
            None => illegal_access(
                start.saturating_add(len).saturating_sub(1),
                self.words.len(),
            ),
        }
    }
}

struct Storage {
    words: Box<[AtomicU32]>,
    /// Base address of the allocation living here. Addresses are never
    /// reissued, so a handle whose address differs is stale: its buffer
    /// was freed and the slot taken by a later one.
    addr: u64,
}

/// The simulated global memory of one device: allocator plus storage.
///
/// Tracks current and peak allocated bytes so multi-kernel pipelines that
/// materialize intermediates (like DGL's 18-kernel GAT) report the larger
/// footprints the paper observes in Table 3.
pub struct DeviceMemory {
    /// Slot table, indexed by `DeviceBuffer::id`. A freed slot is reused
    /// by the next allocation, so the table grows to the largest number
    /// of buffers ever live at once, not the number ever allocated.
    buffers: Vec<Option<Storage>>,
    free_slots: Vec<usize>,
    /// Simulated addresses only ever bump: fresh addresses per launch are
    /// what stop one batch's sectors hitting another's in the modelled L2.
    next_addr: u64,
    current_bytes: u64,
    peak_bytes: u64,
}

impl DeviceMemory {
    /// Alignment of every allocation, in bytes. Matches `cudaMalloc`'s
    /// 256-byte guarantee so distinct buffers never share a sector.
    pub const ALLOC_ALIGN: u64 = 256;

    /// Create an empty memory space.
    pub fn new() -> Self {
        Self {
            buffers: Vec::new(),
            free_slots: Vec::new(),
            next_addr: Self::ALLOC_ALIGN,
            current_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn alloc<T: Word>(&mut self, len: usize) -> DeviceBuffer<T> {
        let words: Box<[AtomicU32]> = (0..len).map(|_| AtomicU32::new(0)).collect();
        self.push_storage(words, len)
    }

    /// Allocate a buffer initialized from a host slice.
    pub fn alloc_from<T: Word>(&mut self, data: &[T]) -> DeviceBuffer<T> {
        let words: Box<[AtomicU32]> = data.iter().map(|v| AtomicU32::new(v.to_bits())).collect();
        self.push_storage(words, data.len())
    }

    fn push_storage<T: Word>(&mut self, words: Box<[AtomicU32]>, len: usize) -> DeviceBuffer<T> {
        let bytes = (len as u64) * 4;
        let addr = self.next_addr;
        self.next_addr += bytes.div_ceil(Self::ALLOC_ALIGN).max(1) * Self::ALLOC_ALIGN;
        self.current_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
        let storage = Some(Storage { words, addr });
        let id = match self.free_slots.pop() {
            Some(id) => {
                self.buffers[id] = storage;
                id
            }
            None => {
                self.buffers.push(storage);
                self.buffers.len() - 1
            }
        };
        DeviceBuffer {
            id,
            addr,
            len,
            _marker: PhantomData,
        }
    }

    /// Release a buffer. Subsequent access through a stale handle panics —
    /// the simulated analogue of a use-after-free illegal access.
    pub fn free<T: Word>(&mut self, buf: DeviceBuffer<T>) {
        let slot = self
            .buffers
            .get_mut(buf.id)
            .expect("free of unknown buffer");
        if slot.as_ref().is_some_and(|s| s.addr == buf.addr) {
            *slot = None;
            self.free_slots.push(buf.id);
            self.current_bytes -= (buf.len as u64) * 4;
        } else {
            panic!("double free of device buffer {}", buf.id);
        }
    }

    /// Copy a buffer's contents back to the host.
    pub fn read_vec<T: Word>(&self, buf: DeviceBuffer<T>) -> Vec<T> {
        let storage = self.storage(buf);
        storage
            .words
            .iter()
            .map(|w| T::from_bits(w.load(Ordering::Relaxed)))
            .collect()
    }

    /// Fill a buffer with a single value (device-side memset).
    pub fn fill<T: Word>(&self, buf: DeviceBuffer<T>, value: T) {
        let storage = self.storage(buf);
        let bits = value.to_bits();
        for w in storage.words.iter() {
            w.store(bits, Ordering::Relaxed);
        }
    }

    /// Bytes currently allocated.
    pub fn current_bytes(&self) -> u64 {
        self.current_bytes
    }

    /// High-water mark of allocated bytes over the memory's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Reset the peak-bytes statistic to the current allocation level, so a
    /// harness can measure the peak of one experiment in isolation.
    pub fn reset_peak(&mut self) {
        self.peak_bytes = self.current_bytes;
    }

    #[inline]
    fn storage<T>(&self, buf: DeviceBuffer<T>) -> &Storage {
        self.buffers
            .get(buf.id)
            .expect("unknown device buffer")
            .as_ref()
            .filter(|s| s.addr == buf.addr)
            .expect("use after free of device buffer")
    }

    // ---- word-level operations used by the warp context ----

    /// Resolve a buffer handle once per warp request (panics on a freed
    /// buffer — a simulated use-after-free).
    #[inline]
    pub(crate) fn view<T>(&self, buf: DeviceBuffer<T>) -> BufferView<'_> {
        BufferView {
            words: &self.storage(buf).words,
            addr: buf.addr,
        }
    }
}

/// Float add returning the previous value (CUDA `atomicAdd`). One warp
/// runs at a time, so the simulated atomic is a plain read-modify-write.
#[inline]
pub(crate) fn atomic_add_f32(word: &AtomicU32, val: f32) -> f32 {
    let old = f32::from_bits(word.load(Ordering::Relaxed));
    word.store((old + val).to_bits(), Ordering::Relaxed);
    old
}

/// Wrapping `u32` add returning the previous value.
#[inline]
pub(crate) fn atomic_add_u32(word: &AtomicU32, val: u32) -> u32 {
    let old = word.load(Ordering::Relaxed);
    word.store(old.wrapping_add(val), Ordering::Relaxed);
    old
}

impl Default for DeviceMemory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_roundtrip() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc_from(&[1.0f32, 2.0, 3.0]);
        assert_eq!(mem.read_vec(buf), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn buffers_are_sector_disjoint() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc::<f32>(3);
        let b = mem.alloc::<f32>(3);
        // Different buffers never share a 32-byte sector.
        assert!(mem.view(b).at(0).1 / 32 > mem.view(a).at(2).1 / 32);
    }

    #[test]
    fn consecutive_elements_share_sectors() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc::<f32>(64);
        let sector = |i| mem.view(a).at(i).1 / 32;
        assert_eq!(sector(0), sector(7));
        assert_ne!(sector(0), sector(8));
    }

    #[test]
    fn atomic_add_f32_accumulates() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc::<f32>(1);
        for _ in 0..100 {
            atomic_add_f32(mem.view(buf).at(0).0, 0.5);
        }
        assert_eq!(mem.read_vec(buf)[0], 50.0);
    }

    #[test]
    fn peak_bytes_tracks_free() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc::<f32>(1000);
        let peak_after_a = mem.peak_bytes();
        mem.free(a);
        assert_eq!(mem.current_bytes(), 0);
        assert_eq!(mem.peak_bytes(), peak_after_a);
        let _b = mem.alloc::<f32>(100);
        assert_eq!(mem.peak_bytes(), peak_after_a);
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn use_after_free_panics() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc::<f32>(4);
        mem.free(a);
        let _ = mem.read_vec(a);
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn stale_handle_to_a_reused_slot_panics() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc::<f32>(4);
        mem.free(a);
        let b = mem.alloc::<f32>(4);
        assert_eq!(a.id, b.id, "the freed slot is reused");
        let _ = mem.read_vec(a);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc::<f32>(4);
        mem.free(a);
        mem.free(a);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_of_a_reused_slot_panics() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc::<f32>(4);
        mem.free(a);
        let _b = mem.alloc::<f32>(4);
        mem.free(a);
    }

    #[test]
    fn slot_table_is_bounded_by_live_buffers() {
        let mut mem = DeviceMemory::new();
        let resident = mem.alloc_from(&[1.0f32, 2.0]);
        let mut last_addr = resident.addr;
        for cycle in 0..10_000usize {
            // A serving worker's batch: a few buffers up, then all down.
            let bufs: Vec<_> = (0..19)
                .map(|i| mem.alloc::<f32>(1 + (cycle + i) % 7))
                .collect();
            for b in &bufs {
                assert!(b.addr > last_addr, "addresses only ever bump");
                last_addr = b.addr;
            }
            for b in bufs {
                mem.free(b);
            }
        }
        assert_eq!(mem.buffers.len(), 1 + 19, "the live high-water mark");
        assert_eq!(mem.free_slots.len(), 19);
        assert_eq!(mem.current_bytes(), 8);
        assert_eq!(mem.read_vec(resident), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "illegal device memory access")]
    fn out_of_bounds_view_panics() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc::<f32>(4);
        let _ = mem.view(a).at(4);
    }

    #[test]
    #[should_panic(expected = "illegal device memory access")]
    fn out_of_bounds_run_panics() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc::<f32>(4);
        let _ = mem.view(a).run(2, 3);
    }

    #[test]
    fn run_is_the_slice_at_would_walk() {
        let mut mem = DeviceMemory::new();
        let _pad = mem.alloc::<f32>(5);
        let a = mem.alloc_from(&[1.0f32, 2.0, 3.0, 4.0]);
        let (words, addr) = mem.view(a).run(1, 3);
        assert_eq!(addr, mem.view(a).at(1).1);
        let vals: Vec<f32> = words
            .iter()
            .map(|w| f32::from_bits(w.load(Ordering::Relaxed)))
            .collect();
        assert_eq!(vals, vec![2.0, 3.0, 4.0]);
        assert_eq!(mem.view(a).run(4, 0).0.len(), 0);
    }

    #[test]
    fn view_addresses_step_by_element() {
        let mut mem = DeviceMemory::new();
        let _pad = mem.alloc::<f32>(5);
        let a = mem.alloc_from(&[1.0f32, 2.0, 3.0]);
        let (word, addr) = mem.view(a).at(2);
        assert_eq!(addr, mem.view(a).at(0).1 + 8);
        assert_eq!(f32::from_bits(word.load(Ordering::Relaxed)), 3.0);
    }

    #[test]
    fn sector_geometry_shift_equals_division() {
        for sector_bytes in [32usize, 64, 128, 1024, 4096, 24, 48, 1500] {
            let g = SectorGeometry::new(sector_bytes);
            assert_eq!(g.shifts.is_some(), sector_bytes.is_power_of_two());
            for addr in [0u64, 31, 32, 255, 1024, 65_537, 1 << 40, u64::MAX / 3] {
                let sector = addr / sector_bytes as u64;
                assert_eq!(g.sector_of(addr), sector);
                assert_eq!(g.dram_row(sector), dram_row(sector, sector_bytes));
            }
        }
    }
}
