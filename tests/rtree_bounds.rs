//! Offsets beyond the address radix tree's coverage (2^45 bytes: three
//! 11-bit levels over 4 KB pages) are unmapped, not a panic. A root slot
//! can hold such a value after a crash, a corrupt image or a caller bug,
//! so `free_from` must answer `NotAllocated` and `usable_size` `None`.

use nvalloc::api::PmAllocator;
use nvalloc::internals::RTree;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{LatencyMode, PmError, PmemConfig, PmemPool};

/// The first offset past the tree's coverage.
const BEYOND: u64 = 1 << 45;

#[test]
fn lookup_beyond_coverage_is_unmapped() {
    let t = RTree::new();
    t.insert_range(0, 4096, 7);
    for off in [BEYOND, BEYOND + 4096, u64::MAX] {
        assert_eq!(t.lookup(off), None, "{off:#x}");
    }
    // Removing such a range is a no-op, not a panic.
    t.remove_range(BEYOND, 4096);
    assert_eq!(t.lookup(0), Some(7));
}

#[test]
fn free_and_usable_size_of_out_of_range_pointer_fail_cleanly() {
    let pool =
        PmemPool::new(PmemConfig::default().pool_size(32 << 20).latency_mode(LatencyMode::Off));
    let alloc = NvAllocator::create(pool.clone(), NvConfig::log()).unwrap();
    let mut t = alloc.thread();
    let root = alloc.root_offset(0);
    pool.write_u64(root, BEYOND);
    assert!(matches!(t.free_from(root), Err(PmError::NotAllocated)));
    assert_eq!(alloc.usable_size(BEYOND), None);
    assert_eq!(alloc.usable_size(u64::MAX), None);
    // The allocator is still usable afterwards.
    let a = t.malloc_to(64, root).unwrap();
    assert_eq!(alloc.usable_size(a), Some(64));
    t.free_from(root).unwrap();
}
