//! A counting global allocator for the exact-counter suites
//! (`plan_allocs.rs`, `dataplane_allocs.rs`, `footprint_allocs.rs`):
//! allocation behaviour is a
//! property a timing cannot pin on a shared host and a counter can. The
//! counters are per thread, so the test harness's other threads do not
//! leak in; bytes handed out minus bytes given back are the thread's
//! live bytes. A test crate opts in with `mod common;`.

// Each suite reads some of the counters, none of them all.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Requests of at least this many bytes are also counted in
/// [`Calls::large`] — the chunk size the data-plane suite runs at.
pub const LARGE: usize = 16 * 1024;

/// Allocator calls made by the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    pub alloc: u64,
    pub realloc: u64,
    pub free: u64,
    /// Bytes `realloc` was asked to preserve (what it may have to move).
    pub realloc_bytes: u64,
    /// `alloc`/`realloc` calls that asked for at least [`LARGE`] bytes.
    pub large: u64,
    /// Bytes handed out: the size `alloc` was asked for, or the new size
    /// of a `realloc`.
    pub bytes: u64,
    /// Bytes given back: the size `dealloc` freed, or the old size of a
    /// `realloc`.
    pub freed: u64,
}

impl Calls {
    /// Calls that hand out memory (each is freed once, which is not
    /// counted again).
    pub fn total(&self) -> u64 {
        self.alloc + self.realloc
    }

    /// Bytes still allocated: handed out and not given back.
    pub fn live(&self) -> i64 {
        self.bytes as i64 - self.freed as i64
    }
}

thread_local! {
    static CALLS: Cell<Calls> = const {
        Cell::new(Calls {
            alloc: 0, realloc: 0, free: 0, realloc_bytes: 0, large: 0, bytes: 0, freed: 0,
        })
    };
}

fn bump(update: impl FnOnce(&mut Calls)) {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = CALLS.try_with(|calls| {
        let mut now = calls.get();
        update(&mut now);
        calls.set(now);
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters
// touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(|c| {
            c.alloc += 1;
            c.large += u64::from(layout.size() >= LARGE);
            c.bytes += layout.size() as u64;
        });
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(|c| {
            c.alloc += 1;
            c.large += u64::from(layout.size() >= LARGE);
            c.bytes += layout.size() as u64;
        });
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(|c| {
            c.free += 1;
            c.freed += layout.size() as u64;
        });
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(|c| {
            c.realloc += 1;
            c.realloc_bytes += layout.size() as u64;
            c.large += u64::from(new_size >= LARGE);
            c.bytes += new_size as u64;
            c.freed += layout.size() as u64;
        });
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `work` and return what it made with the allocator calls it cost
/// (dropping the result is not counted).
pub fn counted<T>(work: impl FnOnce() -> T) -> (T, Calls) {
    let before = CALLS.with(Cell::get);
    let out = work();
    let after = CALLS.with(Cell::get);
    (
        out,
        Calls {
            alloc: after.alloc - before.alloc,
            realloc: after.realloc - before.realloc,
            free: after.free - before.free,
            realloc_bytes: after.realloc_bytes - before.realloc_bytes,
            large: after.large - before.large,
            bytes: after.bytes - before.bytes,
            freed: after.freed - before.freed,
        },
    )
}
