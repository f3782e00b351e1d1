//! Steady-state protocol cycles of both RTL driver instances must not
//! touch the heap: the drivers decode operations into stack buffers,
//! borrow the design instead of copying it, and drive a simulator that
//! is itself allocation-free. A counting global allocator proves it.

use la1_core::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver};
use la1_core::spec::{BankOp, LaConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread counter: the libtest harness allocates on its own threads
// concurrently with a measurement window, so a process-global counter
// flakes. `Cell<usize>` has no destructor, so the const-initialized TLS
// access never allocates or recurses into the allocator.
thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> usize {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const BANKS: u32 = 4;
const WARMUP: u64 = 64;
const CYCLES: u64 = 100;

/// A read and a write per cycle, rotating over banks, addresses and
/// byte enables; `seed` varies the stream per lane.
fn ops(cfg: &LaConfig, seed: u64, cycle: u64) -> [BankOp; 2] {
    let c = cycle.wrapping_add(seed.wrapping_mul(7));
    let words = cfg.words_per_bank as u64;
    let byte_en = (1u32 << cfg.byte_enables()) - 1;
    [
        BankOp::read((c % BANKS as u64) as u32, c % words),
        BankOp::write(
            ((c + 1) % BANKS as u64) as u32,
            (c * 3) % words,
            c.wrapping_mul(0x9E37),
            byte_en,
        ),
    ]
}

#[test]
fn scalar_driver_cycles_do_not_allocate() {
    let cfg = LaConfig::new(BANKS);
    let mut driver = LaRtlDriver::new(&LaRtl::build(&cfg, None));
    let stream: Vec<[BankOp; 2]> = (0..WARMUP + CYCLES).map(|c| ops(&cfg, 0, c)).collect();
    for cycle_ops in &stream[..WARMUP as usize] {
        driver.cycle(cycle_ops);
    }
    let before = allocs_on_this_thread();
    for cycle_ops in &stream[WARMUP as usize..] {
        driver.cycle(cycle_ops);
    }
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(
        allocs, 0,
        "scalar driver allocated {allocs} times in {CYCLES} cycles"
    );
}

#[test]
fn batched_driver_cycles_do_not_allocate() {
    let cfg = LaConfig::new(BANKS);
    let mut driver = LaRtlBatchDriver::new(&LaRtl::build(&cfg, None));
    let lanes = la1_rtl::LANES as u64;
    let stream: Vec<Vec<[BankOp; 2]>> = (0..WARMUP + CYCLES)
        .map(|c| (0..lanes).map(|lane| ops(&cfg, lane, c)).collect())
        .collect();
    let mut refs: Vec<&[BankOp]> = Vec::with_capacity(lanes as usize);
    for (c, lane_ops) in stream.iter().enumerate() {
        refs.clear();
        refs.extend(lane_ops.iter().map(|o| &o[..]));
        let before = allocs_on_this_thread();
        driver.cycle(&refs);
        let allocs = allocs_on_this_thread() - before;
        if c as u64 >= WARMUP {
            assert_eq!(
                allocs, 0,
                "batched driver allocated {allocs} times in cycle {c}"
            );
        }
    }
}
