//! Allocation budget of the probe path.
//!
//! Encoding a probe and carrying it through `Network::send` must cost at
//! most three heap allocations, reply included: forwarding walks the route
//! index without allocating, and each packet is built on the stack and
//! copied out once. The binary installs a counting global allocator, so it
//! holds nothing but this budget.

use netsim::build::{build, ScenarioConfig};
use netsim::{encode_probe, Addr, Network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most allocations one probe plus its reply may cost.
const BUDGET: u64 = 3;

thread_local! {
    /// Allocations made by this thread. Const-initialized and free of
    /// destructors, so counting never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the thread-local counter
// is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Send one probe to `dst`; returns whether a reply came back and the
/// allocations spent on encoding, forwarding and the reply.
fn probe(net: &Network, dst: Addr, ttl: u8, seq: u16) -> (bool, u64) {
    let before = allocations();
    let probe = encode_probe(net.vantage_addr(), dst, ttl, 0x0A11, seq, 0x1234, seq);
    let delivery = net.send(probe).expect("well-formed probe");
    let replied = delivery.response.is_some();
    drop(delivery);
    (replied, allocations() - before)
}

#[test]
fn a_probe_and_its_reply_cost_at_most_three_allocations() {
    let s = build(ScenarioConfig::tiny(11));
    let net = &s.network;
    let blocks = net.allocated_blocks();
    // The first send compiles the forwarding index; it is not per-probe.
    probe(net, blocks[0].addr(1), 64, 0);

    let (mut echoes, mut errors, mut silent) = (0, 0, 0);
    let mut seq = 0u16;
    for block in blocks.iter().take(40) {
        for host in (1u8..=254).step_by(7) {
            for ttl in [64, 3] {
                seq = seq.wrapping_add(1);
                let (replied, n) = probe(net, block.addr(host), ttl, seq);
                assert!(
                    n <= BUDGET,
                    "probe to {} ttl {ttl}: {n} allocations, budget {BUDGET}",
                    block.addr(host)
                );
                match (replied, ttl) {
                    (true, 64) => echoes += 1,
                    (true, _) => errors += 1,
                    (false, _) => silent += 1,
                }
            }
        }
    }
    // The sweep must have covered echo replies, ICMP errors and timeouts.
    assert!(
        echoes > 0 && errors > 0 && silent > 0,
        "{echoes}/{errors}/{silent}"
    );
}
