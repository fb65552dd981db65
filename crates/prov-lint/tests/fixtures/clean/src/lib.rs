//! Clean fixture: ordered locks, a waived panic with an audited reason,
//! an allocation-free hot region, and fully asserted stats.

pub struct CleanStats {
    pub ticks: u64,
}

pub const STATE_VERSION: u8 = 1;
pub const ENVELOPE_VERSION: u8 = 2;

pub fn careful(x: Option<u32>) -> u32 {
    // lint:allow(no-panic): fixture: checked by the caller
    x.unwrap()
}

// lint: zero-alloc-begin
pub fn hot(buf: &mut Vec<u8>) {
    buf.push(1);
}
// lint: zero-alloc-end

pub fn ordered(outer: &Lock, inner: &Lock) {
    let o = outer.lock();
    let i = inner.lock();
    drop(i);
    drop(o);
}
