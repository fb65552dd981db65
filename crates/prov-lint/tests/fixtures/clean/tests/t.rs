//! Test corpus keeping the clean fixture drift-free: every stats counter
//! and both format versions are referenced here.

pub fn covers(s: &CleanStats) {
    assert_eq!(s.ticks, 0);
    assert_eq!(STATE_VERSION, 1);
    assert_eq!(ENVELOPE_VERSION, 2);
}
