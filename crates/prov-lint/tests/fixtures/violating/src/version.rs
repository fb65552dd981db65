//! Version fixture: two format bumps with no migration test anywhere.

pub const STATE_VERSION: u8 = 9;
pub const ENVELOPE_VERSION: u8 = 3;
