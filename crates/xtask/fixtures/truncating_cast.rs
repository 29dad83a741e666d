// pretend: crates/server/src/wire.rs
// Fixture for the decode-path rules: truncating `as` casts are
// forbidden in wire.rs / protocol.rs, and the clock seam covers them.

fn truncating(n: usize) -> u32 {
    n as u32 // expect: no-truncating-cast
}

fn truncating_small(n: u64) -> u16 {
    n as u16 // expect: no-truncating-cast
}

fn bounded(n: usize) -> u32 {
    // lint: allow(no-truncating-cast, n <= MAX_FRAME < 2^32 by construction)
    n as u32
}

fn widening(x: u32) -> u64 {
    x as u64
}

fn float_is_fine(x: u32) -> f64 {
    x as f64
}

fn clock_in_codec() -> std::time::Instant {
    std::time::Instant::now() // expect: no-raw-timing
}
