// grape6-lint: allow(U001)
unsafe fn waived_here() {}
unsafe fn one_line_too_far() {}

// grape6-lint: hot
fn kernel(xs: &[u8]) -> Vec<u8> {
    // grape6-lint: allow(H001)
    xs.to_vec()
}
