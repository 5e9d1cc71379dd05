// Outside U001's `paths` in the fixture lint.toml: this unsafe has no
// SAFETY comment and is still never reported.
fn tolerated_here(p: *mut u8) {
    unsafe { *p = 0 };
}
