// unsafe { } vec![ Box::new Vec::new to_vec — comments never match.
/* Nor block comments: unsafe fn collect::<Vec<_>>(). */

// grape6-lint: hot
fn spelled_out() -> &'static str {
    "unsafe { } Vec::new() vec![0] Box::new(1) to_vec collect::<Vec<_>>"
}

// grape6-lint: hot
fn raw_spelled_out() -> &'static str {
    r#"unsafe "vec![0]" .to_vec() Box::new(1)"#
}
