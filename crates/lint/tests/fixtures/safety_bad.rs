//! Positive fixture: four `unsafe` sites with no SAFETY argument.

struct Raw(*mut u8);

unsafe impl Send for Raw {}

fn plain_comment(p: *const u8) -> u8 {
    // Reads the byte (a comment, but not a SAFETY argument).
    unsafe { *p }
}

fn code_line_breaks_the_link(p: *const u8) -> u8 {
    // SAFETY: `p` is valid for one read.
    let q = p;
    unsafe { *q }
}

fn run_broken_by_code(p: *mut u8) {
    // SAFETY: `p` is valid for reads and writes.
    unsafe { *p = 1 };
    let _ = 0;
    unsafe { *p = 2 };
}
