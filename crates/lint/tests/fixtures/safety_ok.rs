//! Negative fixture: every `unsafe` argued, or not code at all.

struct Raw(*mut u8);

// SAFETY: `Raw` owns its allocation outright; moving or sharing it
// between threads is as safe as moving or sharing a `Box<u8>`.
unsafe impl Send for Raw {}
unsafe impl Sync for Raw {}

fn shared_comment(p: *const u8) -> u8 {
    let unsafe_reads = 0; // an identifier, not the keyword
    // SAFETY: `p` is valid for two reads, and the first does not move
    // the pointee.
    let a = unsafe { *p };
    let b = unsafe { *p };
    a + b + unsafe_reads
}

fn trailing(p: *const u8) -> u8 {
    unsafe { *p } // SAFETY: the caller passes a live byte.
}

fn not_code() -> &'static str {
    // An unsafe block in a comment is no obligation.
    "nor is unsafe in a string"
}

fn annotated(p: *const u8) -> u8 {
    // lint: allow(safety, "fixture: the argument lives in the caller's doc")
    unsafe { *p }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_exempt() {
        let x = 1u8;
        assert_eq!(unsafe { *(&x as *const u8) }, 1);
    }
}
