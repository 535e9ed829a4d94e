//! Positive fixture: a library file whose `pub` items no other file uses.
//! Checked beside `dead_pub_user.rs`, the only other file of the corpus.

/// Named by no other file at all.
pub fn nobody_calls() -> u32 {
    1
}

/// Named elsewhere only by a `pub use`, which re-exports without using.
pub struct OnlyReexported;

/// Named elsewhere only in a comment, a doc example and a string.
#[must_use]
pub fn only_in_comments() -> u32 {
    2
}

/// Used only by this file's own tests.
pub const fn only_own_tests() -> u32 {
    3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_test() {
        assert_eq!(only_own_tests(), 3);
    }
}
