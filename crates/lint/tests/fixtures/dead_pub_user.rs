//! The other file of the `dead_pub` fixture corpus: the uses that count,
//! and the mentions that do not.

// Mentions that do not count: only_in_comments() in a comment, and
pub use crate::fx::OnlyReexported;

/// a doc example:
///
/// ```
/// only_in_comments();
/// ```
fn user() -> usize {
    let _ = "only_in_comments and nobody_calls in a string";
    let holder = Holder {
        field: None,
        keyed: Ok(0),
    };
    let _ = (make(), holder);
    called_elsewhere() as usize + LIMIT + takes(1, todo()) as usize
}
