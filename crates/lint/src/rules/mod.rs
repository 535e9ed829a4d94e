//! The rule passes. Each pass takes a lexed
//! [`MaskedFile`](crate::lexer::MaskedFile) (and the policy from
//! [`crate::config`]) and returns [`Violation`](crate::report::Violation)s.

pub mod atomics;
pub mod dead_pub;
pub mod det;
pub mod locks;
pub mod panics;
pub mod safety;

/// Yields every occurrence of `token` in `masked` that starts at an
/// identifier boundary (so `unreachable!` does not match inside
/// `not_unreachable!`).
pub(crate) fn token_positions<'a>(
    masked: &'a str,
    token: &'a str,
) -> impl Iterator<Item = usize> + 'a {
    let bytes = masked.as_bytes();
    // Only tokens that *start* with an ident char need a left boundary;
    // `.unwrap()` legitimately follows its receiver's last character.
    let needs_boundary = token
        .as_bytes()
        .first()
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while let Some(off) = masked[from..].find(token) {
            let at = from + off;
            from = at + token.len();
            let boundary = !needs_boundary
                || at == 0
                || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
            if boundary {
                return Some(at);
            }
        }
        None
    })
}

/// Identifiers appearing in `text`, in order (lazily, so a caller can
/// stop after the first few).
pub(crate) fn idents(text: &str) -> impl Iterator<Item = &str> + '_ {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                return Some(&text[start..i]);
            }
            i += 1;
        }
        None
    })
}
