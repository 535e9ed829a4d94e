//! Negative fixture: every `pub` item here is used by another file, is
//! exposed by a `pub` signature or field of this file, is not `pub` at
//! all, lives in test code, or carries a reasoned allow.

/// Called by `dead_pub_user.rs`.
pub fn called_elsewhere() -> u32 {
    1
}

/// Read by `dead_pub_user.rs`.
pub const LIMIT: usize = 1 << 3;

/// Named by no other file, but returned by a `pub fn` that is.
pub struct Exposed;

/// The `pub` signature that exposes [`Exposed`].
#[must_use]
pub fn make() -> Exposed {
    Exposed
}

/// Named by no other file, but the type of a `pub` field.
#[derive(Debug, Default)]
pub struct FieldType;

/// Named by `dead_pub_user.rs`.
pub struct Holder {
    /// The field that exposes [`FieldType`].
    pub field: Option<FieldType>,
    /// A generic field type: the comma inside `<..>` does not end it.
    pub keyed: Result<u32, Keyed>,
}

/// Named by no other file, but the second type argument of a `pub` field.
pub struct Keyed;

/// Named by no other file, but a parameter type of a multi-line `pub`
/// signature.
pub struct Parameter;

/// Called by `dead_pub_user.rs`.
pub fn takes(
    first: u32,
    second: Parameter,
) -> u32 {
    let _ = second;
    first
}

/// Crate-visible only: not `pub`, so not the rule's business.
pub(crate) fn crate_only() -> u32 {
    4
}

/// Paper surface with no caller yet.
#[must_use]
// lint: allow(dead_pub, "fixture: paper §2.2 names this operation")
pub fn allowed_surface() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    /// Test code may be `pub` without any other file using it.
    pub fn helper() -> u32 {
        super::crate_only()
    }
}
