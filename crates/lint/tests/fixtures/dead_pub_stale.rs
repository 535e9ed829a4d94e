//! Positive fixture: allows that outlived their reason.

/// `dead_pub_user.rs` calls this now, so the allow is stale.
// lint: allow(dead_pub, "fixture: was unused once")
pub fn called_elsewhere() -> u32 {
    1
}

/// Not `pub`, so there is nothing for the allow to cover.
// lint: allow(dead_pub, "fixture: covers nothing")
fn private_helper() -> u32 {
    2
}
