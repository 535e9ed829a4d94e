//! Positive fixture: a policy that outlived its file. `score` is still
//! defined; `top_k_for_site` and `stats` were renamed away, and
//! `compare` survives only inside a test module, which does not count.

fn score(s: &S) -> u64 {
    s.cell.load().value
}

fn top_k_for_site_v2(s: &S) -> u64 {
    s.cell.load().top.first().copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    fn compare(s: &S) -> bool {
        s.cell.load().ok
    }
}
