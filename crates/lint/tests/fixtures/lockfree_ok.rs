//! Negative fixture: the same read-path functions, answering purely
//! through atomic snapshot loads — nothing blocks, nothing is flagged.

fn score(s: &S) -> u64 {
    let state = s.cell.load();
    state.value
}

fn compare(s: &S) -> bool {
    s.routing.load().epoch >= s.cell.load().epoch
}

fn top_k_for_site(s: &S) -> u64 {
    s.cell.load().top.first().copied().unwrap_or(0)
}

fn stats(s: &S) -> u64 {
    s.cell.load().queries
}

fn publish(s: &S) {
    let _gate = s.gate.lock().unwrap();
}
