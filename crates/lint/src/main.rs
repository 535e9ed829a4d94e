//! `lmm-lint` bin: check the workspace, exit 1 on violations.
//!
//! Usage: `cargo run -p lmm-lint` — run every rule, print violations.

use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = lmm_lint::config::workspace();
    let root = lmm_lint::workspace_root();

    let violations = lmm_lint::run_workspace(&root, &cfg);
    let mut rendered = String::new();
    let count = lmm_lint::report::render(&violations, &mut rendered);
    print!("{rendered}");
    if count == 0 {
        println!(
            "lmm-lint: ok — {} files clean across {} rules",
            lmm_lint::collect_files(&root, &cfg).len(),
            7
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
