//! `lmm-lint` bin: check the workspace, exit 1 on violations.
//!
//! Usage:
//! * `cargo run -p lmm-lint` — run every rule, print violations.
//! * `cargo run -p lmm-lint -- --update-golden` — regenerate
//!   `crates/cluster/wire_tags.golden` from the current codec, then run.

use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = lmm_lint::config::workspace();
    let root = lmm_lint::workspace_root();

    if std::env::args().any(|a| a == "--update-golden") {
        match lmm_lint::update_golden(&root, &cfg) {
            Ok(path) => println!("lmm-lint: wrote {}", path.display()),
            Err(e) => {
                eprintln!("lmm-lint: failed to update golden registry: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let violations = lmm_lint::run_workspace(&root, &cfg);
    let mut rendered = String::new();
    let count = lmm_lint::report::render(&violations, &mut rendered);
    print!("{rendered}");
    if count == 0 {
        println!(
            "lmm-lint: ok — {} files clean across {} rules",
            lmm_lint::collect_files(&root, &cfg).len(),
            8
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
