//! The workspace invariants are clippy lints, and CI's
//! `cargo clippy --workspace --all-targets -- -D warnings` is the gate
//! that finds violations. This test only guards the configuration:
//! dropping a rule from `clippy.toml`, the workspace lint table or a
//! hot-path file header would otherwise switch the rule off silently.

use std::fs;
use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn clippy_config_states_every_invariant() {
    let config = read("clippy.toml");
    let (methods, types) = config
        .split_once("disallowed-types")
        .expect("clippy.toml lists disallowed-types after disallowed-methods");
    for path in [
        "std::thread::spawn",
        "std::thread::scope",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
    ] {
        assert!(
            methods.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer disallows the method `{path}`"
        );
    }
    for path in ["std::thread::Builder", "std::time::SystemTime"] {
        assert!(
            types.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer disallows the type `{path}`"
        );
    }

    assert!(
        read("Cargo.toml").contains("undocumented_unsafe_blocks = \"warn\""),
        "the workspace lint table no longer asks for SAFETY comments"
    );

    let deny = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]";
    for hot_path in ["crates/core/src/analytic.rs", "crates/core/src/engine.rs"] {
        assert!(
            read(hot_path).lines().any(|line| line == deny),
            "{hot_path} no longer denies unwrap/expect"
        );
    }
}
