//! Every dependency is a path dependency: the workspace builds offline from
//! the tree (`vendor/` holds the stand-ins for the crates.io crates). The
//! resolver's own record of that is `Cargo.lock`, in which a package from a
//! registry or a git remote carries a `source` field and a path package none.

/// The packages of a `Cargo.lock` text that carry a `source`.
fn sourced_packages(lock: &str) -> Vec<&str> {
    let mut name = "";
    let mut sourced = Vec::new();
    for line in lock.lines() {
        if line == "[[package]]" {
            name = "";
        } else if let Some(quoted) = line.strip_prefix("name = ") {
            name = quoted.trim_matches('"');
        } else if line.starts_with("source = ") {
            sourced.push(name);
        }
    }
    sourced
}

#[test]
fn every_locked_package_is_a_path_dependency() {
    let lock = include_str!("../Cargo.lock");
    assert!(
        lock.contains("name = \"acd-broker\""),
        "not the workspace lock"
    );
    assert_eq!(sourced_packages(lock), Vec::<&str>::new());
}

#[test]
fn a_registry_package_is_named() {
    let lock = r#"
[[package]]
name = "acd"
version = "0.1.0"

[[package]]
name = "rand"
version = "0.8.5"
source = "registry+https://github.com/rust-lang/crates.io-index"
checksum = "34af8d1a0e25924bc5b7c43c8f6a8fa6b8c4d5c6b4d5b6e9e2f4b0d8f0f2e2a1"
"#;
    assert_eq!(sourced_packages(lock), ["rand"]);
}
