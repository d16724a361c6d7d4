//! Build script shared by the two staged crates.
//!
//! `crates/myproxy` does not compile at the commit this benchmark was written
//! against: `let metrics = ig_obs::Obs::global().metrics();` borrows from a
//! temporary `Arc` (E0716, `ca.rs` and `client.rs`). The change that adds the
//! benchmark may not edit the repository, so `staged/<name>` is a package that
//! compiles a copy of `crates/<name>/src`, made here at build time with that one
//! statement split in two. `crates/core` is staged only because it depends on
//! `ig-myproxy` by path. The copy follows the sources on every build, and the
//! build fails if the staged manifest's dependencies stop matching the crate's.
//! Once the statement is fixed upstream this script says so in a warning:
//! `../Cargo.toml` can then name `crates/` directly and `staged/` can go.

use std::collections::BTreeSet;
use std::path::Path;

const BROKEN: &str = "let metrics = ig_obs::Obs::global().metrics();";
const FIXED: &str = "let obs = ig_obs::Obs::global(); let metrics = obs.metrics();";

/// Copies `from` to `to` with [`BROKEN`] replaced; returns how many files had it.
fn copy_tree(from: &Path, to: &Path, root: bool) -> usize {
    std::fs::create_dir_all(to).expect("create staging directory");
    let mut patched = 0;
    for entry in std::fs::read_dir(from).expect("read crate sources") {
        let entry = entry.expect("read crate sources");
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if src.is_dir() {
            patched += copy_tree(&src, &dst, false);
            continue;
        }
        println!("cargo:rerun-if-changed={}", src.display());
        let original = std::fs::read_to_string(&src).expect("read source file");
        let mut text = original.replace(BROKEN, FIXED);
        patched += usize::from(text != original);
        if root && entry.file_name() == "lib.rs" {
            // The crate root is `include!`d, where inner doc comments are not allowed.
            text = text.replace("\n//!", "\n//").replacen("//!", "//", 1);
        }
        std::fs::write(&dst, text).expect("write staged file");
    }
    patched
}

/// Names under `[dependencies]` in the manifest at `path`.
fn dependency_names(path: &Path) -> BTreeSet<String> {
    println!("cargo:rerun-if-changed={}", path.display());
    let text = std::fs::read_to_string(path).expect("read manifest");
    text.lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split(['.', ' ', '=']).next())
        .filter(|name| !name.is_empty() && !name.starts_with('#'))
        .map(str::to_string)
        .collect()
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo");
    let staged = Path::new(&manifest);
    let name = staged.file_name().expect("staged/<name>").to_owned();
    let upstream = staged.join("../../../crates").join(&name);
    assert_eq!(
        dependency_names(&staged.join("Cargo.toml")),
        dependency_names(&upstream.join("Cargo.toml")),
        "benchmark/staged/{0}/Cargo.toml no longer lists the dependencies of crates/{0}/Cargo.toml",
        name.to_string_lossy()
    );
    println!("cargo:rerun-if-changed={}", upstream.join("src").display());
    let out = std::env::var("OUT_DIR").expect("set by cargo");
    let patched = copy_tree(&upstream.join("src"), &Path::new(&out).join("src"), true);
    if name == "myproxy" && patched == 0 {
        println!(
            "cargo:warning=crates/myproxy no longer has the E0716 statement: point \
             benchmark/Cargo.toml at ../crates/myproxy and ../crates/core and delete benchmark/staged/"
        );
    }
}
