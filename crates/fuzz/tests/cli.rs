//! The `lr-fuzz` command line: a campaign that cannot run as asked is
//! a usage error (exit 2), not a clean pass.

use std::process::Command;

/// A seed range whose end overflows `u64` is refused, rather than
/// wrapped into an empty range that checks nothing and exits 0.
#[test]
fn overflowing_seed_range_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_lr-fuzz"))
        .args(["--base-seed", "18446744073709551615", "--seeds", "2"])
        .output()
        .expect("lr-fuzz starts");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "no campaign may start");
}
