//! End-to-end tests of the `ppm-cli` binary: encode a file across strip
//! files, destroy devices, repair with PPM, reassemble, compare bytes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, SystemTime};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ppm-cli"))
}

fn run_ok(args: &[&str]) -> Output {
    let out = cli().args(args).output().expect("spawn ppm-cli");
    assert!(
        out.status.success(),
        "ppm-cli {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn run_err(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn ppm-cli");
    assert!(
        !out.status.success(),
        "ppm-cli {args:?} unexpectedly succeeded"
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppm-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn make_input(dir: &Path, len: usize, seed: u8) -> PathBuf {
    let path = dir.join("input.bin");
    let data: Vec<u8> = (0..len)
        .map(|i| {
            (i as u64)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(seed as u64) as u8
        })
        .collect();
    std::fs::write(&path, data).unwrap();
    path
}

/// Name, length and modification time of every strip file in `archive`.
fn strip_files(archive: &Path) -> Vec<(String, u64, SystemTime)> {
    let mut files: Vec<_> = std::fs::read_dir(archive)
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("strip_"))
        .map(|entry| {
            let meta = entry.metadata().unwrap();
            (
                entry.file_name().to_string_lossy().into_owned(),
                meta.len(),
                meta.modified().unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// Encodes, then loses `kill_disks` twice: once repaired sequentially,
/// once with `--workers 2`. Each repair must leave the surviving strip
/// files untouched and the decoded file bit-exact.
fn roundtrip(tag: &str, spec: &str, kill_disks: &str, len: usize) {
    let dir = workdir(tag);
    let input = make_input(&dir, len, 7);
    let archive = dir.join("archive");
    let archive_s = archive.to_str().unwrap();
    let input_s = input.to_str().unwrap();

    run_ok(&[
        "encode",
        "--code",
        spec,
        "--sector-kib",
        "1",
        input_s,
        archive_s,
    ]);
    run_ok(&["verify", archive_s]);
    for repair in [["--threads", "2"], ["--workers", "2"]] {
        run_ok(&["corrupt", archive_s, "--disks", kill_disks]);

        // Data is unavailable until repaired.
        let err = run_err(&["decode", archive_s, dir.join("out.bin").to_str().unwrap()]);
        assert!(err.contains("unavailable"), "unexpected error: {err}");

        let survivors = strip_files(&archive);
        // Past the filesystem's coarse clock tick, a rewrite would move
        // a survivor's mtime.
        std::thread::sleep(Duration::from_millis(20));
        run_ok(&[&["repair", archive_s][..], &repair].concat());
        let after: Vec<_> = strip_files(&archive)
            .into_iter()
            .filter(|file| survivors.iter().any(|s| s.0 == file.0))
            .collect();
        assert_eq!(after, survivors, "{tag} {repair:?}: survivors rewritten");

        run_ok(&["verify", archive_s]);
        let out = dir.join("out.bin");
        run_ok(&["decode", archive_s, out.to_str().unwrap()]);
        let original = std::fs::read(&input).unwrap();
        let recovered = std::fs::read(&out).unwrap();
        assert_eq!(original, recovered, "{tag} {repair:?}: file must survive");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sd_roundtrip_two_disks_lost() {
    roundtrip("sd", "sd:6,4,2,1", "0,5", 300_000);
}

#[test]
fn lrc_roundtrip_spread_outage() {
    // (4,2,2)-LRC: lose one disk of group 0 and one global parity.
    roundtrip("lrc", "lrc:4,2,2,4", "1,7", 150_000);
}

#[test]
fn rs_roundtrip() {
    roundtrip("rs", "rs:4,2,4", "2,3", 100_000);
}

#[test]
fn evenodd_roundtrip() {
    roundtrip("evenodd", "evenodd:5", "0,6", 120_000);
}

#[test]
fn star_roundtrip_three_disks_lost() {
    roundtrip("star", "star:5", "0,3,7", 90_000);
}

#[test]
fn pmds_roundtrip() {
    roundtrip("pmds", "pmds:5,4,1,1", "2", 80_000);
}

#[test]
fn tiny_file_single_stripe() {
    roundtrip("tiny", "rdp:5", "1", 100);
}

#[test]
fn empty_file_roundtrip() {
    roundtrip("empty", "rs:4,2,4", "1", 0);
}

#[test]
fn exact_stripe_multiple_roundtrip() {
    // RS(6,4) with 4 rows of 1 KiB sectors holds 16 KiB per stripe.
    roundtrip("exact", "rs:4,2,4", "0,3", 5 * 16 * 1024);
}

/// A byte flipped on disk in a surviving strip is found by `repair
/// --verify`, and the located sector is written back: the archive then
/// verifies and decodes bit-exactly.
#[test]
fn verified_repair_heals_corruption_on_disk() {
    let dir = workdir("heal");
    let input = make_input(&dir, 100_000, 6);
    let archive = dir.join("a");
    let archive_s = archive.to_str().unwrap();
    run_ok(&[
        "encode",
        "--code",
        "sd:6,8,2,2",
        "--sector-kib",
        "1",
        input.to_str().unwrap(),
        archive_s,
    ]);
    // Stripe 1 of device 0 starts at 8 rows x 1 KiB.
    let strip = archive.join("strip_000.bin");
    let mut bytes = std::fs::read(&strip).unwrap();
    bytes[8 * 1024 + 100] ^= 0x5a;
    std::fs::write(&strip, bytes).unwrap();
    let err = run_err(&["verify", archive_s]);
    assert!(err.contains("stripe 1: parity check FAILED"), "{err}");

    run_ok(&["corrupt", archive_s, "--disks", "2"]);
    run_ok(&["repair", archive_s, "--verify"]);
    run_ok(&["verify", archive_s]);
    let out = dir.join("out.bin");
    run_ok(&["decode", archive_s, out.to_str().unwrap()]);
    assert_eq!(
        std::fs::read(&input).unwrap(),
        std::fs::read(&out).unwrap(),
        "the healed archive must decode bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn product_roundtrip_two_columns_lost() {
    roundtrip("pc", "pc:4,2,3,2", "1,4", 120_000);
}

#[test]
fn hitchhiker_roundtrip_m_disks_lost() {
    roundtrip("hh", "hh:5,3", "0,2,6", 120_000);
}

/// `--stats` on encode and repair emits the JSON telemetry summary, and
/// the executed mult_XOR ledger matches the planner's prediction.
#[test]
fn stats_flag_reports_matching_ledger() {
    let dir = workdir("stats");
    let input = make_input(&dir, 120_000, 5);
    let archive = dir.join("a");
    let archive_s = archive.to_str().unwrap();

    let out = run_ok(&[
        "encode",
        "--code",
        "sd:6,4,2,1",
        "--sector-kib",
        "1",
        "--stats",
        input.to_str().unwrap(),
        archive_s,
    ]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("\"matches_prediction\":true"), "{text}");
    assert!(text.contains("\"executed_mult_xors_total\":"), "{text}");
    // Encode runs through one session: the plan is built exactly once,
    // however many stripes the file spans.
    assert!(text.contains("\"cache\":{\"hits\":"), "{text}");
    assert!(text.contains("\"misses\":1,"), "{text}");

    run_ok(&["corrupt", archive_s, "--disks", "0,5"]);
    let out = run_ok(&["repair", archive_s, "--threads", "2", "--stats"]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("\"matches_prediction\":true"), "{text}");
    assert!(text.contains("\"cache\":{\"hits\":"), "{text}");
    assert!(text.contains("\"sample\":{"), "{text}");
    assert!(
        text.contains("\"predicted_mult_xors_per_stripe\":"),
        "{text}"
    );

    run_ok(&["verify", archive_s]);
    let out = dir.join("out.bin");
    run_ok(&["decode", archive_s, out.to_str().unwrap()]);
    assert_eq!(
        std::fs::read(&input).unwrap(),
        std::fs::read(&out).unwrap(),
        "stats-instrumented repair must still restore the file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace record that runs past the volume — including one whose
/// `offset + len` overflows `u64`, or whose `len` no allocation could
/// hold — is refused as an error naming the range, before any payload
/// is built, and the archive is left as it was.
#[test]
fn update_trace_rejects_out_of_range_records() {
    let dir = workdir("update-range");
    let input = make_input(&dir, 20_000, 4);
    let archive = dir.join("a");
    let archive_s = archive.to_str().unwrap();
    run_ok(&[
        "encode",
        "--code",
        "lrc:6,2,2,4",
        "--sector-kib",
        "1",
        input.to_str().unwrap(),
        archive_s,
    ]);
    let before = strip_files(&archive);
    for (i, record) in ["18446744073709551612,8", "0,18446744073709551615"]
        .iter()
        .enumerate()
    {
        let trace = dir.join(format!("trace{i}.csv"));
        std::fs::write(&trace, format!("{record}\n")).unwrap();
        let err = run_err(&["update", archive_s, "--trace", trace.to_str().unwrap()]);
        assert!(err.contains("outruns"), "{record}: {err}");
    }
    assert_eq!(strip_files(&archive), before, "no strip file was written");
    run_ok(&["verify", archive_s]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repair` without `--threads` decodes on the default budget,
/// `min(4, available cores)` — the rule `encode` follows — rather than
/// mapping four threads onto fewer cores.
#[test]
fn repair_defaults_threads_to_the_core_count() {
    let dir = workdir("threads");
    let input = make_input(&dir, 50_000, 3);
    let archive = dir.join("a");
    let archive_s = archive.to_str().unwrap();
    run_ok(&[
        "encode",
        "--code",
        "sd:6,4,2,1",
        "--sector-kib",
        "1",
        input.to_str().unwrap(),
        archive_s,
    ]);
    run_ok(&["corrupt", archive_s, "--disks", "0"]);
    let out = run_ok(&["repair", archive_s, "--stats"]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let want = format!("\"threads\":{}", cores.min(4));
    assert!(text.contains("\"sample\":{"), "{text}");
    assert!(text.contains(&want), "want {want}: {text}");
    run_ok(&["verify", archive_s]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag the command does not know is the usage error — never
/// swallowed as a key/value pair (which used to eat the next argument).
/// That includes the flags PR 12 removed.
#[test]
fn unknown_flags_are_usage_errors() {
    let dir = workdir("flags");
    let input = make_input(&dir, 20_000, 2);
    let archive = dir.join("a");
    let archive_s = archive.to_str().unwrap();
    run_ok(&[
        "encode",
        "--code",
        "rs:4,2,4",
        "--sector-kib",
        "1",
        input.to_str().unwrap(),
        archive_s,
    ]);
    run_ok(&["corrupt", archive_s, "--disks", "1"]);
    for flag in ["--cache", "--tape", "--bogus"] {
        let err = run_err(&["repair", archive_s, flag]);
        assert!(
            err.contains("unknown flag") && err.contains("usage: repair"),
            "{flag}: {err}"
        );
    }
    let err = run_err(&["verify", archive_s, "--stats"]);
    assert!(err.contains("usage: verify"), "{err}");
    let err = run_err(&["repair", archive_s, "--threads"]);
    assert!(err.contains("needs a value"), "{err}");
    // A number that does not parse is an error, not a silent default.
    let err = run_err(&["repair", archive_s, "--workers", "abc"]);
    assert!(err.contains("bad --workers"), "{err}");
    let err = run_err(&[
        "encode",
        "--code",
        "rs:4,2,4",
        "--sector-kib",
        "x",
        input.to_str().unwrap(),
        dir.join("b").to_str().unwrap(),
    ]);
    assert!(err.contains("bad --sector-kib"), "{err}");
    // Nothing above touched the archive: it still repairs.
    run_ok(&["repair", archive_s]);
    run_ok(&["verify", archive_s]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn info_reports_shape() {
    let dir = workdir("info");
    let input = make_input(&dir, 50_000, 1);
    let archive = dir.join("a");
    run_ok(&[
        "encode",
        "--code",
        "rs:4,2,4",
        "--sector-kib",
        "1",
        input.to_str().unwrap(),
        archive.to_str().unwrap(),
    ]);
    let out = run_ok(&["info", archive.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("RS(6,4)"), "{text}");
    assert!(text.contains("symmetric:    true"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unrepairable_outage_reported() {
    let dir = workdir("unrepairable");
    let input = make_input(&dir, 40_000, 3);
    let archive = dir.join("a");
    let archive_s = archive.to_str().unwrap();
    run_ok(&[
        "encode",
        "--code",
        "rs:4,2,4",
        "--sector-kib",
        "1",
        input.to_str().unwrap(),
        archive_s,
    ]);
    run_ok(&["corrupt", archive_s, "--disks", "0,1,2"]); // 3 > m = 2
    let err = run_err(&["repair", archive_s]);
    assert!(err.contains("unrepairable"), "unexpected error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_specs_rejected() {
    let dir = workdir("badspec");
    let input = make_input(&dir, 1000, 4);
    for spec in [
        "nope:1,2",
        "sd:1",
        "rs:0,0,0",
        "evenodd:4",
        "pc:4,2",
        "hh:5,1",
    ] {
        let err = run_err(&[
            "encode",
            "--code",
            spec,
            input.to_str().unwrap(),
            dir.join("x").to_str().unwrap(),
        ]);
        assert!(err.contains("error"), "spec {spec}: {err}");
    }
    let err = run_err(&[
        "encode",
        "--code",
        "rs:4,2,4",
        "--sector-kib",
        "0",
        input.to_str().unwrap(),
        dir.join("x").to_str().unwrap(),
    ]);
    assert!(err.starts_with("error: sector size"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_manifest_rejected() {
    let dir = workdir("badmanifest");
    // Missing manifest entirely.
    let err = run_err(&["info", dir.to_str().unwrap()]);
    assert!(err.contains("manifest"), "{err}");
    // Present but truncated.
    std::fs::write(dir.join("ppm-manifest.txt"), "code=rs:4,2,4\n").unwrap();
    let err = run_err(&["info", dir.to_str().unwrap()]);
    assert!(err.contains("missing"), "{err}");
    // Unparseable code spec inside the manifest.
    std::fs::write(
        dir.join("ppm-manifest.txt"),
        "code=bogus:1\nsector_bytes=1024\nstripes=1\nfile_len=10\n",
    )
    .unwrap();
    let err = run_err(&["info", dir.to_str().unwrap()]);
    assert!(err.contains("unknown code family"), "{err}");
    // Geometry a stripe buffer cannot hold, or a stripe count that
    // disagrees with the file length: a typed error, never a panic.
    for (fields, want) in [
        ("sector_bytes=0\nstripes=1\nfile_len=10", "sector size"),
        ("sector_bytes=12\nstripes=1\nfile_len=10", "sector size"),
        (
            "sector_bytes=1024\nstripes=7\nfile_len=10",
            "does not match",
        ),
        (
            "sector_bytes=1024\nstripes=1\nfile_len=16385",
            "does not match",
        ),
    ] {
        std::fs::write(
            dir.join("ppm-manifest.txt"),
            format!("code=rs:4,2,4\n{fields}\n"),
        )
        .unwrap();
        let err = run_err(&["verify", dir.to_str().unwrap()]);
        assert!(err.starts_with("error: ") && err.contains(want), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_rejects_out_of_range_disk() {
    let dir = workdir("badcorrupt");
    let input = make_input(&dir, 10_000, 9);
    let archive = dir.join("a");
    run_ok(&[
        "encode",
        "--code",
        "rs:4,2,4",
        "--sector-kib",
        "1",
        input.to_str().unwrap(),
        archive.to_str().unwrap(),
    ]);
    let err = run_err(&["corrupt", archive.to_str().unwrap(), "--disks", "99"]);
    assert!(err.contains("out of range"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
