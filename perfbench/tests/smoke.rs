//! A seconds-long smoke run of all four workloads in both modes.

#[test]
fn smoke_run_of_all_workloads_is_correct() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .output()
        .expect("runs perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke run failed:\n{stdout}");
    let last = stdout.lines().last().expect("summary line");
    for w in [
        "sim-resident",
        "sim-streaming",
        "serve-fresh",
        "serve-cached",
    ] {
        for mode in [0, 1] {
            assert!(last.contains(&format!("\"{w}/{mode}\":true")), "{last}");
        }
    }
}
